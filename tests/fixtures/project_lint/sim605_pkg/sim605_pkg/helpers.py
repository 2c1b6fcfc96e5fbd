"""One helper per SIM605 case: what counts as a use and what does not."""

from dataclasses import dataclass

REGISTRY = []


def register(fn):
    REGISTRY.append(fn)
    return fn


@register
def registered():
    """Reached through REGISTRY, never by name: counts as used."""
    return 0


def in_table():
    """Reached through TABLE: a registry entry counts as used."""
    return 1


TABLE = {"one": in_table}


def used_in_module():
    """Loaded by caller() below: a use in its own module counts."""
    return 2


def caller():
    total = used_in_module()
    return total


def used_by_consumer():
    """Loaded by the consumer root: counts as used."""
    return 3


def only_tested():
    """Re-exported and listed in __all__, loaded only by checks/:
    flagged."""
    return 4


def recursive(n):
    """Loaded only inside its own body: flagged."""
    return 0 if n == 0 else recursive(n - 1)


@dataclass
class UnusedRecord:
    """``@dataclass`` registers nothing: flagged."""

    value: int = 0


def _private():
    """Private names are never candidates."""
    return 5


class Widget:
    """A public class's public members are candidates too."""

    def used_by_consumer(self):
        """Called by the consumer root: counts as used."""
        return 6

    def only_tested_method(self):
        """Called only by checks/: flagged."""
        return 7

    @property
    def only_tested_property(self):
        """Read only by checks/: flagged once, setter included."""
        return 8

    @only_tested_property.setter
    def only_tested_property(self, value):
        pass

    def total(self):
        """Its name is loaded only bare, as caller()'s local variable:
        flagged."""
        return 10

    def _private_method(self):
        """Private members are never candidates."""
        return 9
