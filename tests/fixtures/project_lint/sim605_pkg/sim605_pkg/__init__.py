"""Fixture: public code that only tests reach (SIM605)."""

from sim605_pkg.helpers import only_tested, used_by_consumer

__all__ = ["only_tested", "used_by_consumer"]
