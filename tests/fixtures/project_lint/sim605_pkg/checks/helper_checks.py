"""Assertion root: loads here never count as uses."""

from sim605_pkg import only_tested
from sim605_pkg.helpers import UnusedRecord, Widget, recursive


def check_helpers():
    assert only_tested() == 4
    assert recursive(3) == 0
    assert UnusedRecord().value == 0
    assert Widget().only_tested_method() == 7
    assert Widget().only_tested_property == 8
