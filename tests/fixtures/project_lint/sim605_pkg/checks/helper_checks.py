"""Assertion root: loads here never count as uses."""

from sim605_pkg import only_tested
from sim605_pkg.helpers import UnusedRecord, recursive


def check_helpers():
    assert only_tested() == 4
    assert recursive(3) == 0
    assert UnusedRecord().value == 0
