"""Consumer root: code outside the package whose loads count."""

from sim605_pkg import used_by_consumer
from sim605_pkg.helpers import Widget, caller


def main():
    return used_by_consumer() + caller() + Widget().used_by_consumer()
