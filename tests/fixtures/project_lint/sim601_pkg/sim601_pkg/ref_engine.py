"""Reference engine: consumes both knobs, emits both stats, reads the
dead-link mask row by row and the HBM bandwidth fraction, a fault
schedule property its twin never reads."""

from sim601_pkg.config import EngineConfig
from sim601_pkg.stats import EngineStats


class RefEngine:
    def __init__(self, config: EngineConfig, faults=None) -> None:
        self.config = config
        self.faults = faults
        self.stats = EngineStats()

    def run(self) -> None:
        cfg = self.config
        budget = cfg.window * cfg.depth
        if self.faults is not None:
            self.faults.link_dead_mask(self.stats.cycles)[0]
            # DRIFT: a fault kind read through a property.
            budget *= self.faults.hbm_bandwidth_fraction
        self.stats.cycles += 1
        self.stats.delivered += budget
