"""Vectorized engine: same knobs, same stats, loads the dead-link mask
whole (the same link-outage fault kind as the reference)."""

import numpy as np

from sim601_pkg.config import EngineConfig
from sim601_pkg.stats import EngineStats

ENGINE_TWIN = {
    "pair": "fixture-engine",
    "reference": "sim601_pkg.ref_engine",
}

BUFFER_DTYPES = {
    "_vid": "int64",
    "_val": "float64",
}


class FastEngine:
    def __init__(self, config: EngineConfig, faults=None) -> None:
        self.config = config
        self.faults = faults
        self.stats = EngineStats()
        self._vid = np.zeros(config.depth, dtype=np.int64)
        self._val = np.zeros(config.depth, dtype=np.float64)

    def run(self) -> None:
        cfg = self.config
        if self.faults is not None:
            self.faults.link_dead_mask(self.stats.cycles)
        self.stats.cycles += cfg.window
        # DRIFT: the reference emits stats.delivered; this twin forgot.
        _ = cfg.depth
