"""Parallel matrix runner: determinism, caching, errors reaching the caller."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_matrix, run_matrix_parallel
from repro.experiments.store import ResultCache
import repro.experiments.parallel as parallel_mod

#: Two stand-ins of different size (TW has ~3.7x PK's edges), so the
#: pooled runner's largest-first submission reorders the cells.
GRAPHS = ["PK", "TW"]
ALGORITHMS = ["bfs", "pagerank"]
SYSTEMS = ["GraphDynS-128", "ScalaGraph-512"]
KW = dict(scale_shift=-5, max_iterations=4)


@pytest.fixture(scope="module")
def serial_matrix():
    return run_matrix(GRAPHS, ALGORITHMS, SYSTEMS, **KW)


def cell_dicts(matrix):
    return {
        key: json.dumps(report.to_dict(include_iterations=True))
        for key, report in matrix.reports.items()
    }


class TestParallelEqualsSerial:
    def test_workers_2_identical(self, serial_matrix):
        par = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, **KW
        )
        assert list(par.reports) == list(serial_matrix.reports)
        assert cell_dicts(par) == cell_dicts(serial_matrix)

    def test_workers_1_serial_path(self, serial_matrix):
        par = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=1, **KW
        )
        assert cell_dicts(par) == cell_dicts(serial_matrix)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ConfigurationError):
            run_matrix_parallel(GRAPHS, ALGORITHMS, SYSTEMS, max_workers=0, **KW)
        with pytest.raises(ConfigurationError):
            run_matrix_parallel(GRAPHS, ALGORITHMS, SYSTEMS, max_workers=-2, **KW)

    def test_matrix_helpers_preserved(self, serial_matrix):
        par = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, **KW
        )
        assert par.systems() == serial_matrix.systems()
        assert par.cells() == serial_matrix.cells()
        assert par.speedup(
            "ScalaGraph-512", "GraphDynS-128"
        ) == pytest.approx(
            serial_matrix.speedup("ScalaGraph-512", "GraphDynS-128")
        )


class TestSubmissionOrder:
    def test_largest_cells_submitted_first(self, serial_matrix, monkeypatch):
        """Cells go to the pool largest stand-in first, stable within a
        graph; the matrix still comes back in nominal order."""
        submitted = []
        real_pooled = parallel_mod._run_jobs_pooled

        def recording(jobs, *args, **kwargs):
            submitted.extend(jobs)
            return real_pooled(jobs, *args, **kwargs)

        monkeypatch.setattr(parallel_mod, "_run_jobs_pooled", recording)
        par = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, **KW
        )
        assert [(g, a) for g, a, _ in submitted] == [
            ("TW", "bfs"),
            ("TW", "pagerank"),
            ("PK", "bfs"),
            ("PK", "pagerank"),
        ]
        assert list(par.reports) == list(serial_matrix.reports)


class UnpicklableWorker:
    """A cell worker that refuses to cross the process boundary."""

    def __call__(self, *args):  # pragma: no cover - never reaches a worker
        return []

    def __reduce__(self):
        raise pickle.PicklingError("worker will not pickle")


class TestPoolErrors:
    def test_unpicklable_payload_reaches_caller(self, monkeypatch):
        """A payload that will not pickle fails its cell through the
        future, like an error the cell raises: no serial rerun."""
        monkeypatch.setattr(parallel_mod, "_cell_worker", UnpicklableWorker())
        with pytest.raises(pickle.PicklingError, match="will not pickle"):
            run_matrix_parallel(
                ["PK"], ALGORITHMS, SYSTEMS, max_workers=2, **KW
            )


class TestCaching:
    def test_cold_then_warm(self, tmp_path, serial_matrix):
        cache = ResultCache(tmp_path / "cache")
        cold = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, cache=cache, **KW
        )
        ncells = len(cold.reports)
        assert cache.stats.misses == ncells
        assert cache.stats.stores == ncells
        assert cache.stats.hits == 0

        warm = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=2, cache=cache, **KW
        )
        assert cache.stats.hits == ncells
        assert cache.stats.stores == ncells  # nothing recomputed
        # Warm-cache cells serialise identically to fresh ones.
        assert cell_dicts(warm) == cell_dicts(serial_matrix)

    def test_partial_cache_fills_only_missing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_matrix_parallel(
            GRAPHS, ["bfs"], SYSTEMS, max_workers=1, cache=cache, **KW
        )
        stores_before = cache.stats.stores
        full = run_matrix_parallel(
            GRAPHS, ALGORITHMS, SYSTEMS, max_workers=1, cache=cache, **KW
        )
        # Only the pagerank cells were computed and stored.
        cells = len(GRAPHS) * len(SYSTEMS)
        assert cache.stats.stores == stores_before + cells
        assert len(full.reports) == cells * len(ALGORITHMS)
        # Deterministic nominal order even with mixed cached/fresh cells.
        assert list(full.reports) == [
            (g, a, s)
            for g in GRAPHS
            for a in ALGORITHMS
            for s in SYSTEMS
        ]

    def test_refresh_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_matrix_parallel(
            GRAPHS, ["bfs"], SYSTEMS, max_workers=1, cache=cache, **KW
        )
        stores_before = cache.stats.stores
        run_matrix_parallel(
            GRAPHS,
            ["bfs"],
            SYSTEMS,
            max_workers=1,
            cache=cache,
            refresh=True,
            **KW,
        )
        assert cache.stats.stores == 2 * stores_before
        assert cache.stats.hits == 0

    def test_serial_run_matrix_uses_cache_too(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = len(GRAPHS) * len(SYSTEMS)
        run_matrix(GRAPHS, ["bfs"], SYSTEMS, cache=cache, **KW)
        assert cache.stats.stores == cells
        run_matrix(GRAPHS, ["bfs"], SYSTEMS, cache=cache, **KW)
        assert cache.stats.hits == cells
