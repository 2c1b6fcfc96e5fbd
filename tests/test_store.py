"""Experiment persistence tests."""

import json
import multiprocessing

import pytest

from repro.core.stats import SimulationReport
from repro.errors import ReproError
from repro.experiments import (
    CODE_MODEL_VERSION,
    ResultCache,
    dataset_fingerprint,
    load_matrix_summaries,
    run_matrix,
    save_matrix,
)


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(
        graphs=["PK"],
        algorithms=["bfs"],
        systems=["GraphDynS-128", "ScalaGraph-512"],
        scale_shift=-4,
    )


class TestSaveLoad:
    def test_round_trip(self, matrix, tmp_path):
        path = tmp_path / "matrix.json"
        save_matrix(matrix, path)
        loaded = load_matrix_summaries(path)
        assert set(loaded) == set(matrix.reports)
        for key, report in matrix.reports.items():
            assert loaded[key]["gteps"] == pytest.approx(report.gteps)
            assert loaded[key]["total_cycles"] == report.total_cycles

    def test_iterations_persisted(self, matrix, tmp_path):
        path = tmp_path / "matrix.json"
        save_matrix(matrix, path)
        loaded = load_matrix_summaries(path)
        key = next(iter(loaded))
        assert len(loaded[key]["iterations"]) == len(
            matrix.reports[key].iterations
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_matrix_summaries(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_matrix_summaries(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "cells": []}))
        with pytest.raises(ReproError):
            load_matrix_summaries(path)


class TestDatasetFingerprint:
    def test_deterministic(self):
        assert dataset_fingerprint("PK", "bfs") == dataset_fingerprint(
            "PK", "bfs"
        )

    def test_sensitive_to_inputs(self):
        base = dataset_fingerprint("PK", "bfs", scale_shift=0)
        assert dataset_fingerprint("PK", "bfs", scale_shift=-1) != base
        assert dataset_fingerprint("LJ", "bfs") != base
        # sssp loads weights, bfs does not -> different graph bytes.
        assert dataset_fingerprint("PK", "sssp") != base
        # bfs and pagerank read the same unweighted graph.
        assert dataset_fingerprint("PK", "pagerank") == base

    def test_unknown_graph_raises(self):
        with pytest.raises(ReproError):
            dataset_fingerprint("NOPE", "bfs")


class TestResultCache:
    CELL = ("PK", "bfs", "ScalaGraph-512")

    @pytest.fixture
    def report(self, matrix):
        return matrix.reports[("PK", "bfs", "ScalaGraph-512")]

    def test_miss_then_hit_round_trip(self, tmp_path, report):
        cache = ResultCache(tmp_path / "c")
        assert cache.get(*self.CELL, scale_shift=-4) is None
        cache.put(*self.CELL, report, scale_shift=-4)
        loaded = cache.get(*self.CELL, scale_shift=-4)
        assert loaded is not None
        assert json.dumps(
            loaded.to_dict(include_iterations=True)
        ) == json.dumps(report.to_dict(include_iterations=True))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        base = cache.key(*self.CELL, scale_shift=-4)
        assert cache.key(*self.CELL, scale_shift=-3) != base
        assert cache.key("PK", "bfs", "GraphDynS-128", scale_shift=-4) != base
        assert cache.key(*self.CELL, scale_shift=-4, max_iterations=3) != base
        assert cache.key(*self.CELL, scale_shift=-4) == base

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, report):
        cache = ResultCache(tmp_path / "c")
        cache.put(*self.CELL, report, scale_shift=-4)
        for path in (tmp_path / "c").glob("*.json"):
            path.write_text("{broken")
        assert cache.get(*self.CELL, scale_shift=-4) is None
        assert cache.stats.invalid == 1

    def test_model_version_mismatch_is_a_miss(self, tmp_path, report):
        old = ResultCache(tmp_path / "c", model_version="0.0-old")
        old.put(*self.CELL, report, scale_shift=-4)
        new = ResultCache(tmp_path / "c")
        assert new.model_version == CODE_MODEL_VERSION
        # Different version -> different key -> plain miss.
        assert new.get(*self.CELL, scale_shift=-4) is None

    def test_prune_removes_stale_versions(self, tmp_path, report):
        old = ResultCache(tmp_path / "c", model_version="0.0-old")
        old.put(*self.CELL, report, scale_shift=-4)
        new = ResultCache(tmp_path / "c")
        new.put(*self.CELL, report, scale_shift=-4)
        assert len(new) == 2
        assert new.prune() == 1
        assert len(new) == 1
        assert new.get(*self.CELL, scale_shift=-4) is not None

    def test_clear(self, tmp_path, report):
        cache = ResultCache(tmp_path / "c")
        cache.put(*self.CELL, report, scale_shift=-4)
        assert cache.clear() == 1
        assert len(cache) == 0


def _put_hammer(root, report_payload, count):
    """Child-process body for the concurrent put test."""
    cache = ResultCache(root)
    report = SimulationReport.from_dict(report_payload)
    for _ in range(count):
        cache.put("PK", "bfs", "ScalaGraph-512", report, scale_shift=-4)


class TestConcurrentPut:
    """Two processes hammering the same key never corrupt the entry.

    Regression test for the shared ``<key>.tmp`` staging file: with a
    per-key temp name, two writers interleave partial content and the
    rename publishes a torn payload.  The mkstemp-per-writer scheme
    must keep every concurrently-observed read a complete document.
    """

    def test_two_process_same_key_hammer(self, matrix, tmp_path):
        report = matrix.reports[("PK", "bfs", "ScalaGraph-512")]
        root = tmp_path / "c"
        payload = report.to_dict(include_iterations=True)
        writers = [
            multiprocessing.Process(
                target=_put_hammer, args=(root, payload, 50)
            )
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        reader = ResultCache(root)
        try:
            # Read concurrently with the writers: every observed entry
            # must be a complete payload (miss until the first publish,
            # hit after — never invalid).
            while any(proc.is_alive() for proc in writers):
                reader.get("PK", "bfs", "ScalaGraph-512", scale_shift=-4)
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        assert reader.stats.invalid == 0
        final = reader.get("PK", "bfs", "ScalaGraph-512", scale_shift=-4)
        assert final is not None
        assert json.dumps(
            final.to_dict(include_iterations=True)
        ) == json.dumps(payload)
        # No staging litter: every mkstemp file was renamed or removed.
        assert list(root.glob(".put-*.tmp")) == []
