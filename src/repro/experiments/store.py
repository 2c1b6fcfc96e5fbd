"""Persistence for experiment results.

Full sweeps take minutes; this module provides two layers:

* :func:`save_matrix` / :func:`load_matrix_summaries` — save a whole
  :class:`~repro.experiments.runner.ExperimentMatrix` as one JSON file
  for offline analysis (gold property arrays are summarised, not
  embedded — rerun the reference engine if you need them).
* :class:`ResultCache` — a per-cell on-disk cache the matrix runners
  consult, keyed by (dataset fingerprint, run-config hash, code-model
  version), so re-running a sweep recomputes only stale cells.  Cached
  cells round-trip through :meth:`SimulationReport.to_dict` exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import repro
from repro.core.stats import SimulationReport
from repro.errors import ReproError
from repro.experiments.runner import (
    WEIGHTED_ALGORITHMS,
    ExperimentMatrix,
)
from repro.graph.datasets import DATASETS

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

#: Attempts one ``put`` makes before propagating a persistent OSError.
_PUT_ATTEMPTS = 3

#: Version stamp mixed into every cache key.  The package version covers
#: intentional releases; the trailing revision must be bumped whenever a
#: timing-model change alters report contents between releases —
#: otherwise stale cells would be served silently.
CODE_MODEL_VERSION = f"{repro.__version__}+cache1"


def save_matrix(matrix: ExperimentMatrix, path: PathLike) -> None:
    """Write a matrix's reports to a JSON file."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "cells": [
            {
                "graph": graph,
                "algorithm": algorithm,
                "system": system,
                "report": report.to_dict(include_iterations=True),
            }
            for (graph, algorithm, system), report in matrix.reports.items()
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_matrix_summaries(
    path: PathLike,
) -> Dict[Tuple[str, str, str], dict]:
    """Load saved reports as plain dicts keyed like the matrix.

    Returns summary dicts (not SimulationReport objects — the gold
    properties are not persisted), suitable for plotting and
    comparison.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot load experiment store {path}: {exc}") from exc
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ReproError(
            f"{path}: unsupported format version "
            f"{payload.get('format_version')!r}"
        )
    out: Dict[Tuple[str, str, str], dict] = {}
    for cell in payload["cells"]:
        key = (cell["graph"], cell["algorithm"], cell["system"])
        out[key] = cell["report"]
    return out


def dataset_fingerprint(
    graph_name: str, algorithm: str, scale_shift: int = 0
) -> str:
    """Deterministic fingerprint of one cell's input graph.

    The benchmark graphs are synthesised deterministically from a
    :class:`~repro.graph.datasets.DatasetSpec`, so the fingerprint
    hashes the full generation recipe — spec key, effective scale, edge
    factor, skew, and whether the algorithm loads weights — without
    materialising the graph.  Any change to the stand-in recipe (or a
    new weighted algorithm) changes the fingerprint and invalidates the
    cached cells that depend on it.
    """
    upper = graph_name.upper()
    spec = DATASETS.get(upper)
    if spec is None:
        for candidate in DATASETS.values():
            if candidate.full_name.upper() == upper:
                spec = candidate
                break
    if spec is None:
        raise ReproError(f"cannot fingerprint unknown dataset {graph_name!r}")
    material = {
        "key": spec.key,
        "scale": spec.scale + scale_shift,
        "edge_factor": spec.edge_factor,
        "skew": spec.skew,
        "weighted": algorithm.lower() in WEIGHTED_ALGORITHMS,
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # unreadable or version-mismatched entries

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
        }


class ResultCache:
    """On-disk cache of per-cell :class:`SimulationReport` results.

    One JSON file per cell under ``root``, named by the SHA-256 of the
    cell's key material: the dataset fingerprint, the run configuration
    (system label, algorithm, iteration cap), and
    :data:`CODE_MODEL_VERSION`.  Anything that could change a cell's
    report changes its key, so invalidation is automatic — stale files
    are simply never looked up again (``prune`` removes them).

    Cached reports are rebuilt with :meth:`SimulationReport.from_dict`;
    their :meth:`~SimulationReport.to_dict` output is identical to the
    freshly computed report's, so warm and cold sweeps serialise the
    same (gold property arrays are summarised, not persisted).
    """

    def __init__(
        self,
        root: PathLike,
        model_version: str = CODE_MODEL_VERSION,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.model_version = model_version
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key(
        self,
        graph_name: str,
        algorithm: str,
        system: str,
        scale_shift: int = 0,
        max_iterations: Optional[int] = None,
    ) -> str:
        material = {
            "dataset": dataset_fingerprint(graph_name, algorithm, scale_shift),
            "graph": graph_name,
            "algorithm": algorithm,
            "system": system,
            "max_iterations": max_iterations,
            "model_version": self.model_version,
        }
        return hashlib.sha256(
            json.dumps(material, sort_keys=True).encode()
        ).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------
    def get(
        self,
        graph_name: str,
        algorithm: str,
        system: str,
        scale_shift: int = 0,
        max_iterations: Optional[int] = None,
    ) -> Optional[SimulationReport]:
        """The cached report for one cell, or None on a miss.

        Unreadable or version-mismatched entries count as misses (and
        as ``stats.invalid``) rather than raising — a corrupt cache
        must never break a sweep.  The offending file is deleted so the
        recomputed result can be re-cached cleanly (a truncated entry —
        e.g. from a worker killed mid-write outside the atomic-rename
        path — would otherwise shadow every future write-back attempt's
        read).
        """
        path = self._path(
            self.key(graph_name, algorithm, system, scale_shift, max_iterations)
        )
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("format_version") != _FORMAT_VERSION:
                raise ReproError("format version mismatch")
            report = SimulationReport.from_dict(payload["report"])
        except (OSError, KeyError, TypeError, ValueError, ReproError):
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # unreadable *and* undeletable: still just a miss
            return None
        self.stats.hits += 1
        return report

    def put(
        self,
        graph_name: str,
        algorithm: str,
        system: str,
        report: SimulationReport,
        scale_shift: int = 0,
        max_iterations: Optional[int] = None,
    ) -> None:
        """Persist one cell's report, safely under concurrent writers.

        Multiple processes may put the same key at once (daemon workers
        racing a batch CLI sweep), so the staging file must be unique
        per writer: a shared ``<key>.tmp`` would let two writers
        interleave partial content before one of them renames it into
        place.  Each call therefore stages through its own
        ``mkstemp``-created file, fsyncs it, and publishes with the
        atomic ``os.replace`` — readers only ever observe a complete
        payload (last writer wins).  A transient ``OSError`` on the
        rename (e.g. a concurrent ``clear()`` removing the directory
        entry) is retried a couple of times before propagating; the
        staging file is always cleaned up.
        """
        key = self.key(
            graph_name, algorithm, system, scale_shift, max_iterations
        )
        payload = {
            "format_version": _FORMAT_VERSION,
            "cell": {
                "graph": graph_name,
                "algorithm": algorithm,
                "system": system,
                "scale_shift": scale_shift,
                "max_iterations": max_iterations,
                "model_version": self.model_version,
            },
            "report": report.to_dict(include_iterations=True),
        }
        path = self._path(key)
        text = json.dumps(payload)
        last_error: Optional[OSError] = None
        for _ in range(_PUT_ATTEMPTS):
            try:
                fd, tmp_name = tempfile.mkstemp(
                    dir=self.root, prefix=".put-", suffix=".tmp"
                )
            except OSError as exc:
                # Cache directory vanished under us (concurrent clear):
                # recreate and retry.
                last_error = exc
                self.root.mkdir(parents=True, exist_ok=True)
                continue
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_name, path)
            except OSError as exc:
                last_error = exc
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass  # best-effort staging cleanup
                continue
            self.stats.stores += 1
            return
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def prune(self) -> int:
        """Delete entries written under a different model version.

        Returns the number of files removed.
        """
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
                version = payload["cell"]["model_version"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError):
                version = None
            if version != self.model_version:
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Also sweeps stale ``.put-*.tmp`` staging files left behind by
        writers that crashed between ``mkstemp`` and ``os.replace``
        (they are harmless — never read — but accumulate).
        """
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob(".put-*.tmp"):
            path.unlink(missing_ok=True)
        return removed
