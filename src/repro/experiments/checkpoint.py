"""Crash-safe sweep checkpointing.

A :class:`SweepCheckpoint` journals a sweep's completed (graph,
algorithm, system) cells.  The parallel runner appends each cell's
report the moment it lands (fsync'd), so an interrupted sweep — killed
workers, OOM, ctrl-C, power loss — loses at most the cells that were
literally in flight; re-invoking the sweep with the same checkpoint
path resumes from the journal instead of recomputing.

The file is a one-request journal in the daemon's format
(:class:`~repro.experiments.executor.Journal`): the sweep's identity
(axes, scale shift, iteration cap, model version) is the request, its
SHA-256 digest the request id, and every completed cell a ``cell``
record carrying the full report.  A checkpoint written for a
*different* sweep — or in another format, such as the retired
``repro-sweep-checkpoint/1`` — is ignored and rewritten rather than
trusted: resuming PageRank cells into a BFS sweep would silently
corrupt the matrix.  A torn final line (the writer died mid-append) is
dropped on load and truncated before the next append.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.stats import SimulationReport
from repro.experiments.executor import Journal, replay_journal

#: A (graph, algorithm, system) cell key.
CellKey = Tuple[str, str, str]


class SweepCheckpoint:
    """Append-only journal of a sweep's completed cells.

    Args:
        path: journal file location (created on first append; parent
            directories are created as needed).
        signature: JSON-serialisable description of the sweep's identity
            (axes, scale shift, iteration cap, model version).  A
            journal of any other signature belongs to a different sweep
            and is discarded.
    """

    def __init__(self, path: os.PathLike, signature: Dict) -> None:
        self.path = Path(path)
        self.signature = signature
        self.digest = hashlib.sha256(
            json.dumps(signature, sort_keys=True, default=str).encode()
        ).hexdigest()
        self._journal: Optional[Journal] = None

    def load(self) -> Dict[CellKey, SimulationReport]:
        """Completed cells journaled by a previous (interrupted) run.

        Returns an empty mapping when the file is absent, belongs to
        another sweep, or is corrupt before any cell landed.  Parsing
        stops at the first torn/undecodable record; for duplicate keys
        the last complete entry wins.
        """
        cells: Dict[CellKey, SimulationReport] = {}
        for record in replay_journal(self.path).cells.get(self.digest, []):
            try:
                key = (record["graph"], record["algorithm"], record["system"])
                cells[key] = SimulationReport.from_dict(record["report"])
            except (KeyError, TypeError, ValueError):
                break
        return cells

    def start(self, reset: bool = False) -> None:
        """Open the journal for appending.

        A journal of this sweep is kept (its cells stay resumable, a
        torn tail is cut off); anything else — or ``reset=True`` — is
        rewritten from scratch.
        """
        valid_bytes = 0
        if not reset:
            replay = replay_journal(self.path)
            if self.digest in replay.requests:
                valid_bytes = replay.valid_bytes
        self._journal = Journal(self.path, valid_bytes=valid_bytes)
        if valid_bytes == 0:
            self._journal.append(
                {
                    "kind": "request",
                    "request_id": self.digest,
                    "request": self.signature,
                }
            )

    def append(self, key: CellKey, report: SimulationReport) -> None:
        """Journal one completed cell (flushed and fsync'd: after this
        returns the cell survives any crash)."""
        if self._journal is None:
            self.start()
        assert self._journal is not None
        graph, algorithm, system = key
        self._journal.append(
            {
                "kind": "cell",
                "request_id": self.digest,
                "graph": graph,
                "algorithm": algorithm,
                "system": system,
                "report": report.to_dict(include_iterations=True),
            }
        )

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "SweepCheckpoint":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
