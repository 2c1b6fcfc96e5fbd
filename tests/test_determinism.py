"""stable_seed determinism contract (see repro.graph.datasets).

Two *fresh processes* — even with different ``PYTHONHASHSEED`` — must
generate byte-identical stand-in graphs for the same dataset spec.  The
result cache and cross-process comparisons depend on it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.graph
from repro.algorithms import make_algorithm, run_reference
from repro.graph import load_dataset, stable_seed
from repro.graph.datasets import _stable_seed
from repro.graph.generators import erdos_renyi, power_law_graph, rmat_graph

_SRC_DIR = str(Path(repro.__file__).parents[1])

#: Run in a subprocess: fingerprint one generated dataset.
_FINGERPRINT_SCRIPT = """
import hashlib
from repro.graph import load_dataset, stable_seed

graph = load_dataset("PK", scale_shift=-6, weighted=True)
digest = hashlib.sha256()
digest.update(graph.indptr.tobytes())
digest.update(graph.indices.tobytes())
digest.update(graph.weights.tobytes())
print(stable_seed("PK"), digest.hexdigest())
"""


def _fingerprint_in_fresh_process(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


class TestStableSeedContract:
    def test_two_fresh_processes_agree_bytewise(self):
        first = _fingerprint_in_fresh_process("0")
        second = _fingerprint_in_fresh_process("424242")
        assert first == second
        assert len(first.split()[1]) == 64  # a real sha256, not an error

    def test_frozen_formula(self):
        """The formula is an on-disk format: changing it invalidates
        every cached result.  Pin known values."""
        assert stable_seed("") == 0
        assert stable_seed("A") == ord("A")
        assert stable_seed("PK") == ord("P") + ord("K") * 131
        assert stable_seed("PK") == 9905
        assert 0 <= stable_seed("TW" * 40) < 2**31

    def test_exported_from_package(self):
        assert "stable_seed" in repro.graph.__all__
        assert repro.graph.stable_seed is stable_seed

    def test_private_alias_preserved(self):
        assert _stable_seed is stable_seed

    def test_in_process_regeneration_is_identical(self):
        a = load_dataset("LJ", scale_shift=-6)
        b = load_dataset("LJ", scale_shift=-6)
        assert (a.indptr == b.indptr).all()
        assert (a.indices == b.indices).all()

    def test_weight_seed_is_offset_from_structure_seed(self):
        """Weights draw from stable_seed(key) + 1, so structure and
        weights are decorrelated but both deterministic."""
        a = load_dataset("OR", scale_shift=-6, weighted=True)
        b = load_dataset("OR", scale_shift=-6, weighted=True)
        assert (a.weights == b.weights).all()
        digest = hashlib.sha256(a.weights.tobytes()).hexdigest()
        assert digest == hashlib.sha256(b.weights.tobytes()).hexdigest()


def _graph_digest(graph):
    """sha256 of the graph's ``indptr``, ``indices`` and (when present)
    ``weights`` bytes, in that order."""
    digest = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.weights):
        if array is not None:
            digest.update(array.tobytes())
    return digest.hexdigest()


#: Graph bytes are an on-disk format: the result cache keys cells by
#: graph content, so a generator rewrite must reproduce every byte.
#: Each graph is pinned to the digest the int64 edge-list build gave.
_PINNED_GRAPHS = {
    "rmat14": (
        lambda: rmat_graph(14, seed=17),
        "c71893acedbdee734c3583231a0ffc2a218d1a280fe10dad5964def8f6dc3440",
    ),
    "PK": (
        lambda: load_dataset("PK", scale_shift=-4, weighted=True),
        "5e034304441df63ad4ba12f128eb4b38bd2d1feb7309a73151091273c94b0bcf",
    ),
    "LJ": (
        lambda: load_dataset("LJ", scale_shift=-4, weighted=True),
        "6859612b0e620ff9485da0caabf6eb92be85b9a67a9f9df520f287f84385168f",
    ),
    "OR": (
        lambda: load_dataset("OR", scale_shift=-4, weighted=True),
        "14ce9c671d028886deb5dd1488f84ba7235bf71474d49f94e375fa57cd80d5ae",
    ),
    "RM": (
        lambda: load_dataset("RM", scale_shift=-4, weighted=True),
        "1a1cb4703f839c0a30d9b8d95a60902bf7b4d032b57aad9e2d2e8ff77d1a673a",
    ),
    "TW": (
        lambda: load_dataset("TW", scale_shift=-4, weighted=True),
        "cc85ee85c5a3d4c4bbac8a20baad5e9d458ef250e5e7fa250b9953608891229d",
    ),
    "rmat12-dedup-reversed": (
        lambda: rmat_graph(12, seed=5, dedup=True).reversed(),
        "a33abf1d4fbd8aab8646492e183726744ea2de743396fbf3c558001f40961eb4",
    ),
    "power-law": (
        lambda: power_law_graph(4096, 65536, seed=3),
        "6c9616f569802d767cd04fbdfb08fa4ee314b41aaf9cb2fd8d12be3710c91ab3",
    ),
    # More than 2**16 vertices: the two-pass source order.
    "erdos-renyi": (
        lambda: erdos_renyi(70000, 200000, seed=1),
        "8110f72aa5fe5fc9c770c9f380130420856e433a55d124fc214ca3c689b3c764",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_GRAPHS))
def test_graph_bytes_are_pinned(name):
    build, digest = _PINNED_GRAPHS[name]
    assert _graph_digest(build()) == digest


#: A program's values are the reference every model is checked against:
#: a rewrite of a program's arithmetic must reproduce every bit.  Each
#: digest is the sha256 of ``run_reference``'s properties on a 1,024-vertex
#: R-MAT, weighted for the programs that read weights, rooted at its
#: highest out-degree vertex, as computed when each program was still
#: handed the gathered source properties.
_PINNED_PROPERTIES = {
    "bfs": "6deab568800d11c69432d6a3544762656ede5e2e4a3012b537dc0792d709c329",
    "cc": "15582ea82a4a465a287bd41cca3337412283f46c3a568691e0744037894ea99c",
    "pagerank": (
        "3d7f6616694d1fd2479d44fbf6e04db65a689152effac7f9c1b3be0b3e8f782f"
    ),
    "spmv": "4b4aeac7e70850c37c6670eb819c91ab69af0185f4fd03b0ee4938c56f02b766",
    "sssp": "9c0fd5838958f9a2b604389ecb26845cf5e3efe225b10f8e5aeb9601cb7d2fb1",
    "sswp": "7c2288817c23e480b091ce210864d55265b4d395740a3fdfc5dbdf32df2ff9bc",
}
_ROOTED = {"bfs": "root", "sssp": "source", "sswp": "source"}


@pytest.mark.parametrize("name", sorted(_PINNED_PROPERTIES))
def test_program_values_are_pinned(name):
    graph = rmat_graph(10, edge_factor=8, seed=11)
    kwargs = {}
    if name in _ROOTED:
        kwargs[_ROOTED[name]] = int(np.argmax(graph.out_degrees))
    program = make_algorithm(name, **kwargs)
    if program.needs_weights:
        graph = graph.with_random_weights(seed=12)
    properties = run_reference(program, graph).properties
    digest = hashlib.sha256(properties.tobytes()).hexdigest()
    assert digest == _PINNED_PROPERTIES[name]
