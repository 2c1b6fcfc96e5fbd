"""Check that changed model outputs come with a new ``CODE_MODEL_VERSION``.

The result cache (``repro.experiments.store``) keys every cell by
``CODE_MODEL_VERSION``.  A change that moves a simulated number under
an unchanged version would have the cache serve stale cells as current.

    python .github/model_outputs.py BASE_SRC HEAD_SRC

runs the Fig. 14 matrix at scale shift -6 (100 reports) and a few
runs the matrix never takes (a faulted ScalaGraph, graphs split into
several scratchpad partitions, an explicit direction-optimizing BFS
workload, the Fig. 4 crossbar variants, and SSWP and SpMV on the five
Fig. 14 systems) on the ``repro`` package under each source directory,
each in its own process, and compares the
``to_dict(include_iterations=True)`` JSON of every report.  It also
compares every program's ``CycleStats`` and property bytes on both
cycle engines at 4x4, BFS also under faults.  It exits 1 when the
outputs differ while the two trees declare the same
``CODE_MODEL_VERSION``, and 0 otherwise.
"""

import json
import os
import subprocess
import sys


def extra_reports() -> dict:
    """Reports of the runs outside the Fig. 14 matrix, by label."""
    from dataclasses import replace

    from repro.algorithms import BFS, PageRank, run_reference
    from repro.algorithms.dobfs import (
        as_workload,
        run_direction_optimizing_bfs,
    )
    from repro.baselines import AccuGraph, GraphDynS
    from repro.core import ScalaGraph, ScalaGraphConfig
    from repro.experiments import load_benchmark_graph
    from repro.experiments.runner import SYSTEM_ORDER, execute_cell
    from repro.faults import FaultConfig, FaultSchedule
    from repro.memory.spd import ScratchpadConfig
    from repro.noc.topology import MeshTopology

    graph = load_benchmark_graph("PK", "bfs", -4)
    config = ScalaGraphConfig()
    # A quarter of the vertices fit on chip: four partitions.
    sliced = ScratchpadConfig(total_bytes=graph.num_vertices * 2)
    faults = FaultSchedule(
        MeshTopology(config.pe_rows, config.total_cols),
        FaultConfig(seed=2, link_outages=3, hbm_disabled_channels=16),
    )
    gd512 = GraphDynS.with_512_pes().config
    systems = {
        "ScalaGraph-512-faulted": lambda: ScalaGraph(config, faults=faults),
        "ScalaGraph-512-sliced": lambda: ScalaGraph(
            replace(config, spd=sliced)
        ),
        "ScalaGraph-512-sliced-faulted": lambda: ScalaGraph(
            replace(config, spd=sliced), faults=faults
        ),
        "GraphDynS-512-sliced": lambda: GraphDynS(replace(gd512, spd=sliced)),
        "AccuGraph-128": AccuGraph,
        "AccuGraph-512-no-crossbar": lambda: AccuGraph.with_pes(
            512, with_crossbar=False
        ),
        "GraphDynS-512-no-crossbar": lambda: GraphDynS.with_pes(
            512, with_crossbar=False
        ),
    }
    reports = {}
    for program in (BFS(), PageRank(max_iters=4)):
        reference = run_reference(program, graph)
        for label, build in systems.items():
            reports[f"PK-4/{program.name}/{label}"] = build().run(
                program, graph, reference=reference
            )
    dobfs = run_direction_optimizing_bfs(graph)
    reports["PK-4/dobfs/ScalaGraph-512"] = ScalaGraph(config).run_trace(
        graph,
        as_workload(dobfs),
        algorithm="dobfs",
        monotonic=True,
        properties=dobfs.depths,
    )
    for algorithm in ("sswp", "spmv"):
        for label, report in execute_cell("PK", algorithm, SYSTEM_ORDER, -4):
            reports[f"PK-4/{algorithm}/{label}"] = report
    return reports


def cycle_outputs() -> dict:
    """Every program's ``CycleStats`` and property bytes on both cycle
    engines at 4x4 (PK at -4), by label; BFS also runs faulted."""
    from dataclasses import asdict

    from repro.algorithms import ALGORITHMS, make_algorithm
    from repro.core import CycleAccurateScalaGraph, ScalaGraphConfig
    from repro.experiments import load_benchmark_graph
    from repro.faults import FaultConfig, FaultSchedule
    from repro.noc.topology import MeshTopology

    faults = FaultConfig(seed=2, link_outages=2, fifo_stalls=2, pe_stalls=2)
    outputs = {}
    for name in sorted(ALGORITHMS):
        graph = load_benchmark_graph("PK", name, -4)
        kwargs = {"max_iters": 4} if name == "pagerank" else {}
        for engine in ("reference", "vectorized"):
            config = ScalaGraphConfig(
                num_tiles=1, pe_rows=4, pe_cols=4,
                cycle_engine=engine, noc_engine=engine,
            )
            for faulted in (False, True) if name == "bfs" else (False,):
                schedule = (
                    FaultSchedule(MeshTopology(4, 4), faults)
                    if faulted
                    else None
                )
                result = CycleAccurateScalaGraph(
                    config, faults=schedule
                ).run(make_algorithm(name, **kwargs), graph)
                suffix = "-faulted" if faulted else ""
                outputs[f"PK-4/{name}/cycle-4x4-{engine}{suffix}"] = {
                    "stats": asdict(result.stats),
                    "properties": result.properties.tobytes().hex(),
                }
    return outputs


def dump() -> None:
    """Print this process's ``CODE_MODEL_VERSION`` on one line and the
    reports as JSON on the next."""
    from repro.experiments import run_matrix
    from repro.experiments.store import CODE_MODEL_VERSION

    matrix = run_matrix(scale_shift=-6)
    reports = {
        "/".join(key): report for key, report in matrix.reports.items()
    }
    reports.update(extra_reports())
    outputs = {
        label: report.to_dict(include_iterations=True)
        for label, report in reports.items()
    }
    outputs.update(cycle_outputs())
    print(CODE_MODEL_VERSION)
    print(json.dumps(outputs, sort_keys=True))


def outputs(src: str) -> tuple:
    """``(CODE_MODEL_VERSION, reports JSON)`` of the tree at ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=env, check=True, capture_output=True, text=True,
    )
    version, reports = child.stdout.splitlines()
    return version, reports


def main(base_src: str, head_src: str) -> int:
    base_version, base_reports = outputs(base_src)
    head_version, head_reports = outputs(head_src)
    count = len(json.loads(head_reports))
    if base_reports == head_reports:
        print(f"model outputs equal ({count} reports)")
        return 0
    if base_version != head_version:
        print(
            f"model outputs changed; CODE_MODEL_VERSION "
            f"{base_version} -> {head_version}"
        )
        return 0
    print(
        f"model outputs changed ({count} reports) but CODE_MODEL_VERSION "
        f"is still {head_version}: bump it in "
        f"src/repro/experiments/store.py"
    )
    return 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        sys.exit(main(*sys.argv[1:]))
