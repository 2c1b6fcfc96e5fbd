"""Command-line interface: run, compare, sweep, and bench without
writing code.

Examples::

    python -m repro datasets
    python -m repro run -d PK -a pagerank --pes 512
    python -m repro compare -d TW -a bfs
    python -m repro sweep -d OR -a pagerank --pes 32 64 128 256 512
    python -m repro bench -d PK -a bfs --scale-shift -4 --workers 4 --json
    python -m repro lint --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.algorithms import ALGORITHMS, make_algorithm, run_reference
from repro.core import (
    CycleAccurateScalaGraph,
    Profiler,
    ScalaGraph,
    ScalaGraphConfig,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    GraphFormatError,
    ServiceError,
    SynthesisError,
)
from repro.experiments import format_table
from repro.experiments.parallel import RetryPolicy, run_matrix_parallel
from repro.experiments.runner import (
    SYSTEM_BUILDERS,
    execute_cell,
    load_benchmark_graph,
)
from repro.experiments.store import ResultCache
from repro.graph.datasets import DATASETS
from repro.mapping import MAPPINGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ScalaGraph (HPCA 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-d",
            "--dataset",
            default="PK",
            help=f"dataset code ({', '.join(DATASETS)})",
        )
        p.add_argument(
            "-a",
            "--algorithm",
            default="pagerank",
            choices=sorted(ALGORITHMS),
        )
        p.add_argument(
            "--scale-shift",
            type=int,
            default=0,
            help="log2 size adjustment of the dataset stand-in",
        )
        p.add_argument(
            "--max-iterations", type=int, default=None, metavar="N"
        )

    run_p = sub.add_parser("run", help="run one algorithm on ScalaGraph")
    add_workload_args(run_p)
    run_p.add_argument("--pes", type=int, default=512)
    run_p.add_argument(
        "--mapping",
        default="rom",
        choices=list(MAPPINGS),
    )
    run_p.add_argument("--registers", type=int, default=16,
                       help="aggregation pipeline registers")
    run_p.add_argument("--window", type=int, default=16,
                       help="degree-aware scheduling window")
    run_p.add_argument("--no-pipelining", action="store_true")
    run_p.add_argument("--verbose", "-v", action="store_true",
                       help="per-iteration breakdown")
    run_p.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")

    cmp_p = sub.add_parser(
        "compare", help="run every compared system on one workload"
    )
    add_workload_args(cmp_p)

    sweep_p = sub.add_parser("sweep", help="PE-count scaling sweep")
    add_workload_args(sweep_p)
    sweep_p.add_argument(
        "--pes",
        type=int,
        nargs="+",
        default=[32, 64, 128, 256, 512, 1024],
    )

    bench_p = sub.add_parser(
        "bench",
        help="cached parallel sweep + per-phase profiling of both models",
    )
    bench_p.add_argument(
        "-d",
        "--datasets",
        nargs="+",
        default=["PK"],
        metavar="CODE",
        help=f"dataset codes ({', '.join(DATASETS)})",
    )
    bench_p.add_argument(
        "-a",
        "--algorithms",
        nargs="+",
        default=["bfs"],
        choices=sorted(ALGORITHMS),
    )
    bench_p.add_argument(
        "--systems",
        nargs="+",
        default=list(SYSTEM_BUILDERS),
        choices=list(SYSTEM_BUILDERS),
        metavar="SYSTEM",
    )
    bench_p.add_argument("--scale-shift", type=int, default=0)
    bench_p.add_argument("--max-iterations", type=int, default=None)
    bench_p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep (1 = serial, default auto)",
    )
    bench_p.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="result cache directory (default: %(default)s)",
    )
    bench_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    bench_p.add_argument(
        "--refresh",
        action="store_true",
        help="recompute cached cells and overwrite them",
    )
    bench_p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per sweep cell; an overdue cell is "
        "cancelled and retried (default: no timeout)",
    )
    bench_p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries for a crashed or timed-out cell; a cell that "
        "runs out fails the sweep with WorkerCrashError, and finished "
        "cells stay cached, so a re-run with the same --cache-dir "
        "resumes (default: %(default)s)",
    )
    bench_p.add_argument(
        "--cycle-sim-shift",
        type=int,
        default=-5,
        metavar="N",
        help="extra scale shift for the profiled cycle-sim run "
        "(the cycle-level tile simulator needs small graphs)",
    )
    bench_p.add_argument(
        "--profile-top",
        type=int,
        default=None,
        metavar="N",
        help="print only the N most expensive profiler blocks per "
        "model (sorted by total wall-clock, default: all, in name "
        "order)",
    )
    bench_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary (timers, counters, "
        "cache stats, per-cell metrics) as JSON",
    )
    bench_p.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON summary to FILE",
    )

    faults_p = sub.add_parser(
        "faults",
        help="replay a seeded fault schedule on both mesh engines",
        description="Build a deterministic fault schedule "
        "(repro.faults), drain the same traffic through the reference "
        "and vectorized mesh engines twice each, and verify that the "
        "fault replay is bit-identical across repetitions and engines. "
        "Exits 1 on any divergence.",
    )
    faults_p.add_argument("--rows", type=int, default=8)
    faults_p.add_argument("--cols", type=int, default=8)
    faults_p.add_argument("--packets", type=int, default=512)
    faults_p.add_argument(
        "--seed", type=int, default=0, help="fault schedule seed"
    )
    faults_p.add_argument("--link-outages", type=int, default=3)
    faults_p.add_argument("--fifo-stalls", type=int, default=3)
    faults_p.add_argument(
        "--horizon",
        type=int,
        default=32,
        help="cycle window fault start times are drawn from; keep it "
        "within the drain time so outages overlap live traffic "
        "(default: %(default)s)",
    )
    faults_p.add_argument(
        "--json",
        action="store_true",
        help="emit the replay summary as JSON",
    )

    lint_p = sub.add_parser(
        "lint",
        help="repo-specific static analysis (simlint)",
        description="Run the simlint rules (determinism, unit "
        "discipline, accounting hygiene) over Python sources; with "
        "--project, also the SIM6xx whole-program rules (engine-twin "
        "parity, config-knob flow, dtype contracts, code only tests "
        "reach). Exits 2 when any error-severity finding survives, 1 "
        "for warnings only, 0 when clean.",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="format_",
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    lint_p.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program SIM6xx analysis over the "
        "package (engine twins, config knobs, stats conservation, "
        "dtype contracts, code only tests reach; ./benchmarks, when "
        "present, counts as the package's consumer)",
    )
    lint_p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="accepted-findings baseline for --project (default: "
        "./analysis-baseline.json when present)",
    )
    lint_p.add_argument(
        "--tests-dir",
        default=None,
        metavar="DIR",
        help="assertion roots for the SIM603 conservation rule "
        "(default: ./tests when present)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep service daemon",
        description="Start the long-lived sweep daemon: a local "
        "HTTP/JSON service that content-addresses submissions against "
        "the shared result cache, schedules them over a crash-isolated "
        "worker pool with SLO deadlines and jittered retries, sheds "
        "load explicitly when its admission queue fills, degrades "
        "broken config families via per-family circuit breakers, and "
        "drains gracefully on SIGTERM. See docs/SERVICE.md.",
    )
    serve_p.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="durable state root (journal, result cache, endpoint file)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 = ephemeral, published in the endpoint file)",
    )
    serve_p.add_argument("--workers", type=int, default=2)
    serve_p.add_argument(
        "--cell-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt",
    )
    serve_p.add_argument("--max-attempts", type=int, default=3)
    serve_p.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SECONDS"
    )
    serve_p.add_argument(
        "--backoff-cap", type=float, default=1.0, metavar="SECONDS"
    )
    serve_p.add_argument("--queue-capacity", type=int, default=64)
    serve_p.add_argument("--max-clients", type=int, default=16)
    serve_p.add_argument("--breaker-threshold", type=int, default=3)
    serve_p.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS"
    )
    serve_p.add_argument("--seed", type=int, default=0)

    submit_p = sub.add_parser(
        "submit",
        help="submit a sweep to a running daemon",
        description="Submit one sweep request to a daemon started with "
        "`repro serve` (discovered through the state dir's endpoint "
        "file), then wait, stream, or detach.",
    )
    submit_p.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="the daemon's state dir (endpoint discovery)",
    )
    submit_p.add_argument("--client", default="cli", help="client id")
    submit_p.add_argument(
        "-d", "--datasets", nargs="+", default=["PK"], metavar="NAME"
    )
    submit_p.add_argument(
        "-a", "--algorithms", nargs="+", default=["bfs"], metavar="NAME"
    )
    submit_p.add_argument(
        "-s",
        "--systems",
        nargs="+",
        default=["ScalaGraph-512"],
        metavar="NAME",
    )
    submit_p.add_argument("--scale-shift", type=int, default=0)
    submit_p.add_argument("--max-iterations", type=int, default=None)
    submit_p.add_argument(
        "--fidelity", choices=["analytic", "cycle"], default="analytic"
    )
    submit_p.add_argument("--fault-seed", type=int, default=None)
    submit_p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO budget; past it remaining cells degrade",
    )
    submit_p.add_argument("--tag", default="")
    submit_p.add_argument(
        "--stream",
        action="store_true",
        help="stream results as JSONL instead of waiting for the "
        "final status",
    )
    submit_p.add_argument(
        "--no-wait",
        action="store_true",
        help="print the admission status and detach",
    )

    soak_p = sub.add_parser(
        "soak",
        help="chaos soak a daemon (boots its own)",
        description="Boot a daemon with chaos hooks armed, replay a "
        "fault-seeded workload with a worker SIGKILL, a breaker trip, "
        "a blown deadline, and (by default) a SIGKILL+restart of the "
        "daemon itself, then audit the journal for zero lost or "
        "duplicated requests and a clean SIGTERM drain. Exits 0 only "
        "when every property holds.",
    )
    soak_p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="state dir for the soak daemon (default: a fresh tempdir)",
    )
    soak_p.add_argument("--seed", type=int, default=0)
    soak_p.add_argument(
        "--no-kill",
        action="store_true",
        help="skip the daemon SIGKILL + restart phase",
    )
    soak_p.add_argument("--extra-requests", type=int, default=3)
    soak_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full audit report as JSON",
    )

    sub.add_parser("datasets", help="list the dataset registry")
    return parser


def cmd_run(args: argparse.Namespace, out) -> int:
    graph = load_benchmark_graph(
        args.dataset, args.algorithm, args.scale_shift
    )
    program = make_algorithm(args.algorithm)
    config = ScalaGraphConfig(
        mapping=args.mapping,
        aggregation_registers=args.registers,
        degree_aware_window=args.window,
        inter_phase_pipelining=not args.no_pipelining,
    ).with_pes(args.pes)
    report = ScalaGraph(config, enforce_capacity=(args.mapping != "dom")).run(
        program, graph, max_iterations=args.max_iterations
    )
    if args.json:
        print(report.to_json(indent=2), file=out)
        return 0
    print(report.summary(), file=out)
    print(
        f"  partitions={report.num_partitions} "
        f"noc_messages={report.total_noc_messages:,} "
        f"coalesced={report.total_coalesced:,} "
        f"offchip={report.total_offchip_bytes / 1e6:.1f} MB "
        f"power={report.power_watts:.1f} W "
        f"energy={report.energy_joules * 1e3:.2f} mJ",
        file=out,
    )
    if args.verbose:
        rows = [
            [
                it.index,
                it.num_active,
                it.num_edges,
                it.scatter_cycles,
                it.apply_cycles,
                it.overlap_cycles,
                it.scatter_bottleneck,
            ]
            for it in report.iterations
        ]
        print(
            format_table(
                [
                    "iter",
                    "active",
                    "edges",
                    "scatter cyc",
                    "apply cyc",
                    "overlap",
                    "bottleneck",
                ],
                rows,
                float_fmt="{:.0f}",
            ),
            file=out,
        )
    return 0


def cmd_compare(args: argparse.Namespace, out) -> int:
    cell = execute_cell(
        args.dataset,
        args.algorithm,
        list(SYSTEM_BUILDERS),
        args.scale_shift,
        args.max_iterations,
    )
    rows = [
        [
            label,
            report.gteps,
            f"{report.frequency_mhz:.0f}",
            f"{report.pe_utilization:.1%}",
            report.energy_joules * 1e3,
        ]
        for label, report in cell
    ]
    _, first = cell[0]
    print(
        format_table(
            ["System", "GTEPS", "MHz", "util", "energy (mJ)"],
            rows,
            title=f"{args.algorithm} on {first.graph_name} "
            f"({first.num_edges:,} edges)",
        ),
        file=out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    graph = load_benchmark_graph(
        args.dataset, args.algorithm, args.scale_shift
    )
    program = make_algorithm(args.algorithm)
    reference = run_reference(program, graph, args.max_iterations)
    rows = []
    for pes in args.pes:
        report = ScalaGraph(ScalaGraphConfig().with_pes(pes)).run(
            program, graph, reference=reference
        )
        rows.append(
            [pes, report.gteps, f"{report.pe_utilization:.1%}"]
        )
    print(
        format_table(
            ["PEs", "GTEPS", "util"],
            rows,
            title=f"ScalaGraph scaling: {args.algorithm} on {graph.name}",
        ),
        file=out,
    )
    return 0


def _fault_replay(
    rows: int,
    cols: int,
    packets: int,
    fault_config,
    traffic_seed: int = 0,
) -> dict:
    """Drain the same traffic through both engines twice each under one
    seeded fault schedule; report per-engine stats and agreement."""
    from repro.faults import FaultSchedule
    from repro.noc import MeshTopology, Packet, drain, make_mesh_network
    from repro.noc.patterns import generate

    topology = MeshTopology(rows, cols)
    src, dst = generate("uniform", topology, packets, seed=traffic_seed)
    schedule = FaultSchedule(topology, fault_config)
    replay = {
        "schema": "repro-faults/1",
        "mesh": f"{rows}x{cols}",
        "packets": packets,
        "digest": schedule.digest(),
        "schedule": schedule.describe(),
        "engines": {},
    }
    fingerprints = {}
    for engine in ("reference", "vectorized"):
        runs = []
        for _ in range(2):
            faults = FaultSchedule(topology, fault_config)
            stats = drain(
                make_mesh_network(topology, engine=engine, faults=faults),
                [
                    Packet(src=s, dst=d, vertex=i)
                    for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
                ],
            )
            runs.append(
                {
                    "digest": faults.digest(),
                    "cycles": stats.cycles,
                    "delivered": stats.delivered,
                    "total_hops": stats.total_hops,
                    "total_latency": stats.total_latency,
                    "degraded_cycles": stats.degraded_cycles,
                    "rerouted_packets": stats.rerouted_packets,
                }
            )
        replay["engines"][engine] = runs[0]
        replay["engines"][engine]["deterministic"] = runs[0] == runs[1]
        fingerprints[engine] = runs[0]
    replay["deterministic"] = all(
        entry["deterministic"] for entry in replay["engines"].values()
    )
    replay["engines_agree"] = (
        fingerprints["reference"] == fingerprints["vectorized"]
    )
    replay["ok"] = replay["deterministic"] and replay["engines_agree"]
    return replay


def _bench_fault_probe() -> dict:
    """Small standing fault-equivalence probe for ``repro bench``: a
    seeded schedule on an 8x8 mesh must replay identically on both
    engines (true fault metrics, not the analytic derate)."""
    from repro.faults import FaultConfig

    return _fault_replay(
        rows=8,
        cols=8,
        packets=256,
        fault_config=FaultConfig(
            seed=0, link_outages=2, fifo_stalls=2, horizon=16
        ),
    )


def cmd_faults(args: argparse.Namespace, out) -> int:
    """Fault-replay determinism gate: exit 1 on any divergence."""
    from repro.faults import FaultConfig

    replay = _fault_replay(
        args.rows,
        args.cols,
        args.packets,
        FaultConfig(
            seed=args.seed,
            link_outages=args.link_outages,
            fifo_stalls=args.fifo_stalls,
            horizon=args.horizon,
        ),
    )
    if args.json:
        print(json.dumps(replay, indent=2), file=out)
    else:
        ref = replay["engines"]["reference"]
        print(
            f"fault replay on {replay['mesh']} "
            f"({replay['packets']} packets, "
            f"schedule digest {replay['digest'][:12]}):",
            file=out,
        )
        print(
            f"  cycles {ref['cycles']}, delivered {ref['delivered']}, "
            f"degraded_cycles {ref['degraded_cycles']}, "
            f"rerouted_packets {ref['rerouted_packets']}",
            file=out,
        )
        print(
            "  deterministic: "
            f"{'yes' if replay['deterministic'] else 'NO'}; "
            "engines agree: "
            f"{'yes' if replay['engines_agree'] else 'NO'}",
            file=out,
        )
    return 0 if replay["ok"] else 1


def cmd_bench(args: argparse.Namespace, out) -> int:
    """Cached parallel sweep plus per-phase profiling of both models.

    The JSON summary is the machine-readable artefact benchmark
    trajectories consume: per-cell headline metrics, cache hit/miss
    accounting, and the named wall-clock timers/counters of the
    analytic model and the cycle simulator.
    """
    wall_start = time.perf_counter()
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    policy = RetryPolicy(
        cell_timeout=args.cell_timeout, max_retries=args.max_retries
    )
    matrix = run_matrix_parallel(
        graphs=args.datasets,
        algorithms=args.algorithms,
        systems=args.systems,
        scale_shift=args.scale_shift,
        max_iterations=args.max_iterations,
        max_workers=args.workers,
        cache=cache,
        refresh=args.refresh,
        policy=policy,
    )

    # Profile one representative workload through each model.  The
    # profiled runs are separate from the sweep (profiling is opt-in so
    # cached and fresh sweep cells stay byte-identical).
    dataset, algorithm = args.datasets[0], args.algorithms[0]
    program = make_algorithm(algorithm)

    analytic_prof = Profiler()
    graph = load_benchmark_graph(dataset, algorithm, args.scale_shift)
    analytic_report = ScalaGraph(
        ScalaGraphConfig(), profiler=analytic_prof
    ).run(program, graph, max_iterations=args.max_iterations)

    cycle_prof = Profiler()
    cycle_shift = args.scale_shift + args.cycle_sim_shift
    cycle_graph = load_benchmark_graph(dataset, algorithm, cycle_shift)
    cycle_result = CycleAccurateScalaGraph(
        ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4),
        profiler=cycle_prof,
    ).run(program, cycle_graph, max_iterations=args.max_iterations)

    summary = {
        "schema": "repro-bench/2",
        "wall_seconds": time.perf_counter() - wall_start,
        "sweep": {
            "datasets": list(args.datasets),
            "algorithms": list(args.algorithms),
            "systems": list(args.systems),
            "scale_shift": args.scale_shift,
            "max_iterations": args.max_iterations,
            "workers": args.workers,
            "cell_timeout": args.cell_timeout,
            "max_retries": args.max_retries,
            "cells": [
                {
                    "graph": g,
                    "algorithm": a,
                    "system": s,
                    "gteps": report.gteps,
                    "total_cycles": report.total_cycles,
                    "pe_utilization": report.pe_utilization,
                }
                for (g, a, s), report in matrix.reports.items()
            ],
        },
        "cache": (
            {"enabled": False}
            if cache is None
            else {
                "enabled": True,
                "dir": str(cache.root),
                "model_version": cache.model_version,
                **cache.stats.to_dict(),
            }
        ),
        "profiles": {
            "analytic": analytic_report.profile,
            "cycle_sim": cycle_result.profile,
        },
        "cycle_sim": {
            "graph": cycle_graph.name,
            "num_edges": cycle_graph.num_edges,
            "total_cycles": cycle_result.stats.total_cycles,
            "iterations": cycle_result.stats.iterations,
            "spd_reduces": cycle_result.stats.spd_reduces,
            "updates_coalesced": cycle_result.stats.updates_coalesced,
        },
        "fault_probe": _bench_fault_probe(),
    }

    text = json.dumps(summary, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text, file=out)
        return 0

    rows = [
        [g, a, s, cell.gteps, f"{cell.total_cycles:,.0f}"]
        for (g, a, s), cell in matrix.reports.items()
    ]
    print(
        format_table(
            ["Graph", "Algorithm", "System", "GTEPS", "cycles"],
            rows,
            title="Sweep (parallel cached runner)",
        ),
        file=out,
    )
    if cache is not None:
        print(
            f"cache: {cache.stats.hits} hits, {cache.stats.misses} misses, "
            f"{cache.stats.stores} stored ({cache.root})",
            file=out,
        )
    for label, profile in summary["profiles"].items():
        timers = list(profile["timers"].items())
        if args.profile_top is not None:
            # Hot-spot view: most expensive blocks first, truncated.
            timers.sort(
                key=lambda item: item[1]["total_seconds"], reverse=True
            )
            shown, timers = timers[:args.profile_top], timers
            hidden = len(timers) - len(shown)
            timers = shown
            title = f"{label} profile (top {len(shown)}"
            title += f" of {len(shown) + hidden}):" if hidden else "):"
        else:
            title = f"{label} profile:"
        print(f"\n{title}", file=out)
        for name, entry in timers:
            print(
                f"  {name:32s} {entry['calls']:>8d} calls "
                f"{entry['total_seconds'] * 1e3:>10.2f} ms",
                file=out,
            )
    fault_probe = summary["fault_probe"]
    print(
        f"\nfault replay ({fault_probe['mesh']}): "
        f"degraded_cycles "
        f"{fault_probe['engines']['reference']['degraded_cycles']}, "
        f"rerouted_packets "
        f"{fault_probe['engines']['reference']['rerouted_packets']}, "
        f"engines agree: {'yes' if fault_probe['ok'] else 'NO'}",
        file=out,
    )
    print(f"\nwall time: {summary['wall_seconds']:.2f} s", file=out)
    return 0


def cmd_lint(args: argparse.Namespace, out) -> int:
    """Static analysis gate.

    Exit codes: 2 when any error-severity finding survives suppression
    and baseline, 1 when only warnings survive, 0 when clean.
    """
    from pathlib import Path

    import repro
    from repro.analysis import (
        all_rules,
        lint_paths,
        render_json,
        render_text,
    )
    from repro.analysis.project import Baseline, analyze_project

    if args.list_rules:
        rows = [
            [rule.rule_id, rule.severity.value, rule.description]
            for rule in all_rules()
        ]
        print(
            format_table(["Rule", "Severity", "Description"], rows,
                         title="simlint rules (SIM6xx need --project)"),
            file=out,
        )
        return 0

    paths = (
        [Path(p) for p in args.paths]
        if args.paths
        else [Path(repro.__file__).parent]
    )
    select = (
        [r.strip() for r in args.select.split(",") if r.strip()]
        if args.select
        else None
    )
    keep_suppressed = args.format_ == "json"
    findings, files_checked = lint_paths(
        paths, select=select, keep_suppressed=keep_suppressed
    )
    project_summary = None
    if args.project:
        package_root = paths[0]
        if not package_root.is_dir():
            package_root = package_root.parent
        baseline = None
        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else Path("analysis-baseline.json")
        )
        if baseline_path.exists():
            baseline = Baseline.from_file(baseline_path)
        elif args.baseline:
            print(f"error: baseline {baseline_path} not found", file=out)
            return 2
        tests_dir = (
            Path(args.tests_dir) if args.tests_dir else Path("tests")
        )
        assertion_roots = [tests_dir] if tests_dir.exists() else []
        consumers_dir = Path("benchmarks")
        report = analyze_project(
            package_root,
            assertion_roots=assertion_roots,
            baseline=baseline,
            select=select,
            consumer_roots=[consumers_dir] if consumers_dir.is_dir() else [],
        )
        findings = findings + report.findings
        if keep_suppressed:
            findings = findings + report.baselined
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        project_summary = report.summary()
    if args.format_ == "json":
        print(
            render_json(findings, files_checked, project=project_summary),
            file=out,
        )
    else:
        print(render_text(findings, files_checked), file=out)
        if project_summary is not None:
            print(
                "project analysis: "
                f"{project_summary['modules_checked']} module(s), "
                f"{project_summary['num_findings']} finding(s), "
                f"{project_summary['num_baselined']} baselined",
                file=out,
            )
    active = [f for f in findings if not f.suppressed]
    if any(f.severity == "error" for f in active):
        return 2
    return 1 if active else 0


def cmd_datasets(args: argparse.Namespace, out) -> int:
    rows = [
        [
            spec.key,
            spec.full_name,
            f"{spec.paper_vertices:,}",
            f"{spec.paper_edges:,}",
            spec.standin_vertices,
            spec.standin_edges,
            spec.description,
        ]
        for spec in DATASETS.values()
    ]
    print(
        format_table(
            [
                "Code",
                "Name",
                "|V| paper",
                "|E| paper",
                "|V| stand-in",
                "|E| stand-in",
                "Description",
            ],
            rows,
            title="Dataset registry (Tables I/III)",
        ),
        file=out,
    )
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    """Run the sweep daemon until SIGTERM/SIGINT."""
    import asyncio

    from repro.service.scheduler import ServicePolicy
    from repro.service.server import ServiceSettings, serve

    policy = ServicePolicy(
        workers=args.workers,
        cell_timeout_s=args.cell_timeout,
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        queue_capacity=args.queue_capacity,
        max_clients=args.max_clients,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        seed=args.seed,
    )

    def announce(endpoint: dict) -> None:
        print(json.dumps({"serving": endpoint}), file=out, flush=True)

    return asyncio.run(
        serve(
            ServiceSettings(
                state_dir=args.state_dir, host=args.host, port=args.port
            ),
            policy=policy,
            notify=announce,
        )
    )


def cmd_submit(args: argparse.Namespace, out) -> int:
    """Submit one sweep to a running daemon; wait, stream, or detach."""
    from repro.service.client import ServiceClient

    client = ServiceClient.from_state_dir(args.state_dir)
    payload = {
        "client_id": args.client,
        "graphs": args.datasets,
        "algorithms": args.algorithms,
        "systems": args.systems,
        "scale_shift": args.scale_shift,
        "max_iterations": args.max_iterations,
        "fidelity": args.fidelity,
        "fault_seed": args.fault_seed,
        "deadline_s": args.deadline,
        "tag": args.tag,
    }
    http, body = client.submit(payload)
    if http not in (200, 202):
        print(json.dumps(body, indent=1), file=out)
        return 1
    request_id = body["request_id"]
    if args.no_wait:
        print(json.dumps(body, indent=1), file=out)
        return 0
    if args.stream:
        for record in client.stream(request_id):
            print(json.dumps(record, sort_keys=True), file=out, flush=True)
        return 0
    client.wait_done(request_id)
    _, results = client.results(request_id)
    print(json.dumps(results, indent=1), file=out)
    return 0


def cmd_soak(args: argparse.Namespace, out) -> int:
    """Chaos-soak a daemon; exit 0 only when every property holds."""
    import tempfile

    from repro.service.chaos import SoakSettings, run_soak

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-soak-")
    report = run_soak(
        SoakSettings(
            state_dir=state_dir,
            seed=args.seed,
            kill_daemon=not args.no_kill,
            extra_requests=args.extra_requests,
        )
    )
    if args.as_json:
        print(json.dumps(report, indent=1, sort_keys=True), file=out)
    else:
        verdict = "PASS" if report["ok"] else "FAIL"
        print(
            f"soak {verdict}: {report['admitted']} admitted, "
            f"{report['degraded_cells']} degraded cell(s), "
            f"{len(report['lost_requests'])} lost, "
            f"{len(report['duplicate_cells'])} duplicated, "
            f"breaker trips {report['breaker_trips']}, "
            f"drain exit {report['drain_exit_code']}, "
            f"monotone recovery {report['monotone_recovery']}",
            file=out,
        )
    return 0 if report["ok"] else 1


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "faults": cmd_faults,
    "lint": cmd_lint,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "soak": cmd_soak,
    "datasets": cmd_datasets,
}


#: Errors in what the user asked for (a configuration, an input graph,
#: a daemon to reach): :func:`main` prints their message and exits 2, as
#: argparse does for a usage error.  Any other error, a simulator's
#: inconsistent state above all, keeps its traceback.
_USER_ERRORS = (
    CapacityError,
    ConfigurationError,
    GraphFormatError,
    ServiceError,
    SynthesisError,
)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
