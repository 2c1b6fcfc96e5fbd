#!/usr/bin/env python3
"""The repository's performance benchmark: end to end and per layer.

Usage (from the root of a checkout)::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]

Runs the named workloads (all of ``BENCHMARK.json``'s by default), each
in a process of its own (several workloads run as one child process
each) using at most two worker processes.  Every workload checks its
outputs; a failed check or an exception fails the run (exit code 1).
After each workload one JSON line goes to stdout::

    {"correct": true, "attempted": 7, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 11523.4, "unit": "ms"}, ...}}

With ``--trace 0`` (the default) the metrics are the end-to-end ones,
measured with tracing off.  ``--trace 1`` also runs the traced pass and
reports the per-layer metrics instead; a layer the workload does not
exercise reads 0.  A readable summary goes to stderr, and ``--out``
writes both metric sets, the exact (deterministic) metrics, sample
counts, spans and an environment stamp as one JSON document (the input
of ``compare.py``).

``--seconds`` is part of the invocation every benchmark run of this
repository receives, ``--seconds <run_seconds of BENCHMARK.json>``;
``compare.py`` refuses to compare runs measured for different times.
``--smoke`` shrinks every input and measures a single operation, so the
harness self-test runs in seconds; its numbers mean nothing.  Exit code
2 means the checkout cannot be benchmarked (no ``src/repro``) or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from harness import MIN_OPS, ROOT, SCRATCH, HostClock, Ledger, Outcome  # noqa: E402
from harness import Settings, environment, median  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
SCHEMA = "repro-perf/1"

#: Module implementing each workload of BENCHMARK.json.
MODULES = {
    "cycle-pagerank-32x32": "cycle_bench",
    "cycle-bfs-faults-16x16": "cycle_bench",
    "sweep-fig14": "sweep_bench",
    "serve-mixed": "serve_bench",
}


def _bootstrap() -> Optional[str]:
    """Make this checkout's ``src/repro`` importable; None on success,
    else why the checkout cannot be benchmarked."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no package at {SRC / 'repro'}"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"repro imports from {origin}, not from {SRC}"
    return None


def _layer_of(metric: str) -> str:
    return metric.split(".", 1)[0] if "." in metric else metric


def _parse(argv: Optional[Sequence[str]], bench: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the performance benchmark; see the module docstring."
    )
    parser.add_argument(
        "--workload", action="append", choices=names, metavar="NAME",
        help=f"workload to run, repeatable (default: all of {', '.join(names)})",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"]),
        help="least measuring time of the untraced pass per workload "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also run the traced pass and report per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="write the full result document")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one operation per workload, for the self-test",
    )
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def _metrics(
    specs: List[Dict[str, Any]],
    values: Dict[str, float],
    layers: Sequence[str],
    ledger: Ledger,
    positive: bool,
) -> Dict[str, Dict[str, Any]]:
    """The metrics ``specs`` names, with units; a metric of a layer the
    workload does not exercise reads 0, any other gap fails the run."""
    out = {}
    for spec in specs:
        name = spec["name"]
        value = values.get(name)
        if value is None and _layer_of(name) not in layers:
            value = 0.0
        if value is None or not math.isfinite(value) or (positive and value <= 0):
            ledger.fail(f"metric {name} is {value}")
            continue
        out[name] = {"value": float(value), "unit": spec["unit"]}
    return out


def run_workload(
    name: str, settings: Settings, bench: Dict[str, Any]
) -> Dict[str, Any]:
    """Run one workload; its result document (see ``--out``)."""
    ledger = Ledger()
    load_before = os.getloadavg()
    start = time.perf_counter()
    module = importlib.import_module(MODULES[name])
    clock = HostClock()
    clock.read()
    outcome: Optional[Outcome] = None
    try:
        outcome = module.run(name, settings, ledger, clock)
    except Exception as exc:  # the run's boundary: report, keep going
        traceback.print_exc()
        ledger.fail(f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - start

    end_to_end: Dict[str, Dict[str, Any]] = {}
    per_layer: Dict[str, Dict[str, Any]] = {}
    if outcome is not None:
        # Every end-to-end metric applies to every workload.
        end_to_end = _metrics(
            bench["end_to_end"], outcome.end_to_end, (), ledger, positive=True
        )
        outcome.per_layer["host.clock_ms"] = median(clock.readings) * 1e3
        if settings.trace:
            per_layer = _metrics(
                bench["per_layer"], outcome.per_layer, outcome.layers, ledger,
                positive=False,
            )
    if ledger.attempted == 0:
        ledger.fail("no operation ran")
    outcome = outcome or Outcome()
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures[:50],
        "end_to_end": end_to_end,
        "clock_s": clock.readings,
        "per_layer": per_layer,
        "exact": outcome.exact,
        "samples": outcome.samples,
        "info": outcome.info,
        "spans": outcome.spans,
        "wall_s": wall_s,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def _summarise(name: str, result: Dict[str, Any]) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(
        f"[{name}] {verdict}: {result['attempted']} checked, "
        f"{result['failed']} failed, {result['wall_s']:.1f} s",
        file=sys.stderr,
    )
    for reason in result["failures"]:
        print(f"  failure: {reason}", file=sys.stderr)
    for block in ("end_to_end", "per_layer"):
        for metric, entry in result[block].items():
            print(
                f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}",
                file=sys.stderr,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    problem = _bootstrap()
    if problem is not None:
        print(f"run.py: cannot benchmark this checkout: {problem}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_FILE.read_text())
    args = _parse(argv, bench)

    env = environment()
    nproc = env["nproc"] or 1
    if os.getloadavg()[0] > nproc:
        print(
            f"run.py: warning: load average {os.getloadavg()[0]:.2f} exceeds "
            f"{nproc} cores; timings will be noisy",
            file=sys.stderr,
        )
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "environment": env,
        "workloads": {},
    }
    SCRATCH.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if len(args.workload) == 1:
            code = _run_here(args, bench, document, tmp_root)
        else:
            code = _run_children(args, document, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's state is still there
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return code


def _run_here(
    args: argparse.Namespace,
    bench: Dict[str, Any],
    document: Dict[str, Any],
    tmp_root: Path,
) -> int:
    [name] = args.workload
    settings = Settings(
        seed=args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        min_ops=1 if args.smoke else MIN_OPS,
        trace=bool(args.trace),
        smoke=args.smoke,
        tmp_root=tmp_root,
    )
    result = run_workload(name, settings, bench)
    document["workloads"][name] = result
    _summarise(name, result)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["end_to_end"],
    }
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def _run_children(
    args: argparse.Namespace, document: Dict[str, Any], tmp_root: Path
) -> int:
    """One child process per workload, in order, so that no workload
    inherits another's memory peak, imports or pool state.  Each child
    prints its own JSON line."""
    code = 0
    for name in args.workload:
        fd, out_name = tempfile.mkstemp(prefix="child-", suffix=".json", dir=tmp_root)
        os.close(fd)
        out = Path(out_name)
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(out),
        ] + (["--smoke"] if args.smoke else [])
        try:
            child = subprocess.run(argv, cwd=ROOT)
            if child.returncode == 0 or out.stat().st_size:
                document["workloads"].update(
                    json.loads(out.read_text())["workloads"]
                )
        finally:
            out.unlink(missing_ok=True)
        code = max(code, child.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
