#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent commit against a change.

Usage::

    python3 benchmarks/perf/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a ``run.py --out`` document, or a document holding several
under ``runs`` (as ``baseline-seed1.json`` does).  Runs pair up in the
order given (parent run *i* with change run *i*), so list them in the
order they were made, alternating which side ran first.  All runs must
have been measured for the same ``--seconds`` and at the same size
(``--smoke`` or not); otherwise nothing is compared (exit code 2).

For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won (ties count for neither) and a
verdict, using the bound ``BENCHMARK.json`` fixes for the metric:

* ``better`` — at least 10 pairs, the change wins at least 9 in 10, and
  the medians differ by more than the parent's interquartile range;
* ``unresolved`` — the parent's spread (IQR over median) exceeds the
  bound, or there is a single parent run, unless every change run beats
  every parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — none of the above.

The exact metrics (simulated counts and ``cycle.model_error_x``, which
one seed fixes) are judged with bound 0, seed by seed on the seeds both
sides ran: ``same``, ``better`` (no seed worse, in the direction
``BENCHMARK.json`` gives), ``worse`` (some seed worse) or ``unsteady``
(one side gave two values for one seed).  A change that only speeds the
code up must leave every one ``same``.

Per-layer medians (from ``--trace`` runs) follow, without verdicts: they
show where a difference appears.  Exit code 1 if any verdict is
``worse`` or ``unsteady``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def _load(path: Path) -> List[Dict[str, Any]]:
    doc = json.loads(path.read_text())
    return doc["runs"] if "runs" in doc else [doc]


def _values(docs: List[Dict[str, Any]], workload: str, block: str, metric: str) -> List[float]:
    out = []
    for doc in docs:
        entry = doc["workloads"].get(workload, {}).get(block, {}).get(metric)
        if entry is not None:
            out.append(float(entry["value"]))
    return out


def _exact(
    docs: List[Dict[str, Any]], workload: str, metric: str
) -> Dict[int, List[float]]:
    """The exact metric's values by seed."""
    out: Dict[int, List[float]] = {}
    for doc in docs:
        value = doc["workloads"].get(workload, {}).get("exact", {}).get(metric)
        if value is not None:
            out.setdefault(doc["seed"], []).append(float(value))
    return out


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """The comparison of one metric on one workload (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q = _quartiles(parent)
    c_q = _quartiles(change)
    p_med, c_med = p_q[1], c_q[1]
    gain = sign * (c_med - p_med)
    iqr = p_q[2] - p_q[0]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    # One parent run shows no spread: it cannot rule noise out.
    spread = iqr / abs(p_med) if p_med and len(parent) > 1 else float("inf")
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        outcome = "better"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif -gain > bound * abs(p_med):
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "parent": p_q,
        "change": c_q,
        "delta": (c_med - p_med) / p_med if p_med else float("inf"),
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": outcome,
    }


def exact_verdict(
    parent: Dict[int, List[float]], change: Dict[int, List[float]], better: str
) -> Optional[str]:
    """The bound-0 comparison of one exact metric (see module doc); None
    when the sides share no seed."""
    seeds = sorted(parent.keys() & change.keys())
    if not seeds:
        return None
    if any(len(set(v)) > 1 for side in (parent, change) for v in side.values()):
        return "unsteady"
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (change[s][0] - parent[s][0]) for s in seeds]
    if all(g == 0 for g in gains):
        return "same"
    return "better" if all(g >= 0 for g in gains) else "worse"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK_FILE.read_text())
    parent = [doc for path in args.parent for doc in _load(path)]
    change = [doc for path in args.change for doc in _load(path)]
    settings = {(doc["seconds"], doc["smoke"]) for doc in parent + change}
    if len(settings) > 1:
        print(
            "compare.py: runs measured with different --seconds/--smoke "
            f"settings {sorted(settings)}; rerun both sides alike",
            file=sys.stderr,
        )
        return 2

    failed = False
    print(
        f"{'workload':<24} {'metric':<18} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6} "
        f"{'bound':>6}  verdict"
    )
    for spec in bench["workloads"]:
        name = spec["name"]
        for metric in bench["end_to_end"]:
            p = _values(parent, name, "end_to_end", metric["name"])
            c = _values(change, name, "end_to_end", metric["name"])
            if not p or not c:
                continue
            v = verdict(p, c, metric["better"], metric["bound"])
            failed = failed or v["verdict"] == "worse"
            print(
                f"{name:<24} {metric['name']:<18} "
                f"{v['parent'][1]:>12.5g} [{v['parent'][0]:.5g}, {v['parent'][2]:.5g}]"
                f"{'':>2}{v['change'][1]:>12.5g} [{v['change'][0]:.5g}, {v['change'][2]:.5g}]"
                f" {v['delta']:>+8.2%} {v['wins']:>3}/{v['pairs']:<2} "
                f"{metric['bound']:>6.2f}  {v['verdict']}"
            )
    exact_rows = []
    for spec in bench["workloads"]:
        for metric in bench["per_layer"]:
            p_seeds = _exact(parent, spec["name"], metric["name"])
            c_seeds = _exact(change, spec["name"], metric["name"])
            outcome = exact_verdict(p_seeds, c_seeds, metric["better"])
            if outcome is None:
                continue
            failed = failed or outcome in ("worse", "unsteady")
            shown = sorted(p_seeds.keys() & c_seeds.keys())[0]
            exact_rows.append(
                f"{spec['name']:<24} {metric['name']:<28} {p_seeds[shown][0]:>14.6g} "
                f"{c_seeds[shown][0]:>14.6g} {shown:>6}  {outcome}"
            )
    if exact_rows:
        print(
            f"\n{'workload':<24} {'exact metric (bound 0)':<28} {'parent':>14} "
            f"{'change':>14} {'seed':>6}  verdict"
        )
        print("\n".join(exact_rows))
    layer_rows = []
    for spec in bench["workloads"]:
        for metric in bench["per_layer"]:
            p = _values(parent, spec["name"], "per_layer", metric["name"])
            c = _values(change, spec["name"], "per_layer", metric["name"])
            if not p or not c or not (any(p) or any(c)):
                continue
            p_med, c_med = statistics.median(p), statistics.median(c)
            delta = f"{(c_med - p_med) / p_med:+.2%}" if p_med else "n/a"
            layer_rows.append(
                f"{spec['name']:<24} {metric['name']:<28} {p_med:>14.6g} "
                f"{c_med:>14.6g} {delta:>9} {metric['unit']}"
            )
    if layer_rows:
        print(f"\n{'workload':<24} {'per-layer metric':<28} {'parent':>14} {'change':>14} {'delta':>9}")
        print("\n".join(layer_rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
