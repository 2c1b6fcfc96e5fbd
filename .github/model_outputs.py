"""Check that changed model outputs come with a new ``CODE_MODEL_VERSION``.

The result cache (``repro.experiments.store``) keys every cell by
``CODE_MODEL_VERSION``.  A change that moves a simulated number under
an unchanged version would have the cache serve stale cells as current.

    python .github/model_outputs.py BASE_SRC HEAD_SRC

runs the Fig. 14 matrix at scale shift -6 (100 reports) on the
``repro`` package under each source directory, each in its own
process, and compares the ``to_dict(include_iterations=True)`` JSON of
every report.  It exits 1 when the outputs differ while the two trees
declare the same ``CODE_MODEL_VERSION``, and 0 otherwise.
"""

import json
import os
import subprocess
import sys


def dump() -> None:
    """Print this process's ``CODE_MODEL_VERSION`` on one line and the
    matrix's reports as JSON on the next."""
    from repro.experiments import run_matrix
    from repro.experiments.store import CODE_MODEL_VERSION

    matrix = run_matrix(scale_shift=-6)
    reports = {
        "/".join(key): report.to_dict(include_iterations=True)
        for key, report in matrix.reports.items()
    }
    print(CODE_MODEL_VERSION)
    print(json.dumps(reports, sort_keys=True))


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
