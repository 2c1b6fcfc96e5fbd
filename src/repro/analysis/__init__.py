"""Static analysis and runtime invariant checking for the reproduction.

Two complementary halves:

* :mod:`repro.analysis.simlint` — an AST lint framework with
  repo-specific rules (:mod:`repro.analysis.rules`): determinism,
  unit discipline, and accounting hygiene enforced at review time.
  Run via ``python -m repro lint`` or ``make lint``.
* :mod:`repro.analysis.sanitizer` — :class:`SimSanitizer`, opt-in
  runtime invariant checks wired into the cycle simulator and NoC
  (enable with ``REPRO_SANITIZE=1``).

A third, whole-program half sits on top of simlint:

* :mod:`repro.analysis.project` — parses the entire package into a
  cross-module :class:`~repro.analysis.project.ProjectModel` and runs
  the SIM6xx rules (:mod:`repro.analysis.project_rules`): engine-twin
  parity, dead/phantom config knobs, stats-field conservation, dtype
  contracts, and code only tests reach.  Run via ``repro lint
  --project``; accepted findings live in ``analysis-baseline.json``.
  See docs/ANALYSIS.md.
"""

from repro.analysis.sanitizer import (
    REPRO_SANITIZE_ENV,
    SanitizerError,
    SimSanitizer,
    maybe_sanitizer,
    sanitizer_enabled,
)
from repro.analysis.project import (
    Baseline,
    BaselineEntry,
    ProjectModel,
    ProjectReport,
    ProjectRule,
    all_project_rules,
    analyze_project,
    load_project,
)
from repro.analysis.simlint import (
    FileContext,
    Finding,
    Rule,
    Severity,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

__all__ = [
    "REPRO_SANITIZE_ENV",
    "SanitizerError",
    "SimSanitizer",
    "maybe_sanitizer",
    "sanitizer_enabled",
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "Baseline",
    "BaselineEntry",
    "ProjectModel",
    "ProjectReport",
    "ProjectRule",
    "all_project_rules",
    "analyze_project",
    "load_project",
]
