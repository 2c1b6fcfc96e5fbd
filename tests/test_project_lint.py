"""Tests for the whole-program analyzer (`repro lint --project`).

Three layers:

* fixture mini-packages under ``tests/fixtures/project_lint/`` — one
  clean engine-twin pair plus one deliberately drifted package per
  SIM6xx rule, each of which must be caught by *exactly* the intended
  rule;
* the real repo must be clean modulo the checked-in
  ``analysis-baseline.json`` (and the baseline must not be stale);
* the acceptance drill: deleting a stats-field update from one engine
  of either twin pair must make the *analyzer* fail, not just the
  runtime differential tests.
"""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.project import (
    Baseline,
    analyze_project,
)
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "project_lint"
REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / "analysis-baseline.json"


def run_fixture(name, **kwargs):
    consumers = FIXTURES / name / "consumers"
    return analyze_project(
        FIXTURES / name / name,
        assertion_roots=[FIXTURES / name / "checks"],
        consumer_roots=[consumers] if consumers.is_dir() else [],
        **kwargs,
    )


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFixturePairs:
    def test_clean_pair_has_zero_findings(self):
        report = run_fixture("clean_pkg")
        assert report.findings == []
        assert report.files_checked == 5
        pairs = report.model.twin_pairs()
        assert [p.name for p in pairs] == ["fixture-engine"]

    @pytest.mark.parametrize(
        "name,rule,fragment",
        [
            ("sim601_pkg", "SIM601", "'delivered'"),
            ("sim602_pkg", "SIM602", "unused_knob"),
            ("sim603_pkg", "SIM603", "'dropped'"),
            ("sim604_pkg", "SIM604", "'_vid'"),
            ("sim605_pkg", "SIM605", "'only_tested'"),
        ],
    )
    def test_each_drift_caught_by_exactly_the_intended_rule(
        self, name, rule, fragment
    ):
        report = run_fixture(name)
        assert report.findings, f"{name}: drift not caught"
        assert {f.rule for f in report.findings} == {rule}
        assert any(fragment in f.message for f in report.findings)

    def test_sim602_catches_both_dead_and_phantom(self):
        report = run_fixture("sim602_pkg")
        messages = " | ".join(f.message for f in report.findings)
        assert "dead config knob" in messages
        assert "phantom config knob" in messages

    def test_sim605_counts_only_non_test_loads(self):
        """Registry entries, registering decorators, same-module and
        consumer loads are uses; a re-export, an ``__all__`` string, a
        load inside the definition itself and a ``@dataclass`` are
        not.  Public methods and properties count like module-level
        names, a property once with its setter, but only an attribute
        load (``x.name``) uses one: a local variable of the same name
        does not.  Private members never count."""
        report = run_fixture("sim605_pkg")
        assert sorted(f.key for f in report.findings) == [
            "test-only:sim605_pkg.helpers:UnusedRecord",
            "test-only:sim605_pkg.helpers:Widget.only_tested_method",
            "test-only:sim605_pkg.helpers:Widget.only_tested_property",
            "test-only:sim605_pkg.helpers:Widget.total",
            "test-only:sim605_pkg.helpers:only_tested",
            "test-only:sim605_pkg.helpers:recursive",
        ]

    def test_findings_carry_stable_keys(self):
        """The reference reads a fault kind through a property, which
        registers as a query like a method call does."""
        report = run_fixture("sim601_pkg")
        assert sorted(f.key for f in report.findings) == [
            "fixture-engine:fault-kind:hbm-degradation:sim601_pkg.ref_engine",
            "fixture-engine:stats-write:delivered:sim601_pkg.ref_engine",
        ]

    def test_baseline_accepts_and_goes_stale(self, tmp_path):
        report = run_fixture("sim601_pkg")
        (finding,) = (f for f in report.findings if "delivered" in f.key)
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "schema": "repro-project-analysis-baseline/1",
                    "entries": [
                        {
                            "rule": finding.rule,
                            "key": finding.key,
                            "justification": "fixture drift accepted",
                        },
                        {
                            "rule": "SIM604",
                            "key": "no-such-finding",
                            "justification": "stale on purpose",
                        },
                    ],
                }
            )
        )
        baseline = Baseline.from_file(baseline_file)
        accepted_report = run_fixture("sim601_pkg", baseline=baseline)
        assert [f.key for f in accepted_report.baselined] == [finding.key]
        assert all(f.suppressed for f in accepted_report.baselined)
        # The unused entry is surfaced as a stale-baseline finding so
        # the baseline cannot silently rot.
        assert [e.key for e in accepted_report.stale_baseline] == [
            "no-such-finding"
        ]
        assert any(
            f.rule == "SIM600" and "stale" in f.message
            for f in accepted_report.findings
        )

    def test_baseline_requires_justification(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "schema": "repro-project-analysis-baseline/1",
                    "entries": [{"rule": "SIM601", "key": "k"}],
                }
            )
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.from_file(baseline_file)

    def test_inline_suppression_silences_project_finding(self):
        pkg = FIXTURES / "sim604_pkg" / "sim604_pkg"
        drifted = (pkg / "fast_engine.py").read_text(encoding="utf-8")
        suppressed = drifted.replace(
            "dtype=np.int32)",
            "dtype=np.int32)  # simlint: disable=SIM604",
        )
        report = analyze_project(
            pkg,
            assertion_roots=[FIXTURES / "sim604_pkg" / "checks"],
            source_overrides={"sim604_pkg.fast_engine": suppressed},
        )
        assert report.findings == []


class TestRealRepoClean:
    def test_repo_clean_modulo_baseline(self):
        baseline = Baseline.from_file(BASELINE_PATH)
        report = analyze_project(
            PACKAGE_ROOT,
            assertion_roots=[REPO_ROOT / "tests"],
            baseline=baseline,
            consumer_roots=[REPO_ROOT / "benchmarks"],
        )
        assert report.findings == [], [
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            for f in report.findings
        ]
        assert report.stale_baseline == []
        # Every baseline entry is a real, currently-matching finding.
        assert len(report.baselined) == len(baseline.entries)

    def test_repo_declares_both_twin_pairs(self):
        report = analyze_project(PACKAGE_ROOT)
        pairs = {p.name for p in report.model.twin_pairs()}
        assert pairs == {"noc-engine", "cycle-engine"}

    @pytest.mark.parametrize(
        "module,needle,rule_fragment",
        [
            # noc twin: drop the vectorized mesh's stalled_moves
            # update (record_steps)
            (
                "repro.noc.fastmesh",
                "self.stats.stalled_moves +=",
                "'stalled_moves'",
            ),
            # cycle twin: drop the vectorized scatter's dispatch_lines
            (
                "repro.core.fastsim",
                "stats.dispatch_lines +=",
                "'dispatch_lines'",
            ),
        ],
    )
    def test_deleting_stats_write_from_either_twin_fails_analyzer(
        self, module, needle, rule_fragment
    ):
        rel = Path(*module.split(".")[1:]).with_suffix(".py")
        source = (PACKAGE_ROOT / rel).read_text(encoding="utf-8")
        assert needle in source, f"deletion target moved: {needle!r}"
        # Neuter every update of the field (replacing the statement with
        # `pass` keeps block structure valid where the update is the
        # sole statement of a branch).
        mutated = "\n".join(
            line.split(needle)[0] + "pass"
            if needle in line
            else line
            for line in source.splitlines()
        )
        baseline = Baseline.from_file(BASELINE_PATH)
        report = analyze_project(
            PACKAGE_ROOT,
            assertion_roots=[REPO_ROOT / "tests"],
            baseline=baseline,
            source_overrides={module: mutated},
        )
        drift = [f for f in report.findings if f.rule == "SIM601"]
        assert drift, "analyzer missed the deleted stats-field update"
        assert any(rule_fragment in f.message for f in drift)


class TestCliIntegration:
    def test_lint_project_clean_on_repo(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, output = run_cli("lint", "--project")
        assert code == 0, output
        assert "project analysis:" in output
        assert "0 finding(s)" in output

    def test_lint_project_json_reports_pairs_and_baseline(
        self, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        code, output = run_cli("lint", "--project", "--format", "json")
        assert code == 0, output
        report = json.loads(output)
        assert report["num_active"] == 0
        pair_names = {
            p["name"] for p in report["project"]["twin_pairs"]
        }
        assert pair_names == {"noc-engine", "cycle-engine"}
        assert report["project"]["num_baselined"] == len(
            Baseline.from_file(BASELINE_PATH).entries
        )
        # Baselined findings are visible, flagged suppressed.
        suppressed = [
            f for f in report["findings"] if f["suppressed"]
        ]
        assert suppressed and all(
            f["key"] for f in suppressed
        )
        # Rule descriptions accompany every rule seen in the report.
        for finding in report["findings"]:
            assert finding["rule"] in report["rules"]

    def test_exit_codes_distinguish_errors_from_warnings(self, tmp_path):
        # SIM301 (mutable default) is error severity -> exit 2.
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module."""\n\n\ndef f(x=[]):\n    return x\n',
            encoding="utf-8",
        )
        code, _ = run_cli("lint", str(bad))
        assert code == 2
        # A warning-only finding -> exit 1: reuse SIM602 via --project
        # on the sim602 fixture (dead knob is warning severity).
        fixture_root = str(FIXTURES / "sim602_pkg" / "sim602_pkg")
        code, output = run_cli(
            "lint",
            fixture_root,
            "--project",
            "--select",
            "SIM602",
            "--tests-dir",
            str(FIXTURES / "sim602_pkg" / "checks"),
        )
        assert code == 1, output

    def test_list_rules_includes_project_family(self):
        code, output = run_cli("lint", "--list-rules")
        assert code == 0
        for rule_id in ("SIM601", "SIM602", "SIM603", "SIM604", "SIM605"):
            assert rule_id in output
