"""simlint static-analysis gate: fixture-per-rule, suppressions, CLI.

The acceptance contract for the lint pass: ``repro lint`` exits non-zero
on a seeded violation for *every* shipped rule, and exits zero on the
repository's own source tree at HEAD.
"""

import io
import json

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    lint_source,
    render_json,
    render_text,
)
from repro.cli import main

#: One minimal violating fixture per shipped rule.  Kept deliberately
#: tiny so each triggers exactly its own rule.
RULE_FIXTURES = {
    "SIM101": "import numpy as np\nrng = np.random.default_rng()\n",
    "SIM102": "import time\nstart = time.time()\n",
    "SIM201": (
        "def done(progress_fraction):\n"
        "    return progress_fraction == 1.0\n"
    ),
    "SIM202": (
        "def total(lat_cycles, lat_ns):\n"
        "    return lat_cycles + lat_ns\n"
    ),
    "SIM301": "def collect(items=[]):\n    return items\n",
    "SIM302": "try:\n    x = 1\nexcept:\n    pass\n",
    "SIM401": (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Stats:\n"
        '    """Counters."""\n'
        "\n"
        "    scatter: int\n"
        "    apply: int\n"
        "    noc: int\n"
        "    memory: int\n"
    ),
    "SIM501": (
        "from concurrent.futures import wait\n"
        "\n"
        "\n"
        "def collect(futures):\n"
        "    done, _ = wait(futures)\n"
        "    return [f.result() for f in done]\n"
    ),
    "SIM502": (
        "import time\n"
        "\n"
        "\n"
        "async def tick():\n"
        "    time.sleep(1.0)\n"
    ),
}

CLEAN_SOURCE = (
    "import numpy as np\n"
    "\n"
    "\n"
    "def simulate(seed):\n"
    "    rng = np.random.default_rng(seed)\n"
    "    total_cycles = 0\n"
    "    for _ in range(4):\n"
    "        total_cycles += int(rng.integers(1, 10))\n"
    "    return total_cycles\n"
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def lint_fixture_via_cli(tmp_path, source, *extra):
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    return run_cli("lint", str(path), *extra)


class TestFixturePerRule:
    def test_fixtures_cover_every_shipped_rule(self):
        shipped = {rule.rule_id for rule in all_rules(project=False)}
        assert shipped == set(RULE_FIXTURES)

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_rule_fires_and_gates_cli(self, tmp_path, rule_id):
        code, text = lint_fixture_via_cli(tmp_path, RULE_FIXTURES[rule_id])
        assert code != 0
        assert rule_id in text

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_triggers_only_its_own_rule(self, rule_id):
        findings = lint_source(RULE_FIXTURES[rule_id])
        assert {f.rule for f in findings} == {rule_id}

    def test_clean_source_passes(self, tmp_path):
        code, text = lint_fixture_via_cli(tmp_path, CLEAN_SOURCE)
        assert code == 0
        assert "clean" in text

    def test_syntax_error_yields_sim000(self, tmp_path):
        code, text = lint_fixture_via_cli(tmp_path, "def broken(:\n")
        assert code != 0
        assert "SIM000" in text


class TestUnboundedResultWait:
    """SIM501 specifics: the gate, and what counts as bounded."""

    def test_timeouts_satisfy_the_rule(self):
        source = (
            "from concurrent.futures import FIRST_COMPLETED, wait\n"
            "\n"
            "\n"
            "def collect(futures):\n"
            "    done, _ = wait(\n"
            "        futures, timeout=1.0, return_when=FIRST_COMPLETED\n"
            "    )\n"
            "    return [f.result(timeout=0) for f in done]\n"
        )
        assert lint_source(source) == []

    def test_positional_timeout_counts(self):
        source = (
            "from concurrent.futures import as_completed\n"
            "\n"
            "\n"
            "def collect(futures):\n"
            "    return [f.result(5) for f in as_completed(futures, 5)]\n"
        )
        assert lint_source(source) == []

    def test_without_concurrency_import_not_flagged(self):
        source = (
            "def poll(handles):\n"
            "    return [h.result() for h in handles]\n"
        )
        assert lint_source(source) == []

    def test_multiprocessing_get_flagged(self):
        source = (
            "import multiprocessing\n"
            "\n"
            "\n"
            "def collect(async_result):\n"
            "    return async_result.get()\n"
        )
        assert [f.rule for f in lint_source(source)] == ["SIM501"]


class TestSuppressions:
    def test_inline_disable_silences_rule(self):
        source = "import time\nstart = time.time()  # simlint: disable=SIM102\n"
        assert lint_source(source) == []

    def test_disable_all(self):
        source = "import time\nstart = time.time()  # simlint: disable=all\n"
        assert lint_source(source) == []

    def test_disable_wrong_rule_does_not_silence(self):
        source = "import time\nstart = time.time()  # simlint: disable=SIM101\n"
        assert [f.rule for f in lint_source(source)] == ["SIM102"]

    def test_disable_list(self):
        source = (
            "import time\n"
            "start = time.time()  # simlint: disable=SIM101,SIM102\n"
        )
        assert lint_source(source) == []


class TestSelect:
    def test_select_limits_rules(self, tmp_path):
        code, _ = lint_fixture_via_cli(
            tmp_path, RULE_FIXTURES["SIM102"], "--select", "SIM101"
        )
        assert code == 0

    def test_select_keeps_matching_rule(self, tmp_path):
        code, text = lint_fixture_via_cli(
            tmp_path, RULE_FIXTURES["SIM102"], "--select", "SIM102"
        )
        assert code != 0
        assert "SIM102" in text


class TestReporters:
    def test_json_reporter_schema(self, tmp_path):
        code, text = lint_fixture_via_cli(
            tmp_path, RULE_FIXTURES["SIM101"], "--format", "json"
        )
        assert code != 0
        report = json.loads(text)
        assert report["schema"] == "repro-simlint/1"
        assert report["files_checked"] == 1
        assert report["num_findings"] == len(report["findings"]) >= 1
        finding = report["findings"][0]
        assert finding["rule"] == "SIM101"
        assert {"severity", "path", "line", "col", "message"} <= set(finding)

    def test_text_reporter_locates_finding(self):
        findings = lint_source(RULE_FIXTURES["SIM102"], path="fix.py")
        text = render_text(findings, files_checked=1)
        assert "fix.py:2:" in text
        assert "SIM102" in text
        assert "1 finding(s)" in text

    def test_json_of_empty_report(self):
        report = json.loads(render_json([], files_checked=3))
        assert report["num_findings"] == 0
        assert report["findings"] == []


class TestRuleRegistry:
    def test_list_rules_cli(self):
        code, text = run_cli("lint", "--list-rules")
        assert code == 0
        for rule in all_rules():
            assert rule.rule_id in text

    def test_docstring_drift_is_a_warning_rest_are_errors(self):
        severities = {
            r.rule_id: r.severity for r in all_rules(project=False)
        }
        assert severities.pop("SIM401") is Severity.WARNING
        assert all(s is Severity.ERROR for s in severities.values())


class TestRepoIsClean:
    def test_lint_passes_on_own_source_tree(self):
        """The gate CI enforces: src/repro at HEAD has zero findings."""
        code, text = run_cli("lint")
        assert code == 0, text
        assert "clean" in text
