"""CLI tests (exercised in-process through main())."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDatasets:
    def test_lists_registry(self):
        code, text = run_cli("datasets")
        assert code == 0
        for key in ("FL", "PK", "LJ", "OR", "RM", "TW"):
            assert key in text
        assert "1,468,400,000" in text  # Twitter's paper edge count


class TestRun:
    def test_basic_run(self):
        code, text = run_cli(
            "run", "-d", "PK", "-a", "bfs", "--scale-shift", "-4"
        )
        assert code == 0
        assert "ScalaGraph-512" in text
        assert "GTEPS" in text

    def test_pes_and_mapping(self):
        code, text = run_cli(
            "run",
            "-d", "PK",
            "-a", "pagerank",
            "--pes", "128",
            "--mapping", "som",
            "--scale-shift", "-4",
            "--max-iterations", "3",
        )
        assert code == 0
        assert "ScalaGraph-128" in text

    def test_verbose_breakdown(self):
        code, text = run_cli(
            "run",
            "-d", "PK",
            "-a", "bfs",
            "--scale-shift", "-4",
            "--verbose",
        )
        assert code == 0
        assert "bottleneck" in text
        assert "scatter cyc" in text

    def test_torus_mapping(self):
        code, text = run_cli(
            "run",
            "-d", "PK",
            "-a", "pagerank",
            "--mapping", "rom-torus",
            "--scale-shift", "-4",
            "--max-iterations", "3",
        )
        assert code == 0

    def test_knobs(self):
        code, _ = run_cli(
            "run",
            "-d", "PK",
            "-a", "cc",
            "--registers", "0",
            "--window", "1",
            "--no-pipelining",
            "--scale-shift", "-4",
        )
        assert code == 0


class TestCompare:
    def test_all_systems(self):
        code, text = run_cli(
            "compare",
            "-d", "PK",
            "-a", "bfs",
            "--scale-shift", "-4",
        )
        assert code == 0
        for label in (
            "Gunrock",
            "GraphDynS-128",
            "GraphDynS-512",
            "ScalaGraph-128",
            "ScalaGraph-512",
        ):
            assert label in text


class TestSweep:
    def test_pe_sweep(self):
        code, text = run_cli(
            "sweep",
            "-d", "PK",
            "-a", "pagerank",
            "--pes", "32", "512",
            "--scale-shift", "-4",
            "--max-iterations", "3",
        )
        assert code == 0
        assert "32" in text and "512" in text


class TestBench:
    BASE = (
        "bench",
        "-d", "PK",
        "-a", "bfs",
        "--systems", "GraphDynS-128", "ScalaGraph-512",
        "--scale-shift", "-5",
        "--max-iterations", "3",
        "--workers", "1",
    )

    def test_json_summary(self, tmp_path):
        code, text = run_cli(
            *self.BASE, "--cache-dir", str(tmp_path / "cache"), "--json"
        )
        assert code == 0
        summary = json.loads(text)
        assert summary["schema"] == "repro-bench/2"
        # Per-phase profiles for both models.
        analytic = summary["profiles"]["analytic"]
        assert "analytic.scatter_model" in analytic["timers"]
        assert "analytic.apply_model" in analytic["timers"]
        cycle = summary["profiles"]["cycle_sim"]
        assert "cycle_sim.scatter" in cycle["timers"]
        assert "cycle_sim.apply" in cycle["timers"]
        assert cycle["counters"]["cycle_sim.spd_reduces"] > 0
        # Sweep cells carry machine-readable metrics.
        assert len(summary["sweep"]["cells"]) == 2
        for cell in summary["sweep"]["cells"]:
            assert cell["gteps"] > 0
        assert summary["cache"]["stores"] == 2

    def test_warm_cache_reported(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(*self.BASE, "--cache-dir", cache_dir, "--json")
        code, text = run_cli(*self.BASE, "--cache-dir", cache_dir, "--json")
        assert code == 0
        summary = json.loads(text)
        assert summary["cache"]["hits"] == 2
        assert summary["cache"]["stores"] == 0

    def test_no_cache(self, tmp_path):
        code, text = run_cli(
            *self.BASE, "--cache-dir", str(tmp_path / "cache"), "--no-cache",
            "--json",
        )
        assert code == 0
        assert json.loads(text)["cache"] == {"enabled": False}
        assert not (tmp_path / "cache").exists()

    def test_human_readable(self, tmp_path):
        code, text = run_cli(
            *self.BASE, "--cache-dir", str(tmp_path / "cache")
        )
        assert code == 0
        assert "GTEPS" in text
        assert "cycle_sim.scatter" in text

    def test_output_file(self, tmp_path):
        out_file = tmp_path / "bench.json"
        code, _ = run_cli(
            *self.BASE,
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(out_file),
        )
        assert code == 0
        summary = json.loads(out_file.read_text())
        assert summary["schema"] == "repro-bench/2"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-a", "dijkstra"])

    def test_new_algorithms_available(self):
        args = build_parser().parse_args(["run", "-a", "spmv"])
        assert args.algorithm == "spmv"
        args = build_parser().parse_args(["run", "-a", "sswp"])
        assert args.algorithm == "sswp"


class TestUserErrors:
    """A user error prints one ``error:`` line on stderr and exits 2, as
    argparse does; a simulator fault keeps its traceback."""

    def test_bad_pe_count(self, capsys):
        code, text = run_cli("run", "--pes", "100")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: 50 PEs/tile is not a whole number of 16-PE columns\n"
        )

    def test_no_daemon(self, tmp_path, capsys):
        state = tmp_path / "missing"
        assert run_cli("submit", "--state-dir", str(state)) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: no daemon endpoint at {state / 'service.json'} "
        )
        assert err.count("\n") == 1

    def test_simulation_error_propagates(self, monkeypatch):
        from repro import cli
        from repro.errors import SimulationError

        def broken(args, out):
            raise SimulationError("inconsistent state")

        monkeypatch.setitem(cli._COMMANDS, "datasets", broken)
        with pytest.raises(SimulationError, match="inconsistent state"):
            run_cli("datasets")
