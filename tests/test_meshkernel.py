"""Build, load and fallback behaviour of the compiled mesh step.

The differential tests in ``test_fastmesh.py`` / ``test_faults.py`` hold
the kernel's *results* to the reference engine; these tests cover how
it is built (once, atomically, into a per-user cache), what happens
without a C compiler, that code paths which never need the kernel never
invoke the compiler, and that the array table handed to C is checked.
"""

import os
import platform
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import BFS
from repro.core import CycleAccurateScalaGraph, ScalaGraph, ScalaGraphConfig
from repro.errors import ConfigurationError, SimulationError
from repro.graph.generators import rmat_graph
from repro.noc import (
    FastMeshNetwork,
    MeshNetwork,
    MeshTopology,
    make_mesh_network,
    meshkernel,
    resolve_engine,
)
from repro.noc import fastmesh

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Builds a kernel in a fresh process and drains one packet through it.
_CHILD = textwrap.dedent(
    """
    from repro.noc import FastMeshNetwork, MeshTopology, Packet
    net = FastMeshNetwork(MeshTopology(3, 3))
    net.schedule(Packet(src=0, dst=8, vertex=1))
    stats = net.run_until_drained()
    print(stats.delivered, stats.total_hops, net._kernel.path)
    """
)


class TestBuild:
    def test_concurrent_first_builds_leave_one_library(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CHILD], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outputs = [p.communicate(timeout=120) for p in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            delivered, hops, path = out.split()
            assert (int(delivered), int(hops)) == (1, 4)
        files = sorted((tmp_path / "repro").iterdir())
        assert len(files) == 1, files  # no temp files left behind
        assert files[0].suffix == ".so"
        assert {out.split()[2] for out, _ in outputs} == {str(files[0])}
        kernel = meshkernel.MeshKernel(files[0])
        assert kernel.table_slots > 0

    def test_source_hash_names_the_library(self, tmp_path):
        path = meshkernel.build(tmp_path)
        assert path.parent == tmp_path
        assert meshkernel.build(tmp_path) == path  # second call: no rebuild

    def test_platform_is_part_of_the_key(self, tmp_path, monkeypatch):
        here = meshkernel._library_path(tmp_path)
        monkeypatch.setattr(platform, "machine", lambda: "other-arch")
        assert meshkernel._library_path(tmp_path) != here

    def test_damaged_library_is_rebuilt_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(meshkernel, "_LOADED", {})
        target = meshkernel._library_path(meshkernel.cache_dir())
        target.parent.mkdir(mode=0o700)
        target.write_bytes(b"not a shared library")
        kernel = meshkernel.load()
        assert kernel.path == target
        assert kernel.table_slots > 0
        assert sorted(target.parent.iterdir()) == [target]

    @pytest.mark.parametrize("mode", [0o777, 0o770])
    def test_shared_cache_dir_refused(self, tmp_path, mode):
        shared = tmp_path / "repro"
        shared.mkdir()
        shared.chmod(mode)
        with pytest.raises(ConfigurationError, match="refusing"):
            meshkernel.build(shared)
        assert list(shared.iterdir()) == []

    def test_cache_dir_of_another_user_refused(self, tmp_path, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        with pytest.raises(ConfigurationError, match="refusing"):
            meshkernel.build(tmp_path)

    def test_cache_dir_created_private(self, tmp_path):
        meshkernel.build(tmp_path / "cache" / "repro")
        mode = (tmp_path / "cache" / "repro").stat().st_mode
        assert mode & 0o777 == 0o700

    def test_source_ships_as_package_data(self, tmp_path):
        """An installed copy carries the C source it builds from."""
        pytest.importorskip("setuptools")  # the build backend
        repo = Path(SRC).parent
        project = tmp_path / "project"  # build metadata lands here
        shutil.copytree(
            repo / "src", project / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        for name in ("pyproject.toml", "setup.py", "README.md"):
            shutil.copy(repo / name, project / name)
        subprocess.run(
            [sys.executable, "setup.py", "-q", "build_py",
             "--build-lib", str(tmp_path / "lib")],
            cwd=project, check=True, capture_output=True,
        )
        installed = tmp_path / "lib" / "repro" / "noc" / "meshkernel.c"
        assert installed.read_bytes() == meshkernel.SOURCE.read_bytes()


class TestWithoutCompiler:
    @pytest.fixture
    def no_cc(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))

    def test_auto_falls_back_with_a_warning(self, no_cc):
        big = MeshTopology(8, 8)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert resolve_engine("auto", big) == "reference"
        with pytest.warns(RuntimeWarning):
            assert isinstance(make_mesh_network(big), MeshNetwork)

    def test_vectorized_raises(self, no_cc):
        with pytest.raises(ConfigurationError, match="no C compiler"):
            resolve_engine("vectorized", MeshTopology(8, 8))
        with pytest.raises(ConfigurationError):
            FastMeshNetwork(MeshTopology(2, 2))

    def test_small_auto_mesh_needs_no_compiler(self, no_cc, recwarn):
        assert resolve_engine("auto", MeshTopology(4, 4)) == "reference"
        assert not recwarn.list


def test_reference_paths_never_compile(tmp_path, monkeypatch):
    """The analytic model and a 4x4 reference cycle run (what the Fig. 14
    sweep and the daemon execute) never build the kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    calls = []

    def record(*args):
        calls.append(args)
        raise AssertionError("compiler invoked")

    monkeypatch.setattr(meshkernel, "_compile", record)
    graph = rmat_graph(6, edge_factor=4, seed=3)
    ScalaGraph(ScalaGraphConfig()).run(BFS(), graph)
    config = ScalaGraphConfig(num_tiles=1, pe_rows=4, pe_cols=4)
    CycleAccurateScalaGraph(config).run(BFS(), graph)
    assert calls == []
    assert not (tmp_path / "repro").exists()


class TestAbiChecks:
    def test_buffer_layout_matches_the_kernel(self):
        kernel = meshkernel.load()
        assert [name for name, _ in kernel.layout] == list(
            fastmesh._KERNEL_BUFFERS
        )
        assert dict(kernel.layout)["_dead"] == "b1"
        assert dict(kernel.layout)["_pkt_value"] == "f8"

    @pytest.mark.parametrize("change", ["reorder", "retype", "slots"])
    def test_layout_mismatch_rejected(self, monkeypatch, change):
        kernel = meshkernel.load()
        layout = list(kernel.layout)
        if change == "reorder":  # same count, two buffers swapped
            layout[10], layout[11] = layout[11], layout[10]
            monkeypatch.setattr(kernel, "layout", tuple(layout))
        elif change == "retype":
            layout[11] = ("_dead", "i8")
            monkeypatch.setattr(kernel, "layout", tuple(layout))
        else:
            monkeypatch.setattr(kernel, "table_slots", kernel.table_slots + 1)
        with pytest.raises(SimulationError, match="does not match"):
            FastMeshNetwork(MeshTopology(2, 2))

    def test_wrong_dtype_rejected(self):
        net = FastMeshNetwork(MeshTopology(2, 2))
        net._pkt_dst = net._pkt_dst.astype(np.int32)
        with pytest.raises(SimulationError, match="_pkt_dst"):
            net._bind()

    def test_non_contiguous_rejected(self):
        net = FastMeshNetwork(MeshTopology(2, 2))
        net._count = np.zeros((5, 4), dtype=np.int64).T
        with pytest.raises(SimulationError, match="_count"):
            net._bind()

    def test_growth_rebinds(self):
        """Staging, registry and delivery-log reallocations rebind the
        table, so the kernel keeps reading and writing the live arrays."""
        net = FastMeshNetwork(MeshTopology(2, 2), buffer_depth=2)
        ok = net.inject_batch(  # more entries than nodes: staging grows
            np.zeros(6, dtype=np.int64), np.full(6, 3), np.arange(6),
            np.ones(6),
        )
        np.testing.assert_array_equal(ok, [True] * 2 + [False] * 4)
        sent = 6
        for _ in range(1500):
            net.inject_batch(
                np.array([0, 3]), np.array([3, 0]),
                np.array([sent, sent + 1]), np.ones(2),
            )
            sent += 2
            net.step()
        net.run_until_drained()
        assert net.delivered_count() == net.stats.injected > 1024
        _dst, vtx, _val = net.delivered_arrays()
        assert np.unique(vtx).size == vtx.size
