"""Build and load the compiled mesh step (``meshkernel.c``).

:class:`~repro.noc.fastmesh.FastMeshNetwork` runs its per-cycle work —
link-busy tick, XY routing, fault deflection, round-robin switch
allocation, credit backpressure, commit, ejection and link traversal —
and its batched injection in one small C source shipped beside this
module.  The source is compiled once per machine with the system ``cc``
and called through :mod:`ctypes`, so NumPy stays the only Python
dependency.

The shared library lives in a per-user cache, ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), named by a hash of the source, the
compiler flags and the platform, so an edited source or another
architecture sharing the cache gets its own build.  The cache directory
is created private (mode 0700); one that another user owns or that
others can write to is refused, since a library planted there would be
loaded.  Concurrent first builds each compile into their own temporary
file and publish it with an atomic :func:`os.replace`; a cached library
that fails to load is rebuilt once.  Nothing is built at import:
:func:`load` runs when a ``FastMeshNetwork`` is constructed or an engine
choice would construct one, and remembers its result (the library or
the build error) for the life of the process, as the dynamic loader
does for the library itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["CFLAGS", "SOURCE", "MeshKernel", "build", "cache_dir", "load"]

#: The kernel source, installed as package data next to this module.
SOURCE = Path(__file__).with_name("meshkernel.c")
#: Compiler flags; part of the library's cache key.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


class MeshKernel:
    """ctypes bindings of one loaded kernel library.

    ``step(table, cycle, delivered_so_far)`` and
    ``inject(table, count, cycle, first_packet_index)`` take the address
    of the int64 table described in ``meshkernel.c``.  ``layout`` is the
    table's buffer list as compiled, ``(attribute, element type)`` pairs
    such as ``("_buf", "i8")``, and ``table_slots`` the table's length.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._lib = ctypes.CDLL(str(path))
        self.step = self._lib.fm_step
        self.step.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2
        self.step.restype = ctypes.c_int64
        self.inject = self._lib.fm_inject
        self.inject.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3
        self.inject.restype = ctypes.c_int64
        slots = self._lib.fm_table_slots
        slots.argtypes = []
        slots.restype = ctypes.c_int64
        self.table_slots = int(slots())
        layout = self._lib.fm_layout
        layout.argtypes = []
        layout.restype = ctypes.c_char_p
        self.layout: Tuple[Tuple[str, str], ...] = tuple(
            (name, kind)
            for name, _, kind in (
                entry.partition(":") for entry in layout().decode().split()
            )
        )


#: Library path -> loaded kernel, or why it could not be built.
_LOADED: Dict[Path, Union[MeshKernel, str]] = {}


def cache_dir() -> Path:
    """The per-user directory the kernel library is built into."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro"


def _library_path(directory: Path) -> Path:
    key = hashlib.sha256(SOURCE.read_bytes())
    for part in (" ".join(CFLAGS), sys.platform, platform.machine()):
        key.update(b"\0" + part.encode())
    return directory / f"meshkernel-{key.hexdigest()[:16]}.so"


def _private_dir(directory: Path) -> None:
    """Create ``directory`` (mode 0700) unless it exists; refuse one that
    another user owns or that others can write to."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise ConfigurationError(
            f"refusing kernel cache {directory}: it must be owned by the "
            "current user and writable by no one else"
        )


def _compile(compiler: str, output: str) -> None:
    subprocess.run(
        [compiler, *CFLAGS, "-o", output, str(SOURCE)],
        check=True,
        capture_output=True,
        text=True,
    )


def build(directory: Path, rebuild: bool = False) -> Path:
    """Compile the kernel into ``directory`` unless it is already there
    (or ``rebuild``); returns the library path.  Raises
    :class:`ConfigurationError` when no ``cc`` is on ``PATH``, the
    compile fails or the directory is not private to this user."""
    target = _library_path(directory)
    _private_dir(directory)
    if target.exists() and not rebuild:
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise ConfigurationError("no C compiler: `cc` is not on PATH")
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{target.name}.", suffix=".tmp"
    )
    os.close(fd)
    try:
        try:
            _compile(compiler, tmp)
        except subprocess.CalledProcessError as exc:
            raise ConfigurationError(
                f"`cc` failed to build {SOURCE.name}:\n{exc.stderr}"
            ) from exc
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load() -> MeshKernel:
    """The kernel for this machine, built on first use.

    Raises :class:`ConfigurationError` when it cannot be built or
    loaded; the failure is remembered, so later calls raise at once.
    """
    path = _library_path(cache_dir())
    kernel = _LOADED.get(path)
    if kernel is None:
        try:
            try:
                kernel = MeshKernel(build(path.parent))
            except OSError:  # a damaged library: replace it once
                kernel = MeshKernel(build(path.parent, rebuild=True))
        except (ConfigurationError, OSError) as exc:
            kernel = str(exc)
        _LOADED[path] = kernel
    if isinstance(kernel, str):
        raise ConfigurationError(
            f"compiled mesh kernel unavailable: {kernel}"
        )
    return kernel
