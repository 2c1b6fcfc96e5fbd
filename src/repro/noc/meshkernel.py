"""Build and load the compiled cycle loops (``meshkernel.c``).

:class:`~repro.noc.fastmesh.FastMeshNetwork` runs its per-cycle work —
XY routing, fault deflection, round-robin switch allocation, credit
backpressure, commit, ejection and link traversal of single-flit
packets — in one small C source shipped beside this module; the
vectorized scatter phase (:mod:`repro.core.fastsim`) runs its whole
cycle loop there too, stepping the mesh with the same code.
The source is compiled once per machine with the system ``cc`` and
called through :mod:`ctypes`, so NumPy stays the only Python
dependency.  The kernel declares each table it reads (buffer addresses,
then int64 scalar slots) and spells it out at run time; a
:class:`TableLayout` maps that spelling to positions, so the engines
bind buffers and set and read slots by name, never by a count of their
own.

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
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "CFLAGS",
    "SOURCE",
    "MeshKernel",
    "TableLayout",
    "address",
    "build",
    "cache_dir",
    "load",
]

#: The kernel source, installed as package data next to this module.
SOURCE = Path(__file__).with_name("meshkernel.c")
#: Compiler flags; part of the library's cache key.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


class TableLayout:
    """One kernel table as compiled: the addresses of its buffers in
    the kernel's order, then its int64 scalar slots.

    ``spelling`` is the kernel's own, ``name:type`` for each buffer
    (``type`` a dtype's ``str`` minus its byte-order character, such as
    ``b1``) and a bare name for each slot; ``buffers`` lists the buffers
    as ``(name, type)`` pairs, ``size`` is the table's length in int64
    entries, and :meth:`at` finds any buffer or slot by name.  An engine
    builds a table per phase or mesh, so the layout remembers the
    declarations it last accepted and the positions it found.
    """

    def __init__(self, title: str, spelling: str) -> None:
        self.title = title
        self.spelling = spelling
        entries = [entry.partition(":") for entry in spelling.split()]
        self.buffers = tuple(
            (name, kind) for name, _, kind in entries if kind
        )
        self._positions = {
            name: at for at, (name, _, _) in enumerate(entries)
        }
        self.size = len(entries)
        self._accepted: Optional[Mapping[str, str]] = None
        self._found: Dict[Tuple[str, ...], np.ndarray] = {}

    def check(self, dtypes: Mapping[str, str]) -> None:
        """Refuse a table with a buffer that ``dtypes``, a module's
        buffer declarations, lacks or declares of another type."""
        if dtypes is self._accepted:
            return
        for name, kind in self.buffers:
            declared = dtypes.get(name)
            if declared is None or np.dtype(declared).str[1:] != kind:
                raise SimulationError(
                    f"{self.title} reads buffer {name} as {kind}, but "
                    f"it is declared {declared or 'nowhere'}"
                )
        self._accepted = dtypes

    def at(self, *names: str) -> np.ndarray:
        """Positions of the named buffers and slots in the table (an
        array the caller must not write)."""
        found = self._found.get(names)
        if found is None:
            missing = [n for n in names if n not in self._positions]
            if missing:
                raise SimulationError(
                    f"{self.title} has no slot {', '.join(missing)}"
                )
            found = np.array(
                [self._positions[name] for name in names], dtype=np.intp
            )
            self._found[names] = found
        return found


def address(name: str, array: np.ndarray, dtype: str) -> int:
    """``array``'s data address, once it is checked to be C-contiguous
    and of ``dtype``, the type declared for buffer ``name``: the kernel
    reads it as raw memory of that type."""
    want = np.dtype(dtype)
    if array.dtype != want or not array.flags.c_contiguous:
        raise SimulationError(
            f"kernel buffer {name} must be a C-contiguous {want} array, "
            f"got {array.dtype} (C-contiguous: {array.flags.c_contiguous})"
        )
    return int(array.ctypes.data)


class MeshKernel:
    """ctypes bindings of one loaded kernel library.

    ``step(table, cycle, delivered_so_far)`` takes the address of the
    mesh's int64 table, ``phase(table, stop_cycle)`` and ``fold(table,
    pes, updates, partial_slots)`` that of a scatter phase's;
    ``mesh_layout`` and ``phase_layout`` are those tables as compiled
    (``meshkernel.c`` declares them).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._lib = ctypes.CDLL(str(path))
        self.step = self._function("fm_step", 2)
        self.phase = self._function("fs_run", 1)
        self.fold = self._function("fs_fold", 3)
        self.mesh_layout = self._layout("fm", "mesh")
        self.phase_layout = self._layout("fs", "phase")

    def _function(self, name: str, scalars: int) -> Any:
        """Kernel entry ``name``: a table address, then ``scalars``
        int64 arguments; returns an int64."""
        function = getattr(self._lib, name)
        function.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * scalars
        function.restype = ctypes.c_int64
        return function

    def _layout(self, prefix: str, table: str) -> TableLayout:
        spell = getattr(self._lib, f"{prefix}_layout")
        spell.argtypes = []
        spell.restype = ctypes.c_char_p
        return TableLayout(
            f"{table} table of {self.path.name}", spell().decode()
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
