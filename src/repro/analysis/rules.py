"""The shipped simlint rules.

Each rule encodes one property this reproduction depends on:

* ``SIM101`` / ``SIM102`` — determinism: ScalaGraph's dispatch and the
  result cache both assume a run is a pure function of (graph, config,
  seed); an unseeded RNG or a wall-clock read in model code breaks that.
* ``SIM201`` / ``SIM202`` — unit discipline over the calibrated timing
  constants (cycles vs ns vs MHz, paper Sections V-A/V-B).
* ``SIM301`` / ``SIM302`` — Python foot-guns that have produced silent
  accounting bugs before (shared mutable state, swallowed errors).
* ``SIM401`` — docstring/dataclass drift on frozen config dataclasses,
  whose Attributes sections are the de-facto spec of the timing model.
* ``SIM501`` — liveness of the parallel experiment runner: collecting a
  worker result without a timeout turns one crashed worker into a hung
  sweep.
* ``SIM502`` — liveness of the sweep service: a blocking call inside an
  ``async def`` freezes the daemon's event loop, stalling every
  connected client, the admission queue, and the SIGTERM drain at once.

Adding a rule: write a ``check(ctx: FileContext) -> List[Finding]``
function here and decorate it with :func:`repro.analysis.simlint.register`;
it is then active everywhere (CLI, CI, tests) and suppressible with
``# simlint: disable=<id>``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set

from repro.analysis.simlint import (
    FileContext,
    Finding,
    Rule,
    Severity,
    dotted_name,
    register,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _walk(tree: ast.AST, *types: type) -> List[ast.AST]:
    return [n for n in ast.walk(tree) if isinstance(n, types)]


# ----------------------------------------------------------------------
# SIM101: unseeded / global-state RNG
# ----------------------------------------------------------------------

#: stdlib ``random`` module functions that consume the hidden global RNG.
_STDLIB_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "seed",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "getrandbits",
}

#: legacy ``np.random.*`` functions backed by NumPy's global RandomState.
_NUMPY_GLOBAL_RNG_FNS = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "binomial",
    "poisson",
}


@register(
    "SIM101",
    Severity.ERROR,
    "unseeded or global-state RNG (np.random.default_rng() without a "
    "seed, legacy np.random.*, stdlib random.*)",
)
def unseeded_rng(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM101")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.Call):
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if parts[-1] == "default_rng" and len(parts) >= 2 and (
            parts[-2] == "random"
        ):
            if not node.args and not node.keywords:
                findings.append(
                    ctx.finding(
                        rule,
                        node,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
                )
            continue
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _STDLIB_RANDOM_FNS
        ):
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"stdlib random.{parts[1]}() uses the hidden global "
                    "RNG; use a seeded np.random.Generator",
                )
            )
            continue
        if (
            len(parts) >= 3
            and parts[-2] == "random"
            and parts[-3] in ("np", "numpy")
            and parts[-1] in _NUMPY_GLOBAL_RNG_FNS
        ):
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"legacy np.random.{parts[-1]}() draws from NumPy's "
                    "global RandomState; use np.random.default_rng(seed)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM102: wall-clock reads in simulator code
# ----------------------------------------------------------------------

#: Wall-clock calls that leak host time into results.  Monotonic timers
#: (perf_counter/monotonic) are allowed: the Profiler uses them for
#: wall-time *reporting*, never for simulated state.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}


@register(
    "SIM102",
    Severity.ERROR,
    "wall-clock read (time.time/datetime.now) in simulator code",
)
def wall_clock(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM102")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.Call):
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"{name}() reads the wall clock; simulated state must "
                    "be a function of (graph, config, seed) — use "
                    "time.perf_counter() for host-time profiling only",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM201: float equality
# ----------------------------------------------------------------------

#: Name suffixes that are float-valued throughout this codebase.
_FLOATISH_SUFFIXES = (
    "_ns",
    "_us",
    "_ms",
    "_seconds",
    "_mhz",
    "_ghz",
    "_hz",
    "_gbs",
    "_rate",
    "_fraction",
    "_efficiency",
    "_watts",
    "_joules",
    "_gteps",
)


def _looks_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None:
        return name.endswith(_FLOATISH_SUFFIXES) or name in (
            "rate",
            "fraction",
            "efficiency",
        )
    return False


@register(
    "SIM201",
    Severity.ERROR,
    "== / != on float-valued operands in timing/model code",
)
def float_equality(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM201")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.Compare):
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _looks_float(left) or _looks_float(right):
                findings.append(
                    ctx.finding(
                        rule,
                        node,
                        "exact equality on float operands; use "
                        "math.isclose/np.isclose or compare integers",
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# SIM202: unit mixing without conversion
# ----------------------------------------------------------------------

#: Suffix -> unit label.  Longest suffix wins (``_ns`` must not also
#: match names ending in ``_seconds``... it cannot, suffixes are
#: matched with str.endswith against this exact table).
_UNIT_SUFFIXES: Dict[str, str] = {
    "_cycles": "cycles",
    "_cycle": "cycles",
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_seconds": "s",
    "_mhz": "MHz",
    "_ghz": "GHz",
    "_hz": "Hz",
    "_gbs": "GB/s",
}


def _unit_of(node: ast.AST) -> Optional[str]:
    """The unit a bare expression carries, judged by its name suffix.

    Multiplication/division and function calls count as explicit
    conversions, so they (deliberately) carry no unit.
    """
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return None
    matching = [s for s in _UNIT_SUFFIXES if name.endswith(s)]
    if not matching:
        return None
    # Longest suffix wins (e.g. ``_mhz`` over ``_hz``).
    return _UNIT_SUFFIXES[max(matching, key=len)]


@register(
    "SIM202",
    Severity.ERROR,
    "adds/subtracts/compares quantities with different unit suffixes "
    "(_cycles/_ns/_mhz/...) without an explicit conversion",
)
def unit_mixing(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM202")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.BinOp):
        assert isinstance(node, ast.BinOp)
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            continue
        left, right = _unit_of(node.left), _unit_of(node.right)
        if left and right and left != right:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"arithmetic mixes {left} and {right}; convert "
                    "explicitly (multiply/divide) before combining",
                )
            )
    for node in _walk(ctx.tree, ast.Compare):
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for left_op, right_op in zip(operands, operands[1:]):
            left, right = _unit_of(left_op), _unit_of(right_op)
            if left and right and left != right:
                findings.append(
                    ctx.finding(
                        rule,
                        node,
                        f"comparison mixes {left} and {right}; convert "
                        "to one unit first",
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# SIM301: mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = {"list", "dict", "set", "deque", "defaultdict",
                      "Counter", "OrderedDict", "bytearray"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
            return True
    return False


@register(
    "SIM301",
    Severity.ERROR,
    "mutable default argument (shared across calls)",
)
def mutable_default(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM301")
    findings: List[Finding] = []
    for node in _walk(
        ctx.tree, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda
    ):
        args: ast.arguments = getattr(node, "args")
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    ctx.finding(
                        rule,
                        default,
                        "mutable default argument is shared across "
                        "calls; default to None (or use "
                        "dataclasses.field(default_factory=...))",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# SIM302: bare / overbroad except
# ----------------------------------------------------------------------


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


@register(
    "SIM302",
    Severity.ERROR,
    "bare `except:` or `except Exception:` that does not re-raise",
)
def overbroad_except(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM302")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.ExceptHandler):
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    "bare `except:` swallows every error (including "
                    "KeyboardInterrupt); catch a ReproError subclass",
                )
            )
            continue
        name = dotted_name(node.type)
        if name in ("Exception", "BaseException") and not _handler_reraises(
            node
        ):
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"`except {name}:` without re-raise hides simulator "
                    "bugs; catch a specific error or re-raise",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM401: docstring <-> frozen-dataclass drift
# ----------------------------------------------------------------------

#: Frozen dataclasses with at least this many fields must carry an
#: Attributes section — they are de-facto configuration specs.
_ATTR_SECTION_MIN_FIELDS = 4

#: One Attributes entry; ``a / b:`` documents several fields at once.
_ATTR_ENTRY_RE = re.compile(
    r"^(\s+)([A-Za-z_][A-Za-z0-9_]*(?:\s*/\s*[A-Za-z_][A-Za-z0-9_]*)*):"
)


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func)
        if name is None or name.split(".")[-1] != "dataclass":
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = dotted_name(stmt.annotation)
        if annotation and annotation.split(".")[-1] == "ClassVar":
            continue
        if isinstance(stmt.annotation, ast.Subscript):
            base = dotted_name(stmt.annotation.value)
            if base and base.split(".")[-1] == "ClassVar":
                continue
        fields.append(name)
    return fields


def _documented_attributes(docstring: str) -> Optional[Set[str]]:
    """Names listed in the docstring's ``Attributes:`` section, or None
    when the section is absent."""
    lines = docstring.splitlines()
    try:
        start = next(
            i
            for i, line in enumerate(lines)
            if line.strip() in ("Attributes:", "Attributes")
        )
    except StopIteration:
        return None
    entry_indent: Optional[str] = None
    names: Set[str] = set()
    for line in lines[start + 1:]:
        if not line.strip():
            continue
        match = _ATTR_ENTRY_RE.match(line)
        if entry_indent is None:
            if match is None:
                break  # section body must open with an entry
            entry_indent = match.group(1)
        if match is None:
            # Continuation/free text: a shallower indent ends the section.
            indent = line[: len(line) - len(line.lstrip())]
            if len(indent) < len(entry_indent):
                break
            continue
        if match.group(1) == entry_indent:
            for name in match.group(2).split("/"):
                names.add(name.strip())
    return names


@register(
    "SIM401",
    Severity.WARNING,
    "frozen dataclass whose docstring Attributes section drifted from "
    "its fields",
)
def docstring_drift(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM401")
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.ClassDef):
        assert isinstance(node, ast.ClassDef)
        if not _is_frozen_dataclass(node):
            continue
        fields = _dataclass_fields(node)
        if not fields:
            continue
        docstring = ast.get_docstring(node, clean=True) or ""
        documented = _documented_attributes(docstring)
        if documented is None:
            if len(fields) >= _ATTR_SECTION_MIN_FIELDS:
                findings.append(
                    ctx.finding(
                        rule,
                        node,
                        f"frozen dataclass {node.name} has "
                        f"{len(fields)} fields but no Attributes "
                        "docstring section",
                    )
                )
            continue
        missing = [f for f in fields if f not in documented]
        stale = sorted(documented - set(fields))
        if missing:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"{node.name}: fields missing from the Attributes "
                    f"docstring section: {', '.join(missing)}",
                )
            )
        if stale:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"{node.name}: Attributes section documents names "
                    f"that are not fields: {', '.join(stale)}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM501: unbounded blocking on worker results
# ----------------------------------------------------------------------


def _imports_concurrency(tree: ast.AST) -> bool:
    """Whether the module imports concurrent.futures/multiprocessing."""
    for node in _walk(tree, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            names = [node.module or ""]
        for name in names:
            if name.split(".")[0] in ("concurrent", "multiprocessing"):
                return True
    return False


@register(
    "SIM501",
    Severity.ERROR,
    "collects worker results without a timeout (future.result()/.get(), "
    "wait()/as_completed() without timeout=) — hangs forever on a dead "
    "or stuck worker",
)
def unbounded_result_wait(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM501")
    if not _imports_concurrency(ctx.tree):
        return []
    # A wait wrapped directly in asyncio.wait_for(..., timeout=...) is
    # already bounded by the wrapper, even though the inner call itself
    # carries no timeout argument.
    bounded: set = set()
    for node in _walk(ctx.tree, ast.Call):
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None or name.split(".")[-1] != "wait_for":
            continue
        if len(node.args) >= 2 or any(
            kw.arg == "timeout" for kw in node.keywords
        ):
            bounded.update(id(arg) for arg in node.args)
    findings: List[Finding] = []
    for node in _walk(ctx.tree, ast.Call):
        assert isinstance(node, ast.Call)
        if id(node) in bounded:
            continue
        if any(kw.arg == "timeout" for kw in node.keywords):
            continue
        # future.result() / AsyncResult.get() with no arguments blocks
        # until the worker responds — which a killed worker never does.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "result",
            "get",
        ):
            if not node.args and not node.keywords:
                findings.append(
                    ctx.finding(
                        rule,
                        node,
                        f".{node.func.attr}() without timeout= blocks "
                        "forever on a hung or killed worker; pass "
                        "timeout= and handle the expiry",
                    )
                )
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        last = name.split(".")[-1]
        # wait(fs)/as_completed(fs): the second positional argument is
        # the timeout, so fewer than two positionals and no timeout=
        # keyword means an unbounded wait.
        if last in ("wait", "as_completed") and len(node.args) < 2:
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"{last}() without timeout= never returns if a "
                    "worker dies without resolving its future; pass "
                    "timeout= and re-check liveness on expiry",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM502: blocking call inside the async service loop
# ----------------------------------------------------------------------

#: Calls that block the thread, by canonical dotted name.  Inside an
#: ``async def`` every one of these freezes the entire event loop — in
#: the sweep daemon that means every connected client, the admission
#: queue, and the drain handler all stall together.
_BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "urllib.request.urlopen",
    "socket.create_connection",
    "requests.get",
    "requests.post",
    "requests.put",
    "requests.delete",
}

#: Async replacements suggested per blocked call family.
_ASYNC_ALTERNATIVES = {
    "time.sleep": "await asyncio.sleep(...)",
    "urllib.request.urlopen": "loop.run_in_executor(...)",
    "socket.create_connection": "asyncio.open_connection(...)",
}


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical dotted name, for from-imports/aliases.

    Resolves the two spellings that would otherwise dodge the dotted
    match: ``from time import sleep`` (bare ``sleep(...)``) and
    ``import subprocess as sp`` (``sp.run(...)``).
    """
    aliases: Dict[str, str] = {}
    for node in _walk(tree, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        else:
            assert isinstance(node, ast.ImportFrom)
            for alias in node.names:
                full = f"{node.module}.{alias.name}" if node.module else alias.name
                if full in _BLOCKING_CALLS:
                    aliases[alias.asname or alias.name] = full
    return aliases


def _async_scope_calls(fn: ast.AST) -> List[ast.Call]:
    """Call nodes executed *in* an async function's own scope.

    Nested sync ``def``/``lambda`` bodies are excluded (they run
    wherever they are called, typically shipped to an executor), and so
    are nested ``async def`` bodies (each async function is audited as
    its own scope).
    """
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


@register(
    "SIM502",
    Severity.ERROR,
    "blocking call inside an async function (time.sleep, subprocess, "
    "urlopen, ...) — freezes the service event loop for every client",
)
def blocking_call_in_async(ctx: FileContext) -> List[Finding]:
    rule = _self_rule("SIM502")
    aliases = _import_aliases(ctx.tree)
    findings: List[Finding] = []
    for fn in _walk(ctx.tree, ast.AsyncFunctionDef):
        for node in _async_scope_calls(fn):
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            resolved = aliases.get(head, head) + (f".{rest}" if rest else "")
            if resolved not in _BLOCKING_CALLS:
                continue
            hint = _ASYNC_ALTERNATIVES.get(
                resolved, "an executor via loop.run_in_executor(...)"
            )
            findings.append(
                ctx.finding(
                    rule,
                    node,
                    f"{resolved}() blocks the event loop inside async "
                    f"function {getattr(fn, 'name', '?')!r}; every "
                    f"connection and timer stalls with it — use {hint}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------


def _self_rule(rule_id: str) -> "Rule":
    from repro.analysis.simlint import _REGISTRY

    return _REGISTRY[rule_id]
