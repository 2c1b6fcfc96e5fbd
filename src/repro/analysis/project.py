"""Whole-program analysis: the cross-module symbol model behind SIM6xx.

Every guard that predates this module is either per-file (the simlint
AST rules) or runtime (SimSanitizer, the differential equivalence
tests).  Neither catches *structural* drift: a ``ScalaGraphConfig`` knob
consumed by the reference NoC but silently ignored by the vectorized
twin, a stats counter one engine stopped emitting, or a struct-of-arrays
buffer whose dtype quietly changed.  This module parses the entire
package into a :class:`ProjectModel` and runs the SIM6xx project rules
(:mod:`repro.analysis.project_rules`, registered in simlint's rule
registry with ``project=True``) over it:

* **SIM601** — engine-twin drift: a config field, stats field, or fault
  kind consumed/emitted by one engine of a declared twin pair but not
  the other.
* **SIM602** — dead/phantom config knob: a dataclass field never read
  anywhere, or an attribute read on a config receiver matching no
  declared field.
* **SIM603** — stats-field conservation: a stats field written by an
  engine but never asserted by any sanitizer check or test.
* **SIM604** — dtype contract drift: a struct-of-arrays buffer
  allocated with a dtype differing from the module's declared
  ``BUFFER_DTYPES`` contract table.
* **SIM605** — only tests reach this: a public module-level ``def`` or
  ``class``, or a public method or property of a public class, whose
  name no other module of the package, and no consumer of it (the
  benchmarks), loads.

Twin pairs are *declared in the engines themselves*: the vectorized
module carries a module-level ``ENGINE_TWIN`` dict literal naming its
reference module (and optionally the scope — class/method qualnames —
of the reference implementation inside that module).  Dtype contracts
are declared the same way via ``BUFFER_DTYPES``.  Both are read
statically from the AST; the analyzer never imports analyzed code.

Accepted findings live in a checked-in ``analysis-baseline.json`` keyed
by stable fingerprints (:attr:`Finding.key` — no line numbers), each
with a mandatory justification string.  Inline
``# simlint: disable=SIM60x`` comments work as for per-file rules.

Run it via ``repro lint --project`` or ``make lint``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.simlint import (
    FileContext,
    Finding,
    Severity,
    all_rules,
    dotted_name,
)

__all__ = [
    "AttrAccess",
    "AllocationSite",
    "Definition",
    "ClassModel",
    "ModuleModel",
    "TwinPair",
    "ProjectModel",
    "Baseline",
    "BaselineEntry",
    "ProjectReport",
    "load_project",
    "analyze_project",
]

#: Rule id reserved for analyzer meta-findings (undeclared twin module,
#: malformed declaration literal, stale baseline entry, parse failure).
META_RULE_ID = "SIM600"

#: ``np`` allocation calls whose call sites SIM604 audits, mapped to the
#: positional index of their ``dtype`` argument.
_ALLOC_DTYPE_POS: Dict[str, int] = {
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "full": 2,
}


class AttrAccess(NamedTuple):
    """One attribute read or write: ``<receiver>.<name>``."""

    name: str
    receiver: Optional[str]
    lineno: int
    col: int
    is_write: bool


class AllocationSite(NamedTuple):
    """One ``np.zeros/full/empty/ones`` call assigned to a name.

    ``target`` is the attribute name for ``self.X = np.zeros(...)``
    (``is_self_attr=True``) or the bare local name for
    ``X = np.zeros(...)``.  ``dtype`` is the declared dtype string with
    any ``np.``/``numpy.`` prefix stripped, or ``None`` when the call
    relies on the allocator's default/inferred dtype.
    """

    target: str
    is_self_attr: bool
    func: str
    dtype: Optional[str]
    lineno: int
    col: int


class Definition(NamedTuple):
    """One public module-level ``def`` or ``class``, or one public
    method or property of a public class.

    ``qualname`` is ``name`` for a module-level definition and
    ``Cls.name`` for a member.  ``lineno``..``end_lineno`` spans the
    definition, so a load inside its own body (recursion, a class
    naming itself) is told apart from a use elsewhere in the module.
    ``decorators`` holds the last dotted part of each decorator's name.
    """

    name: str
    qualname: str
    kind: str
    lineno: int
    end_lineno: int
    decorators: Tuple[str, ...]


@dataclasses.dataclass
class ClassModel:
    """One class definition as the project rules see it."""

    name: str
    lineno: int
    is_dataclass: bool
    #: annotated field name -> definition line (ClassVar excluded)
    fields: Dict[str, int]
    #: fields + methods + properties — anything resolvable as an attr
    members: Set[str]
    #: body line span of ``__post_init__`` (reads there are validation,
    #: not consumption), or ``None``
    post_init_span: Optional[Tuple[int, int]]


class ModuleModel:
    """One parsed module: every fact the SIM6xx rules consume."""

    def __init__(self, name: str, path: str, ctx: FileContext) -> None:
        self.name = name
        self.path = path
        self.ctx = ctx
        self.tree = ctx.tree
        self.attr_accesses: List[AttrAccess] = []
        self.allocations: List[AllocationSite] = []
        self.classes: Dict[str, ClassModel] = {}
        #: public module-level defs and classes, and the public methods
        #: and properties of those classes
        self.definitions: List[Definition] = []
        #: (name, lineno, is_attribute) of every name loaded bare
        #: (``f``) or as an attribute (``mod.f``, ``obj.f``); imports and
        #: ``__all__`` strings are not loads
        self.name_loads: List[Tuple[str, int, bool]] = []
        #: module-level literal declarations (ENGINE_TWIN, BUFFER_DTYPES)
        self.declarations: Dict[str, object] = {}
        self.declaration_lines: Dict[str, int] = {}
        #: malformed declaration messages -> lineno
        self.declaration_errors: List[Tuple[str, int]] = []
        #: qualname ("f", "Cls", "Cls.meth") -> AST node
        self._scopes: Dict[str, ast.AST] = {}
        self._collect()

    # -- collection ----------------------------------------------------
    def _collect(self) -> None:
        accesses, allocs = _collect_accesses(self.tree)
        self.attr_accesses = accesses
        self.allocations = allocs
        self.name_loads = [
            (a.name, a.lineno, True) for a in accesses if not a.is_write
        ] + [
            (node.id, node.lineno, False)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        ]
        for node in self.tree.body:
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not node.name.startswith("_"):
                self.definitions.append(_definition(node))
                if isinstance(node, ast.ClassDef):
                    self.definitions.extend(_member_definitions(node))
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = _class_model(node)
                self._scopes[node.name] = node
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._scopes[f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scopes[node.name] = node
            elif isinstance(node, ast.Assign):
                self._collect_declaration(node)

    def _collect_declaration(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id not in ("ENGINE_TWIN", "BUFFER_DTYPES"):
                continue
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, TypeError):
                self.declaration_errors.append(
                    (
                        f"{target.id} must be a pure literal "
                        f"(dict of constants)",
                        node.lineno,
                    )
                )
                continue
            self.declarations[target.id] = value
            self.declaration_lines[target.id] = node.lineno

    # -- queries -------------------------------------------------------
    def scoped_accesses(
        self, scope: Optional[Sequence[str]]
    ) -> List[AttrAccess]:
        """Attribute accesses (a method call's included) within the
        named scopes (qualnames like ``Cls.meth``), or the whole module
        when ``scope`` is ``None``.  Unknown qualnames are ignored; the
        caller validates them via :meth:`has_scope`."""
        if scope is None:
            return self.attr_accesses
        accesses: List[AttrAccess] = []
        for qualname in scope:
            node = self._scopes.get(qualname)
            if node is not None:
                accesses.extend(_collect_accesses(node)[0])
        return accesses

    def has_scope(self, qualname: str) -> bool:
        return qualname in self._scopes


#: Decorators that make a method a property, and those that add a
#: setter or deleter to one (the getter stands for all three).
_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})
_ACCESSOR_DECORATORS = frozenset({"setter", "deleter"})


def _definition(
    node: "ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef",
    owner: Optional[str] = None,
) -> Definition:
    decorators: List[str] = []
    for deco in node.decorator_list:
        target: ast.AST = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None:
            decorators.append(name.split(".")[-1])
    if owner is not None:
        is_property = bool(_PROPERTY_DECORATORS.intersection(decorators))
        kind = "property" if is_property else "method"
    else:
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
    return Definition(
        name=node.name,
        qualname=node.name if owner is None else f"{owner}.{node.name}",
        kind=kind,
        lineno=node.lineno,
        end_lineno=node.end_lineno or node.lineno,
        decorators=tuple(decorators),
    )


def _member_definitions(node: ast.ClassDef) -> List[Definition]:
    """The public methods and properties of one class.

    A property's span runs through its setter and deleter, so the
    ``@name.setter`` decorator is not a use of it.
    """
    members: Dict[str, Definition] = {}
    for item in node.body:
        if not isinstance(
            item, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) or item.name.startswith("_"):
            continue
        member = _definition(item, owner=node.name)
        getter = members.get(member.name)
        if getter is not None and _ACCESSOR_DECORATORS.intersection(
            member.decorators
        ):
            members[member.name] = getter._replace(
                end_lineno=member.end_lineno
            )
        else:
            members[member.name] = member
    return list(members.values())


def _class_model(node: ast.ClassDef) -> ClassModel:
    is_dataclass = False
    for deco in node.decorator_list:
        target: ast.AST = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            is_dataclass = True
    fields: Dict[str, int] = {}
    members: Set[str] = set()
    post_init_span: Optional[Tuple[int, int]] = None
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            annotation = ast.unparse(item.annotation)
            if "ClassVar" not in annotation:
                fields[item.target.id] = item.lineno
            members.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(item.name)
            if item.name == "__post_init__":
                end = getattr(item, "end_lineno", None)
                post_init_span = (
                    item.lineno,
                    end if isinstance(end, int) else item.lineno,
                )
    return ClassModel(
        name=node.name,
        lineno=node.lineno,
        is_dataclass=is_dataclass,
        fields=fields,
        members=members,
        post_init_span=post_init_span,
    )


def _collect_accesses(
    root: ast.AST,
) -> Tuple[List[AttrAccess], List[AllocationSite]]:
    accesses: List[AttrAccess] = []
    allocs: List[AllocationSite] = []
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute):
            accesses.append(
                AttrAccess(
                    name=node.attr,
                    receiver=dotted_name(node.value),
                    lineno=node.lineno,
                    col=node.col_offset,
                    is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                )
            )
        elif isinstance(node, ast.Assign):
            allocs.extend(_allocation_sites(node))
    return accesses, allocs


def _allocation_sites(node: ast.Assign) -> List[AllocationSite]:
    value = node.value
    if not isinstance(value, ast.Call):
        return []
    func_name = dotted_name(value.func)
    if func_name is None:
        return []
    parts = func_name.split(".")
    if len(parts) != 2 or parts[0] not in ("np", "numpy"):
        return []
    if parts[1] not in _ALLOC_DTYPE_POS:
        return []
    dtype = _call_dtype(value, _ALLOC_DTYPE_POS[parts[1]])
    sites: List[AllocationSite] = []
    for target in node.targets:
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            name, is_self = target.attr, True
        elif isinstance(target, ast.Name):
            name, is_self = target.id, False
        else:
            continue
        sites.append(
            AllocationSite(
                target=name,
                is_self_attr=is_self,
                func=parts[1],
                dtype=dtype,
                lineno=node.lineno,
                col=node.col_offset,
            )
        )
    return sites


def _call_dtype(call: ast.Call, dtype_pos: int) -> Optional[str]:
    node: Optional[ast.expr] = None
    for kw in call.keywords:
        if kw.arg == "dtype":
            node = kw.value
    if node is None and len(call.args) > dtype_pos:
        node = call.args[dtype_pos]
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id == "bool":
        return "bool"
    dotted = dotted_name(node)
    if dotted is None:
        return None
    for prefix in ("np.", "numpy."):
        if dotted.startswith(prefix):
            return dotted[len(prefix):]
    return dotted


class TwinPair(NamedTuple):
    """A declared reference/vectorized engine pair.

    ``fast`` is the module carrying the ``ENGINE_TWIN`` declaration;
    ``ref`` is the reference module it names.  ``ref_scope`` restricts
    the reference side to the listed class/method qualnames (the
    reference class often also owns driver logic with no vectorized
    counterpart); ``None`` means the whole module.
    """

    name: str
    fast: ModuleModel
    ref: ModuleModel
    ref_scope: Optional[Tuple[str, ...]]
    decl_line: int


class ProjectModel:
    """The whole package, cross-indexed for the SIM6xx rules."""

    def __init__(
        self,
        package: str,
        modules: Dict[str, ModuleModel],
        assertion_modules: Dict[str, ModuleModel],
        consumer_modules: Dict[str, ModuleModel],
    ) -> None:
        self.package = package
        self.modules = modules
        self.assertion_modules = assertion_modules
        #: code outside the package that uses it (SIM605's roots)
        self.consumer_modules = consumer_modules
        #: analyzer meta-findings (SIM600) discovered while building
        self.problems: List[Finding] = []
        self._twin_pairs = self._resolve_twin_pairs()

    # -- derived views -------------------------------------------------
    def config_classes(self) -> List[Tuple[ModuleModel, ClassModel]]:
        """Dataclasses named ``*Config`` / ``*Params``."""
        out: List[Tuple[ModuleModel, ClassModel]] = []
        for module in self.modules.values():
            for cls in module.classes.values():
                if cls.is_dataclass and cls.name.endswith(
                    ("Config", "Params")
                ):
                    out.append((module, cls))
        return out

    def stats_classes(self) -> List[Tuple[ModuleModel, ClassModel]]:
        """Dataclasses named ``*Stats``."""
        out: List[Tuple[ModuleModel, ClassModel]] = []
        for module in self.modules.values():
            for cls in module.classes.values():
                if cls.is_dataclass and cls.name.endswith("Stats"):
                    out.append((module, cls))
        return out

    def twin_pairs(self) -> List[TwinPair]:
        return list(self._twin_pairs)

    def _resolve_twin_pairs(self) -> List[TwinPair]:
        pairs: List[TwinPair] = []
        for module in sorted(self.modules.values(), key=lambda m: m.name):
            for message, lineno in module.declaration_errors:
                self.problems.append(
                    _meta_finding(module, lineno, message)
                )
            decl = module.declarations.get("ENGINE_TWIN")
            if decl is None:
                continue
            lineno = module.declaration_lines.get("ENGINE_TWIN", 1)
            if not isinstance(decl, dict) or not isinstance(
                decl.get("reference"), str
            ):
                self.problems.append(
                    _meta_finding(
                        module,
                        lineno,
                        "ENGINE_TWIN must be a dict with a string "
                        "'reference' module name",
                    )
                )
                continue
            ref_name = decl["reference"]
            ref = self.modules.get(ref_name)
            if ref is None:
                self.problems.append(
                    _meta_finding(
                        module,
                        lineno,
                        f"ENGINE_TWIN references unknown module "
                        f"{ref_name!r}",
                    )
                )
                continue
            scope_raw = decl.get("reference_scope")
            ref_scope: Optional[Tuple[str, ...]] = None
            if scope_raw is not None:
                if not isinstance(scope_raw, (list, tuple)) or not all(
                    isinstance(s, str) for s in scope_raw
                ):
                    self.problems.append(
                        _meta_finding(
                            module,
                            lineno,
                            "ENGINE_TWIN reference_scope must be a "
                            "list of qualname strings",
                        )
                    )
                    continue
                missing = [
                    s for s in scope_raw if not ref.has_scope(s)
                ]
                if missing:
                    self.problems.append(
                        _meta_finding(
                            module,
                            lineno,
                            f"ENGINE_TWIN reference_scope names not "
                            f"found in {ref_name}: {missing}",
                        )
                    )
                    continue
                ref_scope = tuple(str(s) for s in scope_raw)
            pair_name = decl.get("pair")
            pairs.append(
                TwinPair(
                    name=(
                        pair_name
                        if isinstance(pair_name, str)
                        else module.name
                    ),
                    fast=module,
                    ref=ref,
                    ref_scope=ref_scope,
                    decl_line=lineno,
                )
            )
        return pairs


def _meta_finding(
    module: ModuleModel, lineno: int, message: str, key: str = ""
) -> Finding:
    return Finding(
        rule=META_RULE_ID,
        severity=Severity.ERROR.value,
        path=module.path,
        line=lineno,
        col=0,
        message=message,
        key=key or f"meta:{module.name}:{message}",
    )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
BASELINE_SCHEMA = "repro-project-analysis-baseline/1"


@dataclasses.dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding: matched by (rule, key), never by line."""

    rule: str
    key: str
    justification: str

    def to_dict(self) -> Dict[str, str]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Baseline:
    """The checked-in set of accepted project findings.

    Every entry must carry a non-empty justification — the baseline is
    for *intentional* asymmetries, not for muting bugs.
    """

    entries: List[BaselineEntry]
    path: Optional[str] = None

    @classmethod
    def from_file(cls, path: Path) -> "Baseline":
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or raw.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"{path}: expected baseline schema {BASELINE_SCHEMA!r}"
            )
        entries_raw = raw.get("entries")
        if not isinstance(entries_raw, list):
            raise ValueError(f"{path}: 'entries' must be a list")
        entries: List[BaselineEntry] = []
        for i, item in enumerate(entries_raw):
            if not isinstance(item, dict):
                raise ValueError(f"{path}: entry {i} must be an object")
            rule = item.get("rule")
            key = item.get("key")
            justification = item.get("justification")
            if (
                not isinstance(rule, str)
                or not isinstance(key, str)
                or not isinstance(justification, str)
                or not justification.strip()
            ):
                raise ValueError(
                    f"{path}: entry {i} needs string 'rule', 'key' and "
                    f"a non-empty 'justification'"
                )
            entries.append(
                BaselineEntry(
                    rule=rule, key=key, justification=justification
                )
            )
        return cls(entries=entries, path=str(path))

    def split(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Partition findings into (fresh, accepted) and report stale
        entries that matched nothing."""
        by_key: Dict[Tuple[str, str], BaselineEntry] = {
            (e.rule, e.key): e for e in self.entries
        }
        fresh: List[Finding] = []
        accepted: List[Finding] = []
        used: Set[Tuple[str, str]] = set()
        for finding in findings:
            entry = by_key.get((finding.rule, finding.key))
            if entry is not None and finding.key:
                used.add((entry.rule, entry.key))
                accepted.append(
                    dataclasses.replace(finding, suppressed=True)
                )
            else:
                fresh.append(finding)
        stale = [
            e for e in self.entries if (e.rule, e.key) not in used
        ]
        return fresh, accepted, stale


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def load_project(
    package_root: Path,
    assertion_roots: Sequence[Path] = (),
    source_overrides: Optional[Dict[str, str]] = None,
    consumer_roots: Sequence[Path] = (),
) -> ProjectModel:
    """Parse a package directory into a :class:`ProjectModel`.

    ``package_root`` is the directory containing the package's
    ``__init__.py``; its basename becomes the root of every dotted
    module name.  ``assertion_roots`` are directories (or files) of
    test/assertion code parsed into ``assertion_modules`` — consulted by
    SIM603 but never themselves linted.  ``consumer_roots`` are parsed
    the same way into ``consumer_modules``: code outside the package
    whose uses of it count for SIM605.  ``source_overrides`` maps
    dotted module names to replacement source text, letting tests model
    "what if this line were deleted" without touching disk.
    """
    package_root = Path(package_root)
    overrides = source_overrides or {}
    modules: Dict[str, ModuleModel] = {}
    problems: List[Finding] = []
    for py in sorted(package_root.rglob("*.py")):
        rel = py.relative_to(package_root)
        parts: Tuple[str, ...] = (
            package_root.name,
            *rel.with_suffix("").parts,
        )
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        source = overrides.get(name)
        if source is None:
            source = py.read_text(encoding="utf-8")
        module = _parse_module(name, str(py), source, problems)
        if module is not None:
            modules[name] = module
    model = ProjectModel(
        package=package_root.name,
        modules=modules,
        assertion_modules=_parse_roots(assertion_roots, "assert", problems),
        consumer_modules=_parse_roots(consumer_roots, "consumer", problems),
    )
    model.problems.extend(problems)
    return model


def _parse_roots(
    roots: Sequence[Path], tag: str, problems: List[Finding]
) -> Dict[str, ModuleModel]:
    parsed: Dict[str, ModuleModel] = {}
    for root in roots:
        root = Path(root)
        files = (
            sorted(root.rglob("*.py")) if root.is_dir() else [root]
        )
        for py in files:
            name = f"<{tag}>{py}"
            module = _parse_module(name, str(py), py.read_text(
                encoding="utf-8"
            ), problems)
            if module is not None:
                parsed[name] = module
    return parsed


def _parse_module(
    name: str, path: str, source: str, problems: List[Finding]
) -> Optional[ModuleModel]:
    try:
        ctx = FileContext(source, path)
    except SyntaxError as exc:
        problems.append(
            Finding(
                rule=META_RULE_ID,
                severity=Severity.ERROR.value,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
                key=f"meta:parse:{name}",
            )
        )
        return None
    return ModuleModel(name=name, path=path, ctx=ctx)


@dataclasses.dataclass
class ProjectReport:
    """Outcome of one whole-program analysis run.

    ``findings`` gate the exit code; ``baselined`` are accepted findings
    (flagged ``suppressed=True``); ``stale_baseline`` entries matched no
    current finding and are escalated as SIM600 findings so the baseline
    cannot silently rot.
    """

    findings: List[Finding]
    baselined: List[Finding]
    stale_baseline: List[BaselineEntry]
    files_checked: int
    model: ProjectModel

    def summary(self) -> Dict[str, object]:
        """JSON-reporter payload for the ``project`` key."""
        return {
            "modules_checked": self.files_checked,
            "num_findings": len(self.findings),
            "num_baselined": len(self.baselined),
            "stale_baseline": [
                e.to_dict() for e in self.stale_baseline
            ],
            "twin_pairs": [
                {
                    "name": pair.name,
                    "fast": pair.fast.name,
                    "reference": pair.ref.name,
                    "reference_scope": (
                        list(pair.ref_scope)
                        if pair.ref_scope is not None
                        else None
                    ),
                }
                for pair in self.model.twin_pairs()
            ],
        }


def analyze_project(
    package_root: Path,
    assertion_roots: Sequence[Path] = (),
    baseline: Optional[Baseline] = None,
    select: Optional[Iterable[str]] = None,
    source_overrides: Optional[Dict[str, str]] = None,
    consumer_roots: Sequence[Path] = (),
) -> ProjectReport:
    """Run the SIM6xx project rules over a package.

    Findings suppressed inline (``# simlint: disable=SIM60x`` on the
    anchored line) are dropped; findings matching a ``baseline`` entry
    are moved to ``ProjectReport.baselined``.  ``select`` restricts to
    the named rule ids (meta-findings always survive).
    """
    model = load_project(
        package_root,
        assertion_roots=assertion_roots,
        source_overrides=source_overrides,
        consumer_roots=consumer_roots,
    )
    selected = all_rules(project=True)
    if select is not None:
        wanted = set(select)
        selected = [r for r in selected if r.rule_id in wanted]
    findings: List[Finding] = list(model.problems)
    for rule in selected:
        findings.extend(rule.check(model))
    # Inline suppressions: honoured per anchored line, via the owning
    # module's suppression table.
    ctx_by_path: Dict[str, FileContext] = {
        m.path: m.ctx for m in model.modules.values()
    }
    kept: List[Finding] = []
    for finding in findings:
        ctx = ctx_by_path.get(finding.path)
        if ctx is not None and ctx.suppressed(finding.rule, finding.line):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if baseline is None:
        fresh, accepted, stale = kept, [], []
    else:
        fresh, accepted, stale = baseline.split(kept)
        for entry in stale:
            fresh.append(
                Finding(
                    rule=META_RULE_ID,
                    severity=Severity.WARNING.value,
                    path=baseline.path or "analysis-baseline.json",
                    line=1,
                    col=0,
                    message=(
                        f"stale baseline entry {entry.rule}:"
                        f"{entry.key!r} matches no current finding — "
                        f"delete it"
                    ),
                    key=f"meta:stale:{entry.rule}:{entry.key}",
                )
            )
    return ProjectReport(
        findings=fresh,
        baselined=accepted,
        stale_baseline=stale,
        files_checked=len(model.modules),
        model=model,
    )
