"""The SIM6xx whole-program rules.

Each rule checks the :class:`~repro.analysis.project.ProjectModel`
rather than a single file; they register into the project registry via
:func:`~repro.analysis.project.register_project_rule` (kept separate
from the per-file simlint registry so ``all_rules()`` keeps meaning
"per-file rules").

What counts as "consumption" is deliberately receiver-based: an
attribute read only counts as a *config-field read* when the receiver
chain ends in ``config``/``cfg`` (or ``timing`` for ``*Params``), as a
*stats access* when the receiver ends in ``stats``, and as a *fault
query* when a known :class:`~repro.faults.schedule.FaultSchedule`
method or property is read on a receiver ending in
``faults``/``schedule``.  This
keeps unrelated attributes that happen to share a field name (e.g. a
local ``mapping`` object vs the ``ScalaGraphConfig.mapping`` field)
from polluting the comparison sets.

SIM605 matches by name alone instead: any load of a name, bare or as
an attribute, counts as a use of every definition so named, so a
collision can hide a finding but never invent one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.project import (
    ClassModel,
    ModuleModel,
    ProjectModel,
    TwinPair,
    register_project_rule,
)
from repro.analysis.simlint import Finding, Severity

__all__ = [
    "engine_twin_drift",
    "dead_or_phantom_config_knob",
    "stats_field_conservation",
    "dtype_contract_drift",
    "reached_only_by_tests",
]

#: Receiver tails treated as a config object for field-read purposes.
CONFIG_RECEIVER_TAILS = frozenset({"config", "cfg"})
#: Receiver tails treated as a timing/params object.
PARAMS_RECEIVER_TAILS = frozenset({"timing"})
#: Receiver tails treated as a fault schedule.
FAULT_RECEIVER_TAILS = frozenset({"faults", "schedule", "fault_schedule"})
#: Receiver tail treated as a stats object.
STATS_RECEIVER_TAIL = "stats"

#: FaultSchedule query surface, methods and properties alike, mapped to
#: the fault *kind* it consumes.  SIM601 compares twins at kind
#: granularity, so two engines that read one kind through different
#: queries are not drift.
FAULT_KIND_BY_METHOD: Dict[str, str] = {
    "link_dead_mask": "link-outage",
    "link_availability": "link-outage",
    "fifo_stall_mask": "fifo-stall",
    "pe_stall_mask": "pe-stall",
    "degraded_hbm": "hbm-degradation",
    "hbm_bandwidth_fraction": "hbm-degradation",
    "apply_to_config": "analytic-derate",
}

#: Decorators that store the function they wrap in a registry: callers
#: reach it through the registry without loading its name (SIM605).
REGISTERING_DECORATORS = frozenset({"register", "register_project_rule"})

#: Default dtype numpy gives ``zeros``/``ones``/``empty`` when the call
#: site omits ``dtype=``; ``full`` infers from the fill value instead,
#: which SIM604 treats as a contract violation (must be explicit).
_IMPLICIT_DEFAULT_DTYPE: Dict[str, Optional[str]] = {
    "zeros": "float64",
    "ones": "float64",
    "empty": "float64",
    "full": None,
}


def _tail(receiver: Optional[str]) -> Optional[str]:
    if receiver is None:
        return None
    return receiver.split(".")[-1]


def _site_finding(
    rule_id: str,
    severity: Severity,
    module: ModuleModel,
    lineno: int,
    col: int,
    message: str,
    key: str,
) -> Finding:
    return Finding(
        rule=rule_id,
        severity=severity.value,
        path=module.path,
        line=lineno,
        col=col,
        message=message,
        key=key,
    )


# ----------------------------------------------------------------------
# Shared consumption extraction (SIM601 / SIM603)
# ----------------------------------------------------------------------
class _Consumption:
    """What one engine (module or scoped subset) consumes and emits.

    Each category maps item name -> first occurrence ``(lineno, col)``.
    """

    def __init__(self) -> None:
        self.categories: Dict[str, Dict[str, Tuple[int, int]]] = {
            "config-read": {},
            "stats-read": {},
            "stats-write": {},
            "fault-kind": {},
        }

    def add(
        self, category: str, item: str, lineno: int, col: int
    ) -> None:
        self.categories[category].setdefault(item, (lineno, col))


def _field_union(
    classes: Sequence[Tuple[ModuleModel, ClassModel]],
    suffixes: Tuple[str, ...],
) -> Set[str]:
    out: Set[str] = set()
    for _module, cls in classes:
        if cls.name.endswith(suffixes):
            out.update(cls.fields)
    return out


def _engine_consumption(
    model: ProjectModel,
    module: ModuleModel,
    scope: Optional[Sequence[str]],
) -> _Consumption:
    config_fields = _field_union(model.config_classes(), ("Config",))
    params_fields = _field_union(model.config_classes(), ("Params",))
    stats_fields = _field_union(model.stats_classes(), ("Stats",))
    cons = _Consumption()
    for access in module.scoped_accesses(scope):
        tail = _tail(access.receiver)
        if tail is None:
            continue
        if tail in FAULT_RECEIVER_TAILS and not access.is_write:
            # A query method's call loads it too, so this reads both.
            kind = FAULT_KIND_BY_METHOD.get(access.name)
            if kind is not None:
                cons.add("fault-kind", kind, access.lineno, access.col)
        elif not access.is_write and (
            (tail in CONFIG_RECEIVER_TAILS and access.name in config_fields)
            or (
                tail in PARAMS_RECEIVER_TAILS
                and access.name in params_fields
            )
        ):
            cons.add(
                "config-read", access.name, access.lineno, access.col
            )
        elif tail == STATS_RECEIVER_TAIL and access.name in stats_fields:
            category = "stats-write" if access.is_write else "stats-read"
            cons.add(category, access.name, access.lineno, access.col)
    return cons


_CATEGORY_NOUN = {
    "config-read": "config field read",
    "stats-read": "stats field read",
    "stats-write": "stats field write",
    "fault-kind": "fault kind",
}


@register_project_rule(
    "SIM601",
    Severity.ERROR,
    "engine-twin drift: config field, stats field, or fault kind "
    "consumed/emitted by one engine of a declared twin pair but not "
    "the other",
)
def engine_twin_drift(model: ProjectModel) -> List[Finding]:
    findings: List[Finding] = []
    for pair in model.twin_pairs():
        fast = _engine_consumption(model, pair.fast, None)
        ref = _engine_consumption(model, pair.ref, pair.ref_scope)
        for category in sorted(fast.categories):
            fast_items = fast.categories[category]
            ref_items = ref.categories[category]
            for item in sorted(set(fast_items) - set(ref_items)):
                findings.append(
                    _drift_finding(
                        pair, category, item, pair.fast, pair.ref,
                        fast_items[item],
                    )
                )
            for item in sorted(set(ref_items) - set(fast_items)):
                findings.append(
                    _drift_finding(
                        pair, category, item, pair.ref, pair.fast,
                        ref_items[item],
                    )
                )
    return findings


def _drift_finding(
    pair: TwinPair,
    category: str,
    item: str,
    present: ModuleModel,
    absent: ModuleModel,
    site: Tuple[int, int],
) -> Finding:
    noun = _CATEGORY_NOUN[category]
    return _site_finding(
        "SIM601",
        Severity.ERROR,
        present,
        site[0],
        site[1],
        f"engine-twin drift in pair '{pair.name}': {noun} "
        f"'{item}' in {present.name} has no counterpart in twin "
        f"{absent.name}",
        key=f"{pair.name}:{category}:{item}:{present.name}",
    )


# ----------------------------------------------------------------------
# SIM602 — dead / phantom config knobs
# ----------------------------------------------------------------------
@register_project_rule(
    "SIM602",
    Severity.WARNING,
    "dead/phantom config knob: dataclass field never read anywhere, "
    "or config-receiver attribute read matching no declared field",
)
def dead_or_phantom_config_knob(model: ProjectModel) -> List[Finding]:
    findings: List[Finding] = []
    config_classes = model.config_classes()
    # -- dead knobs: a declared field with no read anywhere in the
    #    package.  Reads inside the defining class's __post_init__ are
    #    validation, not consumption, and do not count.
    for module, cls in config_classes:
        span = cls.post_init_span
        for field, def_line in sorted(cls.fields.items()):
            if _field_is_read(model, field, module, span):
                continue
            findings.append(
                _site_finding(
                    "SIM602",
                    Severity.WARNING,
                    module,
                    def_line,
                    0,
                    f"dead config knob: {cls.name}.{field} is never "
                    f"read anywhere in the package",
                    key=f"dead:{module.name}.{cls.name}:{field}",
                )
            )
    # -- phantom knobs: a read through a config receiver that resolves
    #    to no declared field/member of ANY config class.  The union is
    #    deliberately permissive — receivers named `config` may be any
    #    of the *Config classes — so this only fires on attributes that
    #    exist nowhere.
    config_members: Set[str] = set()
    params_members: Set[str] = set()
    for _module, cls in config_classes:
        if cls.name.endswith("Config"):
            config_members.update(cls.members)
        if cls.name.endswith("Params"):
            params_members.update(cls.members)
    for module in sorted(model.modules.values(), key=lambda m: m.name):
        seen: Set[str] = set()
        for access in module.attr_accesses:
            if access.is_write or access.name.startswith("__"):
                continue
            tail = _tail(access.receiver)
            if tail in CONFIG_RECEIVER_TAILS:
                allowed = config_members
            elif tail in PARAMS_RECEIVER_TAILS:
                allowed = params_members
            else:
                continue
            if access.name in allowed or access.name in seen:
                continue
            seen.add(access.name)
            findings.append(
                _site_finding(
                    "SIM602",
                    Severity.WARNING,
                    module,
                    access.lineno,
                    access.col,
                    f"phantom config knob: '{access.receiver}."
                    f"{access.name}' matches no declared field of any "
                    f"*{'Params' if tail in PARAMS_RECEIVER_TAILS else 'Config'} "
                    f"dataclass",
                    key=f"phantom:{module.name}:{access.name}",
                )
            )
    return findings


def _field_is_read(
    model: ProjectModel,
    field: str,
    defining_module: ModuleModel,
    post_init_span: Optional[Tuple[int, int]],
) -> bool:
    for module in model.modules.values():
        for access in module.attr_accesses:
            if access.is_write or access.name != field:
                continue
            if (
                post_init_span is not None
                and module is defining_module
                and post_init_span[0] <= access.lineno <= post_init_span[1]
            ):
                continue
            return True
    return False


# ----------------------------------------------------------------------
# SIM603 — stats-field conservation
# ----------------------------------------------------------------------
@register_project_rule(
    "SIM603",
    Severity.WARNING,
    "stats-field conservation: stats field written by a twin engine "
    "but never asserted by any sanitizer check or test",
)
def stats_field_conservation(model: ProjectModel) -> List[Finding]:
    if not model.assertion_modules:
        # Without assertion roots every write would be "unasserted";
        # the rule only means something when tests are in the model.
        return []
    asserted: Set[str] = set()
    for module in model.assertion_modules.values():
        for access in module.attr_accesses:
            if not access.is_write:
                asserted.add(access.name)
    for module in model.modules.values():
        if module.name.endswith(".sanitizer"):
            for access in module.attr_accesses:
                if not access.is_write:
                    asserted.add(access.name)
    findings: List[Finding] = []
    emitted: Set[Tuple[str, str]] = set()
    for pair in model.twin_pairs():
        for engine, scope in (
            (pair.fast, None),
            (pair.ref, pair.ref_scope),
        ):
            cons = _engine_consumption(model, engine, scope)
            for field, site in sorted(
                cons.categories["stats-write"].items()
            ):
                if field in asserted:
                    continue
                dedupe = (pair.name, field)
                if dedupe in emitted:
                    continue
                emitted.add(dedupe)
                findings.append(
                    _site_finding(
                        "SIM603",
                        Severity.WARNING,
                        engine,
                        site[0],
                        site[1],
                        f"unasserted stats field: '{field}' is written "
                        f"by engine {engine.name} (pair '{pair.name}') "
                        f"but never read by any sanitizer check or "
                        f"test",
                        key=f"unasserted:{pair.name}:{field}",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# SIM604 — dtype contract drift
# ----------------------------------------------------------------------
@register_project_rule(
    "SIM604",
    Severity.ERROR,
    "dtype contract drift: struct-of-arrays buffer allocated with a "
    "dtype differing from the module's declared BUFFER_DTYPES contract",
)
def dtype_contract_drift(model: ProjectModel) -> List[Finding]:
    findings: List[Finding] = []
    for module in sorted(model.modules.values(), key=lambda m: m.name):
        contract_raw = module.declarations.get("BUFFER_DTYPES")
        if contract_raw is None:
            continue
        decl_line = module.declaration_lines.get("BUFFER_DTYPES", 1)
        if not isinstance(contract_raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in contract_raw.items()
        ):
            findings.append(
                _site_finding(
                    "SIM604",
                    Severity.ERROR,
                    module,
                    decl_line,
                    0,
                    "BUFFER_DTYPES must be a dict of "
                    "{buffer_name: dtype_string}",
                    key=f"contract-malformed:{module.name}",
                )
            )
            continue
        contract: Dict[str, str] = {
            str(k): str(v) for k, v in contract_raw.items()
        }
        covered: Set[str] = set()
        for alloc in module.allocations:
            expected = contract.get(alloc.target)
            if expected is None:
                if alloc.is_self_attr:
                    findings.append(
                        _site_finding(
                            "SIM604",
                            Severity.ERROR,
                            module,
                            alloc.lineno,
                            alloc.col,
                            f"undeclared buffer: 'self.{alloc.target}' "
                            f"is allocated via np.{alloc.func} but has "
                            f"no BUFFER_DTYPES entry",
                            key=f"undeclared:{module.name}:{alloc.target}",
                        )
                    )
                continue
            covered.add(alloc.target)
            actual = alloc.dtype
            if actual is None:
                actual = _IMPLICIT_DEFAULT_DTYPE[alloc.func]
            if actual is None:
                findings.append(
                    _site_finding(
                        "SIM604",
                        Severity.ERROR,
                        module,
                        alloc.lineno,
                        alloc.col,
                        f"implicit dtype: contract buffer "
                        f"'{alloc.target}' allocated via "
                        f"np.{alloc.func} without an explicit dtype= "
                        f"(contract declares '{expected}')",
                        key=f"implicit:{module.name}:{alloc.target}",
                    )
                )
            elif actual != expected:
                findings.append(
                    _site_finding(
                        "SIM604",
                        Severity.ERROR,
                        module,
                        alloc.lineno,
                        alloc.col,
                        f"dtype contract drift: buffer "
                        f"'{alloc.target}' allocated as {actual} but "
                        f"BUFFER_DTYPES declares '{expected}'",
                        key=f"dtype:{module.name}:{alloc.target}",
                    )
                )
        for name in sorted(set(contract) - covered):
            findings.append(
                _site_finding(
                    "SIM604",
                    Severity.ERROR,
                    module,
                    decl_line,
                    0,
                    f"stale contract entry: BUFFER_DTYPES declares "
                    f"'{name}' but no np.zeros/full/empty/ones "
                    f"allocation for it exists in {module.name}",
                    key=f"stale-contract:{module.name}:{name}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SIM605 — code only tests reach
# ----------------------------------------------------------------------
@register_project_rule(
    "SIM605",
    Severity.WARNING,
    "only tests reach this: public module-level def or class, or public "
    "method or property of a public class, whose name no other module of "
    "the package or its consumers loads (a member's only as an attribute)",
)
def reached_only_by_tests(model: ProjectModel) -> List[Finding]:
    if not model.consumer_modules:
        # The consumers are the package's entry points from outside;
        # without them every name only they use would look unreached.
        return []
    # (name, loaded as an attribute) -> every (module, lineno) loading it
    loads: Dict[Tuple[str, bool], List[Tuple[str, int]]] = {}
    for module in (
        *model.modules.values(),
        *model.consumer_modules.values(),
    ):
        for name, lineno, is_attribute in module.name_loads:
            loads.setdefault((name, is_attribute), []).append(
                (module.name, lineno)
            )
    findings: List[Finding] = []
    for module in sorted(model.modules.values(), key=lambda m: m.name):
        for definition in module.definitions:
            if REGISTERING_DECORATORS.intersection(definition.decorators):
                continue
            # A member is reached through ``x.name`` only: a bare load of
            # the same name is a local variable or another definition.
            uses = loads.get((definition.name, True), [])
            if definition.qualname == definition.name:
                uses = [*uses, *loads.get((definition.name, False), ())]
            if any(
                where != module.name
                or not definition.lineno <= lineno <= definition.end_lineno
                for where, lineno in uses
            ):
                continue
            findings.append(
                _site_finding(
                    "SIM605",
                    Severity.WARNING,
                    module,
                    definition.lineno,
                    0,
                    f"only tests reach this: public {definition.kind} "
                    f"'{definition.qualname}' is loaded by no other "
                    f"module of the package or its consumers (re-exports, "
                    f"__all__, tests and examples do not count)",
                    key=f"test-only:{module.name}:{definition.qualname}",
                )
            )
    return findings
