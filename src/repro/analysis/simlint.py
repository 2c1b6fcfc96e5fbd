"""simlint: a pure-stdlib AST lint framework for this repository.

The reproduction's credibility rests on properties the test suite only
samples — determinism (every RNG seeded), unit discipline across the
calibrated timing constants (cycles vs ns vs MHz), and honest accounting
of updates through the mesh.  ``simlint`` enforces the static half of
those properties as repo-specific lint rules over the Python AST; the
dynamic half is :mod:`repro.analysis.sanitizer`.

Architecture:

* :class:`Rule` — one registered check: an id (``SIM...``), a severity,
  a one-line description, and a ``check(FileContext) -> [Finding]``
  callable, or for a whole-program rule (``project=True``) a
  ``check(ProjectModel) -> [Finding]`` one.  Rules self-register through
  the :func:`register` decorator; the shipped rules live in
  :mod:`repro.analysis.rules` and, whole-program,
  :mod:`repro.analysis.project_rules`.
* :class:`FileContext` — one parsed file handed to every rule: AST,
  source lines, and the per-line suppression table.
* Suppressions — a trailing ``# simlint: disable=RULE[,RULE...]``
  comment silences the named rules (or ``all``) on that line.
* Reporters — :func:`render_text` and :func:`render_json`.

Run it via ``python -m repro lint`` or ``make lint``.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import json
import re
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "FileContext",
    "register",
    "all_rules",
    "dotted_name",
    "get_rule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
]


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    ``ERROR`` findings are correctness/determinism hazards; ``WARNING``
    findings are maintainability hazards.  Both fail the lint gate —
    the distinction exists for reporting and for future policy knobs.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: id of the violated rule (e.g. ``SIM101``).
        severity: the rule's severity (``"error"`` or ``"warning"``).
        path: file the violation is in.
        line: 1-based source line.
        col: 0-based column.
        message: human-readable description of this occurrence.
        key: stable fingerprint (no line numbers) used to match the
            finding against ``analysis-baseline.json`` entries; empty
            for per-file rules, which are never baselined.
        suppressed: ``True`` when the finding was silenced by an inline
            suppression comment or an accepted baseline entry.  Silenced
            findings never affect the exit code but are still reported
            by the JSON reporter so CI artifacts show the full picture.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    key: str = ""
    suppressed: bool = False

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Rule:
    """A registered lint rule.

    Attributes:
        rule_id: stable identifier used in reports and suppressions.
        severity: default severity of the rule's findings.
        description: one-line summary shown by ``repro lint --list-rules``.
        check: callable producing the findings for one file, or for a
            project rule for one
            :class:`~repro.analysis.project.ProjectModel`.
        project: whether this is a whole-program (SIM6xx) rule, run by
            ``repro lint --project`` rather than per file.
    """

    rule_id: str
    severity: Severity
    description: str
    check: Callable[[Any], List[Finding]]
    project: bool = False


_REGISTRY: Dict[str, Rule] = {}

#: Trailing-comment suppression syntax: ``# simlint: disable=SIM101,SIM202``
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_,\- ]+)"
)


def register(
    rule_id: str, severity: Severity, description: str, project: bool = False
) -> Callable[[Callable[[Any], List[Finding]]], Rule]:
    """Decorator registering a check function as a :class:`Rule`."""

    def decorator(check: Callable[[Any], List[Finding]]) -> Rule:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate simlint rule id {rule_id!r}")
        rule = Rule(
            rule_id=rule_id,
            severity=severity,
            description=description,
            check=check,
            project=project,
        )
        _REGISTRY[rule_id] = rule
        return rule

    return decorator


def all_rules(project: Optional[bool] = None) -> List[Rule]:
    """Registered rules, sorted by id: the per-file ones with
    ``project=False``, the whole-program ones with ``project=True``,
    else both (registration triggers on import of the rule modules)."""
    _ensure_rules_loaded()
    return [
        _REGISTRY[k]
        for k in sorted(_REGISTRY)
        if project is None or _REGISTRY[k].project == project
    ]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown simlint rule {rule_id!r}; known: {known}"
        ) from None


def _ensure_rules_loaded() -> None:
    # Deferred so `import simlint` alone never costs the rule imports,
    # while registry queries always see the shipped rules.
    from repro.analysis import project_rules, rules  # noqa: F401


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FileContext:
    """One source file as seen by every rule: AST plus line metadata."""

    def __init__(self, source: str, path: str = "<string>") -> None:
        self.source = source
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._suppressions = self._parse_suppressions(self.lines)

    @staticmethod
    def _parse_suppressions(
        lines: Sequence[str],
    ) -> Dict[int, FrozenSet[str]]:
        table: Dict[int, FrozenSet[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                names = frozenset(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                table[lineno] = names
        return table

    def suppressed(self, rule_id: str, line: int) -> bool:
        names = self._suppressions.get(line, frozenset())
        return rule_id in names or "all" in names

    def finding(
        self, rule: Rule, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=rule.rule_id,
            severity=rule.severity.value,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _select_rules(select: Optional[Iterable[str]]) -> List[Rule]:
    if select is None:
        return all_rules(project=False)
    return [rule for rule in map(get_rule, select) if not rule.project]


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    keep_suppressed: bool = False,
) -> List[Finding]:
    """Lint one source string; returns findings sorted by location then
    rule id.  Suppressed findings are dropped unless ``keep_suppressed``
    is set, in which case they are returned flagged ``suppressed=True``
    (the JSON reporter uses this to expose suppression state).

    A file that does not parse yields a single synthetic ``SIM000``
    finding rather than crashing the whole run.
    """
    try:
        ctx = FileContext(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="SIM000",
                severity=Severity.ERROR.value,
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for rule in _select_rules(select):
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.rule, finding.line):
                if keep_suppressed:
                    findings.append(
                        dataclasses.replace(finding, suppressed=True)
                    )
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: Path,
    select: Optional[Iterable[str]] = None,
    keep_suppressed: bool = False,
) -> List[Finding]:
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        select=select,
        keep_suppressed=keep_suppressed,
    )


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Iterable[str]] = None,
    keep_suppressed: bool = False,
) -> Tuple[List[Finding], int]:
    """Lint files and directories (recursively, ``*.py`` only).

    Returns ``(findings, files_checked)``.
    """
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[Finding] = []
    for file_path in files:
        findings.extend(
            lint_file(
                file_path, select=select, keep_suppressed=keep_suppressed
            )
        )
    return findings, len(files)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def _rule_descriptions(
    rule_ids: Iterable[str],
) -> Dict[str, Dict[str, str]]:
    """Severity + description per rule id, for the JSON reporter.

    Unknown ids (e.g. the synthetic ``SIM000``) fall back to a generic
    stanza so the reporter never crashes on a finding.
    """
    _ensure_rules_loaded()
    out: Dict[str, Dict[str, str]] = {}
    for rule_id in sorted(set(rule_ids)):
        rule = _REGISTRY.get(rule_id)
        if rule is not None:
            out[rule_id] = {
                "severity": rule.severity.value,
                "description": rule.description,
            }
        else:
            out[rule_id] = {
                "severity": Severity.ERROR.value,
                "description": "synthetic finding (no registered rule)",
            }
    return out


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """The human-facing report: one ``path:line:col: RULE message`` per
    finding plus a summary line with per-rule counts."""
    active = [f for f in findings if not f.suppressed]
    out = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        for f in active
    ]
    noun = "file" if files_checked == 1 else "files"
    if active:
        counts: Dict[str, int] = {}
        for f in active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        breakdown = ", ".join(
            f"{rule_id}: {n}" for rule_id, n in sorted(counts.items())
        )
        out.append(
            f"simlint: {len(active)} finding(s) in {files_checked} {noun}"
            f" ({breakdown})"
        )
    else:
        out.append(f"simlint: clean ({files_checked} {noun} checked)")
    return "\n".join(out)


def render_json(
    findings: Sequence[Finding],
    files_checked: int,
    project: Optional[Dict[str, object]] = None,
) -> str:
    """Machine-readable report consumed by CI.

    ``num_findings`` counts every reported finding (including suppressed
    or baselined ones when the caller kept them); ``num_active`` is the
    count that gates the exit code.  ``rules`` maps each rule id seen in
    the report to its severity and description.  ``project`` carries the
    whole-program analysis summary when ``repro lint --project`` ran.
    """
    active = [f for f in findings if not f.suppressed]
    payload: Dict[str, object] = {
        "schema": "repro-simlint/1",
        "files_checked": files_checked,
        "num_findings": len(findings),
        "num_active": len(active),
        "num_suppressed": len(findings) - len(active),
        "rules": _rule_descriptions(f.rule for f in findings),
        "findings": [f.to_dict() for f in findings],
    }
    if project is not None:
        payload["project"] = project
    return json.dumps(payload, indent=2)
