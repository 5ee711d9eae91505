"""The rule framework shared by the detlint, semlint and timerlint passes.

A :class:`Rule` inspects one file's AST through a :class:`FileContext`
(parsed tree with parent links, import alias map, module name, config,
lazily computed effect and timer-handle analyses) and yields
:class:`~repro.lint.findings.Finding` rows. Rules register themselves
into a global catalogue via :func:`register`; the id prefix (``DET`` /
``SEM`` / ``TIM``) assigns each rule to an analysis pass. Suppression
filtering happens in the runner, not here.

With three passes sharing one registry, a silent id collision would make
a rule unreachable, so :func:`register` validates the id format and
raises at import time when two rule classes claim the same id.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Type

from repro.lint.config import LintConfig
from repro.lint.effects import EffectAnalysis, analyze_effects
from repro.lint.findings import SEVERITIES, Finding

if TYPE_CHECKING:
    from repro.lint.timers import TimerAnalysis

_PARENT_ATTR = "_detlint_parent"


# ----------------------------------------------------------------------
# file context
# ----------------------------------------------------------------------


@dataclass
class FileContext:
    """Everything a rule may look at while checking one file."""

    path: str
    tree: ast.AST
    config: LintConfig
    #: Dotted module name (``repro.sim.engine``) when derivable, else None.
    module: Optional[str] = None
    #: Local name -> fully qualified name, built from import statements.
    aliases: Dict[str, str] = field(default_factory=dict)
    _effects: Optional[EffectAnalysis] = field(default=None, repr=False)
    _timers: Optional["TimerAnalysis"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._link_parents()
        self._collect_aliases()

    def _link_parents(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                setattr(child, _PARENT_ATTR, node)

    def _collect_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, _PARENT_ATTR, None)

    def effect_analysis(self) -> EffectAnalysis:
        """Per-function effect classification of this file, computed on
        first use and shared by every rule that needs it."""
        if self._effects is None:
            self._effects = analyze_effects(self.tree)
        return self._effects

    def timer_analysis(self) -> "TimerAnalysis":
        """Timer-handle abstract interpretation of this file, computed on
        first use and shared by the TIM001..TIM003 rules."""
        if self._timers is None:
            # Local import: repro.lint.timers subclasses Rule from this
            # module, so a top-level import would be circular.
            from repro.lint.timers import analyze_timers

            self._timers = analyze_timers(self)
        return self._timers

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to a dotted name, expanding
        the leading segment through the file's import aliases."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        end_line = getattr(node, "end_lineno", None) or line
        # A finding anchored to a whole def/class must not let directives
        # deep inside the body silence it; cap the suppression window at
        # the statement header (decorator lines are handled separately by
        # the runner).
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.body:
                end_line = max(line, node.body[0].lineno - 1)
        return Finding(
            rule_id=rule.id,
            message=message,
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            end_line=end_line,
            severity=rule.severity,
        )


# ----------------------------------------------------------------------
# rule framework
# ----------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`, a
    generator over findings for one file. Registration happens through
    the :func:`register` decorator so the catalogue is the single source
    of truth for ``--list-rules`` and the documentation gate.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: ``error`` (default) or ``warning``; drives the ``--fail-on`` gate.
    severity: str = "error"

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}

#: Three-letter pass prefix + three-digit ordinal, e.g. ``TIM004``.
_RULE_ID_FORMAT = re.compile(r"^[A-Z]{3}\d{3}$")


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalogue.

    Raises :class:`ValueError` at import time for a missing or malformed
    id, an unknown severity, or an id another rule class already claimed
    (within or across passes) — a collision would silently shadow one of
    the two rules in ``--select``/``--ignore`` and the documentation gate.
    """
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if not _RULE_ID_FORMAT.match(rule_class.id):
        raise ValueError(
            f"rule {rule_class.__name__} id {rule_class.id!r} does not match "
            "the PREFIXnnn format (e.g. DET001, SEM003, TIM010)"
        )
    if rule_class.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule_class.__name__} severity {rule_class.severity!r} "
            f"is not one of {SEVERITIES}"
        )
    existing = _REGISTRY.get(rule_class.id)
    if existing is not None:
        raise ValueError(
            f"duplicate rule id {rule_class.id}: {rule_class.__name__} "
            f"collides with already-registered {existing.__name__}"
        )
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registry() -> Dict[str, Type[Rule]]:
    """The live rule catalogue (id -> class), for introspection."""
    return dict(_REGISTRY)


def all_rule_ids() -> FrozenSet[str]:
    return frozenset(_REGISTRY)


def iter_rules(config: Optional[LintConfig] = None) -> List[Rule]:
    """Instantiate the enabled rules, sorted by id."""
    rules: List[Rule] = []
    for rule_id in sorted(_REGISTRY):
        if config is None or config.rule_enabled(rule_id):
            rules.append(_REGISTRY[rule_id]())
    return rules


def iter_calls(context: FileContext) -> Iterator[ast.Call]:
    """All call expressions of the file, in tree order."""
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            yield node
