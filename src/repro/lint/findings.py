"""Finding and report types for the static-analysis passes.

A :class:`Finding` pins one rule violation to a ``file:line`` location; a
:class:`LintReport` aggregates the findings of a whole run together with
bookkeeping the reporters and the CI gate need (files checked, findings
silenced by suppression comments or a baseline, files that failed to
parse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: The severity vocabulary, in decreasing order of strictness. ``error``
#: findings always gate (unless ``--fail-on never``); ``warning``
#: findings gate only under the default ``--fail-on warning``.
SEVERITIES: Tuple[str, ...] = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int = 0
    #: Last physical line of the flagged construct; suppression comments
    #: anywhere in ``line..end_line`` (continuation lines) are honoured.
    end_line: int = 0
    #: ``error`` or ``warning`` — copied from the rule that produced the
    #: finding and consumed by the ``--fail-on`` exit-code contract.
    severity: str = "error"
    suppressed: bool = False
    #: True when the finding is silenced by a ``--baseline`` file rather
    #: than fixed; baselined findings do not fail the run.
    baselined: bool = False

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    @property
    def location(self) -> str:
        """``file:line`` rendering used by reporters and error output."""
        return f"{self.path}:{self.line}"

    @property
    def baseline_key(self) -> str:
        """Line-independent identity used by baseline record/compare.

        Deliberately excludes the line number so findings survive
        unrelated edits that shift code up or down a file.
        """
        path = self.path.replace("\\", "/")
        return f"{path}::{self.rule_id}::{self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (used by the JSON reporter)."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


@dataclass
class LintReport:
    """Aggregated outcome of linting one or more paths."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Findings matched (and silenced) by a ``--baseline`` file.
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: ``(path, error message)`` for files that could not be parsed.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Incremental-cache hit/miss counters, populated when the run used a
    #: cache directory (``local_hits``/``local_misses``); None for
    #: uncached runs.
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """True when the tree is clean: no findings and no parse errors."""
        return not self.findings and not self.parse_errors

    @property
    def finding_count(self) -> int:
        return len(self.findings)

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    def blocking_findings(self, fail_on: str = "warning") -> List[Finding]:
        """The findings that fail the run under a ``--fail-on`` threshold.

        ``warning`` (the default, and the historical behaviour): every
        finding blocks. ``error``: only error-severity findings block.
        ``never``: findings never block. Parse errors are not findings
        and always fail the run — an unparseable file cannot be
        certified clean — so callers must check :attr:`parse_errors`
        separately.
        """
        if fail_on == "never":
            return []
        if fail_on == "error":
            return [f for f in self.findings if f.severity == "error"]
        return list(self.findings)

    def counts_by_rule(self) -> Dict[str, int]:
        """Active finding count per rule id, sorted by rule id."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def extend(self, other: "LintReport") -> None:
        """Merge ``other`` (one file's report) into this run-level report."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.baselined.extend(other.baselined)
        self.files_checked += other.files_checked
        self.parse_errors.extend(other.parse_errors)
