"""Content-digest incremental cache for the lint engine.

One JSON file under ``.lint_cache/`` records, per source file, the
SHA-256 of the source it was computed from and the findings of the
det/sem/tim passes. Every rule is a pure function of one file, so
invalidation is per file: editing one file re-lints that file and
nothing else.

The whole cache is invalidated by a rule-set signature (rule ids +
:data:`RULE_SET_VERSION`, bumped whenever rule *logic* changes without
an id changing) and a config digest, so `--select`/`--ignore`/`--pass`
variations never alias each other's entries. A corrupt or
wrong-schema cache file is treated as empty, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding

#: Bump when any rule's logic changes in a way that alters findings
#: without changing the rule-id catalogue.
RULE_SET_VERSION = 2

#: On-disk schema of the cache file itself. Schema 1 also held per-file
#: call-graph summaries and perf-pass findings; such files are discarded.
CACHE_SCHEMA = 2

#: File name inside the cache directory.
CACHE_FILENAME = "cache.json"


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rules_signature(rule_ids: Tuple[str, ...]) -> str:
    """Identity of the rule catalogue (ids + logic version)."""
    payload = f"v{RULE_SET_VERSION}:" + ",".join(sorted(rule_ids))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_digest(config: LintConfig) -> str:
    """Stable digest over every config field that can change findings."""
    payload = json.dumps(
        {
            "select": sorted(config.select),
            "ignore": sorted(config.ignore),
            "passes": sorted(config.passes),
            "protected_packages": list(config.protected_packages),
            "decision_modules": list(config.decision_modules),
            "timer_modules": list(config.timer_modules),
            "penalty_modules": list(config.penalty_modules),
            "params_modules": list(config.params_modules),
            "damping_modules": list(config.damping_modules),
            "executor_modules": list(config.executor_modules),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def finding_from_dict(data: Mapping[str, object]) -> Finding:
    return Finding(
        rule_id=str(data["rule"]),
        message=str(data["message"]),
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        col=int(data.get("col", 0)),  # type: ignore[arg-type]
        end_line=int(data.get("end_line", 0)),  # type: ignore[arg-type]
        severity=str(data.get("severity", "error")),
        suppressed=bool(data.get("suppressed", False)),
        baselined=bool(data.get("baselined", False)),
    )


def _findings_out(findings: List[Finding]) -> List[Dict[str, object]]:
    return [finding.as_dict() for finding in findings]


def _findings_in(data: object) -> Optional[List[Finding]]:
    if not isinstance(data, list):
        return None
    try:
        return [finding_from_dict(entry) for entry in data]
    except (KeyError, TypeError, ValueError):
        return None


class LintCache:
    """Per-file findings keyed by content digests.

    ``local_hits``/``local_misses`` are exposed so the benchmark and the
    CI self-check can assert the warm path actually short-circuits.
    """

    def __init__(
        self,
        directory: str,
        rules_sig: str,
        config_sig: str,
    ) -> None:
        self.directory = directory
        self.path = os.path.join(directory, CACHE_FILENAME)
        self._rules_sig = rules_sig
        self._config_sig = config_sig
        self._files: Dict[str, Dict[str, object]] = {}
        self.local_hits = 0
        self.local_misses = 0
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        if data.get("schema") != CACHE_SCHEMA:
            return
        if data.get("rules") != self._rules_sig:
            return
        if data.get("config") != self._config_sig:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = {
                str(path): entry
                for path, entry in files.items()
                if isinstance(entry, dict)
            }

    def save(self, keep_paths: Optional[List[str]] = None) -> None:
        """Persist the cache (optionally pruned to ``keep_paths``)."""
        if keep_paths is not None:
            keep = set(keep_paths)
            self._files = {
                path: entry for path, entry in self._files.items() if path in keep
            }
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "rules": self._rules_sig,
            "config": self._config_sig,
            "files": self._files,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, self.path)

    def local_result(
        self, path: str, sha: str
    ) -> Optional[Tuple[List[Finding], List[Finding], Optional[str]]]:
        """Cached ``(findings, suppressed, parse_error)`` for one file."""
        entry = self._files.get(path)
        if entry is not None and entry.get("sha") == sha:
            findings = _findings_in(entry.get("findings"))
            suppressed = _findings_in(entry.get("suppressed"))
            if findings is not None and suppressed is not None:
                self.local_hits += 1
                parse_error = entry.get("parse_error")
                return (
                    findings,
                    suppressed,
                    str(parse_error) if parse_error is not None else None,
                )
        self.local_misses += 1
        return None

    def store_local(
        self,
        path: str,
        sha: str,
        findings: List[Finding],
        suppressed: List[Finding],
        parse_error: Optional[str],
    ) -> None:
        self._files[path] = {
            "sha": sha,
            "parse_error": parse_error,
            "findings": _findings_out(findings),
            "suppressed": _findings_out(suppressed),
        }


__all__ = [
    "CACHE_FILENAME",
    "CACHE_SCHEMA",
    "RULE_SET_VERSION",
    "LintCache",
    "config_digest",
    "finding_from_dict",
    "rules_signature",
    "source_digest",
]
