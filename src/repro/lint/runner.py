"""The lint driver: file discovery, parsing, suppression handling, the
incremental cache, and parallel file analysis.

:func:`lint_paths` is the entry point the CLI and the tier-1 hygiene gate
share; it runs whichever passes (detlint / semlint / timerlint) the
config enables. Every rule is a pure function of one file, so the run is
a single per-file phase — in worker processes when ``jobs > 1``, over
the same spawn-context conventions as the sweep executor. With
``cache_dir`` set, each file first consults a content-digest cache
(:mod:`repro.lint.cache`); the findings of a warm run are
digest-identical to a cold sequential run by construction, because
cached entries are keyed on exactly the inputs the analysis reads.

Suppression comments are construct-scoped and pass-prefixed::

    t = time.time()  # detlint: disable=DET001
    u = time.time()  # detlint: disable=all
    timer.start(delay)  # timerlint: disable=TIM005
    x = simulate()  # lint: disable=DET001,SEM003

A pass-scoped prefix (``semlint:`` / ``timerlint:``) only silences ids
of its own pass (``disable=all`` means "all rules of this pass"); the
generic ``lint:`` prefix — and ``detlint:``, which
predates pass scoping and stays fully generic for compatibility —
silences any listed id (``disable=all`` silences everything). A directive
silences a finding when it sits on any physical line of the flagged
construct (so continuation lines of a multi-line call work), or on a
decorator line of the flagged ``def``/``class``. A suppressed finding is
still recorded (reporters show the count) but does not fail the run.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.cache import LintCache, config_digest, rules_signature, source_digest
from repro.lint.config import LintConfig, pass_for_rule
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import FileContext, Rule, all_rule_ids, iter_rules

#: Pass-scoped directive prefixes: ids listed after ``# semlint:`` only
#: silence SEM rules; ``disable=all`` becomes the pass-scoped token
#: ``sem:all``.
_PASS_DIRECTIVES: Dict[str, str] = {
    "semlint:": "sem",
    "timerlint:": "tim",
}
#: Generic prefixes: listed ids silence any pass; ``all`` everything.
#: ``detlint:`` predates the pass-scoped prefixes and has always accepted
#: ids of every catalogue, so it stays an alias of ``lint:`` — existing
#: suppressions keep working.
_GENERIC_DIRECTIVES = ("lint:", "detlint:")

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})


def _directive_tokens(text: str, pass_name: Optional[str]) -> Set[str]:
    """Parse one ``disable=...`` payload into suppression tokens."""
    if not text.startswith("disable="):
        return set()
    tokens: Set[str] = set()
    for part in text[len("disable=") :].split(","):
        rule_id = part.strip()
        if not rule_id:
            continue
        if pass_name is None:
            tokens.add(rule_id)
        elif rule_id == "all":
            tokens.add(f"{pass_name}:all")
        elif pass_for_rule(rule_id) == pass_name:
            tokens.add(rule_id)
        # An id of another pass under a pass-scoped prefix is ignored —
        # `# semlint: disable=DET001` must not silence detlint.
    return tokens


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppression tokens active on that line.

    Tokens are rule ids, the pass-scoped ``<pass>:all``, or the global
    ``all``. Comments are found with :mod:`tokenize`, so directive-
    looking text inside string literals is ignored.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            parsed: Set[str] = set()
            for prefix, pass_name in _PASS_DIRECTIVES.items():
                if text.startswith(prefix):
                    parsed = _directive_tokens(
                        text[len(prefix) :].strip(), pass_name
                    )
                    break
            else:
                for prefix in _GENERIC_DIRECTIVES:
                    if text.startswith(prefix):
                        parsed = _directive_tokens(
                            text[len(prefix) :].strip(), None
                        )
                        break
            if parsed:
                suppressions.setdefault(token.start[0], set()).update(parsed)
    except tokenize.TokenError:
        pass  # the AST parse already succeeded; treat as no suppressions
    return suppressions


def _decorator_lines(tree: ast.AST) -> Dict[int, List[int]]:
    """Map a decorated def/class's ``lineno`` to its decorator lines, so a
    directive on ``@decorator`` also covers findings anchored at the
    ``def`` line below it."""
    mapping: Dict[int, List[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.decorator_list:
                mapping[node.lineno] = [
                    line
                    for decorator in node.decorator_list
                    for line in range(
                        decorator.lineno,
                        (getattr(decorator, "end_lineno", None) or decorator.lineno)
                        + 1,
                    )
                ]
    return mapping


def _disabled_rules(
    finding: Finding,
    suppressions: Dict[int, Set[str]],
    decorators: Dict[int, List[int]],
) -> Set[str]:
    """Union of directives covering any line of the flagged construct."""
    lines = list(range(finding.line, finding.end_line + 1))
    lines.extend(decorators.get(finding.line, []))
    disabled: Set[str] = set()
    for line in lines:
        disabled |= suppressions.get(line, set())
    return disabled


def _is_suppressed(finding: Finding, disabled: Set[str]) -> bool:
    if "all" in disabled or finding.rule_id in disabled:
        return True
    return f"{pass_for_rule(finding.rule_id)}:all" in disabled


def module_name_for(path: str) -> Optional[str]:
    """Derive a dotted module name from a file path, if the path visibly
    contains the ``repro`` package (e.g. ``src/repro/sim/engine.py`` ->
    ``repro.sim.engine``). Returns None for paths outside the package."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    if "repro" not in parts:
        return None
    start = parts.index("repro")
    module_parts = parts[start:]
    module_parts[-1] = module_parts[-1][: -len(".py")] if module_parts[-1].endswith(
        ".py"
    ) else module_parts[-1]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(module_parts)


def _apply_suppressions(
    findings: List[Finding],
    report: LintReport,
    suppressions: Dict[int, Set[str]],
    decorators: Dict[int, List[int]],
) -> None:
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    for finding in findings:
        disabled = _disabled_rules(finding, suppressions, decorators)
        if _is_suppressed(finding, disabled):
            report.suppressed.append(replace(finding, suppressed=True))
        else:
            report.findings.append(finding)


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one source string; the unit of work for files and tests."""
    config = config if config is not None else LintConfig()
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.parse_errors.append((path, f"syntax error: {exc.msg} (line {exc.lineno})"))
        return report
    if module is None:
        module = module_name_for(path)
    context = FileContext(path=path, tree=tree, config=config, module=module)
    suppressions = parse_suppressions(source)
    decorators = _decorator_lines(tree)
    active_rules = rules if rules is not None else iter_rules(config)
    findings: List[Finding] = []
    for rule in active_rules:
        findings.extend(rule.check(context))
    _apply_suppressions(findings, report, suppressions, decorators)
    return report


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


# ----------------------------------------------------------------------
# per-file analysis, sequential or over a spawn pool
# ----------------------------------------------------------------------

#: Picklable result of one file: ``(path, sha, findings, suppressed,
#: parse_error)``; ``sha`` is empty when the file could not be read.
_FileResult = Tuple[str, str, List[Finding], List[Finding], Optional[str]]


def _unreadable(path: str, exc: OSError) -> _FileResult:
    return (path, "", [], [], f"unreadable: {exc}")


def _analyze_file(
    path: str, config: LintConfig, rules: Sequence[Rule]
) -> _FileResult:
    """Read and lint one file. Never raises for per-file problems; they
    come back as ``parse_error`` rows."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _unreadable(path, exc)
    report = lint_source(source, path, config, rules=rules)
    parse_error = report.parse_errors[0][1] if report.parse_errors else None
    return (
        path,
        source_digest(source),
        report.findings,
        report.suppressed,
        parse_error,
    )


# Worker-process state for parallel analysis, following the spawn-context
# conventions of repro.experiments.parallel: the config is shipped once
# through the initializer, rules are instantiated once per worker, and
# tasks carry only file paths.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(config: LintConfig) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["rules"] = iter_rules(config)


def _worker_analyze(paths: List[str]) -> List[_FileResult]:
    config = _WORKER_STATE["config"]
    rules = _WORKER_STATE["rules"]
    assert isinstance(config, LintConfig) and isinstance(rules, list)
    return [_analyze_file(path, config, rules) for path in paths]


def _analyze_files(
    pending: List[str], config: LintConfig, jobs: int
) -> List[_FileResult]:
    """Analyse ``pending`` files, in-process or over a spawn pool."""
    if jobs <= 1 or len(pending) < 2:
        rules = iter_rules(config)
        return [_analyze_file(path, config, rules) for path in pending]
    import concurrent.futures
    import multiprocessing

    workers = min(jobs, len(pending))
    context = multiprocessing.get_context("spawn")
    chunks = [pending[i::workers] for i in range(workers)]
    results: List[_FileResult] = []
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(config,),
    ) as pool:
        for batch in pool.map(_worker_analyze, chunks):
            results.extend(batch)
    return results


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    *,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> LintReport:
    """Lint every Python file under ``paths`` and merge the reports.

    ``cache_dir`` enables the incremental cache (typically
    ``.lint_cache``); ``jobs > 1`` analyses files over a spawn-context
    process pool. Both are pure accelerators: the merged report is
    digest-identical to a cold sequential run.
    """
    config = config if config is not None else LintConfig()
    config.validate(all_rule_ids())
    files = list(iter_python_files(paths))

    cache: Optional[LintCache] = None
    if cache_dir is not None:
        cache = LintCache(
            cache_dir,
            rules_signature(tuple(sorted(all_rule_ids()))),
            config_digest(config),
        )

    results: Dict[str, _FileResult] = {}
    pending: List[str] = []
    for path in files:
        if cache is None:
            pending.append(path)
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            results[path] = _unreadable(path, exc)
            continue
        sha = source_digest(source)
        cached = cache.local_result(path, sha)
        if cached is None:
            pending.append(path)
        else:
            findings, suppressed, parse_error = cached
            results[path] = (path, sha, findings, suppressed, parse_error)

    for result in _analyze_files(pending, config, jobs):
        path, sha, findings, suppressed, parse_error = result
        results[path] = result
        if cache is not None and sha:
            cache.store_local(path, sha, findings, suppressed, parse_error)

    # Merge in file order; each file's findings are already sorted.
    report = LintReport()
    for path in files:
        _, _, findings, suppressed, parse_error = results[path]
        report.files_checked += 1
        if parse_error is not None:
            report.parse_errors.append((path, parse_error))
            continue
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)

    if cache is not None:
        cache.save(keep_paths=files)
        report.cache_stats = {
            "local_hits": cache.local_hits,
            "local_misses": cache.local_misses,
        }
    return report
