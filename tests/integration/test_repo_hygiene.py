"""Repository-level consistency checks.

These guard the promises the documentation makes: every experiment in
the registry has a benchmark that regenerates it, every example script
is syntactically valid and importable, and the public API exports
resolve.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import tokenize

import pytest

import repro
from repro.experiments.registry import EXPERIMENTS

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
EXAMPLES_DIR = REPO_ROOT / "examples"


def _bench_sources() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8") for path in BENCH_DIR.glob("test_*.py")
    )


def test_every_registered_experiment_has_a_benchmark():
    sources = _bench_sources()
    import repro.experiments.registry as registry_module

    source_of_registry = pathlib.Path(registry_module.__file__).read_text()
    del source_of_registry
    for experiment_id, driver in EXPERIMENTS.items():
        assert driver.__name__ in sources, (
            f"experiment {experiment_id} ({driver.__name__}) has no benchmark"
        )


def test_every_experiment_driver_is_callable_without_arguments():
    import inspect

    for experiment_id, driver in EXPERIMENTS.items():
        signature = inspect.signature(driver)
        required = [
            name
            for name, parameter in signature.parameters.items()
            if parameter.default is inspect.Parameter.empty
            and parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        assert not required, f"{experiment_id}: required params {required}"


def test_examples_parse_and_have_main():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 5, "expected at least five example scripts"
    for script in scripts:
        tree = ast.parse(script.read_text(encoding="utf-8"))
        functions = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, f"{script.name} has no main()"
        assert ast.get_docstring(tree), f"{script.name} has no module docstring"


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_all_documented_artefacts_registered():
    """DESIGN.md's experiment index and the registry must agree."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for experiment_id in EXPERIMENTS:
        assert f"| {experiment_id} " in design, (
            f"{experiment_id} missing from DESIGN.md experiment index"
        )


def test_every_package_module_has_docstring():
    source_root = REPO_ROOT / "src" / "repro"
    missing = []
    for path in source_root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(REPO_ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


@pytest.mark.parametrize("required", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_documentation_files_exist(required):
    path = REPO_ROOT / required
    assert path.exists() and path.stat().st_size > 1000


def test_detlint_full_tree_is_clean():
    """Tier-1 static-analysis gate: the whole source tree passes the
    det, sem and tim passes with no baseline and no blocking findings.

    This is the machine-checked form of the conventions the engine's and
    the RFD layers' docstrings promise — see docs/STATIC_ANALYSIS.md.
    New findings mean a wall-clock read, hand-rolled timer arithmetic, a
    magic damping constant, or one of the other DET/SEM/TIM hazards
    crept into src/; fix it or justify a construct-scoped
    ``# <pass>lint: disable=...`` suppression.
    """
    from repro.lint import lint_paths, make_config, render_text

    report = lint_paths(
        [str(REPO_ROOT / "src")], make_config(passes=("all",))
    )
    assert report.files_checked > 50
    assert not report.parse_errors, "\n" + render_text(report)
    assert not report.blocking_findings("warning"), "\n" + render_text(report)


def test_detlint_rule_catalogue_is_documented():
    """docs/STATIC_ANALYSIS.md catalogues exactly the registered rules:
    every rule id has a table row, and every table row names a rule that
    is still registered."""
    from repro.lint import RULE_IDS

    doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    for rule_id in RULE_IDS:
        assert rule_id in doc, f"{rule_id} missing from docs/STATIC_ANALYSIS.md"
    catalogued = set(re.findall(r"^\| ([A-Z]{3,4}\d{3})\b", doc, re.MULTILINE))
    stale = sorted(catalogued - set(RULE_IDS))
    assert not stale, f"docs/STATIC_ANALYSIS.md catalogues unregistered rules: {stale}"


_DIRECTIVE = re.compile(r"^#\s*([a-z]*lint):\s*disable=(\S+)")


def test_suppression_directives_name_registered_rules():
    """Every ``# <pass>lint:`` / ``# lint:`` directive under src/ uses a
    prefix the runner understands and names only registered rule ids, so
    a deleted rule or pass cannot leave dead suppressions behind."""
    from repro.lint import all_rule_ids
    from repro.lint.runner import _GENERIC_DIRECTIVES, _PASS_DIRECTIVES

    prefixes = set(_PASS_DIRECTIVES) | set(_GENERIC_DIRECTIVES)
    known = all_rule_ids() | {"all"}
    dead = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        with path.open(encoding="utf-8") as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.match(token.string)
                if match is None:
                    continue
                prefix, ids = match.group(1) + ":", match.group(2).split(",")
                where = f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
                if prefix not in prefixes:
                    dead.append(f"{where}: unknown prefix {prefix}")
                dead.extend(
                    f"{where}: unregistered {rule_id}"
                    for rule_id in ids
                    if rule_id.strip() not in known
                )
    assert not dead, "dead suppressions:\n" + "\n".join(dead)


_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_INLINE_CODE = re.compile(r"`([^`]+)`")
#: One CLI invocation up to the first pipe, comment, or command separator.
_INVOCATION = re.compile(r"(?:rfd-repro|python -m repro)\s+([^|;#&]*)")


def _cli_invocations(text: str):
    """Token lists of every ``rfd-repro …``/``python -m repro …`` command
    a Markdown document shows, in fenced blocks (one per line, with
    backslash continuations joined) and in inline code spans."""
    snippets = []
    for block in _FENCE.findall(text):
        snippets.extend(block.replace("\\\n", " ").splitlines())
    prose = _FENCE.sub("", text)
    snippets.extend(" ".join(span.split()) for span in _INLINE_CODE.findall(prose))
    for snippet in snippets:
        for match in _INVOCATION.finditer(snippet):
            yield match.group(1).split()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def test_documented_cli_flags_exist():
    """Every ``--flag`` a doc shows on a CLI command line is accepted by
    that (sub)command's parser, so a renamed or deleted option cannot
    survive in the documentation."""
    from repro.cli import _build_parser

    docs = sorted((REPO_ROOT / "docs").glob("*.md")) + [
        REPO_ROOT / "README.md",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    checked = 0
    stale = []
    for doc in docs:
        if not doc.exists():
            continue
        for tokens in _cli_invocations(doc.read_text(encoding="utf-8")):
            parser, path = _build_parser(), []
            while tokens and tokens[0] in _subcommands(parser):
                path.append(tokens[0])
                parser = _subcommands(parser)[tokens.pop(0)]
            accepted = {opt for action in parser._actions for opt in action.option_strings}
            for token in tokens:
                flag = token.split("=", 1)[0]
                if flag.startswith("--"):
                    checked += 1
                    if flag not in accepted:
                        stale.append(f"{doc.name}: rfd-repro {' '.join(path)} {flag}")
    assert checked > 50, f"only {checked} documented flags found; is the scan broken?"
    assert not stale, "docs show options the CLI does not accept:\n" + "\n".join(stale)
