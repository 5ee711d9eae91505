"""Invalidation tests for the incremental lint cache.

The contract under test: the cache is a *pure accelerator*. Whatever
combination of warm entries, edits, rule-set bumps, or corrupted or
outdated cache files the engine encounters, the merged report must be
byte-identical (as rendered JSON) to a cold sequential run of the same
tree — the cache may only change *how much work* that takes, which the
hit/miss counters make observable.
"""

from __future__ import annotations

import json
import textwrap

import pytest

import repro.lint.cache as cache_module
from repro.lint import lint_paths, make_config, render_json

ALPHA = '''
"""Alpha fixture: plain cross-file caller."""

from repro.beta import helper


def use(value):
    return helper(value)
'''

ALPHA_REWIRED = '''
"""Alpha fixture: registers beta's helper as an engine callback."""

from repro.beta import helper


def arm(engine):
    engine.schedule(5.0, helper, tag="reuse")
'''

BETA = '''
"""Beta fixture: the wall-clock hazard lives here."""

import time


def helper(value):
    return time.time() + value
'''

BETA_EDITED = '''
"""Beta fixture: the wall-clock hazard lives here."""

import time


def helper(value):
    return time.time() + value


def extra(value):
    return time.monotonic() + value
'''


@pytest.fixture
def tree(tmp_path):
    # The ``repro`` path segment gives the files real module names.
    pkg = tmp_path / "proj" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(textwrap.dedent(ALPHA))
    (pkg / "beta.py").write_text(textwrap.dedent(BETA))
    return tmp_path / "proj"


def config():
    return make_config(passes=("all",))


def run(tree, cache_dir=None, jobs=1):
    report = lint_paths(
        [str(tree)], config(), cache_dir=str(cache_dir) if cache_dir else None,
        jobs=jobs,
    )
    return report


def stats(report):
    assert report.cache_stats is not None
    return report.cache_stats


class TestWarmRuns:
    def test_cold_then_warm_is_byte_identical(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        assert stats(cold) == {"local_hits": 0, "local_misses": 2}
        assert {f.rule_id for f in cold.findings} == {"DET001"}
        warm = run(tree, cache_dir)
        assert stats(warm) == {"local_hits": 2, "local_misses": 0}
        assert render_json(warm) == render_json(cold)

    def test_cache_stats_absent_without_cache_dir(self, tree):
        report = run(tree)
        assert report.cache_stats is None

    def test_parallel_warm_run_matches_sequential(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        warm = run(tree, cache_dir, jobs=4)
        assert render_json(warm) == render_json(cold)


class TestEditOneFile:
    def test_only_edited_file_reanalyzed(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        run(tree, cache_dir)
        (tree / "repro" / "beta.py").write_text(textwrap.dedent(BETA_EDITED))
        warm = run(tree, cache_dir)
        # alpha stays cached; beta's source digest changed.
        assert stats(warm) == {"local_hits": 1, "local_misses": 1}
        fresh = run(tree, tmp_path / "fresh_cache")
        assert render_json(warm) == render_json(fresh)


class TestCrossFileEdits:
    def test_rewiring_an_import_reanalyzes_only_the_edited_file(
        self, tree, tmp_path
    ):
        # Every rule reads one file, so registering beta's helper as a
        # callback in alpha must not re-lint beta.
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        (tree / "repro" / "alpha.py").write_text(textwrap.dedent(ALPHA_REWIRED))
        warm = run(tree, cache_dir)
        assert stats(warm) == {"local_hits": 1, "local_misses": 1}

        def beta_rows(report):
            return [f for f in report.findings if f.path.endswith("beta.py")]

        assert beta_rows(warm) == beta_rows(cold)
        fresh = run(tree, tmp_path / "fresh_cache")
        assert render_json(warm) == render_json(fresh)


class TestRuleSetVersion:
    def test_version_bump_invalidates_everything(self, tree, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        monkeypatch.setattr(cache_module, "RULE_SET_VERSION", 999)
        bumped = run(tree, cache_dir)
        assert stats(bumped) == {"local_hits": 0, "local_misses": 2}
        assert render_json(bumped) == render_json(cold)

    def test_config_change_never_aliases_entries(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        run(tree, cache_dir)
        narrowed = make_config(passes=("sem",))
        report = lint_paths([str(tree)], narrowed, cache_dir=str(cache_dir))
        # Different config digest -> the previous entries are invisible.
        assert stats(report)["local_misses"] == 2
        assert {f.rule_id[:3] for f in report.findings} <= {"SEM"}


class TestCorruptCache:
    def test_corrupt_cache_file_treated_as_empty(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        (cache_dir / cache_module.CACHE_FILENAME).write_text("{not json")
        warm = run(tree, cache_dir)
        assert stats(warm) == {"local_hits": 0, "local_misses": 2}
        assert render_json(warm) == render_json(cold)

    def test_stale_entry_forces_reanalysis_of_that_file_only(
        self, tree, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        cache_file = cache_dir / cache_module.CACHE_FILENAME
        payload = json.loads(cache_file.read_text())
        beta_key = next(k for k in payload["files"] if k.endswith("beta.py"))
        payload["files"][beta_key]["sha"] = "0" * 64
        cache_file.write_text(json.dumps(payload))
        warm = run(tree, cache_dir)
        assert stats(warm)["local_misses"] == 1
        assert stats(warm)["local_hits"] == 1
        assert render_json(warm) == render_json(cold)

    @pytest.mark.parametrize("schema", [1, cache_module.CACHE_SCHEMA])
    def test_schema1_layout_is_never_misread(self, tree, tmp_path, schema):
        """A cache written before the perf pass was removed nested the
        local findings under ``local`` next to ``summary`` and ``perf``
        entries. It must read as all misses, whether the file still says
        schema 1 or (hand-edited) claims the current schema."""
        cache_dir = tmp_path / "cache"
        cold = run(tree, cache_dir)
        cache_file = cache_dir / cache_module.CACHE_FILENAME
        payload = json.loads(cache_file.read_text())
        payload["schema"] = schema
        payload["files"] = {
            path: {
                "sha": entry["sha"],
                "parse_error": None,
                "summary": {"path": path, "functions": {}},
                # Empty local findings: a misread would drop DET001.
                "local": {"findings": [], "suppressed": []},
                "perf": {"hot_digest": "0" * 64, "findings": [], "suppressed": []},
            }
            for path, entry in payload["files"].items()
        }
        cache_file.write_text(json.dumps(payload))
        warm = run(tree, cache_dir)
        assert stats(warm) == {"local_hits": 0, "local_misses": 2}
        assert render_json(warm) == render_json(cold)
