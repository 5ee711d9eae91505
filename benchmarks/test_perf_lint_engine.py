"""Benchmarks for the incremental, parallel lint engine.

Measures the three execution modes of :func:`repro.lint.lint_paths` over
the real source tree — cold sequential, warm from the content-digest
cache, and parallel (``--jobs 4``) — and asserts the engine's two
contracts: the warm run of an unchanged tree is at least 5x faster than
the cold run, and every mode produces byte-identical findings JSON.
The timings are merged into ``benchmarks/results/perf.json`` alongside
the simulator microbenchmarks so the lint engine's own perf trajectory
is tracked across PRs.
"""

import json
import pathlib
import time

import pytest

from repro.lint import lint_paths, make_config, render_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
PERF_JSON = RESULTS_DIR / "perf.json"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

_PERF = {}


def _record(name: str, seconds, **extra) -> None:
    entry = {"seconds": round(float(seconds), 6)}
    entry.update(extra)
    _PERF[name] = entry


@pytest.fixture(scope="module", autouse=True)
def _export_perf_json():
    yield
    if not _PERF:
        return
    merged = {}
    if PERF_JSON.exists():
        try:
            merged = json.loads(PERF_JSON.read_text(encoding="utf-8")).get(
                "benchmarks", {}
            )
        except ValueError:
            merged = {}
    merged.update(_PERF)
    payload = json.loads(PERF_JSON.read_text(encoding="utf-8")) if (
        PERF_JSON.exists()
    ) else {"schema": 1}
    payload["benchmarks"] = dict(sorted(merged.items()))
    RESULTS_DIR.mkdir(exist_ok=True)
    PERF_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _config():
    return make_config(passes=("all",))


def _timed_lint(cache_dir=None, jobs=1):
    start = time.perf_counter()
    report = lint_paths(
        [str(SRC_DIR)],
        _config(),
        cache_dir=str(cache_dir) if cache_dir else None,
        jobs=jobs,
    )
    return time.perf_counter() - start, report


def test_lint_cold_vs_warm_cache(tmp_path):
    """Cold populates the cache; warm must short-circuit every file and
    finish at least 5x faster with byte-identical findings."""
    cache_dir = tmp_path / "lint_cache"
    cold_s, cold = _timed_lint(cache_dir)
    assert cold.files_checked > 50
    assert cold.cache_stats["local_hits"] == 0
    assert cold.cache_stats["local_misses"] == cold.files_checked

    warm_s, warm = _timed_lint(cache_dir)
    assert warm.cache_stats["local_misses"] == 0
    assert warm.cache_stats["local_hits"] == warm.files_checked
    assert render_json(warm) == render_json(cold)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= 5.0, (
        f"warm lint only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )
    _record("lint_src_cold_sequential", cold_s, files=cold.files_checked)
    _record(
        "lint_src_warm_cache",
        warm_s,
        files=warm.files_checked,
        speedup_vs_cold=round(speedup, 1),
    )


def test_lint_parallel_jobs4_matches_sequential(tmp_path):
    """``--jobs 4`` is a pure accelerator: identical findings JSON."""
    seq_s, sequential = _timed_lint()
    par_s, parallel = _timed_lint(jobs=4)
    assert render_json(parallel) == render_json(sequential)
    _record("lint_src_cold_jobs4", par_s, files=parallel.files_checked)
    _record("lint_src_cold_sequential_nocache", seq_s)


def test_warm_cache_after_single_edit_stays_incremental(tmp_path):
    """Editing one file re-lints one file; the report still matches a
    cold run of the same tree (measured on a copied tree so the real
    source is never touched)."""
    import shutil

    tree = tmp_path / "src"
    shutil.copytree(SRC_DIR, tree)
    cache_dir = tmp_path / "lint_cache"

    def run():
        start = time.perf_counter()
        report = lint_paths([str(tree)], _config(), cache_dir=str(cache_dir))
        return time.perf_counter() - start, report

    run()  # populate
    target = tree / "repro" / "core" / "penalty.py"
    target.write_text(target.read_text() + "\n# touched by benchmark\n")
    edit_s, edited = run()
    assert edited.cache_stats["local_misses"] == 1
    fresh = lint_paths([str(tree)], _config())
    assert render_json(edited) == render_json(fresh)
    _record("lint_src_warm_one_edit", edit_s, files=edited.files_checked)
