"""One measured repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition. Four pieces of state
outlive a repetition inside one process and would make a second
in-process repetition measure something else: the process-global
``PathTable`` of interned AS paths, ``experiments.base``'s topology cache
and warm-state sweep cache, and ``ru_maxrss``, which is a lifetime peak.
A fresh interpreter per repetition starts all four empty.

Usage (from the checkout root)::

    python3 perfbench/rep.py --workload fig8-mesh100 --seed 42 [--traced]
        [--spans-out FILE] [--program-src DIR]

``--seed`` is the *program* seed. ``--program-src`` runs the program
under another ``src/`` directory; ``run.py`` uses it for the frozen
reference build. The last line of standard output is
one JSON object with the repetition's timings, outputs and, when traced,
its per-layer rows and counts.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before any repro import: set-up starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import spec  # noqa: E402

FIXTURE = "benchmarks/fixtures/internet1k.json"
CORPUS_ARCHIVE = HERE / "corpus" / "lint-corpus.tar.gz"

_clock = time.perf_counter


def _import_program(src: Path) -> None:
    """Import ``repro`` from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each workload installs the spans before importing the names it calls,
# so those names are already the wrapped ones.


def run_sweep(name: str, seed: int, recorder) -> dict:  # noqa: ANN001
    if recorder is not None:
        spans.install(recorder, "sweep")
    from repro.core.params import CISCO_DEFAULTS
    from repro.experiments.base import mesh100_config, sweep_cache
    from repro.experiments.parallel import execute_sweep

    damping = None if name.endswith("-nodamp") else CISCO_DEFAULTS
    config = mesh100_config(damping=damping, seed=seed)
    cache = sweep_cache()
    snapshot = cache.get(config)  # build + warm-up + snapshot capture
    start = _clock()
    with recorder.phase() if recorder is not None else nullcontext():
        outcomes = execute_sweep(config, spec.SWEEP_PULSES, jobs=1, cache=cache)
    end = _clock()
    lookups = cache.hits + cache.misses
    return {
        "setup_s": start - T0,
        "run_s": end - start,
        "work": sum(o.message_count for o in outcomes),
        "outputs": {str(o.pulses): o.digest for o in outcomes},
        "layer": {
            "workload.snapshot_bytes": snapshot.size_bytes,
            "workload.cache_hit_ratio": cache.hits / lookups,
        },
    }


def run_scale(seed: int, recorder) -> dict:  # noqa: ANN001
    if recorder is not None:
        spans.install(recorder, "scale")
    from repro.experiments.scale import run_scale_episode
    from repro.topology.io import load_topology

    topology = load_topology(ROOT / FIXTURE)
    called = _clock()
    # At its defaults: coalesced delivery on, watchdog armed.
    result = run_scale_episode(topology=topology, pulses=2, seed=seed)
    return {
        "setup_s": called - T0 + result.build_seconds + result.warmup_seconds,
        "run_s": result.episode_seconds,
        "work": result.message_count,
        "outputs": {"episode": result.digest},
        "layer": {"workload.snapshot_bytes": 0, "workload.cache_hit_ratio": 0.0},
    }


def run_lint(seed: int, recorder) -> dict:  # noqa: ANN001
    if recorder is not None:
        spans.install(recorder, "lint")
    from repro.lint.config import KNOWN_PASSES, LintConfig
    from repro.lint.runner import iter_python_files, lint_paths

    # Relative paths: the lint derives module names from the first
    # ``repro`` path component, which must be the corpus's own.
    corpus = Path(".perfbench") / f"lint-corpus-{os.getpid()}"
    shutil.rmtree(corpus, ignore_errors=True)
    corpus.mkdir(parents=True)
    try:
        with tarfile.open(CORPUS_ARCHIVE) as archive:
            archive.extractall(corpus, filter="data")
        files = list(iter_python_files([str(corpus / "src")]))
        random.Random(seed).shuffle(files)  # seed 0 lints in a shuffled order too
        options = {"passes": frozenset(KNOWN_PASSES)}
        if "hot_profile" in LintConfig.__dataclass_fields__:
            # The perf pass's profile is frozen with the corpus.
            options["hot_profile"] = str(corpus / "benchmarks/results/profile.json")
        config = LintConfig(**options)
        start = _clock()
        with recorder.phase() if recorder is not None else nullcontext():
            report = lint_paths(files, config, jobs=1)
        end = _clock()
    finally:
        shutil.rmtree(corpus, ignore_errors=True)

    prefix = str(corpus) + os.sep
    per_file = {path[len(prefix):]: [] for path in files}
    for finding in report.findings:
        row = finding.as_dict()
        row["path"] = str(row["path"])[len(prefix):]
        per_file[row["path"]].append(json.dumps(row, sort_keys=True))
    outputs = {
        path: hashlib.sha256("\n".join(rows).encode()).hexdigest()
        for path, rows in sorted(per_file.items())
    }
    for path, _message in report.parse_errors:
        outputs[path[len(prefix):]] = "parse-error"
    blocking = sum(1 for f in report.findings if f.severity in ("error", "warning"))
    return {
        "setup_s": start - T0,
        "run_s": end - start,
        "work": report.files_checked,
        "outputs": outputs,
        "blocking": blocking,
        "layer": {"lint.files": report.files_checked, "lint.findings": len(report.findings)},
    }


def _row_for_span(name: str) -> str:
    """The per-layer row a span's self time belongs to."""
    if name == spans.PHASE_SPAN:
        return "other_s"
    if name == "bgp.decision.select_best":
        return "bgp.decision.s"
    if name == "workload.snapshot_restore":
        return "workload.snapshot_restore_s"
    if name == "lint.lint_paths":
        return "lint.self_s"
    if name == "lint.hotset":
        return "lint.hotset_s"
    for prefix, row in (
        ("sim.", "sim.self_s"),
        ("net.", "net.self_s"),
        ("bgp.mrai.", "bgp.mrai.s"),
        ("bgp.", "bgp.self_s"),
        ("core.damping.", "core.damping.s"),
        ("workload.", "workload.self_s"),
        ("topology.", "workload.self_s"),
        ("experiments.", "experiments.self_s"),
        ("metrics.", "metrics.digest_s"),
    ):
        if name.startswith(prefix):
            return row
    if name.startswith("lint."):
        return f"{name}_s"  # lint.det -> lint.det_s, one row per pass
    raise KeyError(f"span {name!r} has no per-layer row")


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def trace_rows(recorder: spans.Recorder, layer: dict) -> dict:
    """Per-layer metrics of a traced repetition (``trace.overhead_ratio``
    needs an untraced repetition and is added by ``run.py``)."""
    from repro.bgp.paths import global_path_table

    rows = {name: 0.0 for name in spec.PHASE_ROWS}
    for name, seconds in recorder.phase_self_by_name().items():
        rows[_row_for_span(name)] += seconds
    setup_total = recorder.setup_total_by_name()
    rows["workload.build_s"] = setup_total.get("workload.build", 0.0)
    rows["workload.warmup_s"] = setup_total.get("workload.warm_up", 0.0)
    rows["workload.snapshot_capture_s"] = recorder.setup_self_by_name().get(
        "workload.snapshot_capture", 0.0
    )
    rows["topology.load_s"] = setup_total.get("topology.load", 0.0)

    phase_counts = recorder.phase_counts
    counts = {
        m.name: phase_counts.get(m.name, 0) for m in spec.PER_LAYER if m.unit in spec.EXACT_UNITS
    }
    counts["bgp.decision.useful_ratio"] = _ratio(
        counts["bgp.decision.changes"], counts["bgp.decision.calls"]
    )
    counts["bgp.ribout.useful_ratio"] = _ratio(
        counts["bgp.ribout.writes"], counts["bgp.ribout.reads"]
    )
    counts["core.damping.noisy_reuse_ratio"] = _ratio(
        phase_counts.get("core.damping.noisy_reuses", 0), counts["core.damping.reuses"]
    )
    counts["bgp.paths.interned"] = len(global_path_table())
    counts.update(layer)
    return {
        "phase_wall": recorder.phase_wall,
        "rows": rows,
        "counts": counts,
    }


def main(argv=None) -> int:  # noqa: ANN001
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="program seed")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", help="write the traced spans here")
    parser.add_argument(
        "--prime", action="store_true", help="import the program and exit (fills .pyc caches)"
    )
    parser.add_argument("--program-src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    _import_program(args.program_src)
    kind = spec.WORKLOADS[args.workload].kind
    if args.prime:
        if kind == "lint":
            import repro.lint.runner  # noqa: F401
        else:
            import repro.experiments.parallel  # noqa: F401
            import repro.experiments.scale  # noqa: F401
        print(json.dumps({"ok": True}))
        return 0

    recorder = spans.Recorder() if args.traced else None
    try:
        if kind == "sweep":
            out = run_sweep(args.workload, args.seed, recorder)
        elif kind == "scale":
            out = run_scale(args.seed, recorder)
        else:
            out = run_lint(args.seed, recorder)
    except Exception:  # reported to run.py, which counts the failure
        print(json.dumps({"ok": False, "error": traceback.format_exc()}))
        return 1
    out["ok"] = True
    out["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        out["trace"] = trace_rows(recorder, out.pop("layer"))
        if args.spans_out:
            recorder.dump(args.spans_out)
    else:
        out.pop("layer")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
