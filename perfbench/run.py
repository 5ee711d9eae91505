"""The repository benchmark: one command, every metric, checked outputs.

Run from the checkout root::

    python3 perfbench/run.py --workload fig8-mesh100 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures. It runs the workload in pairs of repetitions,
each repetition in a fresh interpreter (``rep.py``): one of the program
under test (``src/``) and one of the frozen reference build (``src/`` at
the commit that defined this benchmark, unpacked from
``corpus/lint-corpus.tar.gz``), in alternating order. It makes at least
the workload's ``min_pairs`` pairs and more while the run stays within about
``--seconds``, and reports medians. ``run_rel`` is the median over pairs
of the program's measured-phase wall time over the reference's. The
host's speed drifts by up to 2x over minutes, and a pair's two sides,
seconds apart, share that drift.

``--trace 1`` makes one untraced and ``spec.TRACED_REPS`` traced
repetitions of the program and reports the per-layer metrics
(``spans.py``). Either way every output is checked: against the pinned
digests in ``pins.json`` when the seed is pinned, across repetitions
always, and, when traced, traced against untraced. Benchmark seed ``k``
runs the program seed ``spec.program_seed`` gives.

The last line of standard output is the result as one JSON object. The
exit status is 0 when every check passed, 1 when a check failed, and 2
(with no result printed) when the benchmark cannot run at all, e.g. in a
directory without the program's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Whole-run ceiling; a repetition never starts if it could cross it.
RUN_BUDGET_S = 170.0

#: Committed digest files the pins must agree with where they overlap.
SMOKE_DIGESTS = {
    "fig8-mesh100": ("benchmarks/results/f8_smoke_digests.json", ("F8", "full_damping_mesh")),
    "fig8-mesh100-nodamp": ("benchmarks/results/f8_smoke_digests.json", ("F8", "no_damping_mesh")),
    "scale-internet1k": (
        "benchmarks/results/scale_smoke_digests.json",
        ("powerlaw-1000/seed0/pulses2/coalesce1",),
    ),
}

#: Relative tolerance of the traced partition (float rounding only).
PARTITION_TOLERANCE = 1e-6

#: The frozen reference build: ``src/`` of the archived corpus.
ARCHIVE = HERE / "corpus" / "lint-corpus.tar.gz"
REFERENCE = WORK / "reference"
PROGRAMS = ("live", "reference")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _clock() -> float:
    return time.perf_counter()


def preflight(workload: str) -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program sources under {ROOT / 'src'}")
    try:
        document = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    if document != spec.benchmark_document():
        raise HarnessError("BENCHMARK.json disagrees with perfbench/spec.py")
    if spec.WORKLOADS[workload].kind == "scale" and not (ROOT / "benchmarks/fixtures/internet1k.json").is_file():
        raise HarnessError("missing benchmarks/fixtures/internet1k.json")


def ensure_reference() -> None:
    """Unpack the reference build once per archive content."""
    digest = hashlib.sha256(ARCHIVE.read_bytes()).hexdigest()
    marker = REFERENCE / "archive.sha256"
    if marker.is_file() and marker.read_text() == digest:
        return
    with tarfile.open(ARCHIVE) as archive:
        members = [m for m in archive.getmembers() if m.name.startswith("src/")]
        archive.extractall(REFERENCE, members=members, filter="data")
    marker.write_text(digest)


def program_flags(program: str) -> tuple:
    if program == "live":
        return ()
    return ("--program-src", str(REFERENCE / "src"))


def child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one ``rep.py`` process to completion and return its result."""
    remaining = deadline - _clock()
    if remaining <= 0:
        raise HarnessError("run budget exhausted")
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise HarnessError(f"repetition exceeded the run budget: {command}") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise HarnessError(f"repetition printed no result:\n{proc.stderr[-2000:]}") from exc
    if not result.get("ok"):
        sys.stderr.write(result.get("error", proc.stderr[-2000:]))
    return result


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def load_pins(workload: str) -> Dict[str, Dict[str, str]]:
    return json.loads((HERE / "pins.json").read_text()).get(workload, {})


def smoke_disagreements(workload: str, pins: Dict[str, Dict[str, str]]) -> List[str]:
    """Pinned digests that contradict the committed smoke digests."""
    if workload not in SMOKE_DIGESTS:
        return []
    relpath, keys = SMOKE_DIGESTS[workload]
    path = ROOT / relpath
    if not path.is_file():  # retired later: nothing left to agree with
        return []
    committed = json.loads(path.read_text())
    for key in keys:
        committed = committed.get(key, {})
    default = pins.get(str(spec.WORKLOADS[workload].default_seed), {})
    if isinstance(committed, str):
        committed = {"episode": committed}
    return [
        f"{relpath} {key}: committed {value[:12]}, pinned {default.get(key, '?')[:12]}"
        for key, value in sorted(committed.items())
        if default.get(key) != value
    ]


class Check:
    """Outputs of every repetition against each other and the pins.

    An operation is one output of one repetition: a sweep point, the
    episode, or a linted file. A repetition that raised fails every
    operation it would have run.
    """

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.problems: List[str] = []
        self.first: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0

    def add(self, rep: dict) -> None:
        if not rep.get("ok"):
            operations = len(self.first) if self.first else 1
            self.attempted += operations
            self.failed += operations
            self.problems.append("a repetition raised")
            return
        outputs = rep["outputs"]
        if self.first is None:
            self.first = outputs
            if self.expected is not None and set(self.expected) != set(outputs):
                self.problems.append("outputs do not cover the pinned keys")
        self.attempted += len(outputs)
        for key, value in outputs.items():
            if value == "parse-error":
                problem = "parse error"
            elif value != self.first.get(key):
                problem = "differs between repetitions"
            elif self.expected is not None and value != self.expected.get(key):
                problem = f"digest {value[:12]} differs from the pin"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{key}: {problem}")
        if rep.get("blocking"):
            self.problems.append(f"{rep['blocking']} error/warning lint findings")


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def measure(
    workload: str, seed: int, seconds: int, checks: Dict[str, "Check"], deadline: float
) -> Dict[str, dict]:
    pairs: List[Dict[str, dict]] = []
    start = _clock()
    last = longest = 0.0
    min_pairs = spec.WORKLOADS[workload].min_pairs
    while len(pairs) < min_pairs or _clock() - start + last / 2 < seconds:
        if pairs and _clock() + 1.5 * longest > deadline:
            break
        began = _clock()
        # Alternate which side goes first, so neither gets the warmer host.
        order = PROGRAMS if len(pairs) % 2 == 0 else PROGRAMS[::-1]
        pair = {}
        for program in order:
            pair[program] = child(workload, seed, deadline, *program_flags(program))
            checks[program].add(pair[program])
        last = _clock() - began
        longest = max(longest, last)
        if not all(rep.get("ok") for rep in pair.values()):
            break
        pairs.append(pair)
    if not pairs:
        return {}
    live = [p["live"] for p in pairs]
    values = {
        "setup_s": [r["setup_s"] for r in live],
        "run_rel": [p["live"]["run_s"] / p["reference"]["run_s"] for p in pairs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in live],
    }
    print(f"{workload}: {len(pairs)} pairs of fresh-interpreter repetitions, program seed {seed}")
    for program in PROGRAMS:
        runs = [p[program]["run_s"] for p in pairs]
        work = [p[program]["work"] / p[program]["run_s"] for p in pairs]
        print(f"  {program:<9} run_s median {statistics.median(runs):.6g} s, "
              f"work_per_s median {statistics.median(work):.6g} 1/s")
    metrics = {}
    for metric in spec.END_TO_END:
        samples = values[metric.name]
        median = statistics.median(samples)
        print(f"  {metric.name:<12} {median:>14.6g} {metric.unit:<4} (min {min(samples):.6g}, max {max(samples):.6g})")
        metrics[metric.name] = {"value": median, "unit": metric.unit}
    return metrics


def trace(workload: str, seed: int, check: Check, deadline: float) -> Dict[str, dict]:
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    untraced = child(workload, seed, deadline)
    check.add(untraced)
    traced = []
    for index in range(spec.TRACED_REPS):
        spans_out = traces / f"{workload}-seed{seed}-{index}.spans"
        rep = child(workload, seed, deadline, "--traced", "--spans-out", str(spans_out))
        check.add(rep)
        if rep.get("ok"):
            traced.append(rep["trace"])
    if not untraced.get("ok") or len(traced) != spec.TRACED_REPS:
        return {}

    first = traced[0]
    for other in traced[1:]:
        if other["counts"] != first["counts"]:
            diff = sorted(k for k in first["counts"] if first["counts"][k] != other["counts"].get(k))
            check.problems.append(f"counts differ between traced repetitions: {diff}")
    for rep in traced:
        total = sum(rep["rows"][name] for name in spec.PHASE_ROWS)
        if abs(total - rep["phase_wall"]) > PARTITION_TOLERANCE * max(1.0, rep["phase_wall"]):
            check.problems.append(f"rows sum to {total}, traced phase is {rep['phase_wall']}")

    # Means keep the partition: the mean rows add up to the mean wall.
    rows = {name: statistics.fmean(r["rows"][name] for r in traced) for name in traced[0]["rows"]}
    phase_wall = statistics.fmean(r["phase_wall"] for r in traced)
    metrics = {}
    print(f"{workload}: traced, program seed {seed}; phase wall {phase_wall:.4f} s (mean of {len(traced)})")
    for metric in spec.PER_LAYER:
        if metric.name == "trace.overhead_ratio":
            value = phase_wall / untraced["run_s"]
        elif metric.unit in spec.EXACT_UNITS:
            value = first["counts"][metric.name]
        else:
            value = rows[metric.name]
        print(f"  {metric.name:<32} {value:>14.6g} {metric.unit}")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    print(f"  rows + other_s = {sum(rows[n] for n in spec.PHASE_ROWS):.6f} s")
    return metrics


def main(argv=None) -> int:  # noqa: ANN001
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _clock() + RUN_BUDGET_S
    try:
        if args.seed < 0:
            raise HarnessError("--seed must be >= 0")
        preflight(args.workload)
        program_seed = spec.program_seed(args.workload, args.seed)
        WORK.mkdir(exist_ok=True)
        programs = PROGRAMS[:1] if args.trace else PROGRAMS
        if "reference" in programs:
            ensure_reference()
        # Unmeasured: compile bytecode and warm the file cache, so the
        # first repetition's set-up is like the others'. (The reference's
        # set-up is not reported.)
        child(args.workload, program_seed, deadline, "--prime")
        pins = load_pins(args.workload)
        checks = {program: Check(pins.get(str(program_seed))) for program in programs}
        if args.trace:
            metrics = trace(args.workload, program_seed, checks["live"], deadline)
        else:
            metrics = measure(args.workload, program_seed, args.seconds, checks, deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = smoke_disagreements(args.workload, pins)
    problems += [f"{program}: {p}" for program, check in checks.items() for p in check.problems]
    if not metrics:
        problems.append("no repetition completed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": max(1, sum(c.attempted for c in checks.values())),
        "failed": sum(c.failed for c in checks.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
