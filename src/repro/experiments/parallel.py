"""Deterministic process-pool sweep executor.

Every figure and ablation is a sweep of *independent* episodes: each
(config, pulse count) point builds its own scenario from its own seed, so
points can run in any process, in any order, without sharing state. This
module is the one place such fan-out is allowed (detlint rule DET010
flags ``multiprocessing``/``concurrent.futures`` anywhere else), and it
provides a hard guarantee: results are **digest-identical** to the
sequential path, whatever ``jobs`` is.

The guarantee holds by construction:

* Each point's scenario derives every random draw from the point's own
  :class:`~repro.sim.rng.RngRegistry` master seed — nothing is drawn
  from shared or process-global randomness.
* Every point gets an independent warmed-up scenario. Sequentially it
  is restored from a :class:`~repro.workload.scenarios.WarmStateSnapshot`
  (or warmed up from the bare config); in a worker it is always built
  from the bare config and warmed up there. Snapshot restoration
  preserves RNG stream states, the engine clock/sequence counter, and
  all protocol state exactly, so both routes give the same episode.
* The pool uses the ``spawn`` start method, so workers import a fresh
  interpreter instead of inheriting forked state, and results are
  collected in submission order regardless of completion order.

A parallel sweep submits one task per point carrying the bare
:class:`~repro.workload.scenarios.ScenarioConfig` and the pulse count,
and the worker warms its scenario up itself. That costs a worker a few
tens of milliseconds more than a restore would, but the parent never
warms up, captures or ships a snapshot, and end to end the sweep is
faster than one that does.
Spawn workers do cost a full interpreter start + import each, so pools
are kept alive and reused across ``execute_sweep`` calls
(:class:`_PoolManager`). A broken or timed-out pool is discarded;
healthy pools return to the warm set.

Episode outcomes cross the process boundary as compact picklable
:class:`PointOutcome` records (metrics plus the run digest), never as
full result objects with their collectors and traces.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.digest import run_digest
from repro.sim.rng import RngRegistry
from repro.trace.sinks import JsonlSink
from repro.trace.tracer import Tracer
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import (
    Scenario,
    ScenarioConfig,
    WarmStateCache,
    WarmStateSnapshot,
)

#: What the sequential path builds scenarios from: a warm-state snapshot
#: when warm-up is shared, else the bare config.
SweepSource = Union[WarmStateSnapshot, ScenarioConfig]


@dataclass(frozen=True)
class PointOutcome:
    """One sweep point's metrics, compact and picklable.

    Mirrors :class:`repro.experiments.base.SweepPoint` plus the run
    digest, which is what the determinism tests compare byte-for-byte
    between sequential and parallel execution.
    """

    pulses: int
    convergence_time: float
    message_count: int
    suppressions: int
    peak_damped_links: int
    secondary_charges: int
    warmup_convergence: float
    digest: str
    #: SHA-256 of the point's canonical JSONL trace when tracing was
    #: requested (``trace_dir``); ``None`` otherwise. Identical whatever
    #: ``jobs`` is — the parallel determinism guarantee covers traces too.
    trace_digest: Optional[str] = None


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even inside a cgroup or
    affinity-restricted container; the scheduler affinity mask is the
    honest ceiling for how many workers can make progress, so ``jobs=0``
    and the perf benchmarks use this instead.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return len(affinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``1`` = sequential,
    ``0`` = one worker per *available* CPU (affinity-aware, so container
    CPU limits are respected), ``N`` = that many workers."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return available_cpus()
    return jobs


def derive_seed(master_seed: int, label: str) -> int:
    """Stable per-point (or per-replicate) seed derived through
    :meth:`RngRegistry.fork`, so multi-seed sweeps stay reproducible
    without seed arithmetic scattered across experiments."""
    return RngRegistry(master_seed).fork(label).master_seed


def run_point_outcome(
    scenario: Scenario,
    pulses: int,
    flap_interval: float = 60.0,
    check_invariants: bool = False,
    trace_path: Optional[str] = None,
    audit_timers: bool = False,
) -> PointOutcome:
    """Run one regular-pulse episode on a warmed scenario and reduce it
    to a :class:`PointOutcome`.

    ``trace_path`` writes the episode's causal trace there as canonical
    JSONL and records its digest on the outcome. ``audit_timers``
    attaches the runtime timer audit for the episode and fails the point
    on any lifecycle violation.
    """
    tracer: Optional[Tracer] = None
    if trace_path is not None:
        tracer = Tracer(JsonlSink(trace_path))
    audit = scenario.engine.enable_timer_audit() if audit_timers else None
    result = scenario.run(PulseSchedule.regular(pulses, flap_interval), tracer=tracer)
    trace_digest = tracer.close() if tracer is not None else None
    if audit is not None:
        violations = audit.verify()
        if violations:
            details = "; ".join(
                f"{v.kind} @ {v.time:.1f}s timer {v.timer}" for v in violations[:5]
            )
            raise SimulationError(
                f"timer audit found {len(violations)} violation(s) at "
                f"pulses={pulses}: {details}"
            )
    if check_invariants:
        # Imported lazily: analysis.invariants imports workload.scenarios,
        # which sits below this module in the layering.
        from repro.analysis.invariants import check_converged_invariants

        check_converged_invariants(scenario).raise_on_violation()
    summary = result.summary
    return PointOutcome(
        pulses=pulses,
        convergence_time=result.convergence_time,
        message_count=result.message_count,
        suppressions=summary.total_suppressions,
        peak_damped_links=summary.peak_damped_links,
        secondary_charges=summary.secondary_charges,
        warmup_convergence=result.warmup_convergence,
        digest=run_digest(result.collector),
        trace_digest=trace_digest,
    )


def _materialise(source: SweepSource) -> Scenario:
    """An independent warmed-up scenario from a snapshot or bare config."""
    if isinstance(source, WarmStateSnapshot):
        return source.restore()
    scenario = Scenario(source)
    scenario.warm_up()
    return scenario


def _sweep_source(
    config: ScenarioConfig,
    point_count: int,
    use_snapshots: bool,
    cache: Optional[WarmStateCache],
) -> SweepSource:
    """Warm up once and snapshot when more than one point will reuse it;
    a single point is cheaper to warm directly. A cache turns the
    capture into a per-config lookup shared across sweeps."""
    if use_snapshots and point_count > 1:
        if cache is not None:
            return cache.get(config)
        return WarmStateSnapshot.capture(config)
    return config


def _point_trace_path(trace_dir: str, index: int, pulses: int) -> str:
    """Per-point trace file name: stable, index-ordered, pulse-labelled."""
    return os.path.join(trace_dir, f"point_{index:03d}_p{pulses}.jsonl")


@dataclass(frozen=True)
class _SweepSpec:
    """The per-sweep options every point runs with, plus the bare config
    a worker builds its scenario from. It rides on every task, so one
    persistent pool serves sweeps over different configs back to back."""

    config: ScenarioConfig
    flap_interval: float
    check_invariants: bool
    trace_dir: Optional[str]
    audit_timers: bool

    def run(self, scenario: Scenario, index: int, pulses: int) -> PointOutcome:
        """Run point ``index`` on a warmed ``scenario``."""
        return run_point_outcome(
            scenario,
            pulses,
            flap_interval=self.flap_interval,
            check_invariants=self.check_invariants,
            trace_path=(
                _point_trace_path(self.trace_dir, index, pulses)
                if self.trace_dir is not None
                else None
            ),
            audit_timers=self.audit_timers,
        )


def _worker_run_point(spec: _SweepSpec, index: int, pulses: int) -> PointOutcome:
    """Worker entry point: warm up the bare config and run one point."""
    return spec.run(_materialise(spec.config), index, pulses)


# ----------------------------------------------------------------------
# persistent pools
# ----------------------------------------------------------------------


class _PoolManager:
    """Keeps spawn pools warm across sweeps.

    A spawn worker pays a full interpreter start plus ``import repro``
    — comparable to several episodes — so tearing the pool down after
    every sweep forfeits most of the multi-core win for short sweeps
    and multi-sweep experiments. Healthy pools are parked here on sweep
    completion and handed back to the next sweep with the same shape;
    broken or timed-out pools are discarded (their wedged workers make
    them unreusable). Keys include the executor class so the hardening
    tests' fake pools never alias real ones.
    """

    def __init__(self) -> None:
        self._idle: Dict[Tuple[object, int, str], ProcessPoolExecutor] = {}

    def acquire(
        self, worker_count: int, start_method: str
    ) -> Tuple[Tuple[object, int, str], ProcessPoolExecutor]:
        executor_cls = ProcessPoolExecutor  # module attr: monkeypatch seam
        key = (executor_cls, worker_count, start_method)
        pool = self._idle.pop(key, None)
        if pool is None:
            context = multiprocessing.get_context(start_method)
            pool = executor_cls(max_workers=worker_count, mp_context=context)
        return key, pool

    def release(
        self, key: Tuple[object, int, str], pool: ProcessPoolExecutor
    ) -> None:
        """Park a healthy pool for reuse (folding any duplicate)."""
        if key in self._idle:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        self._idle[key] = pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool we no longer trust. Never a blocking shutdown: a
        wedged worker would hang it forever, and cancel_futures strands
        nothing we keep — unfinished points are resubmitted elsewhere."""
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown_all(self) -> None:
        for pool in self._idle.values():
            pool.shutdown(wait=False, cancel_futures=True)
        self._idle.clear()

    def idle_count(self) -> int:
        return len(self._idle)


_POOLS = _PoolManager()
atexit.register(_POOLS.shutdown_all)


def shutdown_worker_pools() -> None:
    """Tear down every warm worker pool (tests, embedders)."""
    _POOLS.shutdown_all()


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------


def _salvage(
    submitted: Sequence[Tuple[int, "Future[PointOutcome]"]],
    results: Dict[int, PointOutcome],
) -> None:
    """Harvest every point that finished cleanly before the pool broke,
    without blocking on the ones that did not. Completed points are
    kept; only the genuinely missing ones are resubmitted."""
    for index, future in submitted:
        if not future.done():
            continue
        try:
            outcome = future.result(timeout=0)
        except BaseException:
            # Broken-pool / cancelled / crashed futures are retried by
            # the caller; only clean outcomes are worth keeping.
            continue
        results.setdefault(index, outcome)


def execute_sweep(
    config: ScenarioConfig,
    pulse_counts: Sequence[int],
    flap_interval: float = 60.0,
    jobs: Optional[int] = 1,
    use_snapshots: bool = True,
    check_invariants: bool = False,
    mp_start_method: str = "spawn",
    trace_dir: Optional[str] = None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    audit_timers: bool = False,
    cache: Optional[WarmStateCache] = None,
) -> List[PointOutcome]:
    """Run one episode per pulse count, optionally across processes.

    ``jobs`` follows the CLI convention (``1`` sequential in-process,
    ``0`` one worker per available CPU, ``N`` workers otherwise).
    Outcomes are returned in ``pulse_counts`` order and are
    digest-identical whatever ``jobs`` resolves to.

    ``use_snapshots`` and ``cache`` apply to the sequential path only:
    it warms the config up once and restores a snapshot per point, and
    ``cache`` reuses captured snapshots across sweeps (and heals a
    snapshot that fails to restore by recapturing it — see
    :meth:`~repro.workload.scenarios.WarmStateCache.restore`). The
    parallel path submits one task per point with the bare config, and
    each worker warms its own scenario up.

    ``trace_dir`` enables causal tracing: each point writes its canonical
    JSONL trace to ``<trace_dir>/point_<index>_p<pulses>.jsonl`` (the
    directory is created if needed), and each outcome carries the trace's
    digest. Every per-point file is written wholly by whichever process
    ran that point, so the files — like the outcomes — are byte-identical
    between sequential and parallel execution.

    The parallel path is hardened against *pool-level* failures — a
    worker process dying (OOM killer, segfault) breaks the whole
    executor, and a wedged worker would block forever:

    * ``point_timeout`` bounds the wall-clock wait for each point once
      the executor starts waiting on it (``None`` = wait forever);
    * when the pool breaks or a point times out, every already-completed
      outcome is salvaged, the pool is discarded (a wedged worker makes
      it unreusable), and only the missing points are resubmitted to a
      fresh pool, up to ``max_retries`` extra attempts.

    Deterministic failures — an episode raising ``SimulationError``,
    an invariant or timer-audit violation — are *not* retried: rerunning
    the same seed reproduces them, so they propagate immediately.
    Because every point is a pure function of ``(config, pulses)``,
    salvage-and-retry cannot change results, only recover them.
    """
    counts = [int(p) for p in pulse_counts]
    worker_count = resolve_jobs(jobs)
    if max_retries < 0:
        raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
    if point_timeout is not None and point_timeout <= 0:
        raise ConfigurationError(
            f"point_timeout must be > 0 seconds, got {point_timeout}"
        )
    if not counts:
        return []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    spec = _SweepSpec(
        config=config,
        flap_interval=flap_interval,
        check_invariants=check_invariants,
        trace_dir=trace_dir,
        audit_timers=audit_timers,
    )

    if worker_count == 1 or len(counts) == 1:
        source = _sweep_source(config, len(counts), use_snapshots, cache)
        outcomes: List[PointOutcome] = []
        for index, pulses in enumerate(counts):
            if cache is not None and isinstance(source, WarmStateSnapshot):
                scenario = cache.restore(config)
            else:
                scenario = _materialise(source)
            outcomes.append(spec.run(scenario, index, pulses))
        return outcomes

    tasks = list(enumerate(counts))
    results: Dict[int, PointOutcome] = {}
    failures: List[str] = []
    for attempt in range(max_retries + 1):
        missing = [task for task in tasks if task[0] not in results]
        if not missing:
            break
        key, pool = _POOLS.acquire(worker_count, mp_start_method)
        submitted: List[Tuple[int, "Future[PointOutcome]"]] = []
        broke = False
        try:
            try:
                for index, pulses in missing:
                    submitted.append(
                        (index, pool.submit(_worker_run_point, spec, index, pulses))
                    )
            except BrokenExecutor as exc:
                failures.append(
                    f"attempt {attempt + 1}: pool broke during submission "
                    f"({type(exc).__name__})"
                )
                broke = True
            # Collect in submission order so output ordering never depends
            # on completion order.
            for index, future in submitted:
                if broke:
                    break
                try:
                    results[index] = future.result(timeout=point_timeout)
                except BrokenExecutor as exc:
                    failures.append(
                        f"attempt {attempt + 1}: pool broke at "
                        f"n={counts[index]} ({type(exc).__name__})"
                    )
                    broke = True
                except FutureTimeoutError:
                    failures.append(
                        f"attempt {attempt + 1}: n={counts[index]} "
                        f"exceeded {point_timeout}s"
                    )
                    broke = True
        except BaseException:
            # Deterministic episode errors propagate immediately; the
            # pool may be healthy but its outstanding points are moot,
            # so drop it rather than hand it to the next sweep mid-drain.
            _POOLS.discard(pool)
            raise
        if broke:
            _salvage(submitted, results)
            _POOLS.discard(pool)
        else:
            _POOLS.release(key, pool)

    still_missing = sorted(
        pulses for index, pulses in tasks if index not in results
    )
    if still_missing:
        raise SimulationError(
            f"sweep lost {len(still_missing)} point(s) "
            f"(pulses={still_missing}) after {max_retries + 1} attempt(s): "
            + "; ".join(failures[-3:])
        )
    return [results[index] for index, _ in tasks]


__all__ = [
    "PointOutcome",
    "SweepSource",
    "available_cpus",
    "derive_seed",
    "execute_sweep",
    "resolve_jobs",
    "run_point_outcome",
    "shutdown_worker_pools",
]
