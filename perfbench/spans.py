"""Outside-in layer tracing for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer of the
program (and the callbacks one layer hands another, such as the reuse and
MRAI timer handlers) with span or counting wrappers. Nothing under
``src/`` changes: the wrappers replace class attributes and module-level
names from the outside, before any scenario is built, so every bound
method and ``functools.partial`` the program creates picks them up.

A span is ``(name, start, end, parent)``. Spans are kept in flat arrays
in memory and written out once, at the end, by :meth:`Recorder.dump`.
Self time (a span's duration minus what its child spans cover) is summed
online per span name, split between set-up and the measured phase; the
measured phase is opened by :meth:`Recorder.phase`. Inside the phase
every instant belongs to exactly one innermost span, so the per-name
self times add up to the phase's wall time.

Counts are taken at the same boundaries and are exact: they depend only
on what the program does, never on the host.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional

_clock = time.perf_counter

#: The benchmark's own span around the measured phase; its self time is
#: the traced wall time no program span covers (``other_s``).
PHASE_SPAN = "bench.phase"


class Recorder:
    """In-memory spans, per-name self times and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open spans, innermost last (see :meth:`_open`).
        self.stack: List[list] = []
        self.in_phase = False
        self.phase_self: Dict[int, float] = {}
        self.setup_self: Dict[int, float] = {}
        self.setup_total: Dict[int, float] = {}
        self.counts: Dict[str, int] = {}
        self.phase_counts: Dict[str, int] = {}
        self.phase_wall = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, nid: int) -> list:
        stack = self.stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0, 0.0]  # index, name, start, child seconds
        stack.append(frame)
        frame[2] = start = _clock()
        self.span_start.append(start)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        stack = self.stack
        stack.pop()
        index, nid, start, children = frame
        self.span_end[index] = end
        duration = end - start
        if self.in_phase:
            self.phase_self[nid] = self.phase_self.get(nid, 0.0) + duration - children
        else:
            self.setup_self[nid] = self.setup_self.get(nid, 0.0) + duration - children
            self.setup_total[nid] = self.setup_total.get(nid, 0.0) + duration
        if stack:
            stack[-1][3] += duration

    @contextlib.contextmanager
    def phase(self) -> Iterator[None]:
        """Mark the measured phase (not reentrant)."""
        if self.in_phase:
            raise RuntimeError("measured phase opened twice")
        counts_before = dict(self.counts)
        self.in_phase = True
        frame = self._open(self.name_id(PHASE_SPAN))
        try:
            yield
        finally:
            self._close(frame)
            self.phase_wall += self.span_end[frame[0]] - frame[2]
            self.in_phase = False
            for key, value in self.counts.items():
                delta = value - counts_before.get(key, 0)
                self.phase_counts[key] = self.phase_counts.get(key, 0) + delta

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``; result unchanged."""
        nid = self.name_id(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)

        return wrapper

    def phase_self_by_name(self) -> Dict[str, float]:
        return {self.names[i]: s for i, s in self.phase_self.items()}

    def setup_self_by_name(self) -> Dict[str, float]:
        return {self.names[i]: s for i, s in self.setup_self.items()}

    def setup_total_by_name(self) -> Dict[str, float]:
        return {self.names[i]: s for i, s in self.setup_total.items()}

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the four arrays.

        Header: ``{"names": [...], "spans": N, "arrays": [...]}``; the
        arrays follow in that order as native-endian int32 (name index,
        parent span index or -1) and float64 (start, end in seconds of
        ``time.perf_counter``).
        """
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


# ----------------------------------------------------------------------
# wrappers installed on the program
# ----------------------------------------------------------------------


def _replace_everywhere(original: object, replacement: object) -> None:
    """Rebind every module-level name that refers to ``original``, so
    ``from x import f`` copies see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(getattr(cls, attr)))


def _counting(recorder: Recorder, key: str) -> Callable[[Callable], Callable]:
    counts = recorder.counts

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def _spanning(recorder: Recorder, name: str, key: Optional[str] = None) -> Callable:
    """Span ``name`` around the call; also count calls under ``key``."""

    def make(fn: Callable) -> Callable:
        wrapped = recorder.wrap(name, fn)
        if key is None:
            return wrapped
        return _counting(recorder, key)(wrapped)

    return make


def install(recorder: Recorder, kind: str) -> None:
    """Wrap the layer entry points for a workload of ``kind``
    (``sweep``, ``scale`` or ``lint``)."""
    if kind == "lint":
        _install_lint(recorder)
    else:
        _install_sim(recorder, kind)


def _install_sim(recorder: Recorder, kind: str) -> None:
    from repro.bgp import decision, router as router_mod
    from repro.bgp.mrai import MraiLimiter
    from repro.bgp.rib import AdjRibIn, AdjRibOut
    from repro.core.damping import DampingManager
    from repro.experiments import parallel, scale
    from repro.metrics import digest
    from repro.net.network import Network
    from repro.sim.engine import Engine
    from repro.sim.timers import Timer
    from repro.topology import io as topo_io, mesh
    from repro.workload.scenarios import Scenario, WarmStateSnapshot

    BgpRouter = router_mod.BgpRouter
    count = recorder.count

    # sim: engine dispatch loop, heap pushes, timer arms
    def run_loop(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            executed = fn(*args, **kwargs)
            count("sim.events", executed)
            return executed

        return recorder.wrap("sim.run", functools.wraps(fn)(counted))

    _patch_method(Engine, "run_until_idle", run_loop)
    _patch_method(Engine, "run", run_loop)
    _patch_method(Engine, "schedule_at", _counting(recorder, "sim.schedules"))
    _patch_method(Timer, "start", _counting(recorder, "sim.timer_starts"))
    _patch_method(Timer, "reschedule", _counting(recorder, "sim.timer_starts"))

    def restart_if_idle(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            armed = fn(*args, **kwargs)
            if armed:
                count("sim.timer_starts")
            return armed

        return wrapper

    _patch_method(Timer, "restart_if_idle", restart_if_idle)

    # net
    _patch_method(Network, "send", _spanning(recorder, "net.send", "net.sends"))
    _patch_method(Network, "deliver", _spanning(recorder, "net.deliver", "net.deliveries"))
    _patch_method(Network, "note_drop", _counting(recorder, "net.drops"))

    # bgp: receive pipeline and the callbacks other layers invoke
    _patch_method(BgpRouter, "process_update", _spanning(recorder, "bgp.process_update"))
    _patch_method(BgpRouter, "originate", _spanning(recorder, "bgp.originate"))
    _patch_method(
        BgpRouter, "withdraw_origination", _spanning(recorder, "bgp.withdraw_origination")
    )
    _patch_method(BgpRouter, "_mrai_flush", _spanning(recorder, "bgp.mrai_flush"))

    def on_reuse(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            noisy = fn(*args, **kwargs)
            if noisy:
                count("core.damping.noisy_reuses")
            return noisy

        return recorder.wrap("bgp.on_reuse", functools.wraps(fn)(counted))

    _patch_method(BgpRouter, "_on_reuse", on_reuse)

    # bgp.decision
    original_select = decision.select_best

    def select_counted(candidates, local_pref):  # noqa: ANN001 - mirrors select_best
        count("bgp.decision.candidates", len(candidates))
        return original_select(candidates, local_pref)

    select = _spanning(recorder, "bgp.decision.select_best", "bgp.decision.calls")(
        functools.wraps(original_select)(select_counted)
    )
    _replace_everywhere(original_select, select)
    _patch_method(AdjRibIn, "route", _counting(recorder, "bgp.decision.rib_in_reads"))

    # bgp.ribout
    _patch_method(AdjRibOut, "announced_route", _counting(recorder, "bgp.ribout.reads"))
    _patch_method(AdjRibOut, "record_announcement", _counting(recorder, "bgp.ribout.writes"))
    _patch_method(AdjRibOut, "record_withdrawal", _counting(recorder, "bgp.ribout.writes"))

    # bgp.mrai
    _patch_method(MraiLimiter, "may_send_now", _spanning(recorder, "bgp.mrai.check", "bgp.mrai.checks"))
    _patch_method(MraiLimiter, "defer", _spanning(recorder, "bgp.mrai.defer", "bgp.mrai.defers"))
    _patch_method(MraiLimiter, "note_sent", _spanning(recorder, "bgp.mrai.note_sent", "bgp.mrai.sends"))
    _patch_method(MraiLimiter, "_expired", _spanning(recorder, "bgp.mrai.expire"))

    # core.damping
    def record_update(fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            if outcome.charged:
                count("core.damping.charges")
            if outcome.rescheduled_reuse:
                count("core.damping.recharges")
            return outcome

        return recorder.wrap("core.damping.record_update", functools.wraps(fn)(counted))

    _patch_method(DampingManager, "record_update", record_update)
    _patch_method(DampingManager, "_reuse_fired", _spanning(recorder, "core.damping.reuse"))

    # workload
    def observe_suppression(time_: float, peer: str, prefix: str, suppressed: bool) -> None:
        count("core.damping.suppressions" if suppressed else "core.damping.reuses")

    def scenario_run(fn: Callable) -> Callable:
        spanned = recorder.wrap("workload.run", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):  # noqa: ANN001 - mirrors Scenario.run
            # Appended at episode start, like the metrics collector's own
            # observers, so warm-up snapshots never pickle it.
            for bgp_router in self.routers.values():
                if bgp_router.damping is not None:
                    bgp_router.damping.suppression_observers.append(observe_suppression)
            # run_scale_episode builds and warms up inside the call, so a
            # scale run's measured phase is exactly this episode.
            with recorder.phase() if kind == "scale" else contextlib.nullcontext():
                before = _router_totals(self)
                result = spanned(self, *args, **kwargs)
                for key, value in _router_totals(self).items():
                    count(key, value - before[key])
            return result

        return wrapper

    _patch_method(Scenario, "__init__", _spanning(recorder, "workload.build"))
    _patch_method(Scenario, "warm_up", _spanning(recorder, "workload.warm_up"))
    _patch_method(Scenario, "run", scenario_run)
    _patch_method(WarmStateSnapshot, "capture", _spanning(recorder, "workload.snapshot_capture"))
    _patch_method(WarmStateSnapshot, "restore", _spanning(recorder, "workload.snapshot_restore"))

    # experiments, metrics, topology
    for module, attr in (
        (parallel, "execute_sweep"),
        (parallel, "run_point_outcome"),
        (scale, "run_scale_episode"),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, recorder.wrap(f"experiments.{attr}", original))
    _replace_everywhere(digest.run_digest, recorder.wrap("metrics.digest", digest.run_digest))
    for original in (topo_io.load_topology, mesh.mesh_topology):
        _replace_everywhere(original, recorder.wrap("topology.load", original))


def _router_totals(scenario) -> Dict[str, int]:  # noqa: ANN001 - Scenario
    totals = {"bgp.updates_in": 0, "bgp.duplicates": 0, "bgp.decision.changes": 0}
    for bgp_router in scenario.routers.values():
        stats = bgp_router.stats
        totals["bgp.updates_in"] += stats.updates_received
        totals["bgp.duplicates"] += stats.duplicates_ignored
        totals["bgp.decision.changes"] += stats.best_path_changes
    return totals


def _install_lint(recorder: Recorder) -> None:
    from repro.lint import framework, runner  # the runner registers every pass
    from repro.lint.config import pass_for_rule

    originals = {cls: cls.check for cls in framework.registry().values()}
    for cls, check in originals.items():
        cls.check = recorder.wrap(f"lint.{pass_for_rule(cls.id)}", _consume(check))
    _replace_everywhere(runner.lint_paths, recorder.wrap("lint.lint_paths", runner.lint_paths))
    # The perf pass and its hot-set resolver are slated for removal; the
    # trace keeps working without them (lint.hotset_s then reads 0).
    perf = sys.modules.get("repro.lint.perf")
    if perf is not None:
        resolve = perf.resolve_hot_functions
        _replace_everywhere(resolve, recorder.wrap("lint.hotset", resolve))


def _consume(check: Callable) -> Callable:
    """Rule checks are generators; drain one inside its span so the span
    times the analysis, not the generator's creation."""

    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        return list(check(*args, **kwargs))

    return wrapper

