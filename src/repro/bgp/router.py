"""The BGP speaker.

:class:`BgpRouter` ties the whole protocol together: update
classification against Adj-RIB-In, damping (with optional RCN or
selective-damping penalty filters), the decision process, root-cause
propagation, policy-filtered export with per-peer MRAI rate limiting, and
origination of local prefixes.

Processing pipeline for a received update (paper Sections 2 and 6):

1. classify against the peer's Adj-RIB-In (withdrawal / re-announcement /
   attribute change / duplicate / first announcement),
2. install into Adj-RIB-In (remembering the update's root cause),
3. damping: ask the configured filter whether this update *charges*, then
   let the :class:`~repro.core.damping.DampingManager` update the penalty
   and the suppression state — a newly suppressed entry immediately drops
   out of the candidate set,
4. re-rank incrementally: only the sending peer's candidacy changed, so
   its candidate is scored against the current best alone. It takes the
   slot when strictly preferred; a current best that got no worse keeps
   it; only a best that got worse or vanished falls back to a full scan
   of every Adj-RIB-In. If the Loc-RIB changed, remember the triggering
   root cause and synchronise every peer's Adj-RIB-Out (withdrawals
   immediately, announcements through MRAI); the announced route (our
   ASN prepended) is built once per change and shared by every peer.

Reuse-timer expiries and session-loss withdrawals re-run step 4 for the
one peer concerned (a reuse with the *stored* root cause of the reused
route, reporting to the damping manager whether the expiry was noisy —
Loc-RIB changed — or silent). Origination changes and restarts, which
have no single changed peer, always run the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.bgp.attrs import Route
from repro.bgp.decision import preference_key, select_best
from repro.bgp.graceful_restart import GracefulRestartConfig, GracefulRestartHelper
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import MraiConfig, MraiLimiter
from repro.bgp.policy import RoutingPolicy, ShortestPathPolicy
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib
from repro.core.damping import DampingManager
from repro.core.params import DampingParams, UpdateKind
from repro.core.rcn import RootCause, RootCauseHistory
from repro.core.selective import SelectiveDampingFilter, compare_paths
from repro.net.message import Message
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

#: Local preference assigned to self-originated routes — always wins.
_SELF_ORIGINATED_PREF = 1_000_000


@dataclass(frozen=True)
class RouterConfig:
    """Per-router protocol configuration.

    ``damping`` enables route flap damping when set; ``rcn_enabled`` and
    ``selective_enabled`` choose the penalty filter placed in front of the
    damping algorithm (at most one should be set). ``attach_root_cause``
    controls whether this router stamps/propagates RCN attributes on the
    updates it sends — kept separate from ``rcn_enabled`` so partial
    deployments can propagate causes without using them.
    """

    damping: Optional[DampingParams] = None
    rcn_enabled: bool = False
    selective_enabled: bool = False
    attach_root_cause: bool = True
    mrai: MraiConfig = dataclass_field(default_factory=MraiConfig)
    #: Whether the implicit withdrawals of a BGP session going down charge
    #: the damping penalty. RFC 2439 leaves this to the implementation;
    #: off by default so topology maintenance does not look like flapping.
    charge_on_session_reset: bool = False
    #: Graceful-restart capability this router advertises. When set, a
    #: crash of this router puts its neighbours into RFC-4724 helper mode
    #: (stale-route retention under a restart timer) instead of an
    #: immediate withdrawal wave; ``None`` means crashes are hard resets.
    graceful_restart: Optional[GracefulRestartConfig] = None

    @property
    def damping_enabled(self) -> bool:
        return self.damping is not None


@dataclass
class RouterStats:
    """Protocol counters for one router."""

    updates_received: int = 0
    announcements_received: int = 0
    withdrawals_received: int = 0
    duplicates_ignored: int = 0
    updates_sent: int = 0
    announcements_sent: int = 0
    withdrawals_sent: int = 0
    best_path_changes: int = 0
    crashes: int = 0
    restarts: int = 0
    #: Stale routes withdrawn because a peer's graceful-restart timer
    #: expired before the peer refreshed them.
    stale_routes_flushed: int = 0


class BgpRouter(Node):
    """One AS running the path-vector protocol with optional damping."""

    def __init__(
        self,
        name: str,
        engine: Engine,
        rng: RngRegistry,
        policy: Optional[RoutingPolicy] = None,
        config: Optional[RouterConfig] = None,
    ) -> None:
        super().__init__(name)
        self.engine = engine
        self.config = config or RouterConfig()
        self.policy = policy or ShortestPathPolicy()
        self.stats = RouterStats()

        self.loc_rib = LocRib()
        #: Simulated time of the most recent Loc-RIB change per prefix —
        #: the per-router convergence instant used by distance analyses.
        self.last_best_change: Dict[str, float] = {}
        self._rib_in: Dict[str, AdjRibIn] = {}
        self._rib_out: Dict[str, AdjRibOut] = {}
        self._originated: Set[str] = set()
        #: Root cause of the most recent event that changed the Loc-RIB,
        #: per prefix — copied into outgoing updates.
        self._current_cause: Dict[str, Optional[RootCause]] = {}
        #: The Loc-RIB route as announced (our ASN prepended), per prefix:
        #: built on the first export after a Loc-RIB change and shared by
        #: every Adj-RIB-Out until the next change.
        self._outbound: Dict[str, Route] = {}

        self.damping: Optional[DampingManager] = None
        if self.config.damping is not None:
            self.damping = DampingManager(
                engine, self.config.damping, name, self._on_reuse
            )
        self.rcn_history = RootCauseHistory()
        self.selective_filter = SelectiveDampingFilter()
        self.mrai = MraiLimiter(engine, self.config.mrai, name, rng, self._mrai_flush)
        #: Helper-side graceful-restart state for *crashed peers* (whether
        #: GR applies is decided by the crashed peer's advertised config).
        self.gr_helper = GracefulRestartHelper(engine, name, self._gr_stale_expired)
        #: Peers currently crashed: no session exists, so exports are
        #: withheld until the peer restarts and gets a full re-sync.
        self._crashed_peers: Set[str] = set()
        #: Causal tracer observing this router (set by Tracer.attach).
        self.trace: Optional["Tracer"] = None

    @property
    def graceful_restart_config(self) -> Optional[GracefulRestartConfig]:
        """The GR capability this router advertises to its neighbours."""
        return self.config.graceful_restart

    # ------------------------------------------------------------------
    # table access
    # ------------------------------------------------------------------

    def rib_in(self, peer: str) -> AdjRibIn:
        table = self._rib_in.get(peer)
        if table is None:
            table = AdjRibIn(peer)
            self._rib_in[peer] = table
        return table

    def rib_out(self, peer: str) -> AdjRibOut:
        table = self._rib_out.get(peer)
        if table is None:
            table = AdjRibOut(peer)
            self._rib_out[peer] = table
        return table

    def best_route(self, prefix: str) -> Optional[Route]:
        """The current Loc-RIB entry for ``prefix`` (``None`` if unreachable)."""
        return self.loc_rib.route(prefix)

    def has_route(self, prefix: str) -> bool:
        return self.loc_rib.route(prefix) is not None

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------

    def originate(self, prefix: str, cause: Optional[RootCause] = None) -> None:
        """Start originating ``prefix`` locally (announce to peers)."""
        self._originated.add(prefix)
        self._reselect(prefix, cause)

    def withdraw_origination(self, prefix: str, cause: Optional[RootCause] = None) -> None:
        """Stop originating ``prefix`` (withdraw from peers)."""
        self._originated.discard(prefix)
        self._reselect(prefix, cause)

    def originates(self, prefix: str) -> bool:
        return prefix in self._originated

    # ------------------------------------------------------------------
    # update processing
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, UpdateMessage):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self.process_update(message.src, payload)

    def process_update(self, peer: str, update: UpdateMessage) -> None:
        """Run the full receive pipeline for one update from ``peer``."""
        self.stats.updates_received += 1
        if update.is_withdrawal:
            self.stats.withdrawals_received += 1
        else:
            self.stats.announcements_received += 1

        # A restarted peer refreshing a retained route clears its stale
        # mark *before* classification: a same-path re-announcement then
        # falls through to the DUPLICATE early-return below — no penalty
        # charge, which is exactly graceful restart's damping benefit.
        if self.gr_helper.helping(peer):
            self.gr_helper.note_update(peer, update.prefix)

        # Receiver-side loop protection (sender-side split horizon should
        # already prevent this; drop defensively).
        if update.as_path is not None and self.name in update.as_path:
            return

        table = self.rib_in(peer)
        kind = table.classify(update.prefix, update.as_path)
        if kind is UpdateKind.DUPLICATE:
            self.stats.duplicates_ignored += 1
            return
        if kind is None and update.is_withdrawal:
            return  # withdrawal for a route the peer never announced

        table.apply(update.prefix, update.as_path, update.root_cause)

        if self.damping is not None and kind is not None:
            charge = self._should_charge(peer, kind, update)
            kind_for_penalty = self._penalty_kind(kind, update)
            self.damping.record_update(
                peer, update.prefix, kind_for_penalty, charge=charge
            )

        self._reselect(update.prefix, update.root_cause, peer)

    def _should_charge(self, peer: str, kind: UpdateKind, update: UpdateMessage) -> bool:
        if self.config.rcn_enabled:
            return self.rcn_history.should_charge(peer, update.root_cause)
        if self.config.selective_enabled:
            return self.selective_filter.should_charge(peer, kind, update.preference)
        return True

    def _penalty_kind(self, kind: UpdateKind, update: UpdateMessage) -> UpdateKind:
        """The update kind used for the penalty increment.

        Plain damping penalises the *perceived* update (the receiver-side
        classification). RCN-enhanced damping penalises the *flap itself*
        (paper Section 7: "applying the damping penalty to the flap
        itself, as opposed to the perceived result of a flap"): a 'down'
        root cause charges the withdrawal penalty, an 'up' root cause the
        re-announcement penalty, regardless of how the flap manifests at
        this router.
        """
        if self.config.rcn_enabled and update.root_cause is not None:
            if update.root_cause.status == "down":
                return UpdateKind.WITHDRAWAL
            return UpdateKind.REANNOUNCEMENT
        return kind

    # ------------------------------------------------------------------
    # decision process
    # ------------------------------------------------------------------

    def _candidate(self, peer: str, prefix: str) -> Optional[Route]:
        """``peer``'s usable route for ``prefix`` — present, loop-free and
        not suppressed — or ``None``. ``self.name`` stands for local
        origination."""
        if peer == self.name:
            if prefix not in self._originated:
                return None
            return Route(prefix=prefix, as_path=(self.name,), learned_from=self.name)
        table = self._rib_in.get(peer)
        route = table.route(prefix) if table is not None else None
        if route is None or route.contains(self.name):
            return None
        if self.damping is not None and self.damping.is_suppressed(peer, prefix):
            return None
        return route

    def _candidates(self, prefix: str) -> List[Tuple[str, Route]]:
        candidates: List[Tuple[str, Route]] = []
        for peer in (self.name, *self._rib_in):
            route = self._candidate(peer, prefix)
            if route is not None:
                candidates.append((peer, route))
        return candidates

    def _local_pref(self, peer: str, route: Route) -> int:
        if peer == self.name:
            return _SELF_ORIGINATED_PREF
        return self.policy.local_pref(self.name, peer, route)

    def _scan(self, prefix: str) -> Optional[Route]:
        """The full decision process: the best of every candidate."""
        best = select_best(self._candidates(prefix), self._local_pref)
        return best[1] if best is not None else None

    def _reselect(
        self, prefix: str, cause: Optional[RootCause], peer: Optional[str] = None
    ) -> bool:
        """Re-rank ``prefix``; on change, record the cause and export.

        ``peer`` names the one peer whose candidacy changed since the
        Loc-RIB last matched the full scan; only its candidate is scored
        against the current best (the preference order is total, so no
        other candidate can overtake either of them). ``None`` runs the
        full scan. Returns ``True`` when the Loc-RIB changed.
        """
        if peer is None:
            return self._install(prefix, self._scan(prefix), cause)
        route = self._candidate(peer, prefix)
        current = self.loc_rib.route(prefix)
        if current is None:
            return self._install(prefix, route, cause)
        local_pref = self._local_pref
        key = preference_key(peer, route, local_pref) if route is not None else None
        current_key = preference_key(current.learned_from, current, local_pref)
        if current.learned_from == peer:
            if key is None or key > current_key:
                route = self._scan(prefix)  # the best got worse: any may win
        elif key is None or key > current_key:
            return False
        return self._install(prefix, route, cause)

    def _install(
        self, prefix: str, best: Optional[Route], cause: Optional[RootCause]
    ) -> bool:
        """Make ``best`` the Loc-RIB entry; on change, record the cause,
        drop the stale outbound route and export. Returns ``True`` on
        change."""
        if not self.loc_rib.set_route(prefix, best):
            return False
        self.stats.best_path_changes += 1
        self.last_best_change[prefix] = self.engine.now
        self._current_cause[prefix] = cause
        self._outbound.pop(prefix, None)
        if self.trace is not None:
            self.trace.emit(
                "select",
                self.engine.now,
                node=self.name,
                cause=self.trace.context,
                prefix=prefix,
                path=list(best.as_path) if best is not None else None,
            )
        self._export(prefix)
        return True

    def _on_reuse(self, peer: str, prefix: str) -> bool:
        """Damping reuse-timer callback; returns True when noisy."""
        entry = self.rib_in(peer).entry(prefix)
        cause = entry.root_cause if entry is not None else None
        return self._reselect(prefix, cause, peer)

    # ------------------------------------------------------------------
    # export path
    # ------------------------------------------------------------------

    def _desired_announcement(self, peer: str, prefix: str) -> Optional[Route]:
        """The route this router should currently be announcing to
        ``peer`` for ``prefix``, or ``None`` (withdraw / nothing)."""
        best = self.loc_rib.route(prefix)
        if best is None:
            return None
        if peer in best.as_path:
            return None  # sender-side loop prevention (covers learned-from peer)
        if not self.policy.permits_export(self.name, best, peer):
            return None
        outbound = self._outbound.get(prefix)
        if outbound is None:
            if best.learned_from == self.name:
                outbound = best  # self-originated, already starts with us
            else:
                outbound = Route(
                    prefix=prefix, as_path=(self.name,) + best.as_path, learned_from=self.name
                )
            self._outbound[prefix] = outbound
        return outbound

    def _export(self, prefix: str) -> None:
        for peer in self.neighbors:
            self._sync_peer(peer, prefix)

    def _sync_peer(self, peer: str, prefix: str) -> None:
        """Bring ``peer``'s Adj-RIB-Out in line with the Loc-RIB, sending
        a withdrawal immediately or an announcement through MRAI."""
        if peer in self._crashed_peers:
            return  # no session; the peer gets a full re-sync on restart
        desired = self._desired_announcement(peer, prefix)
        table = self.rib_out(peer)
        current = table.announced_route(prefix)
        if desired is None:
            if current is None:
                return
            if self.config.mrai.apply_to_withdrawals and not self.mrai.may_send_now(peer):
                self.mrai.defer(peer, prefix)
                return
            self._send_withdrawal(peer, prefix)
            if self.config.mrai.apply_to_withdrawals:
                self.mrai.note_sent(peer)
            return
        if current is not None and (
            current.as_path is desired.as_path or current.as_path == desired.as_path
        ):
            return
        if not self.mrai.may_send_now(peer):
            self.mrai.defer(peer, prefix)
            return
        self._send_announcement(peer, desired)
        self.mrai.note_sent(peer)

    def _mrai_flush(self, peer: str, prefixes: Set[str]) -> bool:
        """MRAI expiry: re-evaluate each deferred prefix against current
        state and send whatever delta remains. Returns True if anything
        was sent (the limiter then restarts the timer)."""
        table = self.rib_out(peer)
        sent = False
        for prefix in sorted(prefixes):
            desired = self._desired_announcement(peer, prefix)
            current = table.announced_route(prefix)
            if desired is None:
                if current is not None:
                    self._send_withdrawal(peer, prefix)
                    sent = True
            elif current is None or (
                current.as_path is not desired.as_path
                and current.as_path != desired.as_path
            ):
                self._send_announcement(peer, desired)
                sent = True
        return sent

    def _send_announcement(self, peer: str, route: Route) -> None:
        table = self.rib_out(peer)
        entry = table.entry(route.prefix)
        preference = compare_paths(entry.last_announced_length, route.path_length)
        cause = self._current_cause.get(route.prefix) if self.config.attach_root_cause else None
        update = UpdateMessage(
            prefix=route.prefix,
            as_path=route.as_path,
            root_cause=cause,
            preference=preference,
        )
        table.record_announcement(route.prefix, route)
        self.stats.updates_sent += 1
        self.stats.announcements_sent += 1
        self.send(peer, update)

    def _send_withdrawal(self, peer: str, prefix: str) -> None:
        cause = self._current_cause.get(prefix) if self.config.attach_root_cause else None
        update = UpdateMessage(prefix=prefix, as_path=None, root_cause=cause)
        self.rib_out(peer).record_withdrawal(prefix)
        self.stats.updates_sent += 1
        self.stats.withdrawals_sent += 1
        self.send(peer, update)

    # ------------------------------------------------------------------
    # session life cycle
    # ------------------------------------------------------------------

    def on_link_state(self, neighbor: str, up: bool) -> None:
        """BGP session handling for a physical link event.

        Down: every route learned from the neighbour becomes an implicit
        withdrawal (optionally charged — see
        :attr:`RouterConfig.charge_on_session_reset`), and the
        Adj-RIB-Out for the neighbour is forgotten since the session's
        state is gone. Up: the current Loc-RIB is re-advertised to the
        neighbour, as a fresh session exchange would.

        Damping state deliberately survives the session bounce: penalties
        keep decaying and suppressed entries stay suppressed, exactly as
        a real router's damping history does.
        """
        if up:
            self._session_up(neighbor)
        else:
            self._session_down(neighbor)

    def _session_down(self, peer: str) -> None:
        self._withdraw_peer_routes(peer, list(self.rib_in(peer).prefixes()))
        # The peer's view of us is gone with the session.
        self._rib_out[peer] = AdjRibOut(peer)

    def _session_up(self, peer: str) -> None:
        for prefix, _ in list(self.loc_rib):
            self._sync_peer(peer, prefix)

    def _withdraw_peer_routes(self, peer: str, prefixes: List[str]) -> None:
        """Treat each of ``prefixes`` learned from ``peer`` as implicitly
        withdrawn (session loss or graceful-restart stale expiry)."""
        table = self.rib_in(peer)
        for prefix in prefixes:
            entry = table.entry(prefix)
            if entry is None or entry.route is None:
                continue
            kind = table.classify(prefix, None)
            table.apply(prefix, None, entry.root_cause)
            if (
                self.damping is not None
                and kind is not None
                and self.config.charge_on_session_reset
            ):
                self.damping.record_update(peer, prefix, kind)
            self._reselect(prefix, entry.root_cause, peer)

    # ------------------------------------------------------------------
    # crash / restart life cycle (fault injection)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the control plane: RIBs, damping state, MRAI state, and
        helper-mode state all die with the process. Locally originated
        prefixes are remembered (they are configuration, not control
        state) and re-announced on :meth:`restart`.

        Called by :meth:`repro.net.network.Network.crash_router`, which
        also notifies the neighbours; while crashed, the network drops
        messages addressed to this router.
        """
        super().crash()
        self.stats.crashes += 1
        # Quiesce every timer this router owns before discarding the
        # state behind it (armed timers surviving their owner are the
        # runtime shape of timerlint TIM001).
        for peer in self.neighbors:
            self.mrai.reset_peer(peer)
        if self.damping is not None:
            self.damping.cancel_all_timers()
        self.gr_helper.cancel_all_timers()
        self._rib_in.clear()
        self._rib_out.clear()
        self.loc_rib = LocRib()
        self._current_cause.clear()
        self._outbound.clear()
        self.rcn_history = RootCauseHistory()
        self.selective_filter.clear()

    def restart(self) -> None:
        """Come back up with fresh control state and re-originate local
        prefixes. Damping penalties did not survive the crash: a fresh
        :class:`~repro.core.damping.DampingManager` replaces the dead one
        (observers and tracer wiring carry over so metrics keep seeing
        this router)."""
        super().restart()
        self.stats.restarts += 1
        if self.config.damping is not None and self.damping is not None:
            predecessor = self.damping
            self.damping = DampingManager(
                self.engine, self.config.damping, self.name, self._on_reuse
            )
            self.damping.adopt_observers(predecessor)
        for prefix in sorted(self._originated):
            self._reselect(prefix, None)

    def on_peer_crash(
        self, peer: str, graceful: Optional[GracefulRestartConfig] = None
    ) -> None:
        """The session to ``peer`` died with the peer's control plane.

        Hard crash (``graceful is None``): identical to a session loss —
        implicit withdrawal of everything learned from the peer. With
        graceful restart, routes learned from the peer stay in the
        Adj-RIB-In marked *stale* (still eligible for the decision
        process) under the peer's restart timer; see
        :mod:`repro.bgp.graceful_restart`.
        """
        self._crashed_peers.add(peer)
        # Deferred MRAI deltas belong to the dead session; the restarted
        # peer gets a full re-sync instead.
        self.mrai.reset_peer(peer)
        if graceful is None:
            self._session_down(peer)
            return
        table = self.rib_in(peer)
        prefixes = []
        for prefix in table.prefixes():
            entry = table.entry(prefix)
            if entry is not None and entry.route is not None:
                prefixes.append(prefix)
        self.gr_helper.peer_crashed(
            peer,
            prefixes,
            graceful,
            trace_cause=self.trace.context if self.trace is not None else None,
        )
        # The peer's view of us died either way.
        self._rib_out[peer] = AdjRibOut(peer)

    def on_peer_restart(self, peer: str) -> None:
        """``peer`` is back: re-establish the session and advertise our
        current table. Stale routes (if we are a GR helper for the peer)
        stay retained until refreshed or their restart timer expires."""
        self._crashed_peers.discard(peer)
        self._session_up(peer)

    def _gr_stale_expired(
        self, peer: str, prefixes: List[str], trace_cause: Optional[int]
    ) -> None:
        """The GR restart timer fired with routes still stale: flush them
        as implicit withdrawals (charged per ``charge_on_session_reset``,
        like any other session-loss withdrawal)."""
        self.stats.stale_routes_flushed += len(prefixes)
        trace = self.trace
        if trace is not None:
            rid = trace.emit(
                "gr_expire",
                self.engine.now,
                node=self.name,
                cause=trace_cause,
                peer=peer,
                prefixes=list(prefixes),
            )
            # The flush's withdrawals/charges descend from the expiry.
            trace.set_context(rid)
        self._withdraw_peer_routes(peer, prefixes)

    # ------------------------------------------------------------------
    # experiment support
    # ------------------------------------------------------------------

    def reset_damping(self) -> None:
        """Forget all accumulated penalties and suppressions.

        Called by scenarios after the warm-up phase so that the measured
        flapping episode starts from a clean damping state (the paper's
        "every node learns a stable route" precondition). RIB contents,
        the RCN history, and protocol counters are preserved.

        Every entry the discarded manager had suppressed becomes usable
        again, so its prefix is re-ranked as a reuse would re-rank it (a
        no-op after a drain, when nothing is suppressed).
        """
        released: List[Tuple[str, str]] = []
        if self.config.damping is not None and self.damping is not None:
            released = self.damping.suppressed_entries()
            # Quiesce the old manager first: its armed reuse timers would
            # otherwise keep firing into the discarded instance (TIM001's
            # runtime shape; scenarios call this post-drain, but the reset
            # must be safe mid-flight too).
            self.damping.cancel_all_timers()
            self.damping = DampingManager(
                self.engine, self.config.damping, self.name, self._on_reuse
            )
        self.selective_filter.clear()
        for prefix in sorted({prefix for _peer, prefix in released}):
            best = self._scan(prefix)
            # Like a reuse, propagate the stored cause of the route that
            # now wins.
            entry = (
                self._rib_in[best.learned_from].entry(prefix)
                if best is not None and best.learned_from != self.name
                else None
            )
            self._install(prefix, best, entry.root_cause if entry is not None else None)

    def dump_state(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """Structured snapshot of this router's tables for one prefix (or
        all prefixes when ``prefix`` is ``None``) — debugging, assertions,
        and trace tooling.

        The snapshot contains plain data only (names, path tuples,
        floats), so it can be compared, serialised, or diffed freely.
        """
        prefixes: Set[str] = set()
        if prefix is not None:
            prefixes.add(prefix)
        else:
            prefixes.update(self.loc_rib.prefixes())
            prefixes.update(self._originated)
            for table in self._rib_in.values():
                prefixes.update(table.prefixes())

        now = self.engine.now
        snapshot: Dict[str, object] = {
            "router": self.name,
            "time": now,
            "alive": self.alive,
            "prefixes": {},
        }
        for p in sorted(prefixes):
            best = self.loc_rib.route(p)
            rib_in: Dict[str, object] = {}
            for peer, table in sorted(self._rib_in.items()):
                entry = table.entry(p)
                if entry is None:
                    continue
                rib_in[peer] = {
                    "path": entry.route.as_path if entry.route else None,
                    "ever_announced": entry.ever_announced,
                    "stale": self.gr_helper.is_stale(peer, p),
                    "suppressed": (
                        self.damping.is_suppressed(peer, p)
                        if self.damping is not None
                        else False
                    ),
                    "penalty": (
                        self.damping.penalty_value(peer, p, now)
                        if self.damping is not None
                        else 0.0
                    ),
                }
            rib_out = {
                peer: (route.as_path if route is not None else None)
                for peer, table in sorted(self._rib_out.items())
                for route in [table.announced_route(p)]
            }
            snapshot["prefixes"][p] = {  # type: ignore[index]
                "best": best.as_path if best else None,
                "originated": p in self._originated,
                "rib_in": rib_in,
                "rib_out": rib_out,
            }
        return snapshot

    def suppressed_entry_count(self) -> int:
        """Number of currently suppressed (peer, prefix) entries."""
        if self.damping is None:
            return 0
        return len(self.damping.suppressed_entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.config.damping_enabled:
            flags.append("damping")
        if self.config.rcn_enabled:
            flags.append("rcn")
        if self.config.selective_enabled:
            flags.append("selective")
        return f"BgpRouter({self.name!r}, {'+'.join(flags) or 'plain'})"
