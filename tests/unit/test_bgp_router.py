"""Unit tests for the BgpRouter update pipeline."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.bgp import router as router_module
from repro.bgp.decision import select_best
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import MraiConfig
from repro.bgp.router import BgpRouter, RouterConfig
from repro.core.params import CISCO_DEFAULTS
from repro.core.rcn import RootCause
from repro.net.link import LinkConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class PeerStub(Node):
    """Scripted peer: records updates received from the router under test."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.updates: List[UpdateMessage] = []

    def handle_message(self, message: Message) -> None:
        self.updates.append(message.payload)

    def announce(self, prefix: str, path: Tuple[str, ...],
                 cause: Optional[RootCause] = None) -> None:
        self.send("R", UpdateMessage(prefix=prefix, as_path=path, root_cause=cause))

    def withdraw(self, prefix: str, cause: Optional[RootCause] = None) -> None:
        self.send("R", UpdateMessage(prefix=prefix, as_path=None, root_cause=cause))


class Harness:
    def __init__(self, config: Optional[RouterConfig] = None, peers=("A", "B", "C")):
        self.engine = Engine()
        self.rng = RngRegistry(9)
        self.network = Network(self.engine, self.rng)
        self.router = BgpRouter(
            "R",
            self.engine,
            self.rng,
            config=config or RouterConfig(mrai=MraiConfig(base=0.0)),
        )
        self.network.add_node(self.router)
        self.peers = {}
        for name in peers:
            peer = PeerStub(name)
            self.network.add_node(peer)
            self.network.add_link("R", name, LinkConfig(base_delay=0.001, jitter=0.0))
            self.peers[name] = peer

    def run(self) -> None:
        """Advance one second of simulated time — enough for message
        propagation, but without letting reuse timers (minutes away)
        fire. Tests that want timers to fire call ``engine.run()``."""
        self.engine.run(until=self.engine.now + 1.0)


@pytest.fixture
def harness():
    return Harness()


def damped_harness(**kwargs) -> Harness:
    config = RouterConfig(damping=CISCO_DEFAULTS, mrai=MraiConfig(base=0.0), **kwargs)
    return Harness(config=config)


def test_first_announcement_installs_and_propagates(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    best = harness.router.best_route("p0")
    assert best is not None
    assert best.as_path == ("A", "origin")
    # Propagated to B and C with R prepended, not back to A.
    for name in ("B", "C"):
        updates = harness.peers[name].updates
        assert len(updates) == 1
        assert updates[0].as_path == ("R", "A", "origin")
    assert harness.peers["A"].updates == []


def test_withdrawal_propagates(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    assert harness.router.best_route("p0") is None
    assert harness.peers["B"].updates[-1].is_withdrawal


def test_duplicate_announcement_ignored(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    assert harness.router.stats.duplicates_ignored == 1
    assert len(harness.peers["B"].updates) == 1


def test_switch_to_shorter_path(harness):
    harness.peers["A"].announce("p0", ("A", "x", "origin"))
    harness.run()
    harness.peers["B"].announce("p0", ("B", "origin"))
    harness.run()
    best = harness.router.best_route("p0")
    assert best.as_path == ("B", "origin")
    # C saw both selections.
    assert [u.as_path for u in harness.peers["C"].updates] == [
        ("R", "A", "x", "origin"),
        ("R", "B", "origin"),
    ]
    # B first heard the A-path; once R routes via B, R withdraws from B
    # (sender-side loop prevention) rather than echoing B's own route.
    assert len(harness.peers["B"].updates) == 2
    assert harness.peers["B"].updates[-1].is_withdrawal


def test_fallback_to_alternate_on_withdrawal(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.peers["B"].announce("p0", ("B", "y", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    assert harness.router.best_route("p0").as_path == ("B", "y", "origin")
    # This is path exploration: C heard A's path, then B's worse path.
    assert [u.as_path for u in harness.peers["C"].updates] == [
        ("R", "A", "origin"),
        ("R", "B", "y", "origin"),
    ]


def test_looped_announcement_dropped(harness):
    harness.peers["A"].announce("p0", ("A", "R", "origin"))
    harness.run()
    assert harness.router.best_route("p0") is None


def test_withdrawal_for_unknown_prefix_ignored(harness):
    harness.peers["A"].withdraw("p-unknown")
    harness.run()
    assert harness.router.best_route("p-unknown") is None
    assert harness.peers["B"].updates == []


def test_origination_announces_everywhere(harness):
    harness.router.originate("mine")
    harness.run()
    for name in ("A", "B", "C"):
        assert harness.peers[name].updates[0].as_path == ("R",)
    assert harness.router.originates("mine")


def test_self_originated_route_preferred(harness):
    harness.peers["A"].announce("mine", ("A", "origin"))
    harness.run()
    harness.router.originate("mine")
    harness.run()
    assert harness.router.best_route("mine").as_path == ("R",)


def test_withdraw_origination(harness):
    harness.router.originate("mine")
    harness.run()
    harness.router.withdraw_origination("mine")
    harness.run()
    assert harness.peers["A"].updates[-1].is_withdrawal
    assert not harness.router.originates("mine")


def test_stats_counters(harness):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0")
    harness.run()
    stats = harness.router.stats
    assert stats.updates_received == 2
    assert stats.announcements_received == 1
    assert stats.withdrawals_received == 1
    assert stats.best_path_changes == 2


# ----------------------------------------------------------------------
# damping behaviour
# ----------------------------------------------------------------------


def test_three_withdrawals_suppress_entry():
    harness = damped_harness()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    assert harness.router.damping.is_suppressed("A", "p0")


def test_suppressed_route_excluded_from_selection():
    harness = damped_harness()
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    # A's (shorter) route is suppressed, so the longer B route wins.
    assert harness.router.best_route("p0").as_path == ("B", "x", "y", "origin")


def test_noisy_reuse_reselects_and_announces():
    harness = damped_harness()
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    before = len(harness.peers["C"].updates)
    harness.engine.run()  # let the reuse timer fire
    assert harness.router.best_route("p0").as_path == ("A", "origin")
    assert harness.router.damping.reuse_events[-1].noisy is True
    assert len(harness.peers["C"].updates) > before


def test_silent_reuse_when_route_withdrawn():
    harness = damped_harness()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    assert harness.router.damping.is_suppressed("A", "p0")
    sent_before = len(harness.peers["B"].updates)
    harness.engine.run()  # reuse fires; entry is withdrawn -> silent
    assert harness.router.damping.reuse_events[-1].noisy is False
    assert len(harness.peers["B"].updates) == sent_before


def test_attribute_changes_charge_penalty():
    harness = damped_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"))
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        500.0, rel=0.01
    )


def test_reset_damping_clears_penalties():
    harness = damped_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"))
    harness.run()
    peer.withdraw("p0")
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") > 0
    harness.router.reset_damping()
    assert harness.router.damping.penalty_value("A", "p0") == 0.0
    assert harness.router.suppressed_entry_count() == 0


def test_reset_damping_reranks_released_entries():
    """Suppressed entries become usable on reset: the Loc-RIB re-ranks
    and exports at once instead of waiting for the next update."""
    harness = damped_harness()
    router = harness.router
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    cause = rc(7, "up")
    peer.announce("p0", ("A", "origin"), cause=cause)
    harness.run()
    assert router.damping.is_suppressed("A", "p0")
    assert router.best_route("p0").as_path == ("B", "x", "y", "origin")

    router.reset_damping()
    winner = select_best(router._candidates("p0"), router._local_pref)
    assert winner is not None and winner[0] == "A"
    assert router.best_route("p0") == winner[1]
    harness.run()
    exported = harness.peers["C"].updates[-1]
    assert exported.as_path == ("R", "A", "origin")
    assert exported.root_cause == cause


def test_reset_damping_after_drain_sends_nothing():
    harness = damped_harness()
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    sent = harness.router.stats.updates_sent
    changes = harness.router.stats.best_path_changes
    harness.router.reset_damping()
    harness.run()
    assert harness.router.stats.updates_sent == sent
    assert harness.router.stats.best_path_changes == changes


# ----------------------------------------------------------------------
# incremental decision process
# ----------------------------------------------------------------------


@pytest.fixture
def full_scans(monkeypatch):
    """Count the router's fallbacks to the full ``select_best`` scan."""
    calls = []

    def counting(candidates, local_pref):
        calls.append(len(candidates))
        return select_best(candidates, local_pref)

    monkeypatch.setattr(router_module, "select_best", counting)
    return calls


def assert_matches_full_scan(router: BgpRouter, prefix: str) -> None:
    winner = select_best(router._candidates(prefix), router._local_pref)
    assert router.best_route(prefix) == (winner[1] if winner else None)


def test_non_best_peer_getting_worse_skips_the_scan(harness, full_scans):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.peers["B"].announce("p0", ("B", "x", "origin"))
    harness.run()
    del full_scans[:]
    changes = harness.router.stats.best_path_changes
    sent = len(harness.peers["C"].updates)
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    harness.peers["B"].withdraw("p0")
    harness.run()
    assert full_scans == []
    assert harness.router.stats.best_path_changes == changes
    assert len(harness.peers["C"].updates) == sent
    assert harness.router.best_route("p0").as_path == ("A", "origin")


def test_best_peer_withdrawal_installs_runner_up(harness, full_scans):
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.peers["B"].announce("p0", ("B", "x", "origin"))
    harness.run()
    del full_scans[:]
    harness.peers["A"].withdraw("p0")
    harness.run()
    assert full_scans == [1]  # the best vanished: one fallback scan
    assert harness.router.best_route("p0").as_path == ("B", "x", "origin")
    assert harness.peers["C"].updates[-1].as_path == ("R", "B", "x", "origin")
    assert_matches_full_scan(harness.router, "p0")


def test_best_peer_suppressed_installs_runner_up():
    harness = damped_harness()
    router = harness.router
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"))
    harness.run()
    # Attribute changes keep A's route present (and best) while the
    # penalty climbs past the cut-off.
    paths = [("A", "z", "origin"), ("A", "origin")]
    for step in range(10):
        assert router.best_route("p0").learned_from == "A"
        peer.announce("p0", paths[step % 2])
        harness.run()
        if router.damping.is_suppressed("A", "p0"):
            break
    assert router.damping.is_suppressed("A", "p0")
    assert router.rib_in("A").route("p0") is not None
    assert router.best_route("p0").as_path == ("B", "x", "y", "origin")
    assert harness.peers["C"].updates[-1].as_path == ("R", "B", "x", "y", "origin")
    assert_matches_full_scan(router, "p0")


def test_best_peer_improving_in_place_keeps_slot(harness, full_scans):
    harness.peers["A"].announce("p0", ("A", "x", "origin"))
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    del full_scans[:]
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    assert full_scans == []
    assert harness.router.best_route("p0").as_path == ("A", "origin")
    assert harness.peers["C"].updates[-1].as_path == ("R", "A", "origin")


def test_noisy_reuse_of_better_route_takes_over_without_scan(full_scans):
    harness = damped_harness()
    harness.peers["B"].announce("p0", ("B", "x", "y", "origin"))
    harness.run()
    peer = harness.peers["A"]
    for _ in range(3):
        peer.announce("p0", ("A", "origin"))
        harness.run()
        peer.withdraw("p0")
        harness.run()
    peer.announce("p0", ("A", "origin"))
    harness.run()
    del full_scans[:]
    harness.engine.run()  # the reuse timer fires
    assert full_scans == []
    assert harness.router.damping.reuse_events[-1].noisy is True
    assert harness.router.best_route("p0").as_path == ("A", "origin")
    assert harness.peers["C"].updates[-1].as_path == ("R", "A", "origin")


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
def test_equal_length_tie_goes_to_lowest_peer_name(harness, order):
    for name in order:
        harness.peers[name].announce("p0", (name, "origin"))
        harness.run()
    assert harness.router.best_route("p0").learned_from == "A"
    assert_matches_full_scan(harness.router, "p0")


def test_self_originated_route_always_wins(harness, full_scans):
    harness.router.originate("mine")
    harness.run()
    del full_scans[:]
    harness.peers["A"].announce("mine", ("A",))
    harness.run()
    harness.peers["A"].withdraw("mine")
    harness.run()
    assert full_scans == []
    assert harness.router.best_route("mine").as_path == ("R",)
    assert_matches_full_scan(harness.router, "mine")


# ----------------------------------------------------------------------
# RCN behaviour
# ----------------------------------------------------------------------


def rc(seq: int, status: str = "down") -> RootCause:
    return RootCause(link=("origin", "isp"), status=status, seq=seq)


def rcn_harness() -> Harness:
    return Harness(
        config=RouterConfig(
            damping=CISCO_DEFAULTS, rcn_enabled=True, mrai=MraiConfig(base=0.0)
        )
    )


def test_rcn_same_cause_charges_once():
    harness = rcn_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"), cause=rc(1, "up"))
    harness.run()
    # Three different-looking updates, all caused by the same flap.
    peer.withdraw("p0", cause=rc(2, "down"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"), cause=rc(2, "down"))
    harness.run()
    peer.withdraw("p0", cause=rc(2, "down"))
    harness.run()
    # Only the first update with cause seq=2 charged (down -> +1000).
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        1000.0, rel=0.01
    )


def test_rcn_charges_by_flap_type_not_update_kind():
    """An 'up' cause carried by an attribute change charges the
    re-announcement penalty (0 for Cisco), not the attribute penalty."""
    harness = rcn_harness()
    peer = harness.peers["A"]
    peer.announce("p0", ("A", "origin"), cause=rc(1, "up"))
    harness.run()
    peer.announce("p0", ("A", "x", "origin"), cause=rc(2, "up"))
    harness.run()
    assert harness.router.damping.penalty_value("A", "p0") == 0.0


def test_rcn_outgoing_updates_carry_cause():
    harness = rcn_harness()
    cause = rc(5, "up")
    harness.peers["A"].announce("p0", ("A", "origin"), cause=cause)
    harness.run()
    forwarded = harness.peers["B"].updates[0]
    assert forwarded.root_cause == cause


def test_plain_router_propagates_cause_without_using_it():
    harness = damped_harness()  # rcn_enabled=False
    cause = rc(1, "down")
    harness.peers["A"].announce("p0", ("A", "origin"))
    harness.run()
    harness.peers["A"].withdraw("p0", cause=cause)
    harness.run()
    assert harness.peers["B"].updates[-1].root_cause == cause
    # Plain damping still charged the withdrawal.
    assert harness.router.damping.penalty_value("A", "p0") == pytest.approx(
        1000.0, rel=0.01
    )


# ----------------------------------------------------------------------
# MRAI behaviour
# ----------------------------------------------------------------------


def test_mrai_rate_limits_announcements():
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "x", "y", "origin"))
    harness.engine.run(until=1.0)
    assert len(harness.peers["C"].updates) == 1
    # A better path arrives immediately: the announcement must wait for
    # the MRAI timer.
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=2.0)
    assert len(harness.peers["C"].updates) == 1
    harness.engine.run(until=60.0)
    assert len(harness.peers["C"].updates) == 2
    assert harness.peers["C"].updates[-1].as_path == ("R", "A", "origin")


def test_mrai_withdrawals_bypass_by_default():
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=1.0)
    a.withdraw("p0")
    harness.engine.run(until=2.0)
    assert harness.peers["C"].updates[-1].is_withdrawal


def test_mrai_flush_skips_stale_changes():
    """If the best path flaps back to the already-announced route before
    the MRAI expires, nothing extra is sent."""
    harness = Harness(config=RouterConfig(mrai=MraiConfig(base=30.0)))
    a = harness.peers["A"]
    a.announce("p0", ("A", "origin"))
    harness.engine.run(until=1.0)
    a.announce("p0", ("A", "x", "origin"))
    harness.engine.run(until=2.0)
    a.announce("p0", ("A", "origin"))
    harness.engine.run()  # MRAI fires; rib-out already matches
    announcements = [u for u in harness.peers["C"].updates if u.is_announcement]
    assert [u.as_path for u in announcements] == [("R", "A", "origin")]
