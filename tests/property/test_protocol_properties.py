"""Property-based tests of whole-protocol invariants.

These run complete simulations on randomly drawn topologies, seeds, and
workloads, then check global safety properties that must hold in *every*
converged state — the strongest guard against protocol-logic bugs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.graceful_restart import GracefulRestartConfig
from repro.core.damping import DampingManager
from repro.core.params import CISCO_DEFAULTS, UpdateKind
from repro.bgp.decision import select_best
from repro.faults import FaultPlan, RouterCrash, SessionReset
from repro.sim.engine import Engine
from repro.topology.internet import internet_topology
from repro.topology.mesh import mesh_topology
from repro.workload.scenarios import ORIGIN_NAME, Scenario, ScenarioConfig
from repro.workload.pulses import PulseSchedule


def _check_converged_invariants(scenario: Scenario) -> None:
    """Invariants of a fully drained network with the origin up.

    Delegates to the public checker and additionally verifies the paths
    terminate at the origin.
    """
    from repro.analysis.invariants import check_converged_invariants

    report = check_converged_invariants(scenario)
    assert report.ok, [str(v) for v in report.violations]
    assert report.routers_checked == len(scenario.routers)
    prefix = scenario.config.prefix
    for router in scenario.routers.values():
        best = router.best_route(prefix)
        assert best is not None
        assert best.as_path[-1] == ORIGIN_NAME


@given(
    size=st.sampled_from([(3, 3), (3, 4), (4, 4)]),
    pulses=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    damping=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_mesh_network_converges_to_consistent_state(size, pulses, seed, damping):
    config = ScenarioConfig(
        topology=mesh_topology(*size),
        damping=CISCO_DEFAULTS if damping else None,
        seed=seed,
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    assert scenario.engine.pending_count == 0
    _check_converged_invariants(scenario)


@given(
    nodes=st.integers(min_value=8, max_value=25),
    topo_seed=st.integers(min_value=0, max_value=30),
    pulses=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_internet_network_converges_to_consistent_state(
    nodes, topo_seed, pulses, seed
):
    config = ScenarioConfig(
        topology=internet_topology(nodes, seed=topo_seed),
        damping=CISCO_DEFAULTS,
        seed=seed,
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    _check_converged_invariants(scenario)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pulses=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_rcn_mode_preserves_protocol_invariants(seed, pulses):
    config = ScenarioConfig(
        topology=mesh_topology(3, 4), damping=CISCO_DEFAULTS, rcn=True, seed=seed
    )
    scenario = Scenario(config)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    _check_converged_invariants(scenario)


# ----------------------------------------------------------------------
# incremental decision process vs. the full scan, on every event
# ----------------------------------------------------------------------


def _assert_decision_consistent(scenario: Scenario, when: str) -> None:
    prefix = scenario.config.prefix
    for router in scenario.routers.values():
        winner = select_best(router._candidates(prefix), router._local_pref)
        expected = winner[1] if winner is not None else None
        actual = router.best_route(prefix)
        assert actual == expected, (
            f"{router.name} {when}: Loc-RIB "
            f"{actual.as_path if actual else None} != full-scan winner "
            f"{expected.as_path if expected else None}"
        )


def _fault_plan(config: ScenarioConfig) -> FaultPlan:
    """A graceful-restart crash of one router plus a session reset
    between two others, both early in the episode."""
    nodes = config.topology.nodes
    a = nodes[-1]
    b = config.topology.neighbors(a)[0]
    return FaultPlan(
        name="differential",
        crashes=(RouterCrash(router=nodes[1], at=20.0, down_for=30.0),),
        session_resets=(SessionReset(a=a, b=b, at=35.0),),
    )


def _differential_config(mode: str, damping: bool, seed: int) -> ScenarioConfig:
    if mode.startswith("internet"):
        topology = internet_topology(
            25, seed=seed % 31, with_relationships=mode == "internet-no-valley"
        )
    else:
        topology = mesh_topology(4, 4)
    config = ScenarioConfig(
        topology=topology,
        damping=CISCO_DEFAULTS if damping else None,
        rcn=mode == "mesh-rcn",
        selective=mode == "mesh-selective",
        use_no_valley=mode == "internet-no-valley",
        seed=seed,
    )
    if mode == "mesh-faults":
        config = replace(
            config,
            faults=_fault_plan(config),
            graceful_restart=GracefulRestartConfig(restart_time=60.0),
        )
    return config


@pytest.mark.parametrize(
    "mode",
    [
        "mesh",
        "mesh-rcn",
        "mesh-selective",
        "internet",
        "internet-no-valley",
        "mesh-faults",
    ],
)
@given(
    damping=st.booleans(),
    pulses=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=8, deadline=None)
def test_loc_rib_matches_full_scan_on_every_event(mode, damping, pulses, seed):
    """The incremental re-ranking never diverges from the full decision
    process — checked before every executed event, warm-up included,
    and once more after the drain."""
    scenario = Scenario(_differential_config(mode, damping, seed))
    checked = [0]

    def check(event) -> None:  # noqa: ANN001 - ScheduledEvent
        _assert_decision_consistent(scenario, f"before {event.tag} at t={event.time}")
        checked[0] += 1

    scenario.engine.set_event_hook(check)
    scenario.warm_up()
    scenario.run(PulseSchedule.regular(pulses, 60.0))
    _assert_decision_consistent(scenario, "after the drain")
    assert checked[0] == scenario.engine.events_executed


# ----------------------------------------------------------------------
# damping state machine, driven by random update trains
# ----------------------------------------------------------------------

update_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=400.0),  # gap before the update
        st.sampled_from(
            [UpdateKind.WITHDRAWAL, UpdateKind.REANNOUNCEMENT, UpdateKind.ATTRIBUTE_CHANGE]
        ),
        st.booleans(),  # charge?
    ),
    min_size=1,
    max_size=50,
)


@given(steps=update_steps)
@settings(max_examples=60, deadline=None)
def test_damping_manager_state_machine_invariants(steps):
    engine = Engine()
    noisy_flags = []
    manager = DampingManager(
        engine, CISCO_DEFAULTS, "r", lambda p, d: noisy_flags.append((p, d)) or False
    )
    for gap, kind, charge in steps:
        engine.schedule(gap, lambda: None)
        engine.run()
        manager.record_update("peer", "p0", kind, charge=charge)
        now = engine.now
        penalty = manager.penalty_value("peer", "p0", now)
        suppressed = manager.is_suppressed("peer", "p0")
        pending = manager.reuse_timer_expiry("peer", "p0")
        # Invariant: suppressed <=> a reuse timer is pending.
        assert suppressed == (pending is not None)
        # Invariant: penalty within bounds.
        assert 0.0 <= penalty <= CISCO_DEFAULTS.penalty_ceiling + 1e-9
        # Invariant: while suppressed, the pending expiry is exactly when
        # the penalty will hit the reuse threshold.
        if pending is not None:
            expected = now + CISCO_DEFAULTS.reuse_delay(penalty)
            assert abs(pending - expected) < 1e-6
    # Drain all timers: nothing may stay suppressed, and each completed
    # suppression produced exactly one reuse event.
    engine.run()
    assert manager.suppressed_entries() == []
    completed = [r for r in manager.suppressions if r.ended is not None]
    assert len(completed) == len(manager.reuse_events)
