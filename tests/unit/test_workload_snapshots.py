"""Warm-state snapshot layer: capture/restore correctness.

The load-bearing property is digest identity — an episode run on a
restored scenario must be byte-for-byte equal (as seen by the metrics
digest) to one run on a freshly warmed scenario. Everything else here
guards the snapshot lifecycle: single-use scenarios, cache keying, and
independence of restored copies.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.base import small_mesh_config
from repro.metrics.digest import run_digest
from repro.workload.pulses import PulseSchedule
from repro.workload.scenarios import (
    Scenario,
    WarmStateCache,
    WarmStateSnapshot,
    _config_cache_key,
)


def fresh_digest(config, pulses: int) -> str:
    scenario = Scenario(config)
    scenario.warm_up()
    result = scenario.run(PulseSchedule.regular(pulses, 60.0))
    return run_digest(result.collector)


class TestWarmStateSnapshot:
    def test_restored_episode_is_digest_identical(self):
        config = small_mesh_config()
        snapshot = WarmStateSnapshot.capture(config)
        for pulses in (0, 2):
            restored = snapshot.restore()
            result = restored.run(PulseSchedule.regular(pulses, 60.0))
            assert run_digest(result.collector) == fresh_digest(config, pulses)

    def test_restored_scenarios_are_independent(self):
        snapshot = WarmStateSnapshot.capture(small_mesh_config())
        first = snapshot.restore()
        second = snapshot.restore()
        result_first = first.run(PulseSchedule.regular(2, 60.0))
        # Running the first copy must not perturb the second.
        result_second = second.run(PulseSchedule.regular(2, 60.0))
        assert run_digest(result_first.collector) == run_digest(result_second.collector)

    def test_snapshot_preserves_warmup_convergence(self):
        scenario = Scenario(small_mesh_config())
        scenario.warm_up()
        snapshot = WarmStateSnapshot.from_scenario(scenario)
        assert snapshot.warmup_convergence == scenario.warmup_convergence
        assert snapshot.restore().warmup_convergence == scenario.warmup_convergence
        assert snapshot.size_bytes == len(snapshot.blob) > 0

    def test_source_scenario_stays_usable_after_capture(self):
        config = small_mesh_config()
        scenario = Scenario(config)
        scenario.warm_up()
        WarmStateSnapshot.from_scenario(scenario)
        result = scenario.run(PulseSchedule.regular(1, 60.0))
        assert run_digest(result.collector) == fresh_digest(config, 1)

    def test_rejects_unwarmed_scenario(self):
        scenario = Scenario(small_mesh_config())
        with pytest.raises(SimulationError):
            WarmStateSnapshot.from_scenario(scenario)

    def test_rejects_already_run_scenario(self):
        scenario = Scenario(small_mesh_config())
        scenario.warm_up()
        scenario.run(PulseSchedule.regular(0, 60.0))
        with pytest.raises(SimulationError):
            WarmStateSnapshot.from_scenario(scenario)

    def test_snapshot_itself_is_picklable(self):
        """Snapshots are plain values: a pickled copy still restores a
        digest-identical scenario."""
        snapshot = WarmStateSnapshot.capture(small_mesh_config())
        clone = pickle.loads(pickle.dumps(snapshot))
        result = clone.restore().run(PulseSchedule.regular(1, 60.0))
        assert run_digest(result.collector) == fresh_digest(small_mesh_config(), 1)


class TestWarmStateCache:
    def test_capture_happens_once_per_config(self):
        cache = WarmStateCache()
        config = small_mesh_config()
        first = cache.get(config)
        assert cache.get(config) is first
        assert len(cache) == 1

    def test_distinct_configs_get_distinct_snapshots(self):
        cache = WarmStateCache()
        a = cache.get(small_mesh_config(seed=1))
        b = cache.get(small_mesh_config(seed=2))
        assert a is not b
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = WarmStateCache(max_entries=2)
        first = cache.get(small_mesh_config(seed=1))
        cache.get(small_mesh_config(seed=2))
        cache.get(small_mesh_config(seed=3))  # evicts seed=1
        assert len(cache) == 2
        assert cache.get(small_mesh_config(seed=1)) is not first

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            WarmStateCache(max_entries=0)

    def test_cache_key_covers_every_config_field(self):
        """A new ScenarioConfig field that never reaches the cache key
        would silently alias distinct configs to one snapshot."""
        import dataclasses

        from repro.workload.scenarios import ScenarioConfig

        key_fields = len(dataclasses.fields(ScenarioConfig))
        key = _config_cache_key(small_mesh_config())
        # id(topology) and topology.name both stand in for the topology
        # field, hence one extra element.
        assert len(key) == key_fields + 1

    def test_hit_and_miss_counters_across_two_sweeps(self):
        """Two sweeps over the same config: the first pays one capture,
        the second is served entirely from the cache."""
        cache = WarmStateCache()
        config = small_mesh_config()
        first_sweep = [cache.get(config) for _ in range(3)]
        assert (cache.hits, cache.misses) == (2, 1)
        second_sweep = [cache.get(config) for _ in range(3)]
        assert (cache.hits, cache.misses) == (5, 1)
        assert all(s is first_sweep[0] for s in first_sweep + second_sweep)

    def test_digest_keyed_identity_across_equal_configs(self):
        """Equal configs (same topology object, same fields) hit one
        entry, and capture is deterministic: a second capture of the
        same config yields a byte-equal blob."""
        cache = WarmStateCache()
        a = cache.get(small_mesh_config(seed=5))
        b = cache.get(small_mesh_config(seed=5))
        assert a is b
        assert a.blob == WarmStateSnapshot.capture(small_mesh_config(seed=5)).blob

    def test_lru_eviction_order_follows_recency_of_use(self):
        """Touching an entry must move it to the back of the eviction
        queue — eviction is least-recently-*used*, not least-recently-
        captured."""
        cache = WarmStateCache(max_entries=2)
        first = cache.get(small_mesh_config(seed=1))
        second = cache.get(small_mesh_config(seed=2))
        # Refresh seed=1, then insert seed=3: seed=2 is now the LRU entry.
        assert cache.get(small_mesh_config(seed=1)) is first
        cache.get(small_mesh_config(seed=3))
        assert cache.get(small_mesh_config(seed=1)) is first  # survived
        assert cache.get(small_mesh_config(seed=2)) is not second  # evicted

    def test_invalidate_drops_only_the_named_config(self):
        cache = WarmStateCache()
        cache.get(small_mesh_config(seed=1))
        kept = cache.get(small_mesh_config(seed=2))
        assert cache.invalidate(small_mesh_config(seed=1)) is True
        assert cache.invalidate(small_mesh_config(seed=1)) is False
        assert len(cache) == 1
        assert cache.get(small_mesh_config(seed=2)) is kept

    def test_restore_heals_a_snapshot_that_fails_to_restore(self):
        """A corrupted cached blob is evicted and recaptured once, and
        the healed snapshot restores a scenario that runs digest-
        identically to a fresh warm-up."""
        cache = WarmStateCache()
        config = small_mesh_config()
        poisoned = cache.get(config)
        poisoned.blob = b"not a pickle"
        scenario = cache.restore(config)
        result = scenario.run(PulseSchedule.regular(1, 60.0))
        assert run_digest(result.collector) == fresh_digest(config, 1)
        # The poisoned entry was replaced, and healing cost one extra miss.
        assert cache.get(config) is not poisoned
        assert cache.misses == 2

    def test_clear_resets_entries_and_counters(self):
        cache = WarmStateCache()
        cache.get(small_mesh_config())
        cache.get(small_mesh_config())
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
