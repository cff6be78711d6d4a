"""Workload generator and metrics tests."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import reference_population as reference
from repro.metrics.counters import CounterSet
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.summary import UtilizationSampler, mean, stddev
from repro.scenarios import build, scenario_spec
from repro.sim import MS, SECOND, Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.generators import (
    CbrSource,
    FlowPopulation,
    PoissonSource,
    uniform_population,
    zipf_population,
)
from repro.workloads.microburst import MicroburstSource
from repro.workloads.tenants import TenantProfile, TenantSet, overload_scenario_profiles
from repro.workloads.traces import diurnal_rate_fn, schedule_profile, weekly_load_profile


class TestPopulations:
    def test_uniform_population_spreads_tenants(self):
        population = uniform_population(100, tenants=10)
        assert len(population) == 100
        assert set(population.vnis) == set(range(10))

    def test_zipf_head_dominates(self):
        rngs = RngRegistry(seed=1)
        population = zipf_population(1000, exponent=1.2)
        rng = rngs.stream("draw")
        counts = {}
        for _ in range(20_000):
            flow, _ = population.choose(rng)
            counts[flow] = counts.get(flow, 0) + 1
        top = max(counts.values())
        assert top > 20_000 * 0.05  # the hottest flow gets >5%

    def test_choose_respects_weights(self):
        flows = uniform_population(2).flows
        population = FlowPopulation(flows, weights=[9.0, 1.0], vnis=[1, 2])
        rng = RngRegistry(seed=2).stream("draw")
        heavy = sum(
            1 for _ in range(5000) if population.choose(rng)[0] == flows[0]
        )
        assert heavy / 5000 == pytest.approx(0.9, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowPopulation([])
        flows = uniform_population(2).flows
        with pytest.raises(ValueError):
            FlowPopulation(flows, weights=[1.0])
        with pytest.raises(ValueError):
            FlowPopulation(flows, vnis=[1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 20))
    def test_property_choose_always_valid(self, flow_count, tenants):
        population = uniform_population(flow_count, tenants=tenants)
        rng = RngRegistry(seed=3).stream("draw")
        for _ in range(50):
            flow, vni = population.choose(rng)
            assert flow in population.flows
            assert 0 <= vni < tenants


def _assert_same_draws(population, oracle, make_rng, draws=2000):
    """``population`` and the eager ``oracle`` draw the same pairs from
    identical RNGs and leave them in the same state."""
    rng, oracle_rng = make_rng(), make_rng()
    for _ in range(draws):
        assert population.choose(rng) == oracle.choose(oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()
    assert len(population) == len(oracle)


class _ScriptedRng(random.Random):
    """``random()`` replays ``points``: puts a draw exactly where we want it."""

    def __init__(self, points):
        super().__init__(0)
        self._points = iter(points)

    def random(self):
        return next(self._points)


class TestPopulationDrawEquivalence:
    """The index-computed population against the eager one it replaced
    (``tests/reference_population.py``): a draw must never move."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5000).flatmap(
            lambda count: st.tuples(st.just(count), st.integers(1, count + 3))
        ),
        st.none() | st.integers(1, 50),
        st.floats(0.5, 2.0),
        st.integers(0, 2**32),
    )
    def test_property_factories_match_eager_reference(
        self, layout, flows_per_tenant, exponent, seed
    ):
        flow_count, tenants = layout
        kwargs = {"tenants": tenants, "flows_per_tenant": flows_per_tenant}
        for population, oracle in (
            (
                uniform_population(flow_count, **kwargs),
                reference.uniform_population(flow_count, **kwargs),
            ),
            (
                zipf_population(flow_count, exponent, **kwargs),
                reference.zipf_population(flow_count, exponent, **kwargs),
            ),
        ):
            _assert_same_draws(population, oracle, lambda: random.Random(seed))
            assert list(population.flows) == oracle.flows
            assert list(population.vnis) == oracle.vnis

    @pytest.mark.parametrize(
        "flow_count, weights, vnis",
        [
            (2, [9.0, 1.0], [1, 2]),
            (2, [9, 1], None),  # int weights, default VNIs
            (1, None, [7]),  # a single flow, as fig. 8/9/10 pass
            (1, [0.25], None),
            (5, None, None),
        ],
    )
    def test_explicit_lists_match_eager_reference(self, flow_count, weights, vnis):
        flows = list(reference.uniform_population(flow_count, tenants=3).flows)
        population = FlowPopulation(flows, weights=weights, vnis=vnis)
        oracle = reference.FlowPopulation(flows, weights=weights, vnis=vnis)
        _assert_same_draws(population, oracle, lambda: random.Random(5))
        assert list(population.flows) == oracle.flows
        assert list(population.vnis) == oracle.vnis
        assert population.total_weight == oracle.total_weight

    @pytest.mark.parametrize("flow_count", [1, 2, 3, 7, 10, 49, 64, 1000])
    def test_points_on_integer_boundaries(self, flow_count):
        """``point`` landing on (or a rounding error beside) a cumulative
        weight: ``k / n * n`` for every ``k``, and the largest ``random()``."""
        points = [k / flow_count for k in range(flow_count)] + [1.0 - 2.0**-53]
        for make, make_oracle in (
            (uniform_population, reference.uniform_population),
            (
                lambda n: zipf_population(n, exponent=0.0),
                lambda n: reference.zipf_population(n, exponent=0.0),
            ),
        ):
            _assert_same_draws(
                make(flow_count),
                make_oracle(flow_count),
                lambda: _ScriptedRng(points),
                draws=len(points),
            )

    def test_views_are_sequences(self):
        population = uniform_population(10, tenants=3, flows_per_tenant=2)
        oracle = reference.uniform_population(10, tenants=3, flows_per_tenant=2)
        assert len(population.flows) == len(population.vnis) == 10
        assert population.flows[-1] == oracle.flows[-1]
        assert population.vnis[4] == oracle.vnis[4]
        assert oracle.flows[3] in population.flows
        with pytest.raises(IndexError):
            population.flows[10]
        with pytest.raises(IndexError):
            population.vnis[-11]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flow_count": 0},
            {"flow_count": 10, "tenants": 0},
            {"flow_count": 10, "tenants": -1},
            {"flow_count": 10, "flows_per_tenant": 0},
        ],
    )
    def test_factories_reject_degenerate_layouts(self, kwargs):
        for factory in (uniform_population, zipf_population):
            with pytest.raises(ValueError):
                factory(**kwargs)
        with pytest.raises(ValueError):
            zipf_population(10, exponent=-0.5)


class TestPopulationScale:
    """A population costs what is drawn, not what is declared -- in bytes
    under ``tracemalloc``, so a slow host cannot flake it."""

    MILLION = 1_000_000

    @staticmethod
    def _traced(fn):
        """``(result, current_bytes, peak_bytes)`` of running ``fn``."""
        tracemalloc.start()
        try:
            result = fn()
            return (result, *tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

    def test_uniform_million_is_constant_size(self):
        _, _, peak = self._traced(
            lambda: uniform_population(self.MILLION, tenants=self.MILLION)
        )
        assert peak < 64 * 1024

    def test_zipf_million_is_one_flat_column(self):
        # array('d') cumulative weights (8 B/flow, over-allocated while it
        # grows) -- never a list of boxed floats (~300 B/flow when eager).
        _, _, peak = self._traced(
            lambda: zipf_population(self.MILLION, tenants=self.MILLION)
        )
        assert peak < 24 * self.MILLION

    def test_resident_state_is_bounded_by_draws(self):
        draws = 10_000

        def draw():
            population = uniform_population(self.MILLION, tenants=self.MILLION)
            rng = random.Random(9)
            for _ in range(draws):
                population.choose(rng)
            return population  # still alive when the bytes are read

        _, current, _ = self._traced(draw)
        assert current < draws * 400  # a FlowKey and its memo slot each

    def test_building_a_million_tenant_shard_is_small(self):
        spec = scenario_spec("fleet-steady", tenants=self.MILLION)
        _, _, peak = self._traced(lambda: build(spec))
        assert peak < 4 * 1024 * 1024


class TestSources:
    def test_cbr_rate(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        CbrSource(
            sim, RngRegistry(1).stream("s"), received.append, population, rate_pps=10_000
        )
        sim.run_until(100 * MS)
        assert len(received) == pytest.approx(1000, abs=2)

    def test_cbr_rate_change(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        source = CbrSource(
            sim, RngRegistry(1).stream("s"), received.append, population, rate_pps=10_000
        )
        sim.schedule_at(50 * MS, source.set_rate, 0)
        sim.run_until(200 * MS)
        assert len(received) == pytest.approx(500, abs=2)

    def test_cbr_count_limit(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        CbrSource(
            sim,
            RngRegistry(1).stream("s"),
            received.append,
            population,
            rate_pps=100_000,
            count_limit=42,
        )
        sim.run_until(1 * SECOND)
        assert len(received) == 42

    def test_poisson_mean_rate(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        PoissonSource(
            sim, RngRegistry(1).stream("s"), received.append, population, rate_pps=10_000
        )
        sim.run_until(1 * SECOND)
        assert len(received) == pytest.approx(10_000, rel=0.1)

    def test_poisson_interarrival_variance(self):
        """Poisson arrivals must NOT be evenly spaced like CBR."""
        sim = Simulator()
        times = []
        population = uniform_population(10)
        PoissonSource(
            sim,
            RngRegistry(1).stream("s"),
            lambda p: times.append(sim.now),
            population,
            rate_pps=10_000,
        )
        sim.run_until(1 * SECOND)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert stddev(gaps) > 0.5 * mean(gaps)

    def test_stop(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        source = CbrSource(
            sim, RngRegistry(1).stream("s"), received.append, population, rate_pps=10_000
        )
        sim.schedule_at(10 * MS, source.stop)
        sim.run_until(1 * SECOND)
        assert len(received) < 200

    def _poisson(self, sim, received, rate_pps=10_000, **kwargs):
        return PoissonSource(
            sim, RngRegistry(1).stream("s"), lambda packet: received.append(sim.now),
            uniform_population(10), rate_pps=rate_pps, **kwargs,
        )

    def test_poisson_pause_and_resume(self):
        sim = Simulator()
        received = []
        source = self._poisson(sim, received)
        sim.schedule_at(100 * MS, source.set_rate, 0)
        sim.schedule_at(300 * MS, source.set_rate, 20_000)
        sim.run_until(400 * MS)
        assert not any(100 * MS < time <= 300 * MS for time in received)
        before = sum(1 for time in received if time <= 100 * MS)
        assert before == pytest.approx(1_000, rel=0.15)
        assert len(received) - before == pytest.approx(2_000, rel=0.15)
        assert source.emitted == len(received)

    def test_poisson_zero_rate_never_emits(self):
        sim = Simulator()
        received = []
        source = self._poisson(sim, received, rate_pps=0)
        sim.run_until(1 * SECOND)
        assert received == [] and source.emitted == 0

    def test_poisson_stop_and_count_limit(self):
        sim = Simulator()
        limited, stopped = [], []
        self._poisson(sim, limited, count_limit=25)
        source = self._poisson(sim, stopped)
        sim.schedule_at(50 * MS, source.stop)
        sim.run_until(1 * SECOND)
        assert len(limited) == 25
        assert len(stopped) == pytest.approx(500, rel=0.25)
        assert sim.pending == 0

    def test_cbr_sink_that_resets_the_rate_keeps_one_tick(self):
        """A sink may re-set its own source's rate mid-tick: the tick that
        ``set_rate`` queues is the next one, and no second one is queued."""
        sim = Simulator()
        arrivals = []

        def sink(packet):
            arrivals.append(sim.now)
            if len(arrivals) == 1:
                source.set_rate(2_000)

        source = CbrSource(
            sim, RngRegistry(1).stream("s"), sink, uniform_population(4), rate_pps=1_000,
        )
        sim.run_until(10 * MS)
        assert arrivals == [1 * MS + k * (SECOND // 2_000) for k in range(19)]
        assert sim.pending == 1

    def test_cbr_restore_rejects_another_source_kind(self):
        sim = Simulator()
        source = CbrSource(
            sim, RngRegistry(1).stream("s"), lambda packet: None, uniform_population(4),
            rate_pps=1_000,
        )
        snapshot = dict(source.checkpoint(), kind="poisson")
        with pytest.raises(ValueError, match="'poisson' source"):
            source.restore(snapshot)

    def test_cbr_stopped_source_has_no_pending_tick(self):
        def world(received):
            sim = Simulator()
            return sim, CbrSource(
                sim, RngRegistry(1).stream("s"), received.append, uniform_population(4),
                rate_pps=1_000,
            )

        sim, source = world([])
        sim.run_until(10 * MS)
        source.stop()
        snapshot = source.checkpoint()
        assert snapshot["next_tick"] is None and not snapshot["running"]
        received = []
        fresh_sim, fresh = world(received)
        fresh_sim.restore(sim.checkpoint())
        fresh.restore(snapshot)      # cancels the fresh source's first tick
        fresh_sim.run_until(20 * MS)
        assert received == [] and fresh_sim.pending == 0
        assert fresh.checkpoint() == snapshot


class TestMicroburst:
    def test_bursts_raise_rate(self):
        sim = Simulator()
        received = []
        population = uniform_population(10)
        source = MicroburstSource(
            sim,
            RngRegistry(1).stream("s"),
            lambda p: received.append(sim.now),
            population,
            base_rate_pps=10_000,
            burst_factor=10.0,
            burst_duration_ns=10 * MS,
            burst_period_ns=100 * MS,
        )
        sim.run_until(1 * SECOND)
        assert source.bursts_started >= 3
        # More packets than the base rate alone would produce.
        assert len(received) > 10_000 * 1.1

    def test_rate_restores_after_burst(self):
        sim = Simulator()
        population = uniform_population(10)
        source = MicroburstSource(
            sim,
            RngRegistry(1).stream("s"),
            lambda p: None,
            population,
            base_rate_pps=10_000,
            burst_duration_ns=5 * MS,
            burst_period_ns=50 * MS,
        )
        sim.run_until(1 * SECOND)
        assert not source.checkpoint()["in_burst"] or source.rate_pps > 10_000

    def test_stop_sticks_across_pending_burst(self):
        """A pending burst start must not revive a stopped source.

        Regression: ``stop()`` left the burst-cycle event armed; when it
        fired, ``set_rate`` restarted emission and the "stopped" source
        kept injecting packets forever (seen as migration-drain property
        failures with phantom in-flight packets).
        """
        sim = Simulator()
        received = []
        population = uniform_population(10)
        source = MicroburstSource(
            sim,
            RngRegistry(1).stream("s"),
            lambda p: received.append(sim.now),
            population,
            base_rate_pps=10_000,
            burst_factor=10.0,
            burst_duration_ns=10 * MS,
            burst_period_ns=30 * MS,
        )
        sim.schedule_at(10 * MS, source.stop)
        sim.run_until(1 * SECOND)
        assert not source._running
        # Nothing may arrive after the stop instant.
        assert all(t <= 10 * MS for t in received)

    def test_pause_across_a_burst_edge_keeps_the_cycle(self):
        """A source paused by ``set_rate(0)`` over a burst edge bursts
        again once resumed.

        Regression: the edge that fired on the paused source queued no
        next edge, so the resumed source never burst again.
        """
        sim = Simulator()
        population = uniform_population(10)
        source = MicroburstSource(
            sim,
            RngRegistry(1).stream("s"),
            lambda p: None,
            population,
            base_rate_pps=10_000,
            burst_factor=10.0,
            burst_duration_ns=5 * MS,
            burst_period_ns=20 * MS,
        )
        first_edge = source.checkpoint()["burst_event"]["time"]
        sim.schedule_at(first_edge - 1, source.set_rate, 0)
        sim.schedule_at(first_edge + 1, source.set_rate, 10_000)
        sim.run_until(1 * SECOND)
        assert source.bursts_started > 10
        assert source.emitted > 10_000 * 1.1


class TestTenants:
    def test_rate_changes_applied(self):
        sim = Simulator()
        rngs = RngRegistry(seed=1)
        received = {}
        profiles = [
            TenantProfile(vni=1, rate_pps=10_000, rate_changes=[(50 * MS, 50_000)]),
            TenantProfile(vni=2, rate_pps=10_000),
        ]
        TenantSet(
            sim,
            rngs,
            lambda p: received.__setitem__(
                (p.vni, p.uid), sim.now
            ),
            profiles,
        )
        sim.run_until(100 * MS)
        tenant1 = sum(1 for (vni, _) in received if vni == 1)
        tenant2 = sum(1 for (vni, _) in received if vni == 2)
        assert tenant1 == pytest.approx(500 + 2500, rel=0.05)
        assert tenant2 == pytest.approx(1000, rel=0.05)

    def test_overload_profiles_shape(self):
        profiles = overload_scenario_profiles(scale=0.001)
        assert [p.rate_pps for p in profiles] == [4000, 3000, 2000, 1000]
        assert profiles[0].rate_changes == [(15 * SECOND, 34_000)]
        assert all(not p.rate_changes for p in profiles[1:])


class TestTraces:
    def test_diurnal_mean(self):
        rate = diurnal_rate_fn(1000)
        samples = [rate(t * 3600) for t in range(24)]
        assert mean(samples) == pytest.approx(1000, rel=0.02)
        assert max(samples) > 1.4 * min(samples)

    def test_weekly_profile_length(self):
        profile = weekly_load_profile(1000, samples_per_day=24, days=7)
        assert len(profile) == 168

    def test_schedule_profile_compression(self):
        sim = Simulator()
        rates = []

        class FakeSource:
            def set_rate(self, pps):
                rates.append((sim.now, pps))

        profile = [(0.0, 100), (86400.0, 200)]
        schedule_profile(sim, FakeSource(), profile, time_compression=1e-6)
        sim.run()
        assert rates[-1] == (86400 * 1000, 200)


class TestHistogram:
    def test_percentiles_exact_for_small_sets(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):
            histogram.record(value)
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(0.99) == 99
        assert histogram.percentile(1.0) == 100

    def test_mean_min_max(self):
        histogram = LatencyHistogram()
        for value in (10, 20, 30):
            histogram.record(value)
        assert histogram.mean_ns == 20
        assert histogram.min_ns == 10
        assert histogram.max_ns == 30

    def test_fraction_below(self):
        histogram = LatencyHistogram()
        for value in range(10):
            histogram.record(value * 1000)
        assert histogram.fraction_below(5000) == pytest.approx(0.5)

    def test_snapshot_buckets_ascend(self):
        histogram = LatencyHistogram()
        for value in (10_000, 1, 1000, 100, 10):
            histogram.record(value)
        edges = [edge for edge, _count in histogram.checkpoint()["buckets"]]
        assert edges == sorted(edges) == [1, 10, 100, 1000, 9984]

    def test_large_stream_percentiles_stay_close(self):
        histogram = LatencyHistogram()
        for value in range(100_000):
            histogram.record(value)
        # True P50 is 49 999; the sketch reads its bucket's top.
        assert histogram.percentile(0.5) == pytest.approx(50_000, rel=2 ** -7)
        assert histogram.percentile(1.0) == 99_999

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_merge(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        a.record(10)
        b.record(30)
        a.merge(b)
        assert a.count == 2
        assert a.max_ns == 30


class TestCountersAndStats:
    def test_counter_delta(self):
        counters = CounterSet()
        counters.incr("x", 5)
        snapshot = counters.snapshot()
        counters.incr("x", 3)
        counters.incr("y")
        assert counters.delta(snapshot) == {"x": 3, "y": 1}

    def test_stddev(self):
        assert stddev([1, 1, 1]) == 0
        assert stddev([0, 2]) == 1.0
        assert stddev([5]) == 0.0

    def test_utilization_sampler(self):
        sim = Simulator()

        class FakeCore:
            def __init__(self):
                class Stats:
                    busy_ns = 0

                self.stats = Stats()

        cores = [FakeCore(), FakeCore()]
        sampler = UtilizationSampler(sim, cores, period_ns=10 * MS)
        sim.schedule_at(5 * MS, lambda: setattr(cores[0].stats, "busy_ns", 5 * MS))
        sim.run_until(20 * MS)
        sampler.stop()
        assert len(sampler.samples) == 2
        assert sampler.samples[0] == [0.5, 0.0]
        assert sampler.stddev_series[0] == pytest.approx(0.25)

    def test_sampler_caps_utilization_and_summarizes(self):
        sim = Simulator()

        class Stats:
            busy_ns = 0

        class FakeCore:
            stats = Stats()

        sampler = UtilizationSampler(sim, [FakeCore()], period_ns=10 * MS)
        assert (sampler.mean_stddev(), sampler.max_stddev()) == (0.0, 0.0)
        # Busy time accounted in a burst can exceed the period: capped at 1.
        sim.schedule_at(5 * MS, lambda: setattr(Stats, "busy_ns", 25 * MS))
        sim.run_until(30 * MS)
        sampler.stop()
        assert sampler.samples == [[1.0], [0.0], [0.0]]
        assert sampler.max_stddev() == 0.0  # one core: no spread

    @pytest.mark.parametrize(
        "values,expected",
        [([], 0.0), ([4], 4.0), ([1, 2, 3, 4], 2.5), (iter([2, 4]), 3.0)],
        ids=["empty", "one", "four", "iterator"],
    )
    def test_mean(self, values, expected):
        assert mean(values) == expected

    def test_counters_read_missing_names_as_zero(self):
        counters = CounterSet()
        counters.incr("rx", 2)
        assert counters["rx"] == 2 and counters["tx"] == 0
        assert repr(counters) == "CounterSet({'rx': 2})"

    def test_counter_checkpoint_replaces_counts(self):
        counters = CounterSet()
        counters.incr("a", 3)
        snapshot = counters.checkpoint()
        counters.incr("b")
        counters.restore(snapshot)
        assert counters.snapshot() == {"a": 3}
        snapshot["counts"]["a"] = 99  # the restored set is a copy
        assert counters.get("a") == 3
