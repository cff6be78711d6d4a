"""Unified scenario API tests: spec round-trips and build equivalence.

The acceptance bar for the API redesign: a scenario defined once as a
:class:`ScenarioSpec` must (a) survive the wire format losslessly --
that is what the fleet engine ships to workers -- and (b) produce the
same deployment from every entry point (simulate, faults, sweeps,
experiments).
"""

import json

import pytest

from repro.controlplane.scenarios import migration_scenario_spec
from repro.cpu.cache import CACHE_LINE_BYTES, PAPER_L3_BYTES
from repro.metrics.trace import PacketTracer
from repro.scenarios import (
    PodSpec,
    ScenarioSpec,
    WorkloadSpec,
    SCENARIO_FACTORIES,
    build,
    scenario_spec,
)
from repro.sim.units import MS


def _spec(**overrides):
    kwargs = {
        "name": "round-trip",
        "pods": (
            PodSpec(name="pod", data_cores=4, per_core_pps=100_000,
                    limiter_stage1_pps=100, limiter_stage2_pps=25),
        ),
        "workload": WorkloadSpec(kind="cbr", flows=32, tenants=4, load=0.5),
        "duration_ns": 10 * MS,
        "seed": 7,
    }
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSpecRoundTrip:
    def test_to_from_dict_is_lossless(self):
        spec = _spec()
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_survives_json(self):
        spec = _spec()
        wire = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(wire)).to_dict() == spec.to_dict()

    def test_registry_specs_round_trip(self):
        for name in SCENARIO_FACTORIES:
            spec = scenario_spec(name, quick=True)
            restored = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert restored.to_dict() == spec.to_dict(), name

    def test_round_tripped_spec_builds_identical_run(self):
        spec = scenario_spec("steady-state-plb", quick=True)
        direct = build(spec).run().report()
        shipped = build(ScenarioSpec.from_dict(spec.to_dict())).run().report()
        assert direct == shipped


class TestSpecValidation:
    def test_unknown_workload_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec(kind="pareto", load=0.5)

    def test_rate_and_load_mutually_exclusive(self):
        with pytest.raises(ValueError, match="rate_pps/load"):
            WorkloadSpec(rate_pps=1000, load=0.5)
        with pytest.raises(ValueError, match="rate_pps/load"):
            WorkloadSpec()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flows", 0), ("flows", -1), ("tenants", 0), ("tenants", -4),
            ("zipf_exponent", -0.1), ("size", 0),
        ],
    )
    def test_degenerate_workload_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(load=0.5, **{field: value})

    def test_smallest_workload_accepted(self):
        WorkloadSpec(load=0.5, flows=1, tenants=1, zipf_exponent=0, size=1)

    @pytest.mark.parametrize("knob, value", [("load", -0.5), ("rate_pps", -1)])
    def test_negative_offered_rate_rejected(self, knob, value):
        with pytest.raises(ValueError, match=f"workload {knob} must be >= 0"):
            WorkloadSpec(**{knob: value})
        WorkloadSpec(**{knob: 0})  # zero offers nothing, which is allowed

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_ns must be >= 0"):
            ScenarioSpec(name="x", duration_ns=-1)
        assert ScenarioSpec(name="x", duration_ns=0).duration_ns == 0

    def test_duplicate_pod_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate pod name"):
            ScenarioSpec(name="x", pods=(PodSpec(name="a"), PodSpec(name="a")))

    def test_workload_without_pods_rejected_at_build(self):
        spec = ScenarioSpec(
            name="x", workload=WorkloadSpec(load=0.5), duration_ns=MS
        )
        with pytest.raises(ValueError, match="workload but no pods"):
            build(spec)

    def test_unknown_registry_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_spec("nope")

    def test_checkpoint_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every_ns"):
            _spec(checkpoint_every_ns=0)
        with pytest.raises(ValueError, match="checkpoint_every_ns"):
            _spec(checkpoint_every_ns=-5)

    def test_checkpoint_cadence_excludes_migration(self):
        from repro.scenarios.spec import MigrationSpec

        migration = MigrationSpec(pod="pod", start_ns=MS)
        with pytest.raises(ValueError, match="cannot be combined"):
            _spec(migration=migration, checkpoint_every_ns=MS)

    def test_checkpoint_cadence_round_trips(self):
        spec = _spec(checkpoint_every_ns=2 * MS)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.checkpoint_every_ns == 2 * MS

    def test_pre_checkpoint_wire_format_loads(self):
        data = _spec().to_dict()
        del data["checkpoint_every_ns"]
        assert ScenarioSpec.from_dict(data).checkpoint_every_ns is None

    def test_build_attaches_checkpointer_only_when_requested(self):
        assert build(_spec()).checkpointer is None
        handle = build(_spec(checkpoint_every_ns=MS))
        assert handle.checkpointer is not None
        assert handle.checkpointer.every_ns == MS


class TestOverrides:
    def test_dotted_override_reaches_nested_fields(self):
        spec = _spec()
        derived = spec.with_overrides(
            seed=99,
            overrides={"workload.tenants": 1234, "pods.0.data_cores": 8},
        )
        assert derived.seed == 99
        assert derived.workload.tenants == 1234
        assert derived.pods[0].data_cores == 8
        # The original is untouched.
        assert spec.seed == 7
        assert spec.workload.tenants == 4

    def test_bad_override_path_raises(self):
        with pytest.raises(KeyError, match="does not exist"):
            _spec().with_overrides(overrides={"workload.typo": 1})


class TestBuildEntryPoints:
    def test_registry_scenario_is_deterministic(self):
        spec = scenario_spec("steady-state-plb", quick=True)
        first = build(spec).run().report()
        assert first == build(spec).run().report()
        assert first["events"] > 0

    def test_per_core_pps_builds_the_scaled_service(self):
        from repro.cpu.service import scaled_service

        handle = build(ScenarioSpec(
            name="scaled-pod",
            pods=(PodSpec(data_cores=4, per_core_pps=50_000),),
            seed=3,
        ))
        assert handle.capacity_pps() == 200_000
        assert handle.pod.expected_capacity_mpps() * 1e6 == pytest.approx(
            200_000, rel=0.02
        )
        assert (
            handle.pod.chain.service.base_ns
            == scaled_service(per_core_pps=50_000).base_ns
        )

    def test_limiter_fields_construct_a_live_limiter(self):
        handle = build(_spec())
        limiter = handle.pod.nic.rate_limiter
        assert limiter is not None
        assert limiter.stage1_rate_pps == 100
        assert limiter.stage2_rate_pps == 25

    def test_control_plane_spec_builds_no_pods(self):
        handle = build(ScenarioSpec(name="bare", duration_ns=MS, seed=1))
        assert handle.pods == {}
        handle.run()
        assert handle.sim.now == MS

    @pytest.mark.parametrize("spec", [
        _spec(timeseries_every_ns=2 * MS),                  # limiter + telemetry
        scenario_spec("az-steady", quick=True, servers=2),  # uplink + DPU tier
        migration_scenario_spec("rolling-upgrade", quick=True),
    ], ids=lambda spec: spec.name)
    def test_subscribers_never_perturb_the_report(self, spec):
        plain = json.dumps(build(spec).run().report())
        armed = build(spec)
        tracer = armed.subscribe(PacketTracer(sample_every=3))
        assert json.dumps(armed.run().report()) == plain
        assert tracer.completed_traces()

    def test_report_shape(self):
        report = build(_spec()).run().report()
        assert set(report) == {
            "scenario", "seed", "duration_ns", "sim_ns", "events", "pods",
        }
        pod = report["pods"]["pod"]
        assert {"transmitted", "counters", "outcomes", "latency"} <= set(pod)
        assert "reorder" in pod  # plb mode
        # The report must be plain data (the fleet wire format).
        json.dumps(report)


class TestPodSpecIsTheOnlyDescription:
    """``add_pod`` reads the :class:`PodSpec` itself: every derived value
    is computed there once, and no run edits the spec it was built from."""

    def test_head_meta_placement_is_derived_once(self):
        from repro.core.meta import HEAD_PLACEMENT_THROUGHPUT_FACTOR
        from repro.cpu.numa import NumaTopology

        handle = build(ScenarioSpec(name="head", pods=(
            PodSpec(meta_placement="head", numa_node=0, memory_node=1),
        )))
        expected = (
            NumaTopology.CROSS_NUMA_SERVICE_PENALTY
            / HEAD_PLACEMENT_THROUGHPUT_FACTOR
        )
        assert [core.speed_factor for core in handle.pod.cores] == (
            [expected] * len(handle.pod.cores)
        )

    def test_reorder_depth_defaults_to_4096_unless_declared(self):
        plain = build(ScenarioSpec(name="d", pods=(PodSpec(),)))
        sized = build(ScenarioSpec(name="d", pods=(PodSpec(reorder_depth=1024),)))
        assert plain.pod.nic.reorder.config.depth == 4096
        assert sized.pod.nic.reorder.config.depth == 1024

    def test_new_fields_stay_off_the_wire_while_unset(self):
        assert "meta_placement" not in PodSpec().to_dict()
        assert "reorder_depth" not in PodSpec().to_dict()
        wire = PodSpec(meta_placement="head", reorder_depth=2048).to_dict()
        assert list(wire)[-2:] == ["meta_placement", "reorder_depth"]
        assert PodSpec.from_dict(wire).to_dict() == wire

    @pytest.mark.parametrize("spec", [
        migration_scenario_spec("rolling-upgrade", quick=True),
        _spec(pods=(PodSpec(per_core_pps=100_000, meta_placement="head"),)),
        _spec(pods=(PodSpec(per_core_pps=100_000, reorder_queues=8,
                            reorder_depth=1024),)),
    ], ids=["rolling-upgrade", "ablation-meta", "ablation-reorder"])
    def test_running_never_edits_the_spec(self, spec):
        from repro.runs import spec_fingerprint

        before = spec_fingerprint(spec)
        handle = build(spec).run()
        assert spec_fingerprint(handle.spec) == before

    def test_migration_places_a_copy(self):
        handle = build(migration_scenario_spec("rolling-upgrade", quick=True)).run()
        assert handle.pods["gw"].numa_node == 1
        assert handle.pods["gw"].spec.numa_node == 1
        assert handle.spec.pods[0].numa_node == 0

    def test_plb_fallback_is_nic_state_not_spec(self):
        from repro.core.watchdog import PlbWatchdog
        from repro.runs import spec_fingerprint

        spec = _spec(pods=(PodSpec(
            name="pod", data_cores=2, per_core_pps=20_000,
            silent_drop_probability=0.05, drop_flag_enabled=False,
        ),), workload=WorkloadSpec(flows=32, tenants=4, load=0.5),
            duration_ns=100 * MS)
        before = spec_fingerprint(spec)
        handle = build(spec)
        watchdog = PlbWatchdog(
            handle.sim, handle.pod.nic, hol_events_per_s_threshold=100.0,
            strikes=3, period_ns=20 * MS,
        )
        report = handle.run().report()
        assert watchdog.fallbacks == 1
        assert handle.pod.nic.mode == "rss"
        assert handle.pod.spec.mode == "plb"
        assert spec_fingerprint(handle.spec) == before
        # The report keys its reorder section on the declared mode.
        assert "reorder" in report["pods"]["pod"]


class TestDeclaredTraffic:
    """``build`` turns each declared workload into one source, in order,
    on exactly the flows it states."""

    def test_each_workload_is_one_source_on_its_flows(self):
        from repro.packet.flows import flow_for_tenant

        handle = build(_spec(workload=(
            WorkloadSpec(flows=32, tenants=4, load=0.5),
            WorkloadSpec(kind="poisson", flows=1, tenants=1, rate_pps=1000,
                         first_tenant=7000, first_flow=3, stream="burst"),
            WorkloadSpec(flows=128, tenants=2, rate_pps=0, first_tenant=1,
                         stream="tenants", schedule=((MS, 64_000),)),
        )))
        kinds = [type(source).__name__ for source in handle.sources]
        assert kinds == ["CbrSource", "PoissonSource", "ScheduledSource"]
        assert handle.sources[0].rate_pps == int(400_000 * 0.5)
        burst = handle.sources[1].population
        assert (burst.flows[0], burst.vnis[0]) == (flow_for_tenant(7000, 3), 7000)
        tenants = handle.sources[2].population
        assert (tenants.vnis[0], tenants.vnis[127]) == (1, 2)
        assert tenants.flows[127] == flow_for_tenant(2, 127)

    def test_a_schedule_sets_the_rate_at_each_instant(self):
        handle = build(_spec(workload=WorkloadSpec(
            flows=8, tenants=1, rate_pps=10_000, stream="s",
            schedule=((2 * MS, 50_000), (4 * MS, 0), (6 * MS, 20_000)),
        )))
        source = handle.sources[0]
        rates = []
        for until in (1, 3, 5, 7):
            handle.sim.run_until(until * MS)
            rates.append(source.rate_pps)
        assert rates == [10_000, 50_000, 0, 20_000]
        # 20 + 100 + 0 + 20 packets, give or take one at each edge.
        assert abs(source.emitted - 140) <= 3
        source.stop()
        assert source.checkpoint()["next_change"] is None

    def test_schedule_and_offsets_are_validated(self):
        with pytest.raises(ValueError, match="cbr workload only"):
            WorkloadSpec(kind="poisson", rate_pps=1, schedule=((0, 1),))
        with pytest.raises(ValueError, match="in order"):
            WorkloadSpec(rate_pps=1, schedule=((5, 1), (2, 1)))
        with pytest.raises(ValueError, match="rates must be >= 0"):
            WorkloadSpec(rate_pps=1, schedule=((5, -1),))
        with pytest.raises(ValueError, match="first_flow must be >= 0"):
            WorkloadSpec(rate_pps=1, first_flow=-1)
        with pytest.raises(ValueError, match="at least one workload"):
            _spec(workload=())
        with pytest.raises(ValueError, match="l3_bytes must be > 0"):
            _spec(l3_bytes=0)

    def test_offload_and_l3_are_built_only_when_declared(self):
        plain = build(_spec())
        assert plain.pod.nic.session_offload is None
        assert plain.server.l3_cache(plain.pod.memory_node) is None
        declared = build(_spec(
            pods=(PodSpec(per_core_pps=100_000, offload_capacity=64),),
            l3_bytes=1 << 20,
        ))
        assert declared.pod.nic.session_offload.capacity == 64
        cache = declared.server.l3_cache(declared.pod.memory_node)
        assert cache.capacity_lines * CACHE_LINE_BYTES == 1 << 20
        assert declared.server.table_scale == (1 << 20) / PAPER_L3_BYTES
        assert declared.pod.chain.cache is cache
