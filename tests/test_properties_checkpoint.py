"""The SimCheckpoint invariant, hypothesis-driven.

The claim ``run_shard`` leans on for mid-shard resume: restore any
periodic checkpoint into a freshly built handle, simulate the remaining
sim-time, and the run report is **byte-identical** to an uninterrupted
run.  Hypothesis varies the workload kind, the seed, the checkpoint
cadence (hence *where* in the run the snapshots land) and which snapshot
is restored -- so the invariant is exercised at effectively random
simtimes, including mid-burst instants for the microburst source.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import snapshot_bytes
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS, US


def _spec(kind, seed, every_ns):
    # Loads are deliberately light: quiescence-gated capture needs idle
    # gaps between arrivals, and at load >= ~0.25 on this 2-core pod a
    # packet is nearly always in flight (see DESIGN.md on the cadence
    # limitation).  The microburst's burst windows still exercise the
    # busy skip/retry path.
    if kind == "cbr":
        workload = WorkloadSpec(flows=8, tenants=4, load=0.1)
        duration = 5 * MS
    else:
        workload = WorkloadSpec(
            kind="microburst", flows=8, tenants=4, load=0.05,
            burst_factor=8.0, burst_duration_ns=500 * US,
            burst_period_ns=2 * MS,
        )
        duration = 12 * MS
    return ScenarioSpec(
        name=f"ckpt-{kind}",
        pods=(PodSpec(name="pod", data_cores=2, per_core_pps=100_000),),
        workload=workload,
        duration_ns=duration,
        seed=seed,
        checkpoint_every_ns=every_ns,
    )


def _full_run(spec):
    """Uninterrupted run: (report, every captured snapshot)."""
    snapshots = []
    handle = build(spec)
    handle.checkpointer.sink = lambda snapshot: snapshots.append(
        json.loads(snapshot_bytes(snapshot))
    )
    handle.run()
    return handle.report(), snapshots


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["cbr", "microburst"]),
    seed=st.integers(min_value=1, max_value=1_000_000),
    every_us=st.integers(min_value=150, max_value=2_500),
    pick=st.integers(min_value=0, max_value=10**9),
)
def test_restore_at_random_simtime_is_byte_identical(kind, seed, every_us, pick):
    spec = _spec(kind, seed, every_us * US)
    baseline, snapshots = _full_run(spec)
    # run_until executes events at exactly end_time, so a capture can
    # land on the final instant; restoring there would make run(0) a
    # no-op -- pick a strictly interior snapshot for a real resume.
    interior = [s for s in snapshots if s["taken_ns"] < spec.duration_ns]
    assert interior, (
        "the drawn cadence never hit a quiescent instant; widen the "
        "cadence range rather than letting the invariant go untested"
    )
    snapshot = interior[pick % len(interior)]
    assert 0 < snapshot["taken_ns"] < spec.duration_ns

    handle = build(spec)
    handle.restore_checkpoint(snapshot)
    assert handle.sim.now == snapshot["taken_ns"]
    handle.run(spec.duration_ns - handle.sim.now)
    assert snapshot_bytes(handle.report()) == snapshot_bytes(baseline)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=1, max_value=1_000_000))
def test_every_snapshot_of_a_run_restores_identically(seed):
    """Stronger sweep for one cadence: every capture point is a valid
    resume point, not just a lucky one."""
    spec = _spec("cbr", seed, 1 * MS)
    baseline, snapshots = _full_run(spec)
    assert len(snapshots) >= 2
    for snapshot in snapshots:
        handle = build(spec)
        handle.restore_checkpoint(snapshot)
        handle.run(spec.duration_ns - handle.sim.now)
        assert snapshot_bytes(handle.report()) == snapshot_bytes(baseline)


@pytest.mark.parametrize("kind, seed, every_ns", [
    ("cbr", 7, 1 * MS),
    ("microburst", 11, 250 * US),
])
def test_restored_run_recaptures_the_same_future_checkpoints(kind, seed, every_ns):
    """After a restore the checkpointer itself continues identically: the
    snapshots taken *after* the restore point are the same bytes at the
    same instants, ``seq`` fields included (the simulator's sequence
    counter is restored state, so every later event takes the number it
    took in the straight run).  Telemetry is armed; the microburst run
    resumes mid-burst."""
    spec = _spec(kind, seed, every_ns).with_overrides(
        overrides={"timeseries_every_ns": 1 * MS}
    )
    _baseline, snapshots = _full_run(spec)
    restore_point = next(
        snapshot for snapshot in snapshots
        if kind == "cbr" or snapshot["sources"][0]["in_burst"]
    )

    replay = []
    handle = build(spec)
    handle.restore_checkpoint(restore_point)
    handle.checkpointer.sink = lambda snapshot: replay.append(
        json.loads(snapshot_bytes(snapshot))
    )
    handle.run(spec.duration_ns - handle.sim.now)
    originals = [
        snapshot for snapshot in snapshots
        if snapshot["taken_ns"] > restore_point["taken_ns"]
    ]
    assert len(originals) >= 2 and "telemetry" in originals[0]
    assert list(map(snapshot_bytes, replay)) == list(map(snapshot_bytes, originals))


def test_restore_requires_checkpoint_cadence():
    spec = ScenarioSpec(
        name="no-ckpt",
        pods=(PodSpec(name="pod", data_cores=2, per_core_pps=100_000),),
        workload=WorkloadSpec(flows=8, tenants=4, load=0.5),
        duration_ns=1 * MS,
        seed=3,
    )
    handle = build(spec)
    try:
        handle.restore_checkpoint({"schema_version": 1})
    except ValueError as error:
        assert "checkpoint cadence" in str(error)
    else:
        raise AssertionError("restore without a checkpointer must fail")


def test_restore_rejects_unknown_schema():
    spec = _spec("cbr", seed=5, every_ns=1 * MS)
    _baseline, snapshots = _full_run(spec)
    bad = dict(snapshots[0], schema_version=99)
    handle = build(spec)
    try:
        handle.restore_checkpoint(bad)
    except ValueError as error:
        assert "schema" in str(error)
    else:
        raise AssertionError("unknown checkpoint schema must be rejected")
