"""The four benchmark workloads: ``--seed`` in, shard specs out.

Every workload is a list of :class:`~repro.fleet.ShardSpec` built from
the public spec API; the seed is the only input.  Sizes are constants
(never calibrated at run time), so every simulated count repeats
exactly for a seed.  ``SMOKE`` is the same code at tiny constants for
``test_contract.py``.

The driver accepts the benchmark only if every end-to-end metric is
steady *across seeds*, so each workload draws its traffic from a
constant-rate source: the seed decides which flows and tenants a packet
belongs to, never how many packets there are.  That is why
``pod-burst-limited`` schedules its bursts at fixed instants through
``CbrSource.set_rate`` instead of using ``MicroburstSource``, whose
exponential burst gaps move the event count by +-30% from seed to seed
(586k events at seed 42, 769k at seed 7).
"""

from repro.fleet import ShardSpec, shard_seed
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, scenario_spec
from repro.sim.units import MS

#: Simulated sizes.  ``rep_s`` is one repetition's wall time on the
#: 2-core sandbox; the runner divides ``--seconds`` by it to get a fixed
#: repetition count, so the count never depends on a run's own timing.
FULL = {
    "pod-steady": {"duration_ms": 175, "rep_s": 1.9},
    "pod-burst-limited": {"duration_ms": 150, "rep_s": 2.1},
    "fleet-build-1m": {"tenants": (250_000, 1_000_000), "duration_ms": 100,
                       "rep_s": 3.0},
    "az-sweep": {"servers": (2, 4, 8), "tenants": 100_000, "duration_ms": 80,
                 "rep_s": 2.8},
}
SMOKE = {
    "pod-steady": {"duration_ms": 10},
    "pod-burst-limited": {"duration_ms": 35},
    "fleet-build-1m": {"tenants": (2_000, 8_000), "duration_ms": 10},
    "az-sweep": {"servers": (2, 3), "tenants": 2_000, "duration_ms": 20},
}

BURST_FACTOR = 6
BURST_LENGTH_NS = 5 * MS
BURST_PERIOD_NS = 25 * MS


def _pod_steady(seed, size):
    spec = ScenarioSpec(
        name="pod-steady",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=200_000, mode="plb"),),
        workload=WorkloadSpec(
            kind="cbr", flows=64, tenants=4, load=0.7, stream="bench-cbr"
        ),
        duration_ns=size["duration_ms"] * MS,
        seed=seed,
    )
    return [ShardSpec(0, {}, spec)]


def _pod_burst_limited(seed, size):
    spec = ScenarioSpec(
        name="pod-burst-limited",
        pods=(
            PodSpec(
                name="pod", data_cores=4, per_core_pps=150_000, mode="plb",
                rx_capacity=256, limiter_stage1_pps=400, limiter_stage2_pps=100,
            ),
        ),
        workload=WorkloadSpec(
            kind="cbr", flows=4096, tenants=1024, load=0.6, stream="bench-burst"
        ),
        duration_ns=size["duration_ms"] * MS,
        seed=seed,
        timeseries_every_ns=10 * MS,
        checkpoint_every_ns=10 * MS,
    )
    return [ShardSpec(0, {}, spec)]


def arm_bursts(handle):
    """x6 bursts, 5 ms long, every 25 ms, at fixed simulated instants."""
    source = handle.sources[0]
    base = source.rate_pps
    for start in range(BURST_PERIOD_NS, handle.spec.duration_ns, BURST_PERIOD_NS):
        handle.sim.schedule_at(start, source.set_rate, base * BURST_FACTOR)
        handle.sim.schedule_at(start + BURST_LENGTH_NS, source.set_rate, base)


def _fleet_build_1m(seed, size):
    # Checkpoints off: whether a 10 ms boundary finds the pod quiescent
    # depends on the seed, and one captured snapshot written through the
    # run store costs ~10% of this workload's wall (seeds 5 and 10 capture
    # one, seeds 1-4 and 6-9 none).  pod-burst-limited keeps them armed.
    base = scenario_spec("fleet-steady")
    return [
        ShardSpec(
            index,
            {"tenants": tenants},
            base.with_overrides(
                seed=shard_seed(seed, index),
                duration_ns=size["duration_ms"] * MS,
                overrides={
                    "workload.tenants": tenants,
                    "workload.flows": tenants,
                    "checkpoint_every_ns": None,
                },
            ),
        )
        for index, tenants in enumerate(size["tenants"])
    ]


def _az_sweep(seed, size):
    return [
        ShardSpec(
            index,
            {"servers": servers},
            scenario_spec(
                "az-steady", servers=servers, tenants=size["tenants"]
            ).with_overrides(
                seed=shard_seed(seed, index),
                duration_ns=size["duration_ms"] * MS,
            ),
        )
        for index, servers in enumerate(size["servers"])
    ]


class Workload:
    """One named workload.

    ``sweep`` workloads go through the run store, ``run_sweep`` and the
    artifact writers with ``workers`` processes; the others are one
    inline ``build() -> run() -> report()``.  ``arm`` wires extra
    machinery onto a built handle before it runs; ``in_order`` says the
    workload must deliver every flow's packets in emission order.
    """

    def __init__(self, name, make, sweep=False, workers=1, arm=None,
                 in_order=False):
        self.name = name
        self._make = make
        self.sweep = sweep
        self.workers = workers
        self.arm = arm
        self.in_order = in_order

    def size(self, smoke=False):
        return (SMOKE if smoke else FULL)[self.name]

    def shards(self, seed, smoke=False):
        return self._make(seed, self.size(smoke))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("pod-steady", _pod_steady, in_order=True),
        Workload("pod-burst-limited", _pod_burst_limited, arm=arm_bursts),
        Workload("fleet-build-1m", _fleet_build_1m, sweep=True),
        Workload("az-sweep", _az_sweep, sweep=True, workers=2),
    )
}
