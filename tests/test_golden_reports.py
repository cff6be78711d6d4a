"""Committed report digests for the three per-packet paths of one pod.

The sweep goldens pin multi-pod and multi-server runs; these pin what a
single pod's hot path produces, byte for byte:

* ``in-order`` -- ``TestHeapTrafficPerPacket``'s spec: every packet
  leaves its reorder queue in order, at the FIFO head;
* ``microburst-reorder`` -- the registry scenario at 10 ms: RX-ring
  overflow, head-of-line timeouts and best-effort releases;
* ``burst-limited`` -- ``pod-burst-limited``'s shape at 20 ms: a x6
  burst through ``CbrSource.set_rate`` into the per-tenant limiter, with
  telemetry windows and checkpoints every 10 ms.

The sizes keep all six runs (three plain, three sanitized) near 2 s.

Each digest is the sha256 of ``canonical_bytes(report)``; a run under an
installed sanitizer must give the same digest.  Regenerate the file only
for a change that means to change report bytes::

    PYTHONPATH=src python -m tests.test_golden_reports
"""

import functools
import hashlib
import json
import os

import pytest

from repro.analysis.sanitizer import install, uninstall
from repro.runs.store import canonical_bytes
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build, scenario_spec
from repro.sim import MS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "RUN_reports_sha256.json")

BURST_FACTOR = 6
BURST_LENGTH_NS = 5 * MS
BURST_PERIOD_NS = 10 * MS


def _in_order():
    return ScenarioSpec(
        name="heap-traffic",
        pods=(PodSpec(name="pod", data_cores=4, per_core_pps=200_000, mode="plb"),),
        workload=WorkloadSpec(kind="cbr", flows=64, tenants=4, load=0.7),
        duration_ns=5 * MS,
        seed=42,
    )


def _microburst_reorder():
    return scenario_spec("microburst-reorder", quick=True).with_overrides(
        duration_ns=10 * MS
    )


def _burst_limited():
    return ScenarioSpec(
        name="burst-limited",
        pods=(
            PodSpec(
                name="pod", data_cores=4, per_core_pps=150_000, mode="plb",
                rx_capacity=256, limiter_stage1_pps=400, limiter_stage2_pps=100,
            ),
        ),
        workload=WorkloadSpec(
            kind="cbr", flows=4096, tenants=1024, load=0.6, stream="bench-burst"
        ),
        duration_ns=20 * MS,
        seed=42,
        timeseries_every_ns=10 * MS,
        checkpoint_every_ns=10 * MS,
    )


def _arm_bursts(handle):
    source = handle.sources[0]
    base = source.rate_pps
    for start in range(BURST_PERIOD_NS, handle.spec.duration_ns, BURST_PERIOD_NS):
        handle.sim.schedule_at(start, source.set_rate, base * BURST_FACTOR)
        handle.sim.schedule_at(start + BURST_LENGTH_NS, source.set_rate, base)


#: name -> (spec factory, what to arm on the handle before the run)
CASES = {
    "in-order": (_in_order, None),
    "microburst-reorder": (_microburst_reorder, None),
    "burst-limited": (_burst_limited, _arm_bursts),
}


def _run(name):
    make_spec, arm = CASES[name]
    handle = build(make_spec())
    if arm is not None:
        arm(handle)
    return handle.run()


@functools.lru_cache(maxsize=None)
def _plain(name):
    """``(report, checkpoints captured)`` of one plain run, once per session."""
    handle = _run(name)
    checkpointer = handle.checkpointer
    return handle.report(), 0 if checkpointer is None else checkpointer.captured


def _digest(report):
    return hashlib.sha256(canonical_bytes(report)).hexdigest()


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _clean_sanitizer():
    yield
    uninstall()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_committed_digest(name):
    assert _digest(_plain(name)[0]) == _golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sanitized_report_matches_its_committed_digest(name):
    sanitizer = install()
    report = _run(name).report()
    assert sanitizer.violations == 0
    assert sanitizer.checks > 0
    assert _digest(report) == _golden()[name]


def test_the_cases_reach_the_paths_they_pin():
    in_order = _plain("in-order")[0]["pods"]["pod"]
    assert in_order["reorder"]["in_order"] >= in_order["counters"]["rx_packets"] - 16
    reorder = _plain("microburst-reorder")[0]["pods"]["pod"]
    assert reorder["reorder"]["hol_events"] > 0
    assert reorder["reorder"]["best_effort"] > 0
    assert reorder["counters"]["rx_queue_drops"] > 0
    limited, captured = _plain("burst-limited")
    assert limited["pods"]["pod"]["counters"]["rate_limited_drops"] > 0
    assert limited["pods"]["pod"]["reorder"]["hol_events"] > 0
    assert limited["timeseries"]["windows"]
    assert captured > 0


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as out:
        json.dump({name: _digest(_plain(name)[0]) for name in sorted(CASES)}, out,
                  indent=2, sort_keys=True)
        out.write("\n")
