"""Committed digests of whole snapshots, in both of their byte forms.

Snapshots are model outputs: a migration's freeze is priced by the
length of ``snapshot_bytes(snapshot)`` (sorted keys), and a sweep's
shard checkpoint is a run-store file written with ``json.dumps(indent=2)``
(key order as captured).  Any change to a key, a value or the order keys
are written in changes one of the two digests pinned here:

* every ``SimCheckpointer`` capture of the two ``statecheck`` specs
  (PLB + microburst, RSS + CBR; limiter and telemetry armed);
* every capture of the golden ``burst-limited`` case (x6 bursts into the
  per-tenant limiter, telemetry windows) and of quick ``fleet-steady``
  with 5 ms telemetry windows (a thousand tenants' limiter rows);
* the pod snapshot each ``migrate all --quick`` scenario freezes, at
  seeds 42 and 7.

Regenerate the file only for a change that means to change snapshot
bytes::

    PYTHONPATH=src python -m tests.test_snapshot_pins
"""

import functools
import hashlib
import json
import os

import pytest

from repro.analysis.statecheck import _scenario_spec
from repro.controlplane.scenarios import MIGRATION_SCENARIOS, migration_scenario_spec
from repro.controlplane.snapshot import snapshot_bytes
from repro.scenarios import build, scenario_spec
from repro.sim.units import MS
from tests.test_golden_reports import CASES as REPORT_CASES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "SNAPSHOT_sha256.json")


def _statecheck(mode, kind, seed):
    return lambda: (_scenario_spec(f"statecheck-{mode}-{kind}", mode, kind, seed), None)


#: capture case -> () -> (spec, what to arm on the handle before the run)
CAPTURE_CASES = {
    "statecheck-plb-microburst": _statecheck("plb", "microburst", 42),
    "statecheck-rss-cbr": _statecheck("rss", "cbr", 43),
    "burst-limited": lambda: (REPORT_CASES["burst-limited"][0](),
                              REPORT_CASES["burst-limited"][1]),
    "fleet-steady-ts5": lambda: (scenario_spec("fleet-steady", quick=True)
                                 .with_overrides(overrides={"timeseries_every_ns": 5 * MS}), None),
}

MIGRATION_CASES = {
    f"migrate-{name}-seed{seed}": (name, seed)
    for name in MIGRATION_SCENARIOS for seed in (42, 7)
}


@functools.lru_cache(maxsize=None)
def _snapshots(case):
    """The snapshots one case produces, in capture order."""
    if case in MIGRATION_CASES:
        name, seed = MIGRATION_CASES[case]
        handle = build(migration_scenario_spec(name, seed=seed, quick=True)).run()
        return (handle.migration.snapshot,)
    spec, arm = CAPTURE_CASES[case]()
    handle = build(spec)
    captured = []
    handle.checkpointer.sink = captured.append
    if arm is not None:
        arm(handle)
    handle.run()
    return tuple(captured)


def _digests(case):
    return [
        {
            "snapshot_bytes": hashlib.sha256(snapshot_bytes(snapshot)).hexdigest(),
            "indent2": hashlib.sha256(json.dumps(snapshot, indent=2).encode()).hexdigest(),
        }
        for snapshot in _snapshots(case)
    ]


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


ALL_CASES = sorted([*CAPTURE_CASES, *MIGRATION_CASES])


@pytest.mark.parametrize("case", ALL_CASES)
def test_snapshots_match_their_committed_digests(case):
    assert _digests(case) == _golden()[case]


def test_every_case_pins_at_least_one_snapshot():
    golden = _golden()
    assert sorted(golden) == ALL_CASES
    assert all(golden[case] for case in ALL_CASES)


@pytest.mark.parametrize("seed", (42, 7))
def test_rolling_upgrade_freeze_is_under_10_kb(seed):
    """The pod's latency observer is a few dozen buckets, not samples."""
    (snapshot,) = _snapshots(f"migrate-rolling-upgrade-seed{seed}")
    assert len(snapshot_bytes(snapshot)) < 10_000


def test_burst_limited_first_capture_is_under_130_kb():
    """The limiter's rows carry only ``[tokens, last_ns]``: a thousand
    colour rows and as many meter rows, each table's rate held once."""
    first = _snapshots("burst-limited")[0]
    assert len(snapshot_bytes(first)) <= 130_000


def _stream_states(value):
    """Every rng position a snapshot holds, as ``rng_state`` writes one."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, list):
        return []
    if len(value) == 3 and isinstance(value[1], list) and len(value[1]) == 625:
        return [value]
    return [state for item in value for state in _stream_states(item)]


@pytest.mark.parametrize("case", sorted(CAPTURE_CASES))
def test_a_capture_writes_each_stream_once(case):
    """A pod's verdict and sampler streams ride in the pod's own snapshot,
    so the registry's section leaves them out."""
    for snapshot in _snapshots(case):
        states = [json.dumps(state) for state in _stream_states(snapshot)]
        assert len(set(states)) == len(states) >= 2
        names = [name for name, _ in snapshot["rngs"]["streams"]]
        assert not [name for name in names if name.startswith(("pod.", "limiter."))]


def test_the_capture_cases_reach_what_they_pin():
    limited = _snapshots("burst-limited")[-1]
    limiter = limited["pods"]["pod"]["nic"]["limiter"]
    assert len(limiter["color"]) > 100
    assert "telemetry" in limited
    plb = _snapshots("statecheck-plb-microburst")[-1]
    assert plb["pods"]["gw"]["nic"]["limiter"] is not None
    assert plb["sources"][0]["kind"] == "microburst"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as out:
        json.dump({case: _digests(case) for case in ALL_CASES}, out, indent=2,
                  sort_keys=True)
        out.write("\n")
