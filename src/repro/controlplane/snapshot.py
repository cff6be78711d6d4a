"""Snapshot plumbing: plain-data validation + canonical byte encoding.

Every ``checkpoint()`` in the tree must produce *plain data* -- dicts,
lists, strings, ints, floats, bools and None, nothing else -- so a
snapshot serializes losslessly to JSON, ships across process (or
machine) boundaries and restores on the far side without pickling
arbitrary objects.  :func:`ensure_plain` enforces that contract at
freeze time; :func:`snapshot_bytes` defines the canonical wire encoding
whose length prices the state-transfer phase of a migration.
"""

import json

_SCALARS = (str, int, float, bool, type(None))


def ensure_plain(value, path="snapshot"):
    """Assert ``value`` is plain data all the way down; returns it.

    Raises TypeError naming the offending path, so a component that
    leaks a live object (an enum, a deque, a Session) into its
    checkpoint fails loudly at freeze time instead of at restore time
    on another machine.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            ensure_plain(item, f"{path}[{index}]")
        return value
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"{path} has a non-string key {key!r} "
                    f"({type(key).__name__}); JSON objects need str keys"
                )
            ensure_plain(item, f"{path}.{key}")
        return value
    raise TypeError(
        f"{path} holds a non-plain {type(value).__name__}: {value!r}"
    )


def snapshot_bytes(snapshot):
    """Canonical byte encoding of a snapshot.

    Sorted keys, no whitespace: two structurally equal snapshots encode
    to identical bytes, which is what the byte-identity tests (and the
    per-KiB transfer cost) are defined over.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode()


CHECKPOINT_SCHEMA_VERSION = 1


class SimCheckpointer:
    """Periodic whole-simulation checkpoints (``SimCheckpoint``).

    Every ``every_ns`` of simtime the checkpointer looks at the
    deployment; if every pod is :meth:`~repro.core.gateway.GwPodRuntime.
    quiescent` it freezes a plain-data snapshot of the clock, every rng
    stream, every pod and every workload source.  A non-quiescent
    instant is not abandoned for a whole period: the checkpointer
    retries every ``every_ns // 64`` until it lands in an idle window --
    under load the quiescent instants sit in the gaps between packet
    arrivals, rarely exactly on a period boundary.  Skips are counted, and the skip/capture decision depends
    only on simulation state, so an interrupted-and-restored run makes
    the exact same decisions as an uninterrupted one.

    The pending-event story: a snapshot is legal only because, at a
    quiescent instant, everything in the event heap belongs to a
    component that can re-create its own events from its checkpoint --
    the sources (next tick, next burst boundary), the telemetry recorder
    (its next window flush) and the checkpointer
    itself (its next fire).  Each records the absolute time *and* heap
    sequence of its pending event; ``RunHandle.restore_checkpoint``
    re-creates them sorted by ``(time, seq)``, so same-timestamp ties
    fire in the original order and the rest of the run replays
    byte-identically.

    ``sink``, when set, receives every captured snapshot (the fleet
    engine points it at an atomic writer under ``RUNS/<run-id>/``).
    """

    def __init__(self, sim, rngs, pods, sources, every_ns, sink=None,
                 recorder=None):
        if every_ns <= 0:
            raise ValueError(f"checkpoint cadence must be positive (got {every_ns})")
        self.sim = sim
        self.rngs = rngs
        self.pods = pods            # {name: GwPodRuntime}
        self.sources = list(sources)
        # Optional TimeSeriesRecorder; when present its state rides in
        # the snapshot's "telemetry" section (absent otherwise, so
        # telemetry-less checkpoints keep their exact historical bytes).
        self.recorder = recorder
        self.every_ns = int(every_ns)
        self.retry_ns = max(1, self.every_ns // 64)
        self.sink = sink
        self.latest = None
        # Capture-process telemetry about *this* run of the checkpointer,
        # not simulation state: a resumed run tallies its own captures,
        # and folding these into the snapshot would make its bytes depend
        # on how often earlier snapshots were taken or retried.
        self.captured = 0  # lint: disable=SNAP001(capture-process telemetry; a resumed run tallies its own captures)
        self.skipped = 0  # lint: disable=SNAP001(capture-process telemetry; a resumed run tallies its own retries)
        self._event = sim.schedule(self.every_ns, self._fire)

    def _fire(self):
        if not all(pod.quiescent() for pod in self.pods.values()):
            self.skipped += 1
            self._event = self.sim.schedule(self.retry_ns, self._fire)
            return
        # Re-arm *before* capturing so the snapshot records the next
        # fire's (time, seq) and a restore can re-create it exactly.
        self._event = self.sim.schedule(self.every_ns, self._fire)
        snapshot = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "taken_ns": self.sim.now,
            "next_fire": {"time": self._event.time, "seq": self._event.seq},
            "sim": self.sim.checkpoint(),
            "rngs": self.rngs.checkpoint(),
            "pods": {
                name: pod.checkpoint() for name, pod in sorted(self.pods.items())
            },
            "sources": [source.checkpoint() for source in self.sources],
        }
        if self.recorder is not None:
            snapshot["telemetry"] = self.recorder.checkpoint()
        ensure_plain(snapshot, "sim-checkpoint")
        self.latest = snapshot
        self.captured += 1
        if self.sink is not None:
            self.sink(snapshot)

    def restore(self, snapshot):
        """Adopt a snapshot; return the rearm entry for the next fire."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.latest = snapshot
        next_fire = snapshot["next_fire"]

        def rearm(time=next_fire["time"]):
            self._event = self.sim.schedule_at(time, self._fire)

        return [(next_fire["time"], next_fire["seq"], rearm)]
