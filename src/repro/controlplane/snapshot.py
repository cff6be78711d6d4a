"""Snapshots: declared state, one codec, plain data and its byte encoding.

A stateful class declares its state once and inherits :class:`Stateful`:

* ``STATE`` -- what a snapshot carries, in the order its keys are
  written: an attribute name, or ``(key, attribute)`` where the key
  differs (``("tokens", "_tokens")``).  A property works too.
* ``DERIVED`` -- ``{attribute: reason}`` for what is rebuilt or
  transient: memo caches, in-flight packets and their timers.
* every other attribute is constructor wiring, never changed by a run.
  ``python -m repro statecheck`` holds live worlds to all three.

:func:`snapshot` walks ``STATE`` in order.  A member with its own
``checkpoint()`` snapshots itself; every other value goes through one
table keyed by type: scalars as themselves, an ``Enum`` as its
``.value``, a :class:`Table` as ``[key, value]`` pairs sorted by key, a
``dict``/``list``/``deque``/``set`` copied out (``Enum`` keys as
``.value``, sets sorted), an rng stream as ``rng_state``, a pending
event as its ``{"time", "seq"}`` (``None`` once cancelled or fired);
anything else raises ``TypeError`` naming the attribute.
:func:`restore` is the inverse into a live object of the same shape.
Containers and streams are refilled **in place** (the hot path aliases
them: the NIC bumps ``counters.counts`` directly), and a member one
side has and the other lacks raises ``ValueError`` naming the attribute.

A pending event is restored into its own ``(time, seq)`` slot, the one
protocol for every event a snapshot carries.  The live event is kept
when it already sits in that slot (a source's never-fired first burst
edge, say); otherwise it is cancelled and its handler pushed at the slot
(``Simulator.schedule_slot`` on the owner's ``sim``).  The simulator's
own snapshot carries ``seq``, the next number it hands out, so a
restored run numbers every later event as the straight run did.  No
owner re-arms anything by hand, and same-instant ties replay in the
straight run's order.

Snapshots are *plain data* -- dicts, lists, strings, numbers, bools and
None -- so they serialize losslessly to JSON and restore across process
or machine boundaries; :func:`ensure_plain` enforces that at freeze
time.  :func:`snapshot_bytes` is the canonical encoding whose length
prices a migration's state transfer.
"""

import enum
import json
from collections import deque
from functools import partial

_SCALARS = (str, int, float, bool, type(None))
_SCALAR_TYPES = frozenset(_SCALARS)

#: class -> ((key, attribute, path), ...) from its STATE.
_FIELDS = {}


def _fields(cls):
    _FIELDS[cls] = fields = tuple(
        (entry, entry, f"{cls.__name__}.{entry}") if isinstance(entry, str)
        else (entry[0], entry[1], f"{cls.__name__}.{entry[1]}")
        for entry in cls.STATE
    )
    return fields


class Table(dict):
    """A dict whose snapshot is ``[key, value]`` pairs sorted by key.

    For tables keyed by integers (JSON object keys are strings) that
    fill in arrival order: sorting makes the snapshot independent of
    that order.  ``item`` is the class of the values when they are
    stateful -- restore rebuilds each with ``item.__new__`` and sets its
    ``STATE`` straight from the row, so that must be every attribute the
    item has, each a plain scalar -- and ``None`` for plain values.
    """

    __slots__ = ("item",)

    def __init__(self, item=None):
        super().__init__()
        self.item = item


class Stateful:
    """Base of a class whose snapshot is its declared ``STATE``.

    ``checkpoint()`` and ``restore(snapshot)`` are :func:`snapshot` and
    :func:`restore`.  A subclass that validates its input, or re-derives
    something after a restore, overrides ``restore`` and calls
    ``super().restore(snapshot)``.  One whose ``STATE`` holds a pending
    event keeps the simulator that queues it as ``sim``.
    """

    __slots__ = ()
    STATE = ()
    DERIVED = {}

    def checkpoint(self):
        return snapshot(self)

    def restore(self, snapshot):
        restore(self, snapshot)


def _key(key, path):
    if isinstance(key, str):
        return key
    if isinstance(key, enum.Enum):
        return key.value
    raise TypeError(f"{path} has a {type(key).__name__} key {key!r}; JSON objects need str keys")


def _encode(value, path):
    if value.__class__ in _SCALAR_TYPES:
        return value
    checkpoint = getattr(value, "checkpoint", None)
    if checkpoint is not None:
        return checkpoint()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Table):
        encode = partial(_encode, path=path) if value.item is None else value.item.checkpoint
        return [[key, encode(value[key])] for key in sorted(value)]
    if isinstance(value, dict):
        return {_key(key, path): _encode(item, path) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        items = list(value)
        if _SCALAR_TYPES.issuperset(map(type, items)):
            return items
        return [_encode(item, path) for item in items]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    # Imported here: repro.sim's engine imports this module.
    from repro.sim.engine import Event
    from repro.sim.rng import Stream, rng_state

    if isinstance(value, Stream):
        return rng_state(value)
    if isinstance(value, Event):
        if value.cancelled or value.fired:
            return None
        return {"time": value.time, "seq": value.seq}
    raise TypeError(f"{path} holds a {type(value).__name__} the snapshot codec cannot store")


def snapshot(obj):
    """``obj``'s ``STATE`` as plain data, keys in declaration order."""
    state = {}
    for key, attr, path in _FIELDS.get(obj.__class__) or _fields(obj.__class__):
        value = getattr(obj, attr)
        state[key] = value if value.__class__ in _SCALAR_TYPES else _encode(value, path)
    return state


def _refill(live, value, path):
    """Put a snapshot's container ``value`` back into ``live``, in place."""
    if isinstance(live, Table):
        item = live.item
        fields = () if item is None else _FIELDS.get(item) or _fields(item)
        live.clear()
        for key, state in value:
            if item is not None:
                member = item.__new__(item)
                for name, attr, _path in fields:
                    setattr(member, attr, state[name])
                state = member
            live[key] = state
    elif isinstance(live, dict):
        keys = {_key(key, path): key for key in live}
        if hasattr(next(iter(live.values()), None), "checkpoint"):
            if sorted(value) != sorted(keys):
                raise ValueError(f"{path}: the snapshot has members {sorted(value)}, "
                                 f"this object {sorted(keys)}")
            for key, state in value.items():
                live[keys[key]].restore(state)
        else:
            live.clear()
            live.update((keys.get(key, key), item) for key, item in value.items())
    elif hasattr(next(iter(live), None), "checkpoint"):
        if len(value) != len(live):
            raise ValueError(f"{path}: the snapshot has {len(value)} members, "
                             f"this object {len(live)}")
        for item, state in zip(live, value):
            item.restore(state)
    elif isinstance(live, set):
        live.clear()
        live.update(value)
    else:
        live.clear()
        live.extend(value)


def restore(obj, state):
    """Reinstate :func:`snapshot`'s ``state`` into the live ``obj``."""
    for key, attr, path in _FIELDS.get(obj.__class__) or _fields(obj.__class__):
        value = state[key]
        live = getattr(obj, attr, None)
        if live.__class__ in _SCALAR_TYPES:
            if live is None and isinstance(value, dict):
                raise ValueError(f"{path}: the snapshot carries one, "
                                 f"this {obj.__class__.__name__} has none")
            setattr(obj, attr, value)
        elif hasattr(live, "checkpoint"):
            if value is None:
                raise ValueError(
                    f"{path}: this {obj.__class__.__name__} has one, the snapshot carries none"
                )
            live.restore(value)
        elif isinstance(live, enum.Enum):
            setattr(obj, attr, type(live)(value))
        elif isinstance(live, (dict, list, deque, set)):
            _refill(live, value, path)
        else:
            from repro.sim.engine import Event
            from repro.sim.rng import Stream, set_rng_state

            if isinstance(live, Event):
                setattr(obj, attr, _slot(obj.sim, live, value))
            elif isinstance(live, Stream):
                set_rng_state(live, value)
            else:
                raise TypeError(f"{path} holds a {type(live).__name__} the codec cannot restore")


def _slot(sim, live, value):
    """The event that stands for a snapshot's pending-event ``value``:
    ``live`` itself when it is pending in that ``(time, seq)`` slot,
    else ``live`` cancelled and its handler pushed at the slot (``None``
    when the snapshot has no event pending)."""
    if (value is not None and not (live.cancelled or live.fired)
            and live.time == value["time"] and live.seq == value["seq"]):
        return live
    live.cancel()
    if value is None:
        return None
    return sim.schedule_slot(value["time"], value["seq"], live.fn, *live.args)


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


CHECKPOINT_SCHEMA_VERSION = 3


class SimCheckpointer(Stateful):
    """Periodic whole-simulation checkpoints (``SimCheckpoint``).

    Every ``every_ns`` of simtime the checkpointer looks at the
    deployment; if every pod is :meth:`~repro.core.gateway.GwPodRuntime.
    quiescent` it captures a plain-data snapshot of the world
    (:meth:`capture`).  A non-quiescent instant is not abandoned for a
    whole period: the checkpointer retries every ``every_ns // 64``
    until it lands in an idle window -- under load the quiescent
    instants sit in the gaps between packet arrivals, rarely exactly on
    a period boundary.  Skips are counted, and the skip/capture decision
    depends only on simulation state, so an interrupted-and-restored run
    makes the exact same decisions as an uninterrupted one.

    A capture is legal only because, at a quiescent instant, everything
    in the event heap is a pending event some component holds in its
    ``STATE`` -- the sources (next tick, next burst edge), the telemetry
    recorder (its next window flush) and the checkpointer itself (its
    next fire) -- and the codec restores each into its own
    ``(time, seq)`` slot, so the rest of the run replays byte-identically.

    ``sink``, when set, receives every captured snapshot (the fleet
    engine points it at an atomic writer under ``RUNS/<run-id>/``).
    """

    STATE = (("next_fire", "_event"),)
    DERIVED = {
        "latest": "the last capture itself; a restored run has captured nothing yet",
        "captured": "capture-process telemetry; a resumed run tallies its own captures",
        "skipped": "capture-process telemetry; a resumed run tallies its own retries",
    }

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
        self.captured = 0
        self.skipped = 0
        self._event = sim.schedule(self.every_ns, self._fire)

    def _fire(self):
        if not all(pod.quiescent() for pod in self.pods.values()):
            self.skipped += 1
            self._event = self.sim.schedule(self.retry_ns, self._fire)
            return
        # Queue the next fire *before* capturing, so the capture holds it.
        self._event = self.sim.schedule(self.every_ns, self._fire)
        snapshot = ensure_plain(self.capture(), "sim-checkpoint")
        self.latest = snapshot
        self.captured += 1
        if self.sink is not None:
            self.sink(snapshot)

    def capture(self):
        """The whole world now: the clock, every rng stream, pod and
        source, the recorder and this checkpointer's own next fire.

        Every pod must be quiescent; :meth:`_fire` only calls it then.
        ``RunHandle.restore_checkpoint`` is the inverse.
        """
        snapshot = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "taken_ns": self.sim.now,
            **self.checkpoint(),
            "sim": self.sim.checkpoint(),
            "rngs": self.rngs.checkpoint(),
            "pods": {
                name: pod.checkpoint() for name, pod in sorted(self.pods.items())
            },
            "sources": [source.checkpoint() for source in self.sources],
        }
        if self.recorder is not None:
            snapshot["telemetry"] = self.recorder.checkpoint()
        return snapshot
