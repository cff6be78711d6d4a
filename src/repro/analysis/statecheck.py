"""Runtime checkpoint round-trip prober (``python -m repro statecheck``).

The SNAP rules (:mod:`.snaprules`) prove each class's *declared* snapshot
surface covers its mutable attributes; this module proves the snapshots
actually work on live objects.  It builds real scenarios (PLB and RSS,
CBR and microburst workloads, rate limiter attached, checkpoint cadence
armed), walks the resulting object graph, and executes a
checkpoint -> restore -> checkpoint probe against every discovered
checkpoint-capable component:

* ``s1 = obj.checkpoint()`` must be plain data and JSON round-trippable;
* restoring the round-tripped ``s1`` and checkpointing again must
  reproduce ``s1`` byte for byte (:func:`snapshot_bytes` canonical form);
* ``from_checkpoint`` classmethods are probed by cloning: the clone's
  checkpoint must equal the original's.

Components that own pending heap events (traffic sources, the
checkpointer itself) cannot be probed in place -- their restore
re-creates events with fresh heap sequence numbers -- so they are
covered by the **world probe** instead: a mid-run scenario snapshot is
restored into a freshly built deployment, the remainder of the run
replays there, and the final report must be byte-identical to the
uninterrupted run.  Every deliberate skip carries a reason and shows up
in ``statecheck -v`` output, mirroring the linter's audited-suppression
policy.
"""

import inspect
import json
from collections import deque

from repro.controlplane.snapshot import ensure_plain, snapshot_bytes

#: Classes deliberately not probed in place, and why.  Keep reasons in
#: sync with the module docstring; they render in ``statecheck -v``.
IN_PLACE_EXCLUSIONS = {
    "CbrSource": (
        "owns pending heap events; restore re-creates them with fresh "
        "sequence numbers -- covered by the world probe"
    ),
    "MicroburstSource": (
        "owns pending heap events; restore re-creates them with fresh "
        "sequence numbers -- covered by the world probe"
    ),
    "SimCheckpointer": (
        "owns its own re-arm event; restore re-creates it with a fresh "
        "sequence number -- covered by the world probe"
    ),
}

#: Restore-side method names, in lookup order (same convention as
#: :mod:`repro.analysis.statemodel`).
_RESTORE_NAMES = ("restore", "restore_state", "restore_clock")
_SNAPSHOT_PARAMS = ("snapshot", "state")


class ProbeResult:
    """Outcome of probing one class (possibly several live instances)."""

    __slots__ = ("cls_name", "mode", "instances", "ok", "detail")

    def __init__(self, cls_name, mode, instances, ok, detail=""):
        self.cls_name = cls_name
        self.mode = mode          # "restore" | "clone" | "world" | "skipped"
        self.instances = instances
        self.ok = ok
        self.detail = detail

    def render(self):
        status = "ok" if self.ok else "FAIL"
        text = f"{status:4s} {self.cls_name} [{self.mode} x{self.instances}]"
        if self.detail:
            text += f": {self.detail}"
        return text


class StatecheckResult:
    """All probe outcomes for one statecheck run."""

    def __init__(self, probes):
        self.probes = sorted(probes, key=lambda p: (p.cls_name, p.mode))

    @property
    def ok(self):
        return all(probe.ok for probe in self.probes)

    def summary(self):
        failed = sum(1 for probe in self.probes if not probe.ok)
        skipped = sum(1 for probe in self.probes if probe.mode == "skipped")
        probed = len(self.probes) - skipped
        text = f"{probed} class(es) probed, {skipped} skipped, {failed} failed"
        return text


def _restore_method(obj):
    """The snapshot-restoring bound method of ``obj``, or None.

    Same convention as the static extractor: the first real parameter
    must be named ``snapshot``/``state`` (which excludes overloads like
    ``SnatTable.restore(flow, ...)`` and no-arg crash recovery).
    """
    for name in _RESTORE_NAMES:
        fn = getattr(type(obj), name, None)
        if fn is None or not callable(fn):
            continue
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            continue
        if len(params) >= 2 and params[1] in _SNAPSHOT_PARAMS:
            return getattr(obj, name)
    return None


def _checkpoint_capable(obj):
    cls = type(obj)
    return callable(getattr(cls, "checkpoint", None)) and not isinstance(obj, type)


def _iter_children(obj):
    if isinstance(obj, dict):
        yield from obj.values()
        return
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        yield from obj
        return
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        yield from attrs.values()
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            try:
                yield getattr(obj, slot)
            except AttributeError:
                continue


def _atomic(obj):
    return (
        obj is None
        or isinstance(obj, (str, bytes, bytearray, int, float, bool, complex))
        or isinstance(obj, type)
        or inspect.isroutine(obj)
        or inspect.ismodule(obj)
    )


def discover(roots, max_objects=100_000):
    """BFS the object graph under ``roots``; return checkpoint-capable objects.

    Traverses ``__dict__``, ``__slots__`` and plain containers; the
    result is deterministic (discovery order) and deduplicated by
    identity.
    """
    seen = set()
    found = []
    queue = deque(roots)
    while queue and len(seen) < max_objects:
        obj = queue.popleft()
        if _atomic(obj) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if _checkpoint_capable(obj):
            found.append(obj)
        queue.extend(_iter_children(obj))
    return found


def _json_round_trip(snapshot):
    return json.loads(json.dumps(snapshot))


def probe_object(obj):
    """One checkpoint -> restore -> checkpoint probe.  Returns (mode, error).

    ``error`` is None on success.  ``mode`` is ``"restore"`` when the
    object restores in place, ``"clone"`` when it only offers
    ``from_checkpoint``, and None when the object has no usable restore
    side (the caller decides whether that is an error).
    """
    cls = type(obj)
    first = obj.checkpoint()
    try:
        ensure_plain(first, cls.__name__)
    except (TypeError, ValueError) as error:
        return None, f"checkpoint is not plain data: {error}"
    before = snapshot_bytes(first)
    round_tripped = _json_round_trip(first)

    restore = _restore_method(obj)
    if restore is not None:
        restore(round_tripped)
        after = snapshot_bytes(obj.checkpoint())
        if after != before:
            return "restore", (
                "checkpoint -> restore -> checkpoint is not byte-identical"
            )
        return "restore", None

    from_checkpoint = getattr(cls, "from_checkpoint", None)
    if callable(from_checkpoint):
        clone = from_checkpoint(round_tripped)
        after = snapshot_bytes(clone.checkpoint())
        if after != before:
            return "clone", (
                "from_checkpoint clone's checkpoint is not byte-identical"
            )
        return "clone", None
    return None, "defines checkpoint() but no restore side to probe"


def _scenario_spec(name, mode, workload_kind, seed):
    from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
    from repro.sim.units import MS

    return ScenarioSpec(
        name=name,
        pods=(
            PodSpec(
                name="gw", data_cores=2, mode=mode, per_core_pps=200_000,
                acl_drop_probability=0.02, limiter_stage1_pps=150_000,
            ),
        ),
        # Light load: the checkpointer only fires at quiescent instants,
        # so the pods need idle windows between packets.
        workload=WorkloadSpec(
            kind=workload_kind, flows=64, tenants=8, load=0.15,
            stream="traffic",
        ),
        duration_ns=8 * MS,
        seed=seed,
        checkpoint_every_ns=2 * MS,
        # Windowed telemetry armed so the world probe covers the
        # TimeSeriesRecorder (series identity across a restore) and the
        # component walk discovers it for the in-place probe.
        timeseries_every_ns=2 * MS,
    )


def _drain(handle, settle_ns):
    """Stop traffic and run until every pod is quiescent."""
    for source in handle.sources:
        source.stop()
    for _ in range(64):
        if all(pod.quiescent() for pod in handle.pods.values()):
            return True
        handle.sim.run_until(handle.sim.now + settle_ns)
    return all(pod.quiescent() for pod in handle.pods.values())


def _world_probe(spec):
    """Mid-run snapshot restored into a fresh world must replay identically."""
    from repro.scenarios import build

    baseline = build(spec).run()
    snapshot = baseline.checkpointer.latest
    if snapshot is None:
        return ProbeResult(
            "RunHandle", "world", 1, False,
            f"{spec.name}: no checkpoint was captured during the run",
        )
    expected = json.dumps(baseline.report(), sort_keys=True)

    resumed = build(spec)
    resumed.restore_checkpoint(_json_round_trip(snapshot))
    resumed.run(spec.duration_ns - resumed.sim.now)
    actual = json.dumps(resumed.report(), sort_keys=True)
    ok = actual == expected
    return ProbeResult(
        "RunHandle", "world", 1,
        ok,
        f"{spec.name}: restored mid-run snapshot "
        + ("replays byte-identically" if ok else "DIVERGES from the straight run"),
    )


def _bfd_world(seed):
    """A BFD link pair with some traffic history, for direct probing."""
    from repro.bgp.bfd import BfdLink
    from repro.sim.engine import Simulator
    from repro.sim.units import MS

    sim = Simulator()
    link = BfdLink(sim)
    sim.run_until(400 * MS)
    link.set_down()
    sim.run_until(700 * MS)
    link.set_up()
    sim.run_until(900 * MS)
    return [link, link.a, link.b]


def run_statecheck(seed=42):
    """Execute every probe; returns a :class:`StatecheckResult`."""
    from repro.scenarios import build

    probes = []
    specs = [
        _scenario_spec("statecheck-plb-microburst", "plb", "microburst", seed),
        _scenario_spec("statecheck-rss-cbr", "rss", "cbr", seed + 1),
    ]

    # World probes: the end-to-end checkpoint/resume invariant.
    for spec in specs:
        probes.append(_world_probe(spec))

    # Component probes: walk live object graphs and probe each class.
    roots = []
    for spec in specs:
        handle = build(spec).run()
        if not _drain(handle, settle_ns=spec.checkpoint_every_ns):
            probes.append(ProbeResult(
                "RunHandle", "restore", 1, False,
                f"{spec.name}: pods failed to quiesce for component probes",
            ))
            continue
        roots.append(handle)
    roots.extend(_bfd_world(seed))

    by_class = {}
    for obj in discover(roots):
        by_class.setdefault(type(obj).__name__, []).append(obj)

    for cls_name in sorted(by_class):
        instances = by_class[cls_name]
        if cls_name in IN_PLACE_EXCLUSIONS:
            probes.append(ProbeResult(
                cls_name, "skipped", len(instances), True,
                IN_PLACE_EXCLUSIONS[cls_name],
            ))
            continue
        mode, error = "restore", None
        for obj in instances:
            mode, error = probe_object(obj)
            if error is not None:
                break
        probes.append(ProbeResult(
            cls_name, mode or "restore", len(instances),
            error is None, error or "",
        ))
    return StatecheckResult(probes)
