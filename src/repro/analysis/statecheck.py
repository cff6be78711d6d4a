"""Declared-state checks on live worlds (``python -m repro statecheck``).

Stateful classes declare ``STATE`` and ``DERIVED``; every other attribute
is constructor wiring (:mod:`repro.controlplane.snapshot`).  Small worlds
-- five scenarios (PLB + microbursts, RSS + CBR, lossy PLB; limiter,
telemetry and checkpoints armed; the lossy pod also runs every
periodic owner and exempts one tenant from its limiter; a rate-scheduled
CBR source beside a Poisson one; an AZ of two servers, one running two
pods, behind the ECMP uplink and the DPU tier),
eBGP beside a flapped BFD link, a churned FPGA session table -- are
built, run and held to four checks:

* **Completeness rule.**  The object graph is walked after the build and
  after the run.  An attribute outside ``STATE``/``DERIVED`` that was
  rebound, or whose container or rng contents changed, is a finding; so
  is any change in an object reached through wiring whose class declares
  nothing.  ``DERIVED`` attributes are not walked, nor undeclared objects
  inside ``STATE`` (their owner's snapshot form covers them).
* **Component probes.**  Each object that declares ``STATE`` or defines
  ``checkpoint()`` checkpoints to plain data that, restored into the same
  object of a freshly built twin world, checks out byte for byte: a key
  the restore side ignores shows up as a difference.
* **Key checks.**  A class that declares ``STATE`` but keeps a
  hand-written ``checkpoint()`` or ``restore()`` must write every
  ``STATE`` key, and its restore must fail with ``KeyError`` when any
  one of them is missing: its declaration cannot drift from its code.
* **World probes.**  A mid-run scenario snapshot restored into a fresh
  deployment replays to a byte-identical report.

The component probes cover the owners of pending heap events too, every
timer and periodic task among them: the codec puts each restored event
into its own ``(time, seq)`` slot in the twin's simulator.
``statecheck -v`` prints every probe and every ``DERIVED`` reason.
"""

import enum
import inspect
import json
from collections import deque

from repro.controlplane.snapshot import Stateful, ensure_plain, snapshot_bytes
from repro.sim.rng import Stream

#: What a checkpoint or restore that fails raises; reported, not propagated.
_PROBE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)

_ATOMIC = (str, bytes, int, float, bool, complex, type(None), enum.Enum, type)


class ProbeResult:
    """Outcome of one check on one class (possibly several live instances)."""

    __slots__ = ("cls_name", "mode", "instances", "ok", "detail")

    def __init__(self, cls_name, mode, instances, ok, detail=""):
        self.cls_name = cls_name
        self.mode = mode          # "restore" | "world" | "state" | "keys"
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
    """All outcomes of one statecheck run, plus the DERIVED reasons seen."""

    def __init__(self, probes, derived=()):
        self.probes = sorted(probes, key=lambda p: (p.cls_name, p.mode))
        self.derived = sorted(derived)   # (class name, attribute, reason)

    @property
    def ok(self):
        return all(probe.ok for probe in self.probes)

    def summary(self):
        failed = sum(1 for probe in self.probes if not probe.ok)
        probed = sum(1 for probe in self.probes if probe.mode in ("restore", "world"))
        return f"{probed} class(es) probed, {failed} failed"

    def render_derived(self):
        return [f"     derived {cls}.{attr}: {reason}" for cls, attr, reason in self.derived]


def _declared(cls):
    """``(STATE attributes, DERIVED reasons, snapshot-aware)`` over the MRO."""
    state, derived = set(), {}
    for klass in reversed(cls.__mro__):
        state.update(e if isinstance(e, str) else e[1] for e in vars(klass).get("STATE", ()))
        derived.update(vars(klass).get("DERIVED", {}))
    return state, derived, bool(state) or callable(getattr(cls, "checkpoint", None))


def _attributes(obj):
    """``{name: value}`` of ``obj``'s instance attributes (dict and slots)."""
    attrs = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        slots = vars(klass).get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot not in attrs and slot not in ("__dict__", "__weakref__"):
                try:
                    attrs[slot] = getattr(obj, slot)
                except AttributeError:
                    continue
    return attrs


def _ref(value):
    return value if isinstance(value, _ATOMIC) else id(value)


def _token(value):
    """What must not change in an undeclared attribute: its binding, and
    for a container or rng its contents too."""
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, Stream):
        return ("rng", id(value), value.getstate())
    if isinstance(value, dict):
        return ("dict", id(value), tuple((_ref(k), _ref(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return ("seq", id(value), tuple(map(_ref, value)))
    if isinstance(value, (set, frozenset)):
        return ("set", id(value), frozenset(map(_ref, value)))
    return ("obj", id(value))


def walk(roots, max_objects=100_000):
    """Every object the declarations govern under ``roots``, in BFS order.

    Returns ``[(path, obj, {attribute: token})]``: objects reached through
    wiring (all of them), plus declared objects inside ``STATE``.  Tokens
    cover every attribute outside ``STATE``/``DERIVED``; ``DERIVED``
    attributes are not walked.  Deterministic, deduplicated by identity;
    the walk stops after ``max_objects`` objects.
    """
    seen = set()
    found = []
    queue = deque(((("item", index),), root, False) for index, root in enumerate(roots))
    while queue and len(seen) < max_objects:
        path, obj, in_state = queue.popleft()
        if (isinstance(obj, (*_ATOMIC, Stream)) or inspect.isroutine(obj)
                or inspect.ismodule(obj) or id(obj) in seen):
            continue
        if isinstance(obj, (dict, list, tuple, deque, set, frozenset)):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            queue.extend((path + (("item", key),), item, in_state) for key, item in items)
            continue
        state, derived, aware = _declared(type(obj))
        if in_state and not (aware or derived):
            continue
        seen.add(id(obj))
        tokens = {}
        for name, value in _attributes(obj).items():
            if name in derived:
                continue
            if name not in state:
                tokens[name] = _token(value)
            queue.append((path + (("attr", name),), value, name in state))
        found.append((path, obj, tokens))
    return found


def check_completeness(roots, exercise):
    """Run ``exercise()`` between two walks of ``roots``; return findings.

    Each finding is a failed :class:`ProbeResult` (mode ``"state"``)
    naming the class, the attribute and what changed.
    """
    before = walk(roots)
    exercise()
    after = {id(obj): tokens for _path, obj, tokens in walk(roots)}
    findings = []
    for _path, obj, tokens in before:
        now = after.get(id(obj))
        if now is None:
            continue
        cls = type(obj)
        _state, derived, aware = _declared(cls)
        for name in sorted(set(tokens) | set(now)):
            if tokens.get(name) == now.get(name):
                continue
            if not (aware or derived):
                why = (f"{cls.__name__}.{name} changed, and {cls.__name__} declares "
                       f"no state: the whole component is missing from the snapshot")
            elif isinstance(getattr(obj, name, None), Stream):
                why = (f"{cls.__name__}.{name} is an rng stream that advanced outside "
                       f"STATE/DERIVED: a restored instance draws a different sequence")
            else:
                why = (f"{cls.__name__}.{name} changed outside STATE/DERIVED: a "
                       f"restored instance silently drops it")
            findings.append(ProbeResult(cls.__name__, "state", 1, False, why))
    return findings


def discover(roots, max_objects=100_000):
    """``(path, obj)`` of every snapshot-aware object under ``roots``."""
    return [(path, obj) for path, obj, _tokens in walk(roots, max_objects)
            if _declared(type(obj))[2]]


def resolve(roots, path):
    """The object at ``path`` (as :func:`walk` records it), or None."""
    node = roots
    for kind, key in path:
        try:
            node = getattr(node, key) if kind == "attr" else node[key]
        except (AttributeError, KeyError, IndexError, TypeError):
            return None
    return node


def probe_object(obj, twin):
    """checkpoint -> restore into ``twin`` -> checkpoint; returns an error
    message, or None when the twin checks out byte-identically."""
    cls_name = type(obj).__name__
    if type(twin) is not type(obj):
        return "no twin of this object in the freshly built world"
    if not callable(getattr(twin, "restore", None)):
        return "defines checkpoint() but no restore side to probe"
    try:
        first = ensure_plain(obj.checkpoint(), cls_name)
    except _PROBE_ERRORS as error:
        return f"checkpoint is not plain data: {type(error).__name__}: {error}"
    try:
        twin.restore(json.loads(json.dumps(first)))
    except _PROBE_ERRORS as error:
        return f"restore into a fresh twin raised {type(error).__name__}: {error}"
    if snapshot_bytes(twin.checkpoint()) != snapshot_bytes(first):
        return "checkpoint -> restore into a fresh twin -> checkpoint is not byte-identical"
    return None


def _hand_written(cls):
    """Whether ``cls`` declares ``STATE`` but writes or reads it by hand."""
    return bool(getattr(cls, "STATE", ())) and (
        getattr(cls, "checkpoint", None) is not Stateful.checkpoint
        or getattr(cls, "restore", None) is not Stateful.restore)


def probe_keys(obj, twin):
    """Hold a hand-written pair to its ``STATE``: checkpoint() writes every
    key, and restore into ``twin`` raises ``KeyError`` without any one of
    them.  Returns an error message, or None."""
    if type(twin) is not type(obj):
        return "no twin of this object in the freshly built world"
    try:
        written = json.loads(json.dumps(ensure_plain(obj.checkpoint())))
    except _PROBE_ERRORS as error:
        return f"checkpoint raised {type(error).__name__}: {error}"
    for key in (entry if isinstance(entry, str) else entry[0] for entry in type(obj).STATE):
        if key not in written:
            return f"checkpoint() does not write STATE key {key!r}"
        try:
            twin.restore({name: value for name, value in written.items() if name != key})
        except KeyError:
            continue
        except _PROBE_ERRORS as error:
            return f"restore without STATE key {key!r} raised {type(error).__name__}: {error}"
        return f"restore() succeeds without STATE key {key!r}: it never reads it"
    return None


def _scenario_spec(name, mode, workload_kind, seed, silent_drop_probability=0.0):
    from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
    from repro.sim.units import MS, US

    bursts = {}
    if workload_kind == "microburst":
        # A burst every ~2 ms: the run goes through the burst cycle.
        bursts = {"burst_duration_ns": 500 * US, "burst_period_ns": 2 * MS}
    return ScenarioSpec(
        name=name,
        pods=(
            PodSpec(
                name="gw", data_cores=2, mode=mode, per_core_pps=200_000,
                acl_drop_probability=0.02, limiter_stage1_pps=150_000,
                # Silent drops leave FIFO heads to time out: the reorder
                # engine's HOL and best-effort paths run too.
                silent_drop_probability=silent_drop_probability,
            ),
        ),
        # Light load: the checkpointer only fires at quiescent instants,
        # so the pods need idle windows between packets.
        workload=WorkloadSpec(
            kind=workload_kind, flows=64, tenants=8, load=0.15,
            stream="traffic", **bursts,
        ),
        duration_ns=8 * MS,
        seed=seed,
        checkpoint_every_ns=2 * MS,
        # Windowed telemetry armed so the world probe covers the
        # TimeSeriesRecorder (series identity across a restore) and the
        # component walk discovers it.
        timeseries_every_ns=2 * MS,
    )


def _scheduled_spec(seed):
    """Two declared workloads on one pod: a CBR source whose rate schedule
    is part way through at every capture, and a Poisson source on its own
    tenants and flows."""
    from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
    from repro.sim.units import MS

    return ScenarioSpec(
        name="statecheck-scheduled",
        pods=(PodSpec(name="gw", data_cores=2, per_core_pps=200_000),),
        workload=(
            WorkloadSpec(flows=16, tenants=4, rate_pps=30_000, stream="scheduled",
                         schedule=((1 * MS, 60_000), (3 * MS, 0), (5 * MS, 30_000),
                                   (20 * MS, 0))),
            WorkloadSpec(kind="poisson", flows=16, tenants=2, rate_pps=20_000,
                         stream="poisson", first_tenant=100, first_flow=16),
        ),
        duration_ns=8 * MS,
        seed=seed,
        checkpoint_every_ns=2 * MS,
    )


def _az_spec(seed):
    """Two servers behind the uplink, the second running two pods, with
    the DPU tier, telemetry and checkpoints armed.  A small fast table
    and short epochs: flows are promoted, refused and demoted mid-run."""
    from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec
    from repro.scenarios.spec import DpuTierSpec, ServerSpec
    from repro.sim.units import MS

    def pod(name):
        return PodSpec(name=name, data_cores=2, per_core_pps=100_000)

    return ScenarioSpec(
        name="statecheck-az",
        servers=(ServerSpec(name="srv0", pods=(pod("a"),)),
                 ServerSpec(name="srv1", pods=(pod("b"), pod("c")))),
        dpu_tier=DpuTierSpec(table_capacity=5, threshold_pps=2_000, epoch_ns=2 * MS),
        # Light load, for the checkpointer's quiescent instants.
        workload=WorkloadSpec(flows=200, tenants=50, load=0.15, population="zipf",
                              stream="traffic"),
        duration_ns=8 * MS,
        seed=seed,
        checkpoint_every_ns=2 * MS,
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

    baseline = build(spec)
    captures = []
    baseline.checkpointer.sink = captures.append
    baseline.run()
    if not captures:
        return ProbeResult(
            "RunHandle", "world", 1, False,
            f"{spec.name}: no checkpoint was captured during the run",
        )
    expected = json.dumps(baseline.report(), sort_keys=True)

    resumed = build(spec)
    resumed.restore_checkpoint(json.loads(json.dumps(captures[-1])))
    resumed.run(spec.duration_ns - resumed.sim.now)
    actual = json.dumps(resumed.report(), sort_keys=True)
    ok = actual == expected
    return ProbeResult(
        "RunHandle", "world", 1,
        ok,
        f"{spec.name}: restored mid-run snapshot "
        + ("replays byte-identically" if ok else "DIVERGES from the straight run"),
    )


def _spec_world(spec):
    """A scenario run to its end, then drained (sources stopped)."""
    from repro.scenarios import build

    def run(handle):
        handle.run()
        if not _drain(handle, settle_ns=spec.checkpoint_every_ns):
            raise RuntimeError(f"{spec.name}: pods failed to quiesce for component probes")

    return spec.name, lambda: build(spec), run


def _owners_world(spec):
    """``spec``'s world plus the periodic owners no spec arms, on its pod."""
    from repro.core.hitters import HotFlowPromoter
    from repro.core.watchdog import FpgaWatchdog, PlbWatchdog
    from repro.cpu.numa import NumaBalancer
    from repro.metrics.summary import UtilizationSampler
    from repro.sim.units import MS, US

    name, build_handle, run = _spec_world(spec)

    def build():
        handle = build_handle()
        sim, pod = handle.sim, handle.pod
        return handle, (
            PlbWatchdog(sim, pod.nic, period_ns=MS),
            FpgaWatchdog(sim, pod.nic, period_ns=MS),
            HotFlowPromoter(sim, pod.nic.rate_limiter, epoch_ns=2 * MS),
            UtilizationSampler(sim, pod.cores, MS),
            NumaBalancer(sim, pod.cores, scan_period_ns=3 * MS, stall_ns=20 * US,
                         rng=handle.rngs.stream("balancer")),
            NumaBalancer(sim, pod.cores, enabled=False),
        )

    def run_owners(world):
        # A bypassed tenant, so the limiter's bypass set is not empty
        # when the probes restore it into the twin.
        world[0].pod.nic.rate_limiter.add_bypass(0)
        run(world[0])

    return name, build, run_owners


def _bgp_bfd_world():
    """An eBGP pair, up before the walk (its speakers declare nothing), and
    a BFD link; the run ends inside the link's second flap, both ends DOWN."""
    from repro.bgp.bfd import BfdLink
    from repro.bgp.fsm import establish_pair
    from repro.bgp.speaker import BgpSpeaker
    from repro.sim.engine import Simulator
    from repro.sim.units import MS

    def build():
        sim = Simulator()
        link = BfdLink(sim)
        speakers = [BgpSpeaker(sim, name, 65001 + i, 0x0A000001 + i)
                    for i, name in enumerate("ab")]
        sessions = establish_pair(sim, *speakers, hold_time_s=3)[:2]
        sim.run_until(100 * MS)
        return (link, *sessions)

    def run(world):
        link = world[0]
        for until, flap in ((400, link.set_down), (700, link.set_up), (1_200, link.set_down)):
            link.sim.run_until(until * MS)
            flap()
        link.sim.run_until(1_500 * MS)

    return "bgp-bfd", build, run


def _offload_world():
    """An FPGA session table through installs, hits, aging and eviction."""
    from repro.core.offload import FpgaSessionOffload
    from repro.packet.flows import flow_for_tenant
    from repro.sim.engine import Simulator
    from repro.sim.units import US

    def run(offload):
        # Fill the table, let flow 0 age past the timeout while 1-3 stay
        # hot, then install 4 (evicting 0) and bring 0 and 5 back.
        order = [0, 0, 1, 1, 2, 2, 3, 3] + [1, 2, 3] * 3 + [4, 4, 0, 0, 5, 5, 1]
        for step, tenant in enumerate(order):
            offload.sim.run_until(step * 50 * US)
            flow = flow_for_tenant(tenant, 0)
            if not offload.lookup(flow):
                offload.note_cpu_packet(flow)

    return "fpga-offload", lambda: FpgaSessionOffload(
        Simulator(), capacity=4, idle_timeout_ns=300 * US), run


def run_statecheck(seed=42):
    """Execute every check; returns a :class:`StatecheckResult`."""
    specs = [
        _scenario_spec("statecheck-plb-microburst", "plb", "microburst", seed),
        _scenario_spec("statecheck-rss-cbr", "rss", "cbr", seed + 1),
        _scenario_spec("statecheck-plb-lossy", "plb", "cbr", seed + 2,
                       silent_drop_probability=0.02),
        _scheduled_spec(seed + 3),
        _az_spec(seed + 4),
    ]
    probes = [_world_probe(spec) for spec in specs]
    derived = set()
    by_class = {}
    keyed = {}      # class name -> [instances, error] of the STATE-key check
    findings = {}   # (class name, detail) -> worlds it shows up in
    worlds = [*map(_spec_world, specs[:2]), _owners_world(specs[2]),
              *map(_spec_world, specs[3:]), _bgp_bfd_world(), _offload_world()]
    for name, build, run in worlds:
        root = build()
        try:
            for finding in check_completeness([root], lambda: run(root)):
                key = (finding.cls_name, finding.detail)
                findings[key] = findings.get(key, 0) + 1
        except RuntimeError as error:
            probes.append(ProbeResult("RunHandle", "restore", 1, False, str(error)))
            continue
        twin = [build()]
        aware = discover([root])
        for path, obj in aware:
            entry = by_class.setdefault(type(obj).__name__, [0, None])
            entry[0] += 1
            if entry[1] is None:
                error = probe_object(obj, resolve(twin, path))
                if error is not None:
                    entry[1] = f"{name}: {error}"
        # After the probes: a restore missing a key stops part way.
        for path, obj in aware:
            if _hand_written(type(obj)):
                entry = keyed.setdefault(type(obj).__name__, [0, None])
                entry[0] += 1
                if entry[1] is None:
                    error = probe_keys(obj, resolve(twin, path))
                    if error is not None:
                        entry[1] = f"{name}: {error}"
        for _path, obj, _tokens in walk([root]):
            derived.update((type(obj).__name__, attr, reason)
                           for attr, reason in _declared(type(obj))[1].items())

    probes.extend(ProbeResult(cls_name, "state", worlds, False, detail)
                  for (cls_name, detail), worlds in findings.items())
    probes.extend(ProbeResult(cls_name, "restore", instances, error is None, error or "")
                  for cls_name, (instances, error) in sorted(by_class.items()))
    probes.extend(ProbeResult(cls_name, "keys", instances, error is None, error or "")
                  for cls_name, (instances, error) in keyed.items())
    return StatecheckResult(probes, derived)
