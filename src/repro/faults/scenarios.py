"""Named graceful-degradation scenarios: ``python -m repro faults <name>``.

Each scenario builds a small deployment, injects one fault (or, for
``chaos``, a seeded random plan) and reports how the platform degraded
and recovered.  Every report carries the same three headline metrics --
``detection_latency_ms``, ``blackout_drops`` and
``time_to_steady_state_ms`` -- plus scenario-specific detail, and is
fully deterministic for a given seed: running a scenario twice with the
same seed renders byte-identical output.

Scenarios:

* ``pod-crash-reschedule`` -- a GW pod dies; BFD detects it in 3 x 50 ms,
  the proxy withdraws its route, the fleet scheduler re-places the pod on
  another server and the replacement advertises after the container
  prepare delay (§7's ~10 s, scaled down in ``--quick`` mode).
* ``core-stall-plb-vs-rss`` -- one data core stalls under identical load
  in a PLB pod and an RSS pod.  PLB sprays around the dead doorbell; RSS
  keeps hashing flows into the dead core's queue until it overflows.
* ``bfd-flap`` -- a link flap against paper-faithful BFD timers
  (50 ms x 3): detection within three probe intervals, three-way
  handshake recovery.
* ``limiter-reset`` -- an SRAM scrub wipes the two-stage rate limiter's
  token buckets: a transient over-admission burst, then re-convergence
  and heavy-hitter re-promotion.
* ``chaos`` -- a seeded random plan over a full pod (FPGA watchdog, BFD,
  limiter all armed); same seed, same faults, same metrics.
"""

from repro.bgp.bfd import BfdLink
from repro.container.elasticity import ElasticityManager
from repro.container.scheduler import FleetScheduler, ServerSpec
from repro.core.ratelimit import TwoStageRateLimiter
from repro.core.watchdog import FpgaWatchdog
from repro.faults.injector import FaultInjector, FaultTargets, SteadyStateTracker
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.metrics.counters import CounterSet
from repro.scenarios import PodSpec, ScenarioSpec, build, lookup
from repro.sim.units import MS, SECOND, US
from repro.workloads.generators import CbrSource, uniform_population


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _ms(ns):
    """Nanoseconds -> float milliseconds (or 'unreached')."""
    if ns is None:
        return "unreached"
    return ns / MS


class ScenarioReport:
    """Ordered key/value report with deterministic rendering."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.values = {}
        self._order = []
        self.records = []
        self.metrics = None

    def add(self, key, value):
        if key not in self.values:
            self._order.append(key)
        self.values[key] = value

    def get(self, key):
        return self.values.get(key)

    def render(self):
        lines = [f"scenario: {self.name} (seed {self.seed})"]
        lines.extend(f"  {key}: {_fmt(self.values[key])}" for key in self._order)
        return "\n".join(lines)

    def to_dict(self):
        return {
            "scenario": self.name,
            "seed": self.seed,
            **{key: self.values[key] for key in self._order},
        }

    def rows(self):
        """The common one-row-per-report shape (see ``format_table``)."""
        return [self.to_dict()]


def _add_headline(report, record):
    """The three metrics every scenario must report."""
    report.add("detection_latency_ms", _ms(record.detection_latency_ns))
    report.add("blackout_drops", record.blackout_drops)
    report.add("time_to_steady_state_ms", _ms(record.time_to_steady_state_ns))


# ---------------------------------------------------------------------------
# pod-crash-reschedule
# ---------------------------------------------------------------------------

def pod_crash_reschedule(seed=42, quick=False):
    """GW pod crash -> BFD detect -> withdraw -> reschedule -> re-announce."""
    rate_pps = 20_000 if quick else 10_000
    crash_at = 200 * MS if quick else 300 * MS
    prepare_ns = 150 * MS if quick else 10 * SECOND
    window_ns = 20 * MS if quick else 250 * MS
    run_ns = crash_at + 300 * MS + prepare_ns + (350 * MS if quick else 2 * SECOND)

    handle = build(ScenarioSpec(
        name="pod-crash-reschedule",
        pods=(PodSpec(name="gw-a", data_cores=4),),
        duration_ns=run_ns,
        seed=seed,
    ))
    sim, rngs, server = handle.sim, handle.rngs, handle.server
    pod = handle.pods["gw-a"]

    fleet = FleetScheduler([ServerSpec("server-0"), ServerSpec("server-1")])
    fleet.place_pod("gw-a", cores=6)

    targets = FaultTargets(pod=pod)
    tracker = SteadyStateTracker(
        sim,
        lambda: sum(p.transmitted() for p in server.pods.values()),
        window_ns=window_ns,
    )
    injector = FaultInjector(sim, targets, tracker=tracker)

    # The "router": traffic follows the currently-announced pod.  While
    # no route is announced (or the announced pod is dead) packets
    # blackhole, which is exactly the blackout the metrics must capture.
    router = {"target": pod}

    def route(packet):
        target = router["target"]
        if target is None or target.crashed:
            record = injector.active_record(FaultKind.POD_CRASH)
            if record is not None:
                record.blackout_drops += 1
            return
        target.ingress(packet)

    population = uniform_population(128, tenants=8)
    CbrSource(sim, rngs.stream("traffic"), route, population, rate_pps=rate_pps)

    def prepare(name):
        server.add_pod(PodSpec(name=name, data_cores=4))

    def advertise(name):
        router["target"] = server.pods[name]
        injector.note_recovered(FaultKind.POD_CRASH)

    def withdraw(_name):
        router["target"] = None

    elasticity = ElasticityManager(
        sim,
        prepare_fn=prepare,
        validate_fn=lambda name: True,
        advertise_fn=advertise,
        withdraw_fn=withdraw,
        prepare_ns=prepare_ns,
    )

    recovery = {"started": False}

    def on_bfd_down(_session):
        record = injector.note_detected(FaultKind.POD_CRASH)
        if record is None or recovery["started"]:
            return
        recovery["started"] = True
        fleet.reschedule_pod("gw-a", exclude_servers=("server-0",))
        elasticity.start_replacement("gw-a", "gw-a-r")

    link = BfdLink(sim, on_down=on_bfd_down)
    targets.link = link

    injector.load(FaultPlan([Fault(FaultKind.POD_CRASH, crash_at, duration_ns=None)]))
    handle.run()

    report = ScenarioReport("pod-crash-reschedule", seed)
    report.records = injector.records
    report.metrics = injector.finalize()
    record = injector.records[0]
    _add_headline(report, record)
    report.add("recovery_latency_ms", _ms(
        None if record.recovered_ns is None
        else record.recovered_ns - record.injected_ns
    ))
    report.add("bfd_detect_budget_ms", _ms(link.a.detect_time_ns))
    report.add("bfd_down_events", link.a.down_events + link.b.down_events)
    new_server, new_node = fleet.placements["gw-a"]
    report.add("rescheduled_to", f"{new_server}/numa{new_node}")
    report.add("pod_prepare_ms", _ms(prepare_ns))
    report.add("delivered_total", sum(p.transmitted() for p in server.pods.values()))
    return report


# ---------------------------------------------------------------------------
# core-stall-plb-vs-rss
# ---------------------------------------------------------------------------

def core_stall_plb_vs_rss(seed=42, quick=False):
    """Stall one data core under PLB and RSS; compare the degradation."""
    rate_pps = 20_000 if quick else 40_000
    stall_at = 100 * MS if quick else 300 * MS
    stall_ns = 200 * MS if quick else 500 * MS
    window_ns = 20 * MS if quick else 50 * MS
    run_ns = stall_at + stall_ns + (200 * MS if quick else 700 * MS)

    handle = build(ScenarioSpec(
        name="core-stall-plb-vs-rss",
        pods=(
            PodSpec(name="plb-pod", data_cores=4, mode="plb", rx_capacity=64),
            PodSpec(name="rss-pod", data_cores=4, mode="rss", rx_capacity=64),
        ),
        duration_ns=run_ns,
        seed=seed,
    ))
    sim, rngs = handle.sim, handle.rngs
    pods = {"plb": handle.pods["plb-pod"], "rss": handle.pods["rss-pod"]}

    population = uniform_population(128, tenants=8)
    injectors, trackers, marks = {}, {}, {}
    # sorted: this loop schedules capture events, so iteration order is
    # event order ("plb" < "rss" matches the literal above).
    for mode, pod in sorted(pods.items()):
        trackers[mode] = SteadyStateTracker(
            sim, pod.transmitted, window_ns=window_ns
        )
        injectors[mode] = FaultInjector(
            sim, FaultTargets(cores=pod.cores), tracker=trackers[mode]
        )
        injectors[mode].load(
            FaultPlan([Fault(FaultKind.CORE_STALL, stall_at, stall_ns, target=1)])
        )
        CbrSource(
            sim, rngs.stream(f"traffic.{mode}"), pod.ingress, population,
            rate_pps=rate_pps,
        )
        marks[mode] = {}

        def capture(mode=mode, key="start"):
            marks[mode][key] = pods[mode].transmitted()

        sim.schedule_at(stall_at, capture, mode, "start")
        sim.schedule_at(stall_at + stall_ns, capture, mode, "end")

    # The FPGA notices the dead doorbell on its next poll (~10 us) and
    # starts spraying around the core; RSS has no such signal -- its
    # record is only closed (detection backfilled) when the core heals.
    sim.schedule_at(
        stall_at + 10 * US, injectors["plb"].note_detected, FaultKind.CORE_STALL
    )

    handle.run()

    report = ScenarioReport("core-stall-plb-vs-rss", seed)
    for mode, pod in pods.items():
        record = injectors[mode].records[0]
        record.blackout_drops = (
            pod.counters.get("rx_queue_drops") + pod.nic.plb.dead_core_drops
        )
        report.records.append(record)
    _add_headline(report, injectors["plb"].records[0])
    for mode, pod in pods.items():
        record = injectors[mode].records[0]
        delivered = marks[mode].get("end", 0) - marks[mode].get("start", 0)
        report.add(f"{mode}_detection_latency_ms", _ms(record.detection_latency_ns))
        report.add(f"{mode}_delivered_during_stall", delivered)
        report.add(f"{mode}_rx_queue_drops", pod.counters.get("rx_queue_drops"))
        report.add(
            f"{mode}_time_to_steady_state_ms", _ms(record.time_to_steady_state_ns)
        )
    report.add("offered_during_stall", int(rate_pps * stall_ns / SECOND))
    report.metrics = injectors["plb"].finalize()
    injectors["rss"].finalize()
    return report


# ---------------------------------------------------------------------------
# bfd-flap
# ---------------------------------------------------------------------------

def bfd_flap(seed=42, quick=False):
    """Link flap against paper-faithful BFD timers (50 ms x 3)."""
    flap_at = 500 * MS
    flap_ns = 400 * MS
    window_ns = 250 * MS
    run_ns = 1400 * MS if quick else 2 * SECOND

    # Control-plane only: the spec declares no pods, so build() yields
    # just the seeded simulator to hang the BFD machinery on.
    handle = build(ScenarioSpec(name="bfd-flap", duration_ns=run_ns, seed=seed))
    sim = handle.sim
    targets = FaultTargets()
    injector = FaultInjector(sim, targets)

    def on_down(_session):
        injector.note_detected(FaultKind.LINK_FLAP)

    def on_up(_session):
        if targets.link is not None and targets.link.sessions_up:
            injector.note_recovered(FaultKind.LINK_FLAP)

    link = BfdLink(sim, on_down=on_down, on_up=on_up)
    targets.link = link
    injector.tracker = SteadyStateTracker(
        sim,
        lambda: link.a.probes_received + link.b.probes_received,
        window_ns=window_ns,
        tolerance=0.2,
    )

    injector.load(FaultPlan([Fault(FaultKind.LINK_FLAP, flap_at, flap_ns)]))
    handle.run()

    report = ScenarioReport("bfd-flap", seed)
    report.records = injector.records
    record = injector.records[0]
    record.blackout_drops = link.probes_lost
    report.metrics = injector.finalize()
    _add_headline(report, record)
    report.add("bfd_detect_budget_ms", _ms(link.a.detect_time_ns))
    report.add("probes_lost", link.probes_lost)
    report.add("down_events", link.a.down_events + link.b.down_events)
    report.add("recovery_latency_ms", _ms(
        None if record.recovered_ns is None
        else record.recovered_ns - (flap_at + flap_ns)
    ))
    report.add("sessions_up", link.sessions_up)
    return report


# ---------------------------------------------------------------------------
# limiter-reset
# ---------------------------------------------------------------------------

def limiter_reset(seed=42, quick=False):
    """SRAM scrub wipes the token buckets: over-admit burst, re-converge."""
    corrupt_at = 800 * MS if quick else 1200 * MS
    run_ns = corrupt_at + (700 * MS if quick else 1300 * MS)
    window_ns = 100 * MS
    heavy_vni = 7
    heavy_pps = 5_000
    background = ((11, 800), (12, 800))

    handle = build(ScenarioSpec(name="limiter-reset", duration_ns=run_ns, seed=seed))
    sim, rngs = handle.sim, handle.rngs
    limiter = TwoStageRateLimiter(
        rngs.stream("limiter.sampler"), stage1_rate_pps=2_000, stage2_rate_pps=500
    )
    counters = CounterSet()

    targets = FaultTargets(limiter=limiter)
    tracker = SteadyStateTracker(
        sim,
        lambda: limiter.decisions_dropped(),
        window_ns=window_ns,
        tolerance=0.1,
    )
    injector = FaultInjector(sim, targets, metrics=counters, tracker=tracker)

    def offer(vni):
        decision = limiter.admit(vni, sim.now)
        counters.incr(f"decision.{decision.value}")
        record = injector.active_record(FaultKind.LIMITER_SRAM)
        if record is None:
            return
        if not decision.allowed:
            # First enforcement after the scrub: buckets have drained
            # back to steady state, the limiter has re-converged.
            injector.note_recovered(FaultKind.LIMITER_SRAM)
        elif vni == heavy_vni:
            record.notes["over_admissions"] = (
                record.notes.get("over_admissions", 0) + 1
            )

    sim.every(SECOND // heavy_pps, offer, heavy_vni)
    for vni, pps in background:
        sim.every(SECOND // pps, offer, vni)

    promoted_before = {"value": 0}
    sim.schedule_at(
        corrupt_at - 1,
        lambda: promoted_before.__setitem__("value", limiter.promotions),
    )
    injector.load(FaultPlan([Fault(FaultKind.LIMITER_SRAM, corrupt_at, 0)]))
    handle.run()

    report = ScenarioReport("limiter-reset", seed)
    report.records = injector.records
    report.metrics = injector.finalize()
    record = injector.records[0]
    _add_headline(report, record)
    report.add("buckets_wiped", record.notes.get("buckets_wiped", 0))
    report.add("over_admissions", record.notes.get("over_admissions", 0))
    report.add("promotions_before_reset", promoted_before["value"])
    report.add("promotions_total", limiter.promotions)
    report.add("sram_resets", limiter.sram_resets)
    report.add("drops_total", limiter.decisions_dropped())
    return report


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------

def chaos(seed=42, quick=False):
    """Seeded random plan over a fully-armed pod; same seed, same output."""
    run_ns = 1500 * MS if quick else 2500 * MS
    fault_count = 4 if quick else 6
    rate_pps = 20_000

    handle = build(ScenarioSpec(
        name="chaos",
        pods=(PodSpec(name="gw-chaos", data_cores=4, rx_capacity=256),),
        duration_ns=run_ns,
        seed=seed,
    ))
    sim, rngs = handle.sim, handle.rngs
    pod = handle.pods["gw-chaos"]
    # Attached live rather than declared on the PodSpec: the fault
    # targets need the limiter object, and its historical stream name
    # is not the one build() derives from the pod name.
    limiter = TwoStageRateLimiter(
        rngs.stream("limiter.sampler"),
        stage1_rate_pps=15_000,
        stage2_rate_pps=5_000,
    )
    pod.nic.rate_limiter = limiter

    targets = FaultTargets(
        nic=pod.nic, pod=pod, cores=pod.cores, limiter=limiter
    )
    tracker = SteadyStateTracker(sim, pod.transmitted, window_ns=50 * MS)
    injector = FaultInjector(sim, targets, tracker=tracker)

    def on_down(_session):
        if pod.crashed:
            injector.note_detected(FaultKind.POD_CRASH)
        else:
            injector.note_detected(FaultKind.LINK_FLAP)

    def on_up(_session):
        if targets.link is not None and targets.link.sessions_up:
            injector.note_recovered(FaultKind.LINK_FLAP)

    link = BfdLink(sim, on_down=on_down, on_up=on_up)
    targets.link = link

    def on_reset(_watchdog):
        injector.note_detected(FaultKind.FPGA_STALL)
        injector.note_recovered(FaultKind.FPGA_STALL)

    watchdog = FpgaWatchdog(sim, pod.nic, on_reset=on_reset)

    population = uniform_population(128, tenants=8)
    CbrSource(
        sim, rngs.stream("traffic"), pod.ingress, population, rate_pps=rate_pps
    )

    plan = FaultPlan.chaos(
        rngs.stream("chaos.plan"),
        duration_ns=run_ns - 300 * MS,
        count=fault_count,
        max_fault_ns=250 * MS,
        core_count=len(pod.cores),
    )
    injector.load(plan)
    handle.run()

    report = ScenarioReport("chaos", seed)
    report.records = injector.records
    report.metrics = injector.finalize()
    report.add("faults_injected", len(injector.records))
    report.add(
        "plan", ",".join(f"{f.kind.value}@{f.at_ns // MS}ms" for f in plan)
    )
    report.add("watchdog_resets", watchdog.resets)
    report.add("bfd_down_events", link.a.down_events + link.b.down_events)
    report.add("delivered_total", pod.transmitted())
    for name, value in sorted(report.metrics.snapshot().items()):
        report.add(name, value)
    for name, value in sorted(pod.counters.snapshot().items()):
        report.add(f"pod.{name}", value)
    return report


#: name -> scenario, in name order (``faults all`` runs this order).
SCENARIOS = {
    "bfd-flap": bfd_flap,
    "chaos": chaos,
    "core-stall-plb-vs-rss": core_stall_plb_vs_rss,
    "limiter-reset": limiter_reset,
    "pod-crash-reschedule": pod_crash_reschedule,
}


def run_scenario(name, seed=42, quick=False):
    """Run one named scenario; returns its :class:`ScenarioReport`."""
    return lookup(SCENARIOS, name, "fault scenario")(seed=seed, quick=quick)
