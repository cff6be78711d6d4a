"""Ablations for the design choices called out in the paper's text.

* meta-header placement (§7): head placement costs 33.6% throughput;
* stateful NF scaling (§7): write-light scales, write-heavy collapses;
* memory frequency (§4.2): 4800 -> 5600 MHz buys ~8%;
* reorder queue count (§4.1, C1 vs C2): more queues shrink the heavy
  hitter each queue tolerates; fewer queues raise HOL risk;
* rate-limiter hash collisions (§4.3): innocent tenants sharing a meter
  entry with a dominant tenant get clipped -- until pre_check promotion
  isolates the heavy hitter.
"""

from repro.core.ratelimit import TwoStageRateLimiter
from repro.cpu.service import MemoryTimings, ServiceChain, standard_services
from repro.cpu.stateful import write_heavy_nf, write_light_nf
from repro.experiments.common import ExperimentResult
from repro.packet.hashing import crc32_vni_hash
from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
from repro.sim.units import MS, SECOND


def run_meta_placement(per_core_pps=100_000, duration_ns=150 * MS):
    """Throughput with the PLB meta at the packet tail vs head."""
    rows = []
    for placement in ("tail", "head"):
        pod_spec = PodSpec(
            data_cores=2, per_core_pps=per_core_pps, meta_placement=placement
        )
        handle = build(ScenarioSpec(
            name="scaled-pod", seed=91, duration_ns=duration_ns, pods=(pod_spec,),
            workload=WorkloadSpec(
                flows=200, tenants=20, rate_pps=int(per_core_pps * 2 * 1.3)
            ),
        )).run()
        rows.append(
            {
                "placement": placement,
                "throughput_kpps": round(handle.pod.transmitted() * 1e6 / duration_ns, 1),
            }
        )
    base = rows[0]["throughput_kpps"]
    for row in rows:
        row["relative"] = round(row["throughput_kpps"] / base, 3)
    return ExperimentResult(
        "Ablation: PLB meta placement (tail vs head)",
        rows,
        meta={"paper": "head placement degrades forwarding by 33.6%"},
    )


def run_stateful_nf(core_counts=(1, 2, 4, 8, 16, 32)):
    """Write-light vs write-heavy stateful NF scaling under PLB."""
    light = write_light_nf()
    heavy = write_heavy_nf()
    rows = []
    for cores in core_counts:
        rows.append(
            {
                "cores": cores,
                "write_light_plb_mpps": round(light.throughput_mpps(cores, "plb"), 2),
                "write_heavy_plb_mpps": round(heavy.throughput_mpps(cores, "plb"), 2),
                "write_heavy_lockfree_mpps": round(
                    heavy.throughput_mpps(cores, "plb", locked=False), 2
                ),
                "write_heavy_local_state_mpps": round(
                    heavy.throughput_mpps(cores, "plb_local"), 2
                ),
                "write_heavy_grouped_mpps": round(
                    heavy.throughput_mpps(cores, "plb_grouped", group_size=4), 2
                ),
            }
        )
    return ExperimentResult(
        "Ablation: stateful NF scaling under PLB",
        rows,
        meta={
            "paper": (
                "write-light scales ~linearly; write-heavy degrades with "
                "cores even lock-free; fixes: local state or core groups"
            )
        },
    )


def run_memory_frequency(frequencies=(4800, 5600), service="VPC-Internet"):
    """Gateway speedup from faster memory (§4.2: ~8% for 4800->5600)."""
    services = standard_services()
    rows = []
    for freq in frequencies:
        chain = ServiceChain(
            services[service], timings=MemoryTimings(memory_frequency_mhz=freq)
        )
        rows.append(
            {
                "memory_mhz": freq,
                "per_core_mpps": round(chain.per_core_mpps(), 4),
            }
        )
    base = rows[0]["per_core_mpps"]
    for row in rows:
        row["speedup_pct"] = round(100 * (row["per_core_mpps"] / base - 1), 1)
    return ExperimentResult(
        "Ablation: memory frequency",
        rows,
        meta={"paper": "+8% from 4800 to 5600 MHz"},
    )


def run_reorder_queue_tradeoff(
    queue_counts=(1, 2, 4, 8),
    per_core_pps=100_000,
    duration_ns=200 * MS,
    silent_drop_probability=0.001,
):
    """C1 vs C2: heavy-hitter tolerance vs HOL exposure.

    With total reorder buffer fixed (queue_count x depth = 8192 entries
    here), more queues mean shorter queues: the maximum heavy-hitter pps
    one queue can absorb within the 100 us timeout shrinks (C1).  Fewer
    queues concentrate flows: one silent loss blocks more traffic (C2).
    """
    total_entries = 8192
    rows = []
    for queues in queue_counts:
        depth = min(4096, total_entries // queues)
        pod_spec = PodSpec(
            data_cores=4,
            per_core_pps=per_core_pps,
            reorder_queues=queues,
            reorder_depth=depth,
            silent_drop_probability=silent_drop_probability,
        )
        handle = build(ScenarioSpec(
            name="scaled-pod", seed=97, duration_ns=duration_ns, pods=(pod_spec,),
            workload=WorkloadSpec(
                flows=400, tenants=40, rate_pps=int(per_core_pps * 4 * 0.6)
            ),
        )).run()
        stats = handle.pod.reorder_stats
        # C1: max pps one queue can buffer for the 100 us timeout window.
        tolerance_mpps = depth / 100e-6 / 1e6
        histogram = handle.pod.latency_histogram
        rows.append(
            {
                "queues": queues,
                "depth": depth,
                "hitter_tolerance_mpps": round(tolerance_mpps, 1),
                "hol_events": stats.hol_events,
                # C2: with fewer queues each HOL event blocks a larger
                # share of traffic -> heavier tail latency.
                "p999_us": round(histogram.percentile(0.999) / 1000, 1),
                "in_order": stats.in_order,
            }
        )
    return ExperimentResult(
        "Ablation: reorder queue count (C1 vs C2)",
        rows,
        meta={
            "paper": (
                "4K-entry queues buffer 100us at 40Mpps; more queues -> "
                "less tolerance per queue, fewer -> more HOL"
            )
        },
    )


def run_session_offload(core_counts=(4, 8, 16, 32, 44), hit_rate=0.99):
    """§7 roadmap: FPGA session offload for write-heavy stateful NFs.

    Analytic comparison: plain PLB (coherence collapse) vs PLB + session
    offload (CPU only sees session setups; counters live on the FPGA).
    """
    from repro.core.offload import offload_throughput_mpps

    heavy = write_heavy_nf()
    rows = []
    for cores in core_counts:
        rows.append(
            {
                "cores": cores,
                "write_heavy_plb_mpps": round(heavy.throughput_mpps(cores, "plb"), 2),
                "with_offload_mpps": round(
                    offload_throughput_mpps(heavy, cores, hit_rate), 2
                ),
                "rss_mpps": round(heavy.throughput_mpps(cores, "rss"), 2),
            }
        )
    return ExperimentResult(
        "Ablation: FPGA session offloading for write-heavy NFs",
        rows,
        meta={
            "offload_hit_rate": hit_rate,
            "paper": "§7: offload sessions to FPGA to recover stateful scaling",
        },
    )


def run_session_offload_sim(
    per_core_pps=100_000,
    duration_ns=200 * MS,
    flows=200,
):
    """Simulated offload: measured CPU load and fast-path hit rate."""
    rows = []
    for offloaded in (False, True):
        pod_spec = PodSpec(
            data_cores=4, per_core_pps=per_core_pps,
            offload_capacity=4096 if offloaded else None,
        )
        handle = build(ScenarioSpec(
            name="scaled-pod", seed=113, duration_ns=duration_ns, pods=(pod_spec,),
            workload=WorkloadSpec(
                flows=flows, tenants=20, rate_pps=int(per_core_pps * 4 * 0.8)
            ),
        )).run()
        cpu_packets = sum(core.stats.processed for core in handle.pod.cores)
        row = {
            "offload": "on" if offloaded else "off",
            "transmitted": handle.pod.transmitted(),
            "cpu_packets": cpu_packets,
            "fast_path_packets": handle.pod.counters.get("offload_fast_path"),
        }
        if offloaded:
            row["hit_rate"] = round(handle.pod.nic.session_offload.hit_rate, 3)
        rows.append(row)
    return ExperimentResult(
        "Ablation: session offload fast path (simulated)",
        rows,
        meta={"flows": flows},
    )


def run_ratelimit_collisions(
    tenants=2000,
    meter_entries=256,
    dominant_vni=7,
    duration_ns=2 * SECOND,
    seed=101,
):
    """Hash-collision false positives and the pre_check fix.

    A dominant tenant floods; innocent tenants that share its meter-table
    entry get clipped once their color-table stage overflows.  With
    auto-promotion, the sampler moves the dominant tenant to pre_meter
    within ~a second and the collateral damage stops.
    """
    from repro.sim.rng import RngRegistry

    rows = []
    for auto_promote in (False, True):
        rngs = RngRegistry(seed=seed)
        limiter = TwoStageRateLimiter(
            rngs.stream("limiter"),
            stage1_rate_pps=1000,
            stage2_rate_pps=200,
            color_entries=64,
            meter_entries=meter_entries,
            auto_promote=auto_promote,
            sample_rate=10,
        )
        victims = _collision_victims(limiter, dominant_vni, tenants)
        outcome = _drive_limiter(limiter, dominant_vni, victims, duration_ns, rngs)
        rows.append(
            {
                "pre_check": "on" if auto_promote else "off",
                "victim_drop_rate": round(outcome["victim_drop_rate"], 4),
                "dominant_delivered_pps": round(outcome["dominant_pps"], 0),
                "promotions": limiter.promotions,
            }
        )
    return ExperimentResult(
        "Ablation: meter-table collisions and pre_check",
        rows,
        meta={"paper": "pre_check isolates heavy hitters from innocents"},
    )


def _collision_victims(limiter, dominant_vni, tenants):
    """Innocent VNIs doubly colliding with the dominant tenant.

    The paper's failure mode needs both collisions at once: the victim
    shares the dominant's *color-table* entry (``VNI % color_entries``),
    so the dominant's flood overflows the victim's stage 1 and marks its
    traffic; and the victim hashes to the dominant's *meter-table* entry,
    so stage 2 drops it too.
    """
    meter_target = crc32_vni_hash(dominant_vni, seed=0x3E7E) % limiter.meter_entries
    color_target = dominant_vni % limiter.color_entries
    victims = []
    vni = dominant_vni + limiter.color_entries
    while len(victims) < 3 and vni < dominant_vni + tenants * limiter.color_entries:
        if (
            vni % limiter.color_entries == color_target
            and crc32_vni_hash(vni, seed=0x3E7E) % limiter.meter_entries
            == meter_target
        ):
            victims.append(vni)
        vni += limiter.color_entries
    return victims


def _drive_limiter(limiter, dominant_vni, victims, duration_ns, rngs):
    """Offer dominant traffic far over its limit and victim traffic well
    *under* the per-entry limits (innocent): victims only suffer through
    the double hash collision with the dominant tenant."""
    step_ns = 100_000  # 10 kHz event grid
    dominant_per_step = 2           # 20 Kpps: far over the 1.2 Kpps limit
    victim_period_steps = 50        # 200 pps per victim: innocent traffic
    victim_sent = {vni: 0 for vni in victims}
    victim_dropped = {vni: 0 for vni in victims}
    dominant_allowed = 0
    now = 0
    step = 0
    while now < duration_ns:
        for _ in range(dominant_per_step):
            decision = limiter.admit(dominant_vni, now)
            if decision.allowed:
                dominant_allowed += 1
        if step % victim_period_steps == 0:
            for vni in victims:
                victim_sent[vni] += 1
                if not limiter.admit(vni, now).allowed:
                    victim_dropped[vni] += 1
        now += step_ns
        step += 1
    total_sent = sum(victim_sent.values())
    total_dropped = sum(victim_dropped.values())
    return {
        "victim_drop_rate": total_dropped / total_sent if total_sent else 0.0,
        "dominant_pps": dominant_allowed / (duration_ns / SECOND),
    }
