"""The paper's claims as data: one row per claim, read by three consumers.

A :class:`Claim` names the experiment whose result it reads (a key of
:data:`repro.experiments.runner.EXPERIMENTS`), quotes the paper, and
holds one ``measure(result)`` extractor and one ``holds(value)``
predicate.  The same predicate applies at full and quick size: a claim
that needed a looser quick tolerance would mean the quick size is wrong.

* tier-1 checks every claim at quick size;
* ``python -m repro experiment <name|all>`` prints each claim's verdict
  after the experiment's table and exits 1 if one fails;
* EXPERIMENTS.md records each claim under its id.

Scaled experiments quote the paper's number scaled the same way: Fig.
13/14 run at 1/200 of the paper's rates.
"""

from typing import Callable, NamedTuple, Optional

from repro.experiments.common import _fmt


class Claim(NamedTuple):
    id: str
    experiment: str
    statement: str
    measure: Callable
    holds: Callable
    paper: Optional[float] = None

    def check(self, result):
        """``(holds, verdict line)`` for this claim on ``result``."""
        value = self.measure(result)
        ok = bool(self.holds(value))
        line = f"  [{'holds' if ok else 'FAILS'}] {self.id}: {_render(value)}"
        if self.paper is not None:
            line += f" (paper {self.paper:g}, measured/paper {value / self.paper:.3f})"
        return ok, line


def claims_for(experiment):
    return [claim for claim in CLAIMS if claim.experiment == experiment]


def _render(value):
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_render(item) for item in value) + ")"
    if isinstance(value, dict):
        return ", ".join(f"{key} {_render(item)}" for key, item in value.items())
    return _fmt(value)


def _row(result, key, value):
    """The row whose ``key`` column reads ``value``."""
    return next(row for row in result.rows() if row[key] == value)


def _rows(result, key, value):
    return [row for row in result.rows() if row[key] == value]


def _cols(row, *columns):
    return tuple(row[column] for column in columns)


def _ratio(result, key, column, top, bottom):
    return _row(result, key, top)[column] / _row(result, key, bottom)[column]


def _near(target, tolerance):
    return lambda value: abs(value - target) <= tolerance


def _max_rel_error(result, column, reference):
    return max(abs(row[column] / row[reference] - 1) for row in result.rows())


def _dma_share(result):
    dma, total = _row(result, "module", "dma"), _row(result, "module", "Sum")
    return (dma["rx_us"] + dma["tx_us"]) / (total["rx_us"] + total["tx_us"])


def _rss_over_plb_p99(result):
    plb = {row["load_pct"]: row["p99_us"] for row in _rows(result, "mode", "plb")}
    return {row["load_pct"]: row["p99_us"] / plb[row["load_pct"]]
            for row in _rows(result, "mode", "rss")}


def _post_burst(result):
    """Mean delivered Kpps per tenant from the 1250 ms bucket on, once the
    Fig. 13/14 burst has settled; empty if the run ended before it."""
    rows = [row for row in result.rows() if row["t_ms"] >= 1250]
    tenants = [key for key in result.rows()[0] if key.startswith("tenant")]
    return {key: sum(row[key] for row in rows) / len(rows) for key in tenants if rows}


CLAIMS = [
    Claim("tab1.utilization", "tab1", "Sailfish on Tofino: pipes 0,2 use 69.2% SRAM / "
          "40.3% TCAM / 97.0% PHV; pipes 1,3 use 96.4% / 66.7% / 82.3%",
          lambda r: max(abs(row[f"{res}_pct"] - row[f"paper_{res}"])
                        for row in r.rows() for res in ("sram", "tcam", "phv")),
          lambda v: v <= 0.5),
    Claim("tab1.evolution-fails", "tab1",
          "new headers, large tables and long-chained functions fail to compile",
          lambda r: r.meta["evolution_attempts"],
          lambda v: v == {"new header (Geneve)": "phv", "new header (NSH)": "phv",
                          "large table": "memory", "long-chained function": "stage"}),
    Claim("tab3.service-rates", "tab3", "VPC-VPC 128.8, VPC-Internet 81.6, VPC-IDC "
          "119.4, VPC-CloudService 126.3 Mpps on 88 data cores",
          lambda r: _max_rel_error(r, "albatross_mpps", "paper_mpps"),
          lambda v: v <= 0.02),
    Claim("tab3.vpc-internet-slowest", "tab3", "VPC-Internet is the slowest service",
          lambda r: min(r.rows(), key=lambda row: row["albatross_mpps"])["service"],
          lambda v: v == "VPC-Internet"),
    Claim("tab3.simulation-agrees", "tab3", "(model check) queueing and reordering in "
          "the simulated pipeline do not eat the analytic rate",
          lambda r: _max_rel_error(r, "sim_mpps", "albatross_mpps"), lambda v: v <= 0.1),
    Claim("tab4.rx-total", "tab4", "NIC pipeline latency RX 3.90 µs",
          lambda r: _row(r, "module", "Sum")["rx_us"], _near(3.90, 0.01), paper=3.90),
    Claim("tab4.tx-total", "tab4", "NIC pipeline latency TX 4.17 µs",
          lambda r: _row(r, "module", "Sum")["tx_us"], _near(4.17, 0.01), paper=4.17),
    Claim("tab4.dma-dominates", "tab4", "the NIC latency is DMA-dominated",
          _dma_share, lambda v: v > 0.7),
    Claim("tab4.unloaded-latency", "tab4", "RX + TX add ~8 µs to an unloaded packet",
          lambda r: r.meta["measured_unloaded_us"], _near(8.07, 0.3), paper=8.07),
    Claim("tab5.lut-total", "tab5", "the NIC takes 60.0% of the FPGA's LUTs",
          lambda r: _row(r, "module", "Sum")["lut_pct"], _near(60.0, 0.1), paper=60.0),
    Claim("tab5.bram-total", "tab5", "the NIC takes 44.5% of the FPGA's BRAM",
          lambda r: _row(r, "module", "Sum")["bram_pct"], _near(44.5, 0.1), paper=44.5),
    Claim("tab5.plb-overload-lut", "tab5", "PLB + overload detection take 14.6% LUT",
          lambda r: sum(_row(r, "module", name)["lut_pct"]
                        for name in ("plb", "overload_detection")),
          _near(14.6, 0.1), paper=14.6),
    Claim("tab5.plb-bram", "tab5", "PLB + overload detection take 5% BRAM",
          lambda r: r.meta["plb_bram_estimate_pct"], lambda v: 3.0 < v < 7.0, paper=5.0),
    Claim("tab6.lpm-capacity", "tab6", ">10M vs 0.2M LPM rules",
          lambda r: tuple(_row(r, "gateway", gateway)["lpm_rules_m"]
                          for gateway in ("Albatross", "Sailfish")),
          lambda v: v[0] > 10 and v[1] == 0.2),
    Claim("tab6.elasticity", "tab6", "10 s vs days elasticity",
          lambda r: _row(r, "gateway", "Albatross")["elasticity"],
          lambda v: "second" in v),
    Claim("tab6.cost", "tab6", "2x device cost, 0.5x AZ cost",
          lambda r: tuple(_ratio(r, "gateway", column, "Albatross", "Sailfish")
                          for column in ("price_device", "price_az")),
          lambda v: v == (2.0, 0.5)),
    Claim("tab6.performance", "tab6", "800 vs 3200 Gbps; ~120 vs 1800 Mpps; 20 vs 2 µs",
          lambda r: (_ratio(r, "gateway", "throughput_gbps", "Sailfish", "Albatross"),
                     _row(r, "gateway", "Sailfish")["packet_rate_mpps"],
                     _ratio(r, "gateway", "latency_us", "Albatross", "Sailfish")),
          lambda v: v == (4, 1800, 10)),
    Claim("fig4.gap-under-1pct", "fig4_fig5",
          "PLB ≈ RSS per-core throughput, gap <1%, at 1/20/40 cores",
          lambda r: max(r.column("plb_vs_rss_gap_pct")), lambda v: v < 1.0),
    Claim("fig4.per-core-flat", "fig4_fig5",
          "per-core throughput does not depend on the core count",
          lambda r: max(r.column("per_core_kpps")) / min(r.column("per_core_kpps")),
          lambda v: v < 1.05),
    Claim("fig5.hit-rate-30-45pct", "fig4_fig5", "L3 hit rate 30–45% for both modes",
          lambda r: (min(r.column("l3_hit_rate")), max(r.column("l3_hit_rate"))),
          lambda v: 0.30 <= v[0] and v[1] <= 0.45),
    Claim("fig5.modes-same-hit-rate", "fig4_fig5",
          "PLB and RSS see the same shared-L3 hit rate",
          lambda r: max(abs(rss["l3_hit_rate"] - plb["l3_hit_rate"]) for rss, plb
                        in zip(_rows(r, "mode", "rss"), _rows(r, "mode", "plb"))),
          lambda v: v < 0.02),
    Claim("fig7.direct-caps-density", "fig7_peers",
          "the 64-peer threshold caps direct peering at 2 pods per server",
          lambda r: max(row["pods_per_server"]
                        for row in _rows(r, "direct_over_threshold", False)),
          lambda v: v == 2, paper=2),
    Claim("fig7.direct-converges-in-minutes", "fig7_peers", "32 servers × 4 pods = "
          "128 direct peers ≫ 64-peer threshold → tens-of-minutes convergence",
          lambda r: _row(r, "pods_per_server", 4)["direct_convergence_s"],
          lambda v: v > 600),
    Claim("fig7.proxy-keeps-32-peers", "fig7_peers",
          "the proxy keeps the switch at 32 peers and converges in seconds",
          lambda r: (set(r.column("proxy_peers")), max(r.column("proxy_convergence_s"))),
          lambda v: v[0] == {32} and v[1] < 10),
    Claim("fig7.routes-over-one-session", "fig7_protocol",
          "every pod's route reaches the switch over one eBGP session",
          lambda r: _cols(_row(r, "stage", "after advertisement"),
                          "switch_peers", "switch_routes"),
          lambda v: v == (1, 8)),
    Claim("fig7.pod-death-withdraws-route", "fig7_protocol",
          "a pod death withdraws exactly its route",
          lambda r: _row(r, "stage", "after pod0 death")["switch_routes"],
          lambda v: v == 7),
    Claim("fig8.rss-overloads-core", "fig8", "Heavy hitter at 130% of one core: RSS "
          "overloads core 1 with significant loss",
          # The last RSS row is the 130% point.
          lambda r: _cols(_rows(r, "mode", "rss")[-1], "core_util_max", "loss_rate"),
          lambda v: v[0] > 0.98 and v[1] > 0.15),
    Claim("fig8.rss-loss-only-past-one-core", "fig8",
          "RSS loses packets only once the hitter exceeds one core",
          lambda r: max(row["loss_rate"] for row in _rows(r, "mode", "rss")
                        if row["hitter_pct_of_core"] <= 75),
          lambda v: v < 0.01),
    Claim("fig8.plb-spreads-evenly", "fig8", "PLB spreads the hitter evenly, no loss",
          lambda r: tuple(max(values) for values in zip(*(
              (row["loss_rate"], row["core_util_max"] - row["core_util_min"],
               row["core_util_max"]) for row in _rows(r, "mode", "plb")))),
          lambda v: v[0] < 0.01 and v[1] < 0.05 and v[2] < 0.7),
    Claim("fig9.comparable-below-75pct", "fig9",
          "P99 latency: no significant difference below 75% load",
          lambda r: _rss_over_plb_p99(r)[50], lambda v: v < 5),
    Claim("fig9.plb-wins-past-75pct", "fig9", "PLB wins above 75% load",
          lambda r: min(v for load, v in _rss_over_plb_p99(r).items() if load > 75),
          lambda v: v > 10),
    Claim("fig9.rss-worsens-with-load", "fig9", "RSS P99 grows with load",
          lambda r: [row["p99_us"] for row in _rows(r, "mode", "rss")],
          lambda v: v == sorted(v)),
    Claim("fig9.plb-stays-flat", "fig9", "PLB P99 stays low at the highest load",
          lambda r: _rows(r, "mode", "plb")[-1]["p99_us"], lambda v: v < 1000),
    Claim("fig10.rss-stddev-far-above-plb", "fig10", "Week of production: RSS "
          "per-core-utilization stddev fluctuates far above PLB's",
          lambda r: tuple(_ratio(r, "mode", column, "rss", "plb")
                          for column in ("mean_stddev", "max_stddev")),
          lambda v: min(v) > 10),
    Claim("fig10.rss-bursts-plb-flat", "fig10", "microbursts push single RSS cores; "
          "PLB keeps cores within a fraction of a percent",
          lambda r: tuple(_row(r, "mode", mode)["max_stddev"] for mode in ("rss", "plb")),
          lambda v: v[0] > 0.03 and v[1] < 0.01),
    Claim("fig11.below-30us", "fig11", ">99% of latencies < 30 µs",
          lambda r: min(r.column("below_30us")), lambda v: v > 0.99),
    Claim("fig11.disorder-rare", "fig11", "disorder ≈ 1e-5",
          lambda r: max(r.column("disorder_rate")), lambda v: v < 1e-3, paper=1e-5),
    Claim("fig11.tail-grows-with-load", "fig11", "30–100 µs mass grows with load",
          lambda r: tuple(sum(_row(r, "pod", pod)["in_30_100us"] for pod in pods)
                          for pods in ("AB", "CD")),
          lambda v: v[0] > v[1]),
    Claim("fig12.hol-without-flag", "fig12",
          "dozens–hundreds of HOL occurrences per second",
          lambda r: _row(r, "drop_flag", "off")["hol_events_per_s"],
          lambda v: 20 < v < 2000),
    Claim("fig12.flag-removes-hol", "fig12", "Active drop flag removes them",
          lambda r: _cols(_row(r, "drop_flag", "on"), "hol_events_per_s",
                          "drop_flag_releases")
          + (_ratio(r, "drop_flag", "p99_us", "on", "off"),),
          lambda v: v[0] == 0 and v[1] > 0 and v[2] < 1),
    Claim("fig13.full-rate-before-burst", "fig13",
          "before the burst every tenant gets its rate",
          lambda r: r.rows()[0]["tenant2_kpps"], _near(15, 1.5)),
    Claim("fig13.pod-at-capacity", "fig13",
          "tenant 1 bursts 4→34 Mpps into a 20 Mpps gateway",
          lambda r: sum(_post_burst(r).values()), _near(100, 10), paper=100),
    Claim("fig13.every-tenant-loses", "fig13",
          "all four tenants lose ~50% (SLA violation)", _post_burst,
          lambda v: bool(v) and v["tenant2_kpps"] < 12 and v["tenant3_kpps"] < 8
          and v["tenant4_kpps"] < 4.5),
    Claim("fig14.tenant1-clipped", "fig14", "tenant 1 clipped to 10 Mpps in the NIC",
          lambda r: _post_burst(r).get("tenant1_kpps", 0), _near(50, 5), paper=50),
    Claim("fig14.others-unaffected", "fig14", "others unaffected", _post_burst,
          lambda v: bool(v) and all(abs(v[f"tenant{vni}_kpps"] / rate - 1) <= 0.05
                                    for vni, rate in ((2, 15), (3, 10), (4, 5)))),
    Claim("fig14.total-under-capacity", "fig14", "16 < 20 Mpps total",
          lambda r: sum(_post_burst(r).values()), lambda v: 0 < v < 100, paper=80),
    Claim("fig15.32-gateways-on-8-servers", "fig15",
          "32 physical gateways → 8 Albatross servers; −75% servers",
          lambda r: (*r.column("devices"), r.meta["server_reduction_pct"]),
          lambda v: v == (32, 8, 75)),
    Claim("fig15.cost", "fig15", "−50% cost",
          lambda r: r.meta["cost_reduction_pct"], lambda v: v == 50, paper=50),
    Claim("fig15.power", "fig15", "−40% power (12,000 W → 7,200 W)",
          lambda r: (*r.column("power_w"), r.meta["power_reduction_pct"]),
          lambda v: v == (12_000, 7_200, 40)),
    Claim("fig16.cross-numa-minus-14pct", "fig16",
          "Cross-NUMA placement degrades VPC-VPC by 14%",
          lambda r: _ratio(r, "placement", "throughput_kpps", "cross", "intra"),
          _near(0.86, 0.02), paper=0.86),
    Claim("fig17.balancing-bursts", "fig17",
          "numa_balancing on → latency bursts at 90% load",
          lambda r: (_ratio(r, "numa_balancing", "max_us", "on", "off"),
                     _row(r, "numa_balancing", "on")["balancer_scans"]),
          lambda v: v[0] > 3 and v[1] > 0),
    Claim("fig17.off-is-flat", "fig17", "off → flat",
          lambda r: _cols(_row(r, "numa_balancing", "off"), "p50_us", "p99_us", "max_us"),
          lambda v: v[1] < 30 and v[2] < 2 * v[0]),
    Claim("meta.head-minus-33.6pct", "ablation_meta", "Meta at packet head "
          "(private-room copy) degrades forwarding by 33.6%; tail placement free",
          lambda r: _ratio(r, "placement", "throughput_kpps", "head", "tail"),
          _near(0.664, 0.02), paper=0.664),
    Claim("stateful.write-light-scales", "ablation_stateful",
          "Write-light scales ~linearly",
          lambda r: _ratio(r, "cores", "write_light_plb_mpps", 32, 4), lambda v: v > 6),
    Claim("stateful.write-heavy-anti-scales", "ablation_stateful",
          "write-heavy degrades *as cores are added*",
          lambda r: [row["write_heavy_plb_mpps"] for row in r.rows() if row["cores"] >= 4],
          lambda v: max(v[1:]) < v[0]),
    Claim("stateful.lock-free-too", "ablation_stateful", "even lock-free",
          lambda r: _cols(_row(r, "cores", 44), "write_heavy_plb_mpps",
                          "write_heavy_lockfree_mpps"),
          lambda v: v[1] < 2 * v[0]),
    Claim("stateful.fixes", "ablation_stateful", "fixes: per-core state, core grouping",
          lambda r: _cols(_row(r, "cores", 44), "write_heavy_plb_mpps",
                          "write_heavy_grouped_mpps", "write_heavy_local_state_mpps"),
          lambda v: v[0] < v[1] < v[2] and v[2] > 10 * v[0]),
    Claim("memfreq.plus-8pct", "ablation_memfreq",
          "4800→5600 MHz ≈ +8% gateway performance",
          lambda r: r.rows()[-1]["speedup_pct"], _near(8, 1.5), paper=8),
    Claim("memfreq.monotone", "ablation_memfreq", "faster memory is faster at every step",
          lambda r: r.column("per_core_mpps"),
          lambda v: all(a < b for a, b in zip(v, v[1:]))),
    Claim("reorder.more-queues-less-tolerance", "ablation_reorder",
          "C1: more queues (fixed buffer) → less heavy-hitter tolerance per queue",
          lambda r: r.column("hitter_tolerance_mpps"),
          lambda v: v == sorted(v, reverse=True) and v[0] >= 2 * v[-1]),
    Claim("reorder.fewer-queues-worse-hol", "ablation_reorder",
          "C2: fewer queues → worse HOL exposure",
          lambda r: r.column("p999_us"), lambda v: v[0] > v[-1]),
    Claim("collisions.innocents-limited", "ablation_collisions",
          "Innocents colliding with a dominant tenant get falsely limited",
          lambda r: _row(r, "pre_check", "off")["victim_drop_rate"], lambda v: v > 0.5),
    Claim("collisions.pre-check-fixes", "ablation_collisions",
          "pre_check promotion fixes it within ~1 s",
          lambda r: _cols(_row(r, "pre_check", "on"), "victim_drop_rate", "promotions",
                          "dominant_delivered_pps"),
          lambda v: v[0] < 0.1 and v[1] >= 1 and v[2] < 1500),
    Claim("offload.recovers-scaling", "ablation_offload",
          "Offload sessions to FPGA to fix write-heavy NFs",
          lambda r: _cols(_row(r, "cores", 44), "with_offload_mpps",
                          "write_heavy_plb_mpps", "rss_mpps"),
          lambda v: v[0] > 10 * v[1] and v[0] >= v[2]),
    Claim("offload.sessions-bypass-cpu", "ablation_offload_sim",
          "(simulated) established sessions bypass the CPU",
          lambda r: (_ratio(r, "offload", "cpu_packets", "on", "off"),
                     _row(r, "offload", "on")["hit_rate"]),
          lambda v: v[0] < 1 / 20 and v[1] > 0.9),
    Claim("offload.same-goodput", "ablation_offload_sim",
          "(simulated) offload changes where packets go, not whether",
          lambda r: r.column("transmitted"), lambda v: abs(v[0] - v[1]) < 1000),
    Claim("split.rate-size-independent", "appendix_split",
          "Header-only delivery makes the PCIe-bound rate independent of frame size",
          lambda r: set(r.column("header_split_mpps")), lambda v: len(v) == 1),
    Claim("split.jumbo-frames-gain-most", "appendix_split",
          "saves PCIe bandwidth, especially jumbo frames",
          lambda r: r.column("speedup"), lambda v: v == sorted(v) and v[-1] > 20),
    Claim("port.overload-breaks-bfd", "appendix_port", "Congested port drops "
          "control-plane packets indiscriminately (BGP/BFD breaks)",
          lambda r: _cols(_row(r, "priority_queues", "off (1st-gen)"),
                          "protocol_delivered_pct", "bfd_survives"),
          lambda v: v[0] < 60 and not v[1]),
    Claim("port.priority-queues-fix-it", "appendix_port", "priority queues fix it",
          lambda r: _cols(_row(r, "priority_queues", "on"),
                          "protocol_delivered_pct", "bfd_survives"),
          lambda v: v == (100, True)),
]
