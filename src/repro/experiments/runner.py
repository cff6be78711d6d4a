"""The experiment registry behind ``python -m repro experiment all|<name>``.

Each experiment is independent; ``--quick`` scales the simulated runs down.
"""


def all_experiments(quick=False):
    """Yield (name, callable) pairs for every table/figure driver."""
    from repro.experiments import (
        ablations,
        appendix_nic,
        fig4_fig5_cache,
        fig7_bgp,
        fig8_load_balancing,
        fig9_p99_latency,
        fig10_multicore_util,
        fig11_latency_distribution,
        fig12_hol_drop_flag,
        fig13_14_ratelimit,
        fig15_cost,
        fig16_17_numa,
        tab1_tofino,
        tab3_throughput,
        tab4_tab5_nic,
        tab6_comparison,
    )
    from repro.sim.units import MS, SECOND

    scale = 0.25 if quick else 1.0

    def ns(default_ns):
        return max(int(default_ns * scale), 10 * MS)

    yield "tab1", tab1_tofino.run
    yield "tab3", lambda: tab3_throughput.run(simulate=not quick)
    yield "tab4", tab4_tab5_nic.run_latency
    yield "tab5", tab4_tab5_nic.run_resources
    yield "tab6", tab6_comparison.run
    yield "fig4_fig5", lambda: fig4_fig5_cache.run(per_run_ns=ns(60 * MS))
    yield "fig7_peers", fig7_bgp.run_peer_scaling
    yield "fig7_protocol", fig7_bgp.run_protocol
    yield "fig8", lambda: fig8_load_balancing.run(duration_ns=ns(200 * MS))
    yield "fig9", lambda: fig9_p99_latency.run(duration_ns=ns(400 * MS))
    yield "fig10", lambda: fig10_multicore_util.run(duration_ns=ns(700 * MS))
    yield "fig11", lambda: fig11_latency_distribution.run(duration_ns=ns(400 * MS))
    yield "fig12", lambda: fig12_hol_drop_flag.run(duration_ns=ns(500 * MS))
    yield "fig13", lambda: fig13_14_ratelimit.run(
        with_limiter=False, duration_ns=ns(2 * SECOND)
    )
    yield "fig14", lambda: fig13_14_ratelimit.run(
        with_limiter=True, duration_ns=ns(2 * SECOND)
    )
    yield "fig15", fig15_cost.run
    yield "fig16", lambda: fig16_17_numa.run_fig16(duration_ns=ns(200 * MS))
    yield "fig17", lambda: fig16_17_numa.run_fig17(duration_ns=ns(400 * MS))
    yield "ablation_meta", ablations.run_meta_placement
    yield "ablation_stateful", ablations.run_stateful_nf
    yield "ablation_memfreq", ablations.run_memory_frequency
    yield "ablation_reorder", ablations.run_reorder_queue_tradeoff
    yield "ablation_collisions", ablations.run_ratelimit_collisions
    yield "ablation_offload", ablations.run_session_offload
    yield "ablation_offload_sim", ablations.run_session_offload_sim
    yield "appendix_split", appendix_nic.run_header_split
    yield "appendix_port", appendix_nic.run_port_overload
