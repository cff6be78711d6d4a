"""The experiment registry behind ``python -m repro experiment all|<name>``.

Each experiment is declared once: its function and the arguments it runs
with at full size and under ``--quick``.  The full sizes are the runs
EXPERIMENTS.md records; the quick sizes are ones at which every claim in
:mod:`repro.experiments.claims` still holds, and tier-1 runs them.
"""

from functools import partial

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
from repro.scenarios.registry import lookup
from repro.sim.units import MS


def _ms(full, quick):
    """Full and quick kwargs that differ only in ``duration_ns``."""
    return {"duration_ns": full * MS}, {"duration_ns": quick * MS}


# name -> (function, full-size kwargs, quick kwargs)
EXPERIMENTS = {
    "tab1": (tab1_tofino.run, {}, {}),
    "tab3": (tab3_throughput.run,
             {"simulate": True, "sim_cores": 4, "sim_duration_ns": 40 * MS},
             {"simulate": True, "sim_cores": 1, "sim_duration_ns": 5 * MS}),
    "tab4": (tab4_tab5_nic.run_latency, {}, {}),
    "tab5": (tab4_tab5_nic.run_resources, {}, {}),
    "tab6": (tab6_comparison.run, {}, {}),
    "fig4_fig5": (fig4_fig5_cache.run, {"per_run_ns": 60 * MS}, {"per_run_ns": 3 * MS}),
    "fig7_peers": (fig7_bgp.run_peer_scaling, {}, {}),
    "fig7_protocol": (fig7_bgp.run_protocol, {"pods": 8}, {"pods": 8}),
    "fig8": (fig8_load_balancing.run, *_ms(200, 50)),
    "fig9": (fig9_p99_latency.run, *_ms(400, 50)),
    "fig10": (fig10_multicore_util.run, *_ms(700, 175)),
    "fig11": (fig11_latency_distribution.run, *_ms(400, 300)),
    "fig12": (fig12_hol_drop_flag.run, *_ms(500, 125)),
    # The burst starts at 1 s and the claims read the buckets from 1250 ms.
    "fig13": (partial(fig13_14_ratelimit.run, with_limiter=False), *_ms(2000, 1500)),
    "fig14": (partial(fig13_14_ratelimit.run, with_limiter=True), *_ms(2000, 1500)),
    "fig15": (fig15_cost.run, {}, {}),
    "fig16": (fig16_17_numa.run_fig16, *_ms(200, 50)),
    "fig17": (fig16_17_numa.run_fig17, *_ms(400, 100)),
    "ablation_meta": (ablations.run_meta_placement, *_ms(150, 60)),
    "ablation_stateful": (ablations.run_stateful_nf,
                          {"core_counts": (1, 2, 4, 8, 16, 32, 44)},
                          {"core_counts": (1, 2, 4, 8, 16, 32, 44)}),
    "ablation_memfreq": (ablations.run_memory_frequency, {}, {}),
    "ablation_reorder": (ablations.run_reorder_queue_tradeoff, *_ms(200, 80)),
    "ablation_collisions": (ablations.run_ratelimit_collisions, *_ms(2000, 2000)),
    "ablation_offload": (ablations.run_session_offload, {}, {}),
    "ablation_offload_sim": (ablations.run_session_offload_sim, *_ms(200, 200)),
    "appendix_split": (appendix_nic.run_header_split, {}, {}),
    "appendix_port": (appendix_nic.run_port_overload, {}, {}),
}


def run_experiment(name, quick=False):
    """Run experiment ``name`` at its full (or quick) size."""
    function, full, quick_kwargs = lookup(EXPERIMENTS, name, "experiment")
    return function(**(quick_kwargs if quick else full))
