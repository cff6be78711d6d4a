#!/usr/bin/env python3
"""Quickstart: one GW pod on an Albatross server, traffic through the
full FPGA NIC pipeline (PLB spray -> CPU service -> reorder -> wire).

Run:  python examples/quickstart.py
"""

from repro.core import AlbatrossServer
from repro.scenarios import PodSpec
from repro.sim import MS, US, RngRegistry, Simulator
from repro.workloads import CbrSource, uniform_population


def main():
    # A deterministic simulation: same seed, same run, bit for bit.
    sim = Simulator()
    rngs = RngRegistry(seed=42)

    # A dual-NUMA Albatross server (2 x 48 cores) hosting one gateway pod
    # with 8 data cores running the VPC-Internet service in PLB mode.
    server = AlbatrossServer(sim, rngs)
    pod = server.add_pod(
        PodSpec(name="vpc-internet-gw", data_cores=8, service="VPC-Internet")
    )
    print(f"pod placed on NUMA node {pod.numa_node}, "
          f"{pod.nic.reorder.queue_count} reorder queues")
    print(f"nominal capacity: {pod.expected_capacity_mpps():.2f} Mpps")

    # 1000 flows across 50 tenants at 60% of capacity.
    population = uniform_population(1000, tenants=50)
    rate = int(pod.expected_capacity_mpps() * 1e6 * 0.6)
    CbrSource(sim, rngs.stream("traffic"), pod.ingress, population, rate_pps=rate)

    # Run 50 simulated milliseconds.
    sim.run_until(50 * MS)

    histogram = pod.latency_histogram
    stats = pod.reorder_stats
    print(f"\noffered {rate / 1e6:.2f} Mpps for 50 ms")
    print(f"transmitted: {pod.transmitted()} packets "
          f"({pod.throughput_mpps():.2f} Mpps)")
    print(f"latency: mean {histogram.mean_ns / US:.1f} us, "
          f"p99 {histogram.percentile(0.99) / US:.1f} us, "
          f"max {histogram.max_ns / US:.1f} us")
    print(f"reorder engine: {stats.in_order} in order, "
          f"{stats.best_effort} best-effort "
          f"(disorder rate {stats.disorder_rate():.2e})")
    print(f"per-core utilization: "
          f"{[round(u, 2) for u in pod.core_utilizations(50 * MS)]}")


if __name__ == "__main__":
    main()
