"""repro: a simulation-based reproduction of Albatross (SIGCOMM 2025).

Albatross is Alibaba Cloud's containerized cloud gateway platform with
FPGA-accelerated packet-level load balancing.  This library rebuilds every
subsystem the paper describes as a deterministic discrete-event simulation:

* the FPGA NIC pipeline -- packet-level load balancing (PLB) with the
  FIFO/BUF reorder engine, the two-stage tenant rate limiter, the
  ``pkt_dir`` classifier and protocol priority queues (:mod:`repro.core`);
* the x86 substrate -- cores, service chains, an LRU L3-cache model and
  NUMA effects (:mod:`repro.cpu`);
* containerization -- GW pods, SR-IOV VF allocation, fleet scheduling,
  elasticity (:mod:`repro.container`);
* the BGP/BFD control plane and the BGP proxy (:mod:`repro.bgp`);
* workload generators and metrics (:mod:`repro.workloads`,
  :mod:`repro.metrics`);
* one experiment driver per table/figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart::

    from repro.core import AlbatrossServer
    from repro.scenarios import PodSpec
    from repro.sim import SECOND, RngRegistry, Simulator

    sim = Simulator()
    server = AlbatrossServer(sim, RngRegistry(seed=1))
    pod = server.add_pod(PodSpec(name="gw", data_cores=8))
    # drive pod.ingress(...) with a workload, then:
    sim.run_until(1 * SECOND)
"""

__version__ = "1.0.0"
