"""Flow populations and packet sources.

A :class:`FlowPopulation` is a weighted set of flows (per-tenant VNIs
attached); sources draw flows from it and emit
:class:`~repro.packet.packet.Packet` objects into a sink -- normally a GW
pod's ``ingress``.

A population costs its heavy head, not what is declared: the two
factories describe flow ``i`` by arithmetic on ``i`` (:class:`_TenantFlows`),
so a million tenants are three integers.  A population whose first
``FLOW_MEMO_CAPACITY`` flows carry at least half of the draw mass builds
those flows once, at construction; every other draw derives its flow.
"""

import bisect
import itertools
from array import array
from collections.abc import Sequence

from repro.controlplane.snapshot import Stateful
from repro.packet.flows import FLOW_MEMO_CAPACITY, flow_for_tenant
from repro.packet.packet import Packet, PacketKind
from repro.sim.units import SECOND


class FlowPopulation:
    """Weighted flows: ``choose`` picks one proportionally to its weight.

    ``flows`` and ``vnis`` are sequences -- lists, or views that compute
    item ``i`` on demand -- held by reference.  When the first
    ``min(len, FLOW_MEMO_CAPACITY)`` indexes carry at least half of the
    weight, the population keeps them as its head: a list of their flows
    and an ``array('q')`` of their VNIs, built once here, so a head draw
    is two subscripts.  Below that line it keeps no per-flow state and a
    draw reads ``flows[i], vnis[i]``.  With ``weights`` it also keeps
    one ``array('d')`` of cumulative weight.
    """

    def __init__(self, flows, weights=None, vnis=None):
        count = len(flows)
        if not count:
            raise ValueError("population needs at least one flow")
        head = min(count, FLOW_MEMO_CAPACITY)
        if weights is None:
            # No table: bisect_right over the equal weights' running sums
            # [1.0, 2.0, ..., n] is exactly int(point) for 0 <= point < n,
            # and their total is exactly float(n).
            self._cumulative = None
            self.total_weight = float(count)
            head_weight = float(head)
        else:
            self._cumulative = array("d", itertools.accumulate(weights))
            if len(self._cumulative) != count:
                raise ValueError("weights/flows length mismatch")
            self.total_weight = self._cumulative[-1]
            head_weight = self._cumulative[head - 1]
        self.flows = flows
        self.vnis = vnis if vnis is not None else _TenantVnis(count, tenants=1)
        if len(self.vnis) != count:
            raise ValueError("vnis/flows length mismatch")
        self._last = count - 1
        if 2 * head_weight < self.total_weight:
            head = 0
        self._head = head
        self._head_flows = [flows[index] for index in range(head)]
        self._head_vnis = array("q", (self.vnis[index] for index in range(head)))

    def choose(self, rng):
        """Return (flow, vni) sampled by weight."""
        point = rng.random() * self.total_weight
        table = self._cumulative
        index = int(point) if table is None else bisect.bisect_right(table, point)
        if index > self._last:
            index = self._last
        if index < self._head:
            return self._head_flows[index], self._head_vnis[index]
        return self.flows[index], self.vnis[index]


class _TenantFlows(Sequence):
    """The factories' flows, computed per index and never stored: flow
    ``i`` is ``flow_for_tenant(vni, first_flow + i)`` of VNI
    ``first_tenant + i // flows_per_tenant % tenants``."""

    def __init__(self, count, tenants, flows_per_tenant=None, first_tenant=0,
                 first_flow=0):
        if flows_per_tenant is None:
            flows_per_tenant = max(1, count // max(1, tenants))
        if min(count, tenants, flows_per_tenant) < 1:
            raise ValueError("flows, tenants and flows per tenant must be >= 1")
        self._indexes = range(count)  # bounds check and negative indexes
        self.tenants = tenants
        self.flows_per_tenant = flows_per_tenant
        self.first_tenant = first_tenant
        self.first_flow = first_flow

    def __len__(self):
        return len(self._indexes)

    def __getitem__(self, index):
        index = self._indexes[index]
        return flow_for_tenant(
            self.first_tenant + index // self.flows_per_tenant % self.tenants,
            self.first_flow + index,
        )


class _TenantVnis(_TenantFlows):
    """The VNI (tenant) of each of those flows."""

    def __getitem__(self, index):
        return (self.first_tenant
                + self._indexes[index] // self.flows_per_tenant % self.tenants)


def uniform_population(flow_count, tenants=1, flows_per_tenant=None,
                       first_tenant=0, first_flow=0):
    """Equal-weight flows spread across ``tenants`` VNIs from ``first_tenant``."""
    layout = (flow_count, tenants, flows_per_tenant, first_tenant, first_flow)
    return FlowPopulation(_TenantFlows(*layout), vnis=_TenantVnis(*layout))


def zipf_population(flow_count, exponent=1.05, tenants=1, flows_per_tenant=None,
                    first_tenant=0, first_flow=0):
    """Zipf-weighted flows: a few hot flows dominate (cloud reality).

    ``exponent`` ~1 gives the heavy skew that produces the paper's 30-45%
    L3 hit rates despite multi-GB tables.
    """
    if exponent < 0:
        raise ValueError(f"zipf exponent must be >= 0, got {exponent}")
    layout = (flow_count, tenants, flows_per_tenant, first_tenant, first_flow)
    weights = (1.0 / (index + 1) ** exponent for index in range(flow_count))
    return FlowPopulation(
        _TenantFlows(*layout), weights=weights, vnis=_TenantVnis(*layout)
    )


class CbrSource(Stateful):
    """Constant bit-rate (constant packet-rate) source.

    ``rate_pps`` can be changed at runtime with :meth:`set_rate`; a rate
    of 0 pauses emission until the next ``set_rate``, and :meth:`stop`
    (or ``count_limit`` packets) ends it.
    """

    #: Tag written into checkpoints and validated on restore, so a
    #: snapshot cannot be restored into a source of the wrong type.
    SNAPSHOT_KIND = "cbr"

    STATE = (
        ("kind", "SNAPSHOT_KIND"), "rate_pps", "emitted", ("running", "_running"),
        ("next_tick", "_next_event"),
    )
    DERIVED = {
        "_interval": "re-derived from rate_pps",
        "rng": "a registry stream: the RngRegistry snapshot carries its position",
    }

    def __init__(self, sim, rng, sink, population, rate_pps, size=256,
                 kind=PacketKind.DATA, count_limit=None):
        self.sim = sim
        self.rng = rng
        self.sink = sink
        self.population = population
        self.size = size
        self.kind = kind
        self.count_limit = count_limit
        self.emitted = 0
        self._running = False
        self.rate_pps = 0
        self._next_event = sim.idle(self._tick)
        self.set_rate(rate_pps)

    def _emit_one(self):
        flow, vni = self.population.choose(self.rng)
        self.sink(Packet(flow, vni, self.size, self.kind))
        self.emitted += 1
        if self.count_limit is not None and self.emitted >= self.count_limit:
            self.stop()

    def stop(self):
        self._running = False
        self._next_event.cancel()

    def set_rate(self, rate_pps):
        """Change the emission rate immediately."""
        self.rate_pps = rate_pps
        # The gap is fixed until the next set_rate; computing it per tick
        # costs a division per emitted packet.
        self._interval = max(1, int(SECOND / rate_pps)) if rate_pps > 0 else None
        self._next_event.cancel()
        if rate_pps > 0:
            self._running = True
            self._schedule_next()
        else:
            self._running = False

    def _schedule_next(self):
        self._next_event = self.sim.schedule(self._interval, self._tick)

    def _tick(self):
        # Once per packet, so ``_emit_one``/``_schedule_next`` are inlined.  Not
        # ``post``: the tick's ``(time, seq)`` is checkpointed, and it is
        # cancelled.  The firing event is ``_next_event``: it is re-queued
        # in this frame at the ``(time, seq)`` a fresh ``schedule`` would
        # take.  A sink that re-set the rate has already queued the next
        # tick in its place, and that one stands.
        if not self._running:
            return
        flow, vni = self.population.choose(self.rng)
        self.sink(Packet(flow, vni, self.size, self.kind))
        self.emitted += 1
        if self.count_limit is not None and self.emitted >= self.count_limit:
            self.stop()
        if self._running:
            event = self._next_event
            if event.fired:
                sim = self.sim
                event.time = time = sim._now + self._interval
                event.seq = seq = sim.next_seq()
                event.fired = False
                sim.push((time, seq, event.fn, event.args, event))

    def restore(self, snapshot):
        if snapshot["kind"] != self.SNAPSHOT_KIND:
            raise ValueError(
                f"snapshot is for a {snapshot['kind']!r} source, cannot "
                f"restore into {self.SNAPSHOT_KIND!r}"
            )
        super().restore(snapshot)
        rate_pps = self.rate_pps
        self._interval = max(1, int(SECOND / rate_pps)) if rate_pps > 0 else None


class ScheduledSource(CbrSource):
    """A CBR source whose rate follows ``schedule``, ``((t_ns, rate_pps), ...)``:
    at each absolute instant, in order, it calls :meth:`set_rate`.

    The schedule is one timer, queued for the next step when the last one
    fires; a snapshot holds it and the step it is for.  :meth:`stop`
    stops the schedule too.
    """

    SNAPSHOT_KIND = "scheduled"

    STATE = CbrSource.STATE + (("step", "_step"), ("next_change", "_change"))

    def __init__(self, sim, rng, sink, population, rate_pps, schedule, **kwargs):
        super().__init__(sim, rng, sink, population, rate_pps, **kwargs)
        self.schedule = schedule
        self._step = 0
        self._change = sim.schedule_at(schedule[0][0], self._next_rate)

    def _next_rate(self):
        self.set_rate(self.schedule[self._step][1])
        self._step += 1
        if self._step < len(self.schedule):
            self.sim.rearm(self._change, self.schedule[self._step][0] - self.sim.now)

    def stop(self):
        super().stop()
        self._change.cancel()


class PoissonSource(CbrSource):
    """Poisson arrivals at a mean ``rate_pps``: a CBR source whose gaps are
    drawn from the exponential distribution."""

    SNAPSHOT_KIND = "poisson"

    def _schedule_next(self):
        gap = self.rng.expovariate(self.rate_pps / SECOND)
        self._next_event = self.sim.schedule(max(1, int(gap)), self._tick)

    def _tick(self):
        if not self._running:
            return
        self._emit_one()
        if self._running:
            self._schedule_next()
