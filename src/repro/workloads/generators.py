"""Flow populations and packet sources.

A :class:`FlowPopulation` is a weighted set of flows (per-tenant VNIs
attached); sources draw flows from it and emit
:class:`~repro.packet.packet.Packet` objects into a sink -- normally a GW
pod's ``ingress``.

A population costs what is *drawn* from it, not what is declared: the
two factories describe flow ``i`` by arithmetic on ``i``
(:class:`_TenantFlows`), so a million tenants are three integers until
:meth:`FlowPopulation.choose` first draws one of their flows.
"""

import bisect
import itertools
from array import array
from collections.abc import Sequence

from repro.controlplane.snapshot import Stateful
from repro.packet.flows import FlowMemo, flow_for_tenant
from repro.packet.packet import Packet, PacketKind
from repro.sim.units import SECOND


class FlowPopulation:
    """Weighted flows: ``choose`` picks one proportionally to its weight.

    ``flows`` and ``vnis`` are sequences -- lists, or views that compute
    item ``i`` on demand -- held by reference.  What the population itself
    keeps is a :class:`~repro.packet.flows.FlowMemo` of the ``(flow, vni)``
    pairs drawn so far (at most its capacity of them), so a memoised draw
    is one subscript, and, only with ``weights``, one ``array('d')`` of
    cumulative weight.
    """

    DERIVED = {"_drawn": "memo of (flows[index], vnis[index]) per drawn index; "
                         "a rebuilt population re-derives it"}

    def __init__(self, flows, weights=None, vnis=None):
        count = len(flows)
        if not count:
            raise ValueError("population needs at least one flow")
        if weights is None:
            # No table: bisect_right over the equal weights' running sums
            # [1.0, 2.0, ..., n] is exactly int(point) for 0 <= point < n,
            # and their total is exactly float(n).
            self._cumulative = None
            self.total_weight = float(count)
        else:
            self._cumulative = array("d", itertools.accumulate(weights))
            if len(self._cumulative) != count:
                raise ValueError("weights/flows length mismatch")
            self.total_weight = self._cumulative[-1]
        self.flows = flows
        self.vnis = vnis if vnis is not None else _TenantVnis(count, tenants=1)
        if len(self.vnis) != count:
            raise ValueError("vnis/flows length mismatch")
        self._last = count - 1
        self._drawn = FlowMemo(self._pair)

    def __len__(self):
        return len(self.flows)

    def choose(self, rng):
        """Return (flow, vni) sampled by weight."""
        point = rng.random() * self.total_weight
        table = self._cumulative
        index = int(point) if table is None else bisect.bisect_right(table, point)
        if index > self._last:
            index = self._last
        return self._drawn[index]

    def _pair(self, index):
        return self.flows[index], self.vnis[index]


class _TenantFlows(Sequence):
    """The factories' flows, computed per index and never stored: flow
    ``i`` belongs to tenant ``i // flows_per_tenant % tenants``."""

    def __init__(self, count, tenants, flows_per_tenant=None):
        if flows_per_tenant is None:
            flows_per_tenant = max(1, count // max(1, tenants))
        if min(count, tenants, flows_per_tenant) < 1:
            raise ValueError("flows, tenants and flows per tenant must be >= 1")
        self._indexes = range(count)  # bounds check and negative indexes
        self.tenants = tenants
        self.flows_per_tenant = flows_per_tenant

    def __len__(self):
        return len(self._indexes)

    def __getitem__(self, index):
        index = self._indexes[index]
        return flow_for_tenant(index // self.flows_per_tenant % self.tenants, index)


class _TenantVnis(_TenantFlows):
    """The VNI (tenant) of each of those flows."""

    def __getitem__(self, index):
        return self._indexes[index] // self.flows_per_tenant % self.tenants


def uniform_population(flow_count, tenants=1, flows_per_tenant=None):
    """Equal-weight flows spread across ``tenants`` VNIs."""
    layout = (flow_count, tenants, flows_per_tenant)
    return FlowPopulation(_TenantFlows(*layout), vnis=_TenantVnis(*layout))


def zipf_population(flow_count, exponent=1.05, tenants=1, flows_per_tenant=None):
    """Zipf-weighted flows: a few hot flows dominate (cloud reality).

    ``exponent`` ~1 gives the heavy skew that produces the paper's 30-45%
    L3 hit rates despite multi-GB tables.
    """
    if exponent < 0:
        raise ValueError(f"zipf exponent must be >= 0, got {exponent}")
    layout = (flow_count, tenants, flows_per_tenant)
    weights = (1.0 / (index + 1) ** exponent for index in range(flow_count))
    return FlowPopulation(
        _TenantFlows(*layout), weights=weights, vnis=_TenantVnis(*layout)
    )


class _SourceBase:
    """Common machinery: packet minting and start/stop."""

    def __init__(
        self,
        sim,
        rng,
        sink,
        population,
        size=256,
        kind=PacketKind.DATA,
        count_limit=None,
    ):
        self.sim = sim
        self.rng = rng
        self.sink = sink
        self.population = population
        self.size = size
        self.kind = kind
        self.count_limit = count_limit
        self.emitted = 0
        self._running = False

    def _emit_one(self):
        flow, vni = self.population.choose(self.rng)
        self.sink(Packet(flow, vni, self.size, self.kind))
        self.emitted += 1
        if self.count_limit is not None and self.emitted >= self.count_limit:
            self.stop()

    def stop(self):
        self._running = False


class CbrSource(_SourceBase, Stateful):
    """Constant bit-rate (constant packet-rate) source.

    ``rate_pps`` can be changed at runtime with :meth:`set_rate`; a rate
    of 0 pauses emission until the next ``set_rate``.
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

    def __init__(self, sim, rng, sink, population, rate_pps, **kwargs):
        super().__init__(sim, rng, sink, population, **kwargs)
        self.rate_pps = 0
        self._next_event = None
        self.set_rate(rate_pps)

    def set_rate(self, rate_pps):
        """Change the emission rate immediately."""
        self.rate_pps = rate_pps
        # The gap is fixed until the next set_rate; computing it per tick
        # costs a division per emitted packet.
        self._interval = max(1, int(SECOND / rate_pps)) if rate_pps > 0 else None
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
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
        # in this frame exactly as ``Simulator.rearm``'s fired path re-queues
        # it, at the ``(time, seq)`` a fresh ``schedule`` would take.  A sink
        # that re-set the rate has replaced it with a pending event, which
        # ``rearm`` moves.
        if not self._running:
            return
        flow, vni = self.population.choose(self.rng)
        self.sink(Packet(flow, vni, self.size, self.kind))
        self.emitted += 1
        if self.count_limit is not None and self.emitted >= self.count_limit:
            self.stop()
        if self._running:
            event = self._next_event
            sim = self.sim
            if event.fired and not event.cancelled:
                event.time = time = sim._now + self._interval
                event.seq = seq = sim.next_seq()
                event.fired = False
                sim.push((time, seq, event.fn, event.args, event))
            else:
                sim.rearm(event, self._interval)

    def stop(self):
        super().stop()
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def restore(self, snapshot):
        """Restore state; return rearm entries for pending events.

        Does **not** schedule anything itself -- each ``(time, seq,
        rearm)`` entry is executed by the caller after sorting across
        all components, so ties land in their checkpointed order.
        """
        if snapshot["kind"] != self.SNAPSHOT_KIND:
            raise ValueError(
                f"snapshot is for a {snapshot['kind']!r} source, cannot "
                f"restore into {self.SNAPSHOT_KIND!r}"
            )
        self.stop()  # cancels the pending events; the snapshot re-arms them
        self.rate_pps = rate_pps = snapshot["rate_pps"]
        self._interval = max(1, int(SECOND / rate_pps)) if rate_pps > 0 else None
        self.emitted = snapshot["emitted"]
        self._running = snapshot["running"]
        rearms = []
        pending = snapshot["next_tick"]
        if pending is not None:
            def rearm(time=pending["time"]):
                self._next_event = self.sim.schedule_at(time, self._tick)

            rearms.append((pending["time"], pending["seq"], rearm))
        return rearms


class PoissonSource(_SourceBase):
    """Poisson arrivals at a mean ``rate_pps``."""

    def __init__(self, sim, rng, sink, population, rate_pps, **kwargs):
        super().__init__(sim, rng, sink, population, **kwargs)
        self.rate_pps = rate_pps
        self._next_event = None
        if rate_pps > 0:
            self._running = True
            self._schedule_next()

    def set_rate(self, rate_pps):
        self.rate_pps = rate_pps
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        if rate_pps > 0:
            self._running = True
            self._schedule_next()
        else:
            self._running = False

    def _schedule_next(self):
        gap = self.rng.expovariate(self.rate_pps / SECOND)
        self._next_event = self.sim.schedule(max(1, int(gap)), self._tick)

    def _tick(self):
        if not self._running:
            return
        self._emit_one()
        if self._running:
            self._schedule_next()

    def stop(self):
        super().stop()
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
