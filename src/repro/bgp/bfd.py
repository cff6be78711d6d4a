"""Bidirectional Forwarding Detection (RFC 5880, reduced).

BFD accelerates BGP failure detection: probes every ``interval``; missing
``multiplier`` (3) consecutive probes declares the link down.  In
Albatross, BFD packets ride the protocol priority queues -- the §4.3
experiment shows that without prioritization, a saturated data plane
drops BFD probes and tears down perfectly healthy links.
"""

import enum
from dataclasses import dataclass

from repro.sim.units import MS


class BfdState(enum.Enum):
    DOWN = 0
    INIT = 1
    UP = 3


@dataclass(frozen=True)
class BfdPacket:
    """Control packet: sender state, multiplier and both discriminators."""

    state: BfdState
    multiplier: int
    my_discriminator: int
    your_discriminator: int


class BfdSession:
    """One end of a BFD session.

    Parameters:
        sim: the simulator.
        name: session identity (diagnostics only).
        send_fn: delivers a :class:`BfdPacket` toward the peer (the lossy /
            prioritized path under test).
        interval_ns: probe transmit interval.
        multiplier: missed probes before declaring DOWN (3 per the paper).
        on_down / on_up: state-change callbacks (wire BGP teardown here).
        discriminator: this end's id, carried in every probe; the pair
            that builds the session picks it.
    """

    def __init__(
        self,
        sim,
        name,
        send_fn,
        interval_ns=50 * MS,
        multiplier=3,
        on_down=None,
        on_up=None,
        discriminator=1,
    ):
        self.sim = sim
        self.name = name
        self.send_fn = send_fn
        self.interval_ns = interval_ns
        self.multiplier = multiplier
        self.on_down = on_down
        self.on_up = on_up
        self.state = BfdState.DOWN
        self.discriminator = discriminator
        self.peer_discriminator = 0
        self.probes_sent = 0
        self.probes_received = 0
        self.down_events = 0
        self._detect_event = None
        self._tx_task = sim.every(interval_ns, self._transmit, start_delay=0)

    @property
    def detect_time_ns(self):
        return self.multiplier * self.interval_ns

    def _transmit(self):
        self.probes_sent += 1
        self.send_fn(BfdPacket(
            self.state, self.multiplier, self.discriminator, self.peer_discriminator
        ))

    def receive(self, packet):
        """A probe arrived from the peer."""
        self.probes_received += 1
        self.peer_discriminator = packet.my_discriminator
        if self.state is not BfdState.UP:
            previous = self.state
            # Three-way handshake compressed: DOWN -> INIT -> UP.
            self.state = BfdState.INIT if previous is BfdState.DOWN else BfdState.UP
            if packet.state in (BfdState.INIT, BfdState.UP):
                self.state = BfdState.UP
            if self.state is BfdState.UP and self.on_up is not None:
                self.on_up(self)
        self._restart_detect_timer()

    def _restart_detect_timer(self):
        if self._detect_event is not None:
            self._detect_event.cancel()
        self._detect_event = self.sim.schedule(
            self.detect_time_ns, self._detect_expired
        )

    def _detect_expired(self):
        self._detect_event = None
        if self.state is BfdState.UP or self.state is BfdState.INIT:
            self.state = BfdState.DOWN
            self.down_events += 1
            if self.on_down is not None:
                self.on_down(self)

    def stop(self):
        self._tx_task.cancel()
        if self._detect_event is not None:
            self._detect_event.cancel()
            self._detect_event = None

    def checkpoint(self):
        """Plain-data snapshot of the session state machine."""
        return {
            "state": self.state.value,
            "discriminator": self.discriminator,
            "peer_discriminator": self.peer_discriminator,
            "probes_sent": self.probes_sent,
            "probes_received": self.probes_received,
            "down_events": self.down_events,
        }

    def restore(self, snapshot):
        """Reinstate a :meth:`checkpoint` into this (live) session.

        An UP/INIT session re-arms its detect timer from now -- exactly
        what a freshly unfrozen endpoint does: it has just (conceptually)
        heard from its peer, and missing the next ``multiplier`` probes
        still tears the session down.
        """
        self.state = BfdState(snapshot["state"])
        self.discriminator = snapshot["discriminator"]
        self.peer_discriminator = snapshot["peer_discriminator"]
        self.probes_sent = snapshot["probes_sent"]
        self.probes_received = snapshot["probes_received"]
        self.down_events = snapshot["down_events"]
        if self.state is not BfdState.DOWN:
            self._restart_detect_timer()
        elif self._detect_event is not None:
            self._detect_event.cancel()
            self._detect_event = None


def bfd_pair(sim, name_a="a", name_b="b", interval_ns=50 * MS, latency_ns=100_000,
             loss_fn_ab=None, loss_fn_ba=None, on_down=None, on_up=None):
    """Two BFD endpoints wired through (optionally lossy) channels."""
    holder = {}

    def send_a(packet):
        if loss_fn_ab is not None and loss_fn_ab():
            return
        sim.schedule(latency_ns, holder["b"].receive, packet)

    def send_b(packet):
        if loss_fn_ba is not None and loss_fn_ba():
            return
        sim.schedule(latency_ns, holder["a"].receive, packet)

    holder["a"] = BfdSession(sim, name_a, send_a, interval_ns, on_down=on_down,
                             on_up=on_up, discriminator=1)
    holder["b"] = BfdSession(sim, name_b, send_b, interval_ns, on_down=on_down,
                             on_up=on_up, discriminator=2)
    return holder["a"], holder["b"]


class BfdLink:
    """A symmetric BFD-monitored link that can be flapped (fault injection).

    While the link is down every probe in both directions is lost; both
    endpoints detect the outage within ``multiplier * interval`` (the
    paper-faithful 3 x 50 ms default) and declare DOWN.  When the link
    comes back the still-running transmit tasks re-run the three-way
    handshake and the sessions return to UP.

    Attributes:
        a / b: the two :class:`BfdSession` endpoints.
        probes_lost: probes dropped while the link was down.
    """

    def __init__(self, sim, interval_ns=50 * MS, latency_ns=100_000,
                 on_down=None, on_up=None):
        self.sim = sim
        self.up = True
        self.probes_lost = 0
        self.flaps = 0
        self.a, self.b = bfd_pair(
            sim,
            interval_ns=interval_ns,
            latency_ns=latency_ns,
            loss_fn_ab=self._lossy,
            loss_fn_ba=self._lossy,
            on_down=on_down,
            on_up=on_up,
        )

    def _lossy(self):
        if not self.up:
            self.probes_lost += 1
            return True
        return False

    def set_down(self):
        """Cut the link: all probes are lost until :meth:`set_up`."""
        if self.up:
            self.up = False
            self.flaps += 1

    def set_up(self):
        self.up = True

    @property
    def sessions_up(self):
        return self.a.state is BfdState.UP and self.b.state is BfdState.UP

    def checkpoint(self):
        """Plain-data snapshot of the link and both endpoints."""
        return {
            "up": self.up,
            "probes_lost": self.probes_lost,
            "flaps": self.flaps,
            "a": self.a.checkpoint(),
            "b": self.b.checkpoint(),
        }

    def restore(self, snapshot):
        self.up = snapshot["up"]
        self.probes_lost = snapshot["probes_lost"]
        self.flaps = snapshot["flaps"]
        self.a.restore(snapshot["a"])
        self.b.restore(snapshot["b"])

    def stop(self):
        self.a.stop()
        self.b.stop()
