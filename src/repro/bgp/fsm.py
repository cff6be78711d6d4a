"""BGP session finite-state machine on the simulation clock.

States follow RFC 4271 (TCP connect collapsed into CONNECT):
IDLE -> CONNECT -> OPEN_SENT -> OPEN_CONFIRM -> ESTABLISHED.

Sessions exchange immutable :mod:`repro.bgp.messages` objects; a
``send_fn`` delivers the message object itself to the peer.
"""

import enum

from repro.bgp import messages
from repro.sim.units import SECOND


class BgpState(enum.Enum):
    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open_sent"
    OPEN_CONFIRM = "open_confirm"
    ESTABLISHED = "established"


class BgpSession:
    """One side of a BGP peering.

    Parameters:
        sim: the simulator.
        speaker: the owning :class:`~repro.bgp.speaker.BgpSpeaker`.
        peer_name: identity of the remote speaker.
        send_fn: callable delivering a message to the peer's session.
        hold_time_s: negotiated hold time (keepalives at a third of it).
        connect_delay_ns: TCP setup time before OPEN is sent.

    Callbacks on the speaker: ``on_session_up(session)``,
    ``on_session_down(session, reason)``, ``on_update(session, update)``.
    """

    def __init__(
        self,
        sim,
        speaker,
        peer_name,
        send_fn,
        hold_time_s=90,
        connect_delay_ns=2_000_000,
    ):
        self.sim = sim
        self.speaker = speaker
        self.peer_name = peer_name
        self.send_fn = send_fn
        self.hold_time_s = hold_time_s
        self.connect_delay_ns = connect_delay_ns
        self.state = BgpState.IDLE
        self.peer_open = None
        self.messages_sent = 0
        self.messages_received = 0
        self._hold_event = None
        self._keepalive_task = None

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Begin session establishment."""
        if self.state is not BgpState.IDLE:
            return
        self.state = BgpState.CONNECT
        self.sim.schedule(self.connect_delay_ns, self._connected)

    def _connected(self):
        if self.state is not BgpState.CONNECT:
            return
        self._send(
            messages.BgpOpen(
                self.speaker.asn, self.hold_time_s, self.speaker.bgp_id
            )
        )
        self.state = BgpState.OPEN_SENT
        self._restart_hold_timer()

    def stop(self, reason="admin"):
        """Tear the session down (sends NOTIFICATION if it ever opened)."""
        if self.state in (BgpState.ESTABLISHED, BgpState.OPEN_CONFIRM, BgpState.OPEN_SENT):
            self._send(messages.BgpNotification(6))  # Cease
        self._go_idle(reason)

    # -- receive path ------------------------------------------------------

    def receive(self, message):
        """Handle a message arriving from the peer."""
        self.messages_received += 1
        self._restart_hold_timer()
        if isinstance(message, messages.BgpOpen):
            self._on_open(message)
        elif isinstance(message, messages.BgpKeepalive):
            self._on_keepalive()
        elif isinstance(message, messages.BgpUpdate):
            self._on_update(message)
        elif isinstance(message, messages.BgpNotification):
            self._go_idle(f"notification_{message.code}")

    def _on_open(self, message):
        if self.state is BgpState.IDLE:
            # Passive open: peer initiated; respond with our OPEN.
            self._send(
                messages.BgpOpen(
                    self.speaker.asn, self.hold_time_s, self.speaker.bgp_id
                )
            )
            self.state = BgpState.OPEN_SENT
        if self.state is not BgpState.OPEN_SENT:
            return
        self.peer_open = message
        # Negotiate hold time down to the smaller of the two.
        self.hold_time_s = min(self.hold_time_s, message.hold_time)
        self._send(messages.BgpKeepalive())
        self.state = BgpState.OPEN_CONFIRM
        self._restart_hold_timer()

    def _on_keepalive(self):
        if self.state is BgpState.OPEN_CONFIRM:
            self.state = BgpState.ESTABLISHED
            self._start_keepalives()
            self.speaker.on_session_up(self)

    def _on_update(self, update):
        if self.state is not BgpState.ESTABLISHED:
            self._send(messages.BgpNotification(5))  # FSM error
            self._go_idle("update_in_wrong_state")
            return
        self.speaker.on_update(self, update)

    # -- send path ---------------------------------------------------------

    def _send(self, message):
        self.messages_sent += 1
        self.send_fn(message)

    def send_update(self, update):
        if self.state is not BgpState.ESTABLISHED:
            raise RuntimeError(f"session to {self.peer_name} not established")
        self._send(update)

    # -- timers --------------------------------------------------------------

    def _restart_hold_timer(self):
        if self._hold_event is not None:
            self._hold_event.cancel()
        if self.hold_time_s <= 0:
            self._hold_event = None
            return
        self._hold_event = self.sim.schedule(
            self.hold_time_s * SECOND, self._hold_expired
        )

    def _hold_expired(self):
        self._hold_event = None
        self._send(messages.BgpNotification(4))  # Hold Timer Expired
        self._go_idle("hold_timer_expired")

    def _start_keepalives(self):
        interval = max(1, self.hold_time_s // 3) * SECOND
        self._keepalive_task = self.sim.every(
            interval, self._send_keepalive
        )

    def _send_keepalive(self):
        if self.state is BgpState.ESTABLISHED:
            self._send(messages.BgpKeepalive())

    def _go_idle(self, reason):
        was_established = self.state is BgpState.ESTABLISHED
        self.state = BgpState.IDLE
        self.peer_open = None
        if self._hold_event is not None:
            self._hold_event.cancel()
            self._hold_event = None
        if self._keepalive_task is not None:
            self._keepalive_task.cancel()
            self._keepalive_task = None
        if was_established:
            self.speaker.on_session_down(self, reason)


class Link:
    """Bidirectional message pipe between two sessions with latency/loss."""

    def __init__(self, sim, latency_ns=500_000, loss_fn=None):
        self.sim = sim
        self.latency_ns = latency_ns
        self.loss_fn = loss_fn
        self.a = None
        self.b = None
        self.delivered = 0
        self.lost = 0
        self.down = False

    def attach(self, session_a, session_b):
        self.a = session_a
        self.b = session_b

    def sender_for(self, session):
        """The ``send_fn`` to hand to ``session`` at construction time."""

        def send(message):
            if self.down:
                self.lost += 1
                return
            if self.loss_fn is not None and self.loss_fn():
                self.lost += 1
                return
            receiver = self.b if session is self.a else self.a
            self.delivered += 1
            self.sim.schedule(self.latency_ns, receiver.receive, message)

        return send

    def fail(self):
        self.down = True

    def recover(self):
        self.down = False


def establish_pair(sim, speaker_a, speaker_b, latency_ns=500_000, hold_time_s=90,
                   loss_fn=None):
    """Create a linked session pair and start both ends.

    Returns (session_a, session_b, link).  Run the simulator to complete
    the handshake.
    """
    link = Link(sim, latency_ns, loss_fn)
    session_a = BgpSession(
        sim, speaker_a, speaker_b.name, send_fn=None, hold_time_s=hold_time_s
    )
    session_b = BgpSession(
        sim, speaker_b, speaker_a.name, send_fn=None, hold_time_s=hold_time_s
    )
    link.attach(session_a, session_b)
    session_a.send_fn = link.sender_for(session_a)
    session_b.send_fn = link.sender_for(session_b)
    speaker_a.register_session(session_a)
    speaker_b.register_session(session_b)
    session_a.start()
    return session_a, session_b, link
