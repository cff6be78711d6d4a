"""BGP/BFD substrate and the BGP proxy (§5, Fig. 7).

Gateways advertise VIP routes to the uplink switch over eBGP and detect
link failures with BFD.  Containerization multiplied BGP peer counts past
the switch control plane's safe threshold (64), so Albatross inserts a
per-server BGP proxy pod: pods peer with the proxy over iBGP, and only
the proxy peers with the switch.

Modules:

* :mod:`repro.bgp.messages` -- byte-level BGP message codecs.
* :mod:`repro.bgp.fsm` -- session finite-state machine with hold/keepalive
  timers on the simulation clock.
* :mod:`repro.bgp.speaker` -- a BGP speaker: peers, RIB, advertisement.
* :mod:`repro.bgp.bfd` -- BFD sessions (3 missed probes = link down).
* :mod:`repro.bgp.switch` -- uplink switch control-plane model with the
  64-peer safe threshold and convergence-time degradation.
* :mod:`repro.bgp.proxy` -- the BGP proxy pod.
* :mod:`repro.bgp.pod` -- binds a speaker and a BFD session to a GW pod's
  priority path (imported by name: it pulls in the pod runtime).
"""

from repro.bgp.bfd import BfdSession, BfdState
from repro.bgp.fsm import BgpSession, BgpState
from repro.bgp.messages import (
    BgpKeepalive,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
    decode_message,
)
from repro.bgp.proxy import BgpProxy
from repro.bgp.speaker import BgpSpeaker, RouteEntry
from repro.bgp.switch import UplinkSwitch

__all__ = [
    "BfdSession",
    "BfdState",
    "BgpSession",
    "BgpState",
    "BgpKeepalive",
    "BgpNotification",
    "BgpOpen",
    "BgpUpdate",
    "decode_message",
    "BgpProxy",
    "BgpSpeaker",
    "RouteEntry",
    "UplinkSwitch",
]
