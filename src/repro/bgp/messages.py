"""BGP-4 messages (RFC 4271, trimmed to what gateways use).

Sessions hand these immutable objects to each other: no result reads a
BGP byte, so there is no wire codec.  Prefixes are ``(prefix, length)``
tuples; an UPDATE carries withdrawn routes, announced routes and the
attributes gateways use (AS_PATH, NEXT_HOP, and LOCAL_PREF for iBGP).
Since no field can be reassigned, one UPDATE can go to every peer.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BgpOpen:
    """OPEN: ASN, hold time, BGP identifier."""

    asn: int
    hold_time: int
    bgp_id: int


@dataclass(frozen=True)
class BgpUpdate:
    """UPDATE: withdrawn prefixes + path attributes + announced prefixes."""

    announced: tuple = ()
    withdrawn: tuple = ()
    next_hop: Optional[int] = None
    as_path: tuple = ()
    local_pref: Optional[int] = None

    def __post_init__(self):
        if self.announced and self.next_hop is None:
            raise ValueError("announcements require a next hop")


@dataclass(frozen=True)
class BgpKeepalive:
    """KEEPALIVE: no fields."""


@dataclass(frozen=True)
class BgpNotification:
    """NOTIFICATION: error code/subcode; closes the session."""

    code: int
    subcode: int = 0
