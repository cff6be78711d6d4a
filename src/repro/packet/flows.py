"""Flow identity: the 5-tuple key and helpers to mint flows.

A :class:`FlowKey` identifies a transport flow; the gateway additionally
tracks the tenant via the VXLAN VNI carried on the packet itself.
"""

from typing import NamedTuple

PROTO_TCP = 6
PROTO_UDP = 17

#: Entries a :class:`FlowMemo` keeps: every recurring registry population
#: fits, a million-tenant tail of one-shot flows does not.
FLOW_MEMO_CAPACITY = 4096


class FlowMemo(dict):
    """``memo[key] == derive(key)`` for a pure ``derive``; a hit is a plain
    dict subscript, and a miss is kept while ``len < FLOW_MEMO_CAPACITY``."""

    __slots__ = ("derive",)

    def __init__(self, derive):
        self.derive = derive

    def __missing__(self, key):
        value = self.derive(key)
        if len(self) < FLOW_MEMO_CAPACITY:
            self[key] = value
        return value


class FlowKey(NamedTuple):
    """Transport 5-tuple.  IPs are 32-bit ints, ports 16-bit, proto 8-bit."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int

    def __str__(self):
        return (
            f"{_ip_str(self.src_ip)}:{self.src_port}->"
            f"{_ip_str(self.dst_ip)}:{self.dst_port}/{self.proto}"
        )


def _ip_str(ip):
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip_from_str(text):
    """Parse dotted-quad notation into a 32-bit int."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def flow_for_tenant(tenant_id, flow_index, proto=PROTO_UDP):
    """Deterministic flow key for (tenant, index) pairs.

    Used by workload generators so the same tenant/flow always maps to the
    same key across runs, independent of RNG draws.
    """
    # Spread tenants across the 10.0.0.0/8 style space; mix the index into
    # host bits and ports so flows of one tenant do not collide.
    src = (10 << 24) | ((tenant_id & 0xFFFF) << 8) | (flow_index & 0xFF)
    dst = (192 << 24) | (168 << 16) | ((flow_index >> 8) & 0xFF) << 8 | (tenant_id & 0xFF)
    sport = 1024 + ((tenant_id * 7919 + flow_index * 104729) % 64000)
    dport = 1 + ((flow_index * 31 + tenant_id) % 65535)
    return FlowKey(src, dst, sport, dport, proto)
