"""Flow identity: the 5-tuple key and helpers to mint flows.

A :class:`FlowKey` identifies a transport flow; the gateway additionally
tracks the tenant via the VXLAN VNI carried on the packet itself.
"""

PROTO_TCP = 6
PROTO_UDP = 17

#: Entries a :class:`FlowMemo` keeps, and the most flows a population
#: builds up front as its head: every recurring registry population fits,
#: a million-tenant tail of one-shot flows does not.
FLOW_MEMO_CAPACITY = 4096


class FlowMemo(dict):
    """``memo[key] == derive(key)`` for a pure ``derive``; a hit is a plain
    dict subscript, and a miss is kept while ``len < FLOW_MEMO_CAPACITY``.

    The memo of the per-packet path's per-flow results (RSS hash, PLB
    order queue, service-chain addresses, pod pick, meter slot).  A
    population draw uses none: see
    :class:`~repro.workloads.generators.FlowPopulation`.
    """

    __slots__ = ("derive",)

    def __init__(self, derive):
        self.derive = derive

    def __missing__(self, key):
        value = self.derive(key)
        if len(self) < FLOW_MEMO_CAPACITY:
            self[key] = value
        return value


class FlowKey(int):
    """Transport 5-tuple packed into one int.

    IPs are 32-bit, ports 16-bit, proto 8-bit, laid out big-endian as
    ``src_ip<<72 | dst_ip<<40 | src_port<<24 | dst_port<<8 | proto``.
    A key is one int object, not a tuple of five: the per-flow tables
    (the ECMP pin table, the DPU table, every :class:`FlowMemo`) keep it
    alive at a fraction of a tuple's size.  The fields are fixed-width,
    so ``sorted()`` orders keys as it ordered the tuples, and the int's
    13 big-endian bytes are the hash input a NIC reads off the wire.
    Iterating a key yields its fields, and ``FlowKey(*fields)`` rebuilds
    it.
    """

    __slots__ = ()

    def __new__(cls, src_ip, dst_ip, src_port, dst_port, proto):
        if not (0 <= src_ip <= 0xFFFFFFFF and 0 <= dst_ip <= 0xFFFFFFFF
                and 0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF
                and 0 <= proto <= 0xFF):
            raise ValueError(
                f"5-tuple field out of range: {(src_ip, dst_ip, src_port, dst_port, proto)}"
            )
        return _new_int(cls, src_ip << 72 | dst_ip << 40 | src_port << 24 | dst_port << 8 | proto)

    @property
    def src_ip(self):
        return self >> 72

    @property
    def dst_ip(self):
        return self >> 40 & 0xFFFFFFFF

    @property
    def src_port(self):
        return self >> 24 & 0xFFFF

    @property
    def dst_port(self):
        return self >> 8 & 0xFFFF

    @property
    def proto(self):
        return self & 0xFF

    def __iter__(self):
        return iter((self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto))

    def __reduce__(self):
        # pickle and copy rebuild through the five-field constructor, not
        # int's one-argument ``__getnewargs__``.
        return (FlowKey, tuple(self))

    def __repr__(self):
        return (
            f"FlowKey(src_ip={self.src_ip}, dst_ip={self.dst_ip}, src_port={self.src_port}, "
            f"dst_port={self.dst_port}, proto={self.proto})"
        )

    def __str__(self):
        return (
            f"{_ip_str(self.src_ip)}:{self.src_port}->"
            f"{_ip_str(self.dst_ip)}:{self.dst_port}/{self.proto}"
        )


# ``int.__new__`` itself: a key minted through it runs no Python frame.
_new_int = int.__new__


def _ip_str(ip):
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


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
    if not 0 <= proto <= 0xFF:
        raise ValueError(f"proto out of range: {proto}")
    # The other fields are in range by construction: mint without a frame.
    return _new_int(FlowKey, src << 72 | dst << 40 | sport << 24 | dport << 8 | proto)
