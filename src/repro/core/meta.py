"""The PLB meta header (§4.1).

``plb_dispatch`` tags every sprayed packet with a meta header carrying the
packet sequence number (PSN), the order-queue index and an ingress
timestamp; the CPU carries it through processing, may set the **drop flag**
(to let the NIC release reorder resources for ACL/rate-limit drops), and
returns it with the packet for reordering.

The header rides on the packet as a plain object.  The module also carries
the placement cost model behind the §7 lesson: stashing the meta in the
packet *head* room forces a data copy in the DPDK driver that costs ~33.6%
of throughput, while the *tail* placement is free because gateways never
touch packet tails.
"""

import enum

# Measured throughput penalty of head placement (private-room copy), §7.
HEAD_PLACEMENT_THROUGHPUT_FACTOR = 1.0 - 0.336


class MetaPlacement(enum.Enum):
    """Where the meta header rides on the packet."""

    HEAD = "head"  # packet head room / rte_mbuf private room: costs a copy
    TAIL = "tail"  # appended after the payload: free (chosen by the paper)


class PlbMeta:
    """Meta header contents.

    Attributes:
        psn: full-width packet sequence number (the reorder legal check
            only inspects the low 12 bits).
        ordq: order-preserving queue index within the pod.
        timestamp_ns: ingress timestamp for timeout determination.
        drop: drop flag set by the GW pod on explicit drops.
        epoch: reorder-engine generation at admission.  A watchdog pipeline
            reset bumps the engine's epoch; packets tagged with an older
            epoch are handled best-effort on writeback so their stale PSNs
            can never alias into (and block or misorder) the new window.
    """

    __slots__ = ("psn", "ordq", "timestamp_ns", "drop", "epoch")

    def __init__(self, psn, ordq, timestamp_ns, drop=False, epoch=0):
        self.psn = psn
        self.ordq = ordq
        self.timestamp_ns = timestamp_ns
        self.drop = drop
        self.epoch = epoch


def placement_throughput_factor(placement):
    """Relative forwarding throughput for a meta placement strategy.

    TAIL is the baseline (1.0); HEAD pays the 33.6% private-room copy
    penalty the paper measured.
    """
    if placement is MetaPlacement.TAIL:
        return 1.0
    if placement is MetaPlacement.HEAD:
        return HEAD_PLACEMENT_THROUGHPUT_FACTOR
    raise ValueError(f"unknown placement {placement!r}")
