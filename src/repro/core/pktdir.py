"""The ``pkt_dir`` packet classifier (§3.2).

At NIC ingress, ``pkt_dir`` splits traffic into three paths:

* **priority packets** -- protocol traffic (BGP/BFD) through dedicated
  queues, immune to data-plane saturation;
* **PLB packets** -- ordinary data traffic sprayed per packet;
* **RSS packets** -- data traffic pinned per flow, the fallback mode.

The paper lets containers program the classification with per-VNI rules;
every result reproduced here needs only the default split, so that is
all this model carries: protocol to priority, data to the pod's mode.
"""

import enum

from repro.controlplane.snapshot import Stateful
from repro.packet.packet import PacketKind


class DeliveryPath(enum.Enum):
    """Which NIC path a packet takes after classification."""

    PRIORITY = "priority"
    PLB = "plb"
    RSS = "rss"

    # Identity hash: ``classified[path]`` is per packet, and ``Enum.__hash__``
    # is a Python-level call (DESIGN.md "Performance").
    __hash__ = object.__hash__


class PktDir(Stateful):
    """The default split and its per-path tallies.

    Protocol packets take the priority path; data packets take the pod's
    configured default mode (PLB in production, RSS after a fallback
    switch).
    """

    STATE = ("classified",)
    DERIVED = {
        "default_data_path": "the pipeline's captured mode: NicPipeline.mode reads and sets it",
    }

    def __init__(self, default_data_path=DeliveryPath.PLB):
        self.default_data_path = default_data_path
        self.classified = {path: 0 for path in DeliveryPath}

    def set_default_data_path(self, path):
        """Switch the pod's data-plane mode (PLB <-> RSS fallback)."""
        if path not in (DeliveryPath.PLB, DeliveryPath.RSS):
            raise ValueError("default data path must be PLB or RSS")
        self.default_data_path = path

    def classify(self, packet):
        """Count ``packet`` against its :class:`DeliveryPath` and return it."""
        if packet.kind is PacketKind.PROTOCOL:
            path = DeliveryPath.PRIORITY
        else:
            path = self.default_data_path
        self.classified[path] += 1
        return path
