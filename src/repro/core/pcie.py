"""PCIe bandwidth and NIC-port capacity models (appendix A, §2.1).

Two throughput ceilings the paper reasons about:

* **PCIe between FPGA and CPU** -- header-payload-split mode forwards
  only headers (+ the PLB meta) over PCIe, leaving payloads in the NIC
  buffer.  For jumbo frames (up to 8,500 B of Ethernet payload) this is
  the difference between PCIe being the bottleneck and not.  The split
  is analytic only: the appendix A table reads these per-packet byte
  counts, and the simulated NIC always moves whole packets.
* **NIC port line rate** -- §2.1's "NIC port overloading": a congested
  port drops indiscriminately, control-plane protocols included, unless
  (as in Albatross) protocol packets ride a priority queue.
"""

# PCIe Gen4 x16: 31.5 GB/s raw; ~85% attainable after TLP overheads.
PCIE_GEN4_X16_GBPS = 252.0
# Header slice forwarded in split mode: parsed stack + room for options.
SPLIT_HEADER_BYTES = 128
PLB_META_BYTES = 16
# Per-packet DMA overhead (descriptor + completion) on the link.
DESCRIPTOR_OVERHEAD_BYTES = 32


class PcieLinkModel:
    """One NIC's PCIe attachment: bytes-per-packet and ceilings."""

    def __init__(self, gbps=PCIE_GEN4_X16_GBPS):
        self.gbps = gbps

    @property
    def bytes_per_second(self):
        return self.gbps * 1e9 / 8

    def bytes_for_packet(self, wire_bytes, split=False):
        """PCIe bytes moved for one packet, one direction."""
        if split:
            payload_bytes = min(wire_bytes, SPLIT_HEADER_BYTES)
        else:
            payload_bytes = wire_bytes
        return payload_bytes + PLB_META_BYTES + DESCRIPTOR_OVERHEAD_BYTES

    def max_pps(self, wire_bytes, split=False, directions=2):
        """Packet rate at which this link saturates.

        ``directions=2`` charges both the RX and TX crossing of a
        forwarded packet.
        """
        per_packet = self.bytes_for_packet(wire_bytes, split) * directions
        return self.bytes_per_second / per_packet


class PortCapacityModel:
    """A NIC port's line rate with optional protocol prioritization.

    Models §2.1's failure: when offered load exceeds the port, the
    excess is dropped *indiscriminately* -- protocol packets included --
    unless ``priority_protected`` reserves headroom for them (Albatross's
    dedicated priority queues).
    """

    PREAMBLE_IFG_BYTES = 20  # preamble + inter-frame gap on the wire

    def __init__(self, gbps=100, priority_protected=True):
        self.gbps = gbps
        self.priority_protected = priority_protected

    def line_rate_pps(self, frame_bytes):
        wire = frame_bytes + self.PREAMBLE_IFG_BYTES
        return self.gbps * 1e9 / 8 / wire

    def delivery(self, offered_data_pps, offered_protocol_pps, frame_bytes=256,
                 protocol_bytes=64):
        """(delivered_data_pps, delivered_protocol_pps) under contention."""
        capacity = self.line_rate_pps(frame_bytes)
        # Protocol volume is tiny; convert to data-frame equivalents.
        equivalence = (protocol_bytes + self.PREAMBLE_IFG_BYTES) / (
            frame_bytes + self.PREAMBLE_IFG_BYTES
        )
        protocol_load = offered_protocol_pps * equivalence
        total = offered_data_pps + protocol_load
        if total <= capacity:
            return offered_data_pps, offered_protocol_pps
        if self.priority_protected:
            # Protocol gets strict priority; data absorbs the whole cut.
            data_capacity = max(0.0, capacity - protocol_load)
            return min(offered_data_pps, data_capacity), offered_protocol_pps
        # Indiscriminate drop: both classes scaled by the same factor --
        # this is what broke BGP/BFD on the 1st-gen gateways.
        keep = capacity / total
        return offered_data_pps * keep, offered_protocol_pps * keep
