"""The programmable ``pkt_dir`` packet classifier (§3.2).

At NIC ingress, ``pkt_dir`` splits traffic into three paths:

* **priority packets** -- protocol traffic (BGP/BFD) through dedicated
  queues, immune to data-plane saturation;
* **PLB packets** -- ordinary data traffic sprayed per packet;
* **RSS packets** -- data traffic pinned per flow; this is both the
  fallback mode and the home of stateful odds and ends (Zoonet probes,
  health checks, vSwitch cache-learning packets) that must not be sprayed.

Containers program the classification: each GW pod installs rules for its
VNI range, including whether packets arrive whole or header-only.
"""

import enum

from repro.packet.packet import PacketKind


class DeliveryPath(enum.Enum):
    """Which NIC path a packet takes after classification."""

    PRIORITY = "priority"
    PLB = "plb"
    RSS = "rss"

    # Identity hash: ``classified[path]`` is per packet, and ``Enum.__hash__``
    # is a Python-level call (DESIGN.md "Performance").
    __hash__ = object.__hash__


class PktDirRule:
    """One programmable classification rule.

    Matches on packet kind and (optionally) VNI and destination port;
    yields a delivery path and delivery mode.  Rules are evaluated in
    priority order (lower value first).
    """

    __slots__ = ("kind", "vni", "dst_port", "path", "header_only", "priority")

    def __init__(
        self,
        path,
        kind=None,
        vni=None,
        dst_port=None,
        header_only=False,
        priority=100,
    ):
        self.path = path
        self.kind = kind
        self.vni = vni
        self.dst_port = dst_port
        self.header_only = header_only
        self.priority = priority

    def matches(self, packet):
        if self.kind is not None and packet.kind is not self.kind:
            return False
        if self.vni is not None and packet.vni != self.vni:
            return False
        if self.dst_port is not None and packet.flow.dst_port != self.dst_port:
            return False
        return True

    def __repr__(self):
        return (
            f"PktDirRule(path={self.path.value}, kind={self.kind}, "
            f"vni={self.vni}, dst_port={self.dst_port}, prio={self.priority})"
        )


class PktDir:
    """Rule table + default behaviour.

    With no matching rule, protocol packets take the priority path,
    stateful packets take RSS, and data packets take the pod's configured
    default mode (PLB in production, RSS after a fallback switch).
    """

    def __init__(self, default_data_path=DeliveryPath.PLB):
        # Re-derived from the pipeline's captured mode on restore (see
        # NicPipeline.restore), not snapshot data in its own right.
        self.default_data_path = default_data_path  # lint: disable=SNAP001(re-derived from the captured pipeline mode on restore)
        # Control-plane configuration: pods re-install their rules at
        # build time, so the table is shape, not state.
        self._rules = []  # lint: disable=SNAP001(control-plane config re-installed at pod build; not snapshot data)
        self.classified = {path: 0 for path in DeliveryPath}

    def checkpoint(self):
        """Plain-data snapshot: the per-path classification tallies.

        The rule table and default path are deliberately absent: rules
        are control-plane configuration re-installed when the pod is
        built, and the default data path is re-derived from the
        pipeline's captured mode on restore.
        """
        return {
            "classified": {
                path.value: self.classified[path] for path in DeliveryPath
            },
        }

    def restore(self, snapshot):
        self.classified = {
            path: snapshot["classified"][path.value] for path in DeliveryPath
        }

    def add_rule(self, rule):
        """Install a rule; table is re-sorted by priority."""
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.priority)
        return rule

    def remove_rule(self, rule):
        self._rules.remove(rule)

    @property
    def rules(self):
        return list(self._rules)

    def set_default_data_path(self, path):
        """Switch the pod's data-plane mode (PLB <-> RSS fallback)."""
        if path not in (DeliveryPath.PLB, DeliveryPath.RSS):
            raise ValueError("default data path must be PLB or RSS")
        self.default_data_path = path

    def classify(self, packet):
        """Return (DeliveryPath, header_only) for ``packet``."""
        rules = self._rules
        if rules:
            for rule in rules:
                # Inline of PktDirRule.matches (kept in sync): the rule
                # walk sits on the per-packet ingress path.
                if (
                    (rule.kind is None or packet.kind is rule.kind)
                    and (rule.vni is None or packet.vni == rule.vni)
                    and (
                        rule.dst_port is None
                        or packet.flow.dst_port == rule.dst_port
                    )
                ):
                    self.classified[rule.path] += 1
                    return rule.path, rule.header_only
        kind = packet.kind
        if kind is PacketKind.PROTOCOL:
            path = DeliveryPath.PRIORITY
        elif kind is PacketKind.STATEFUL:
            path = DeliveryPath.RSS
        else:
            path = self.default_data_path
        self.classified[path] += 1
        return path, False
