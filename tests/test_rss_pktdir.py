"""RSS dispatcher and pkt_dir classifier tests."""

import ast
import json
from pathlib import Path

import pytest

from repro.core.gateway import _OUTCOME_KEYS
from repro.core.pktdir import DeliveryPath, PktDir
from repro.core.plb.reorder import TxOutcome
from repro.core.ratelimit import RateLimitDecision, TwoStageRateLimiter
from repro.core.rss import INDIRECTION_ENTRIES, RssDispatcher
from repro.packet.flows import FlowKey, flow_for_tenant
from repro.packet.packet import Packet, PacketKind
from repro.sim.rng import derived_stream


class FakeCore:
    def __init__(self, core_id):
        self.core_id = core_id


class TestRss:
    def test_flow_pinning(self):
        """Every packet of a flow lands on the same core."""
        rss = RssDispatcher([FakeCore(index) for index in range(8)])
        flow = FlowKey(1, 2, 3, 4, 6)
        cores = {rss.dispatch(Packet(flow)).core_id for _ in range(50)}
        assert len(cores) == 1

    def test_flows_spread_across_cores(self):
        rss = RssDispatcher([FakeCore(index) for index in range(8)])
        cores = {
            rss.core_for_flow(flow_for_tenant(tenant, index)).core_id
            for tenant in range(30)
            for index in range(10)
        }
        assert cores == set(range(8))

    def test_indirection_reprogramming(self):
        cores = [FakeCore(index) for index in range(4)]
        rss = RssDispatcher(cores)
        rss.set_indirection([2] * INDIRECTION_ENTRIES)
        assert rss.core_for_flow(FlowKey(1, 2, 3, 4, 6)).core_id == 2

    def test_indirection_validation(self):
        rss = RssDispatcher([FakeCore(0)])
        with pytest.raises(ValueError):
            rss.set_indirection([0] * 10)
        with pytest.raises(ValueError):
            rss.set_indirection([5] * INDIRECTION_ENTRIES)

    def test_needs_cores(self):
        with pytest.raises(ValueError):
            RssDispatcher([])


def packet(kind=PacketKind.DATA, vni=1, dst_port=4789):
    return Packet(FlowKey(1, 2, 3, dst_port, 17), vni=vni, kind=kind)


class TestPktDir:
    def test_defaults(self):
        pkt_dir = PktDir()
        assert pkt_dir.classify(packet(PacketKind.DATA)) is DeliveryPath.PLB
        assert pkt_dir.classify(packet(PacketKind.PROTOCOL)) is DeliveryPath.PRIORITY

    def test_rss_default_mode(self):
        pkt_dir = PktDir(default_data_path=DeliveryPath.RSS)
        assert pkt_dir.classify(packet()) is DeliveryPath.RSS

    def test_fallback_switch(self):
        """§4.1 remediation 5: PLB -> RSS at runtime."""
        pkt_dir = PktDir()
        pkt_dir.set_default_data_path(DeliveryPath.RSS)
        assert pkt_dir.classify(packet()) is DeliveryPath.RSS
        with pytest.raises(ValueError):
            pkt_dir.set_default_data_path(DeliveryPath.PRIORITY)

    def test_classified_counters(self):
        pkt_dir = PktDir()
        pkt_dir.classify(packet())
        pkt_dir.classify(packet(PacketKind.PROTOCOL))
        assert pkt_dir.classified[DeliveryPath.PLB] == 1
        assert pkt_dir.classified[DeliveryPath.PRIORITY] == 1

    @pytest.mark.parametrize("kind, default, path", [
        (PacketKind.PROTOCOL, DeliveryPath.PLB, DeliveryPath.PRIORITY),
        (PacketKind.PROTOCOL, DeliveryPath.RSS, DeliveryPath.PRIORITY),
        (PacketKind.DATA, DeliveryPath.PLB, DeliveryPath.PLB),
        (PacketKind.DATA, DeliveryPath.RSS, DeliveryPath.RSS),
    ])
    def test_split_by_kind_and_default_path(self, kind, default, path):
        """Protocol traffic ignores the pod's mode; data follows it."""
        pkt_dir = PktDir(default_data_path=default)
        assert [pkt_dir.classify(packet(kind, vni=vni)) for vni in (1, 2, 3)] == [path] * 3
        assert pkt_dir.classified == {
            other: 3 if other is path else 0 for other in DeliveryPath
        }

    def test_restore_round_trips_the_snapshot(self):
        pkt_dir = PktDir()
        pkt_dir.restore({"classified": {"priority": 4, "plb": 9, "rss": 2}})
        assert pkt_dir.checkpoint() == {"classified": {"priority": 4, "plb": 9, "rss": 2}}
        pkt_dir.classify(packet())
        assert pkt_dir.classified[DeliveryPath.PLB] == 10

    def test_checkpoint_restore_carries_tallies_only(self):
        pkt_dir = PktDir()
        for kind in PacketKind:
            pkt_dir.classify(packet(kind))
        pkt_dir.set_default_data_path(DeliveryPath.RSS)
        pkt_dir.classify(packet())
        pkt_dir.classify(packet())
        snapshot = pkt_dir.checkpoint()
        assert snapshot == {"classified": {"priority": 1, "plb": 1, "rss": 2}}
        restored = PktDir()
        restored.restore(snapshot)
        assert restored.classified == pkt_dir.classified
        assert restored.default_data_path is DeliveryPath.PLB


_IDENTITY_HASHED = (DeliveryPath, TxOutcome, RateLimitDecision)
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _set_builds_of_identity_hashed(tree):
    """Set displays, set comprehensions and set()/frozenset() calls that
    name one of the identity-hashed enums."""
    names = {enum.__name__ for enum in _IDENTITY_HASHED}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            if any(isinstance(leaf, ast.Name) and leaf.id in names for leaf in ast.walk(node)):
                yield node


def _membership_operand(node, parents):
    """True when ``node`` is only the right-hand side of ``in``/``not in``."""
    parent = parents[node]
    return (
        isinstance(parent, ast.Compare) and node in parent.comparators
        and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    )


class TestIdentityHashedEnums:
    """``DeliveryPath``, ``TxOutcome`` and ``RateLimitDecision`` are per-packet
    dict keys, so they hash by identity.  Enum hashes were never stable
    across runs (``Enum.__hash__`` hashes the member name, and string
    hashing is randomized), so nothing may depend on their order."""

    def test_members_hash_by_identity(self):
        for enum in _IDENTITY_HASHED:
            assert enum.__hash__ is object.__hash__
            for member in enum:
                assert hash(member) == object.__hash__(member)

    def test_pktdir_snapshot_bytes(self):
        pkt_dir = PktDir()
        for kind in (PacketKind.DATA, PacketKind.DATA, PacketKind.PROTOCOL):
            pkt_dir.classify(packet(kind))
        pkt_dir.set_default_data_path(DeliveryPath.RSS)
        pkt_dir.classify(packet())
        assert json.dumps(pkt_dir.checkpoint()) == (
            '{"classified": {"priority": 1, "plb": 2, "rss": 1}}'
        )

    def test_limiter_snapshot_bytes(self):
        limiter = TwoStageRateLimiter(
            derived_stream("test.sampler", seed=1),
            stage1_rate_pps=400, stage2_rate_pps=100,
        )
        limiter.add_bypass(5)
        decisions = [limiter.admit(vni, 0) for vni in (5, 1, 1, 1, 1, 1, 1)]
        assert [decision.allowed for decision in decisions] == [True] * 6 + [False]
        assert json.dumps(limiter.checkpoint()["decisions"]) == (
            '{"allow": 4, "allow_marked": 1, "drop_meter": 1, '
            '"allow_pre": 0, "drop_pre": 0, "bypass": 1}'
        )

    def test_outcome_report_keys(self):
        assert _OUTCOME_KEYS == {
            **{outcome: outcome.value for outcome in TxOutcome},
            "rss": "rss", "fpga_fast_path": "fpga_fast_path",
        }
        assert list(_OUTCOME_KEYS.values()) == [
            "in_order", "best_effort", "drop_flag", "rss", "fpga_fast_path",
        ]

    def test_nothing_under_src_iterates_a_set_of_them(self):
        found = []
        for path in sorted(_SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in _set_builds_of_identity_hashed(tree):
                found.append(path.name)
                if _membership_operand(node, parents):
                    continue
                target = parents[node]
                assert isinstance(target, ast.Assign) and len(target.targets) == 1, (
                    f"{path}:{node.lineno}: a set of identity-hashed enums "
                    f"that is not a named membership table"
                )
                name = target.targets[0].id
                for use in ast.walk(tree):
                    if isinstance(use, ast.Name) and use.id == name and isinstance(use.ctx, ast.Load):
                        assert _membership_operand(use, parents), (
                            f"{path}:{use.lineno}: {name} is used other than as "
                            f"the right-hand side of 'in'"
                        )
        assert found == ["ratelimit.py"]  # RateLimitDecision's ``allowed`` table
