"""Tests for the experiment infrastructure (results, runner, scaling) and the
paper claims, each checked at quick size."""

import ast
from pathlib import Path

import pytest

from repro.bgp.switch import SAFE_PEER_THRESHOLD
from repro.container.elasticity import POD_PREPARE_NS
from repro.core.plb.reorder import ReorderQueueConfig
from repro.core.resources import (
    NIC_MODULE_LATENCY_US,
    NIC_MODULE_RESOURCES_PCT,
    rx_ns,
)
from repro.experiments.claims import CALIBRATED, CLAIMS, EMERGENT, claims_for
from repro.experiments.common import ExperimentResult
from repro.experiments.fig15_cost import RELATIVE_COST
from repro.experiments.fig7_bgp import SERVERS_PER_SWITCH
from repro.table import format_table
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.sim.units import MS, SECOND, US
from repro.tofino.sailfish import sailfish_egress_program

REPO = Path(__file__).parent.parent


def _md_rows():
    """EXPERIMENTS.md's ``| `id` | ...`` rows as ``(claims, cited)``, each
    mapping an id to the cells after it; "## Cited inputs" holds the cited."""
    claims, cited, table = {}, {}, {}
    for line in (REPO / "EXPERIMENTS.md").read_text().splitlines():
        if line.startswith("## "):
            table = cited if line == "## Cited inputs" else claims
        elif line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split(" | ")]
            table[cells[0].strip("`")] = cells[1:]
    return claims, cited


def _pct_sum(column, modules):
    return sum(NIC_MODULE_RESOURCES_PCT[module][column] for module in modules)


#: Each echo that left ``CLAIMS`` -> ``(paper, repo)`` pairs: the paper's
#: number, and what the constants the echo read give for it.
#: ``tab6.performance`` has none: its cells were typed into a driver that
#: is gone, and no other code read them.
CITED_INPUTS = {
    "tab4.rx-total": [(3.90, lambda: rx_ns() / US)],
    "tab4.tx-total": [(4.17, lambda: sum(tx for _, tx in NIC_MODULE_LATENCY_US.values()))],
    "tab4.dma-dominates": [((3.17, 2.98), lambda: NIC_MODULE_LATENCY_US["dma"])],
    "tab5.lut-total": [(60.0, lambda: _pct_sum(0, NIC_MODULE_RESOURCES_PCT))],
    "tab5.bram-total": [(44.5, lambda: _pct_sum(1, NIC_MODULE_RESOURCES_PCT))],
    "tab5.plb-overload-lut": [(14.6, lambda: _pct_sum(0, ("plb", "overload_detection")))],
    "tab6.lpm-capacity": [(0.2, lambda: round(next(
        t.entries for t in sailfish_egress_program().tables if t.name == "vxlan_route_lpm"
    ) / 1e6, 1))],
    "tab6.elasticity": [(10, lambda: POD_PREPARE_NS / SECOND)],
    "tab6.cost": [(2.0, lambda: RELATIVE_COST["albatross"] / RELATIVE_COST["physical"])],
    "tab6.performance": [],
    "fig7.direct-caps-density": [(2, lambda: SAFE_PEER_THRESHOLD // SERVERS_PER_SWITCH)],
    "reorder.more-queues-less-tolerance": [
        (4096, lambda: ReorderQueueConfig().depth),
        (100, lambda: ReorderQueueConfig().timeout_ns / US),
    ],
}


def _cited_misses(cited):
    """The paper numbers that ``cited``'s constants no longer give."""
    return [paper for paper, repo in CITED_INPUTS[cited]
            if repo() != pytest.approx(paper, abs=0.01)]


def _cited_mismatches():
    return {cited for cited in CITED_INPUTS if _cited_misses(cited)}


class TestExperimentResult:
    def test_rows_are_copies(self):
        result = ExperimentResult("x", [{"a": 1}])
        result.rows().append({"a": 2})
        assert len(result.rows()) == 1

    def test_column(self):
        result = ExperimentResult("x", [{"a": 1}, {"a": 2}])
        assert result.column("a") == [1, 2]

    def test_print_table(self, capsys):
        result = ExperimentResult("demo", [{"a": 1, "b": "x"}], meta={"k": "v"})
        result.print_table()
        out = capsys.readouterr().out
        assert "demo" in out
        assert "k: v" in out


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_alignment(self):
        rendered = format_table([{"col": 1, "other": "abc"}, {"col": 22, "other": "d"}])
        lines = rendered.splitlines()
        assert len(lines) == 4  # header, divider, 2 rows
        assert lines[0].startswith("col")

    def test_float_formatting(self):
        rendered = format_table([{"x": 0.123456789}])
        assert "0.1235" in rendered

    def test_missing_cell(self):
        rendered = format_table([{"a": 1, "b": 2}, {"a": 3}])
        rows = rendered.splitlines()[2:]
        assert rows[1].split() == ["3", "-"]

    def test_union_of_keys_first_seen_order(self):
        rendered = format_table([{"a": 1}, {"b": 2, "a": 3}, {"c": 4}])
        header = rendered.splitlines()[0].split()
        assert header == ["a", "b", "c"]
        last = rendered.splitlines()[-1].split()
        assert last == ["-", "-", "4"]

    def test_explicit_none_still_renders(self):
        rendered = format_table([{"a": None}, {"b": 1}])
        first_row = rendered.splitlines()[2].split()
        assert first_row == ["None", "-"]


class TestScaledService:
    @pytest.mark.parametrize("target", [25_000, 100_000, 1_000_000])
    def test_per_core_rate_calibration(self, target):
        from repro.cpu.service import ServiceChain, scaled_service

        service = scaled_service(per_core_pps=target)
        chain = ServiceChain(service, assumed_hit_rate=0.35)
        assert chain.per_core_mpps() * 1e6 == pytest.approx(target, rel=0.01)

    def test_egress_fn_is_assignable_after_build(self):
        # benchmarks/perf watches flow order by wrapping the NIC's egress hook.
        from repro.scenarios import PodSpec, ScenarioSpec, WorkloadSpec, build
        from repro.sim.units import MS

        handle = build(ScenarioSpec(
            name="scaled-pod", seed=1,
            pods=(PodSpec(data_cores=2, per_core_pps=100_000),),
            workload=WorkloadSpec(flows=10, tenants=2, rate_pps=50_000, stream="t"),
        ))
        counts = {}
        forward = handle.pod.nic.egress_fn

        def count_egress(packet, outcome):
            counts[packet.vni] = counts.get(packet.vni, 0) + 1
            forward(packet, outcome)

        handle.pod.nic.egress_fn = count_egress
        handle.run(10 * MS)
        assert sum(counts.values()) == handle.pod.transmitted()
        assert set(counts) == {0, 1}


def _hand_wiring(text):
    """``(line, what)`` for each place ``text`` constructs a packet source
    or an ``AlbatrossServer``, or assigns an attribute of a ``.nic``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name.endswith("Source") or name == "AlbatrossServer":
                found.append((node.lineno, f"constructs {name}"))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                (node.lineno, f"assigns .nic.{target.attr}") for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Attribute) and target.value.attr == "nic"
            )
    return sorted(found)


class TestOneConstructionPath:
    """An experiment states its run as a ``ScenarioSpec`` and gets it from
    ``build(spec)``: it wires no source, server or NIC part by hand."""

    def test_no_experiment_wires_a_deployment_by_hand(self):
        findings = [
            f"{path.name}:{line} {what}"
            for path in sorted((REPO / "src" / "repro" / "experiments").glob("*.py"))
            for line, what in _hand_wiring(path.read_text())
        ]
        assert not findings, findings

    def test_the_guard_sees_each_form(self):
        planted = (
            "CbrSource(sim, rng, sink, population, 10)\n"
            "source = generators.PoissonSource(sim, rng, sink, population, 10)\n"
            "server = AlbatrossServer(sim, rngs, l3_bytes=1)\n"
            "handle.pod.nic.session_offload = offload\n"
            "pod.nic.rate_limiter: object = limiter\n"
            "handle.pod.nic.mode = 'rss'\n"
            "handle.pod.nic.egress_fn(packet, outcome)\n"
            "spec = WorkloadSpec(rate_pps=10)\n"
        )
        assert [line for line, _what in _hand_wiring(planted)] == [1, 2, 3, 4, 5, 6]


class TestCitedInputs:
    """The paper numbers no model code computes: each constant an echo
    read still gives the paper's number, and EXPERIMENTS.md's "Cited
    inputs" table lists every echo."""

    @pytest.mark.parametrize("cited", [cited for cited, pairs in CITED_INPUTS.items() if pairs])
    def test_every_cited_constant_gives_the_paper_number(self, cited):
        assert _cited_misses(cited) == []

    def test_experiments_md_cites_each_echo(self):
        _claims, cited = _md_rows()
        assert set(cited) == set(CITED_INPUTS)
        assert set(cited).isdisjoint(claim.id for claim in CLAIMS)


class TestRunner:
    def test_covers_every_table_and_figure(self):
        for required in (
            "tab1", "tab3", "tab4", "tab5",
            "fig4_fig5", "fig7_peers", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        ):
            assert required in EXPERIMENTS, required


@pytest.fixture(scope="session")
def quick_result():
    """Each experiment's quick-size result, run at most once per test run."""
    results = {}

    def result(name):
        if name not in results:
            results[name] = run_experiment(name, quick=True)
        return results[name]

    return result


class TestClaims:
    @pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
    def test_holds_at_quick_size(self, claim, quick_result):
        holds, verdict = claim.check(quick_result(claim.experiment))
        assert holds, verdict

    def test_every_experiment_has_a_claim(self):
        assert [name for name in EXPERIMENTS if not claims_for(name)] == []

    def test_every_claim_names_an_experiment(self):
        assert [claim.id for claim in CLAIMS if claim.experiment not in EXPERIMENTS] == []

    def test_claim_ids_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_experiments_md_rows_are_the_claims(self):
        """EXPERIMENTS.md has one row per claim, carrying its paper text and
        a Kind cell that opens with the claim's kind, then gives the reason."""
        claims, _cited = _md_rows()
        kinds = {claim: cells[2].split(": ", 1) for claim, cells in claims.items()}
        assert [claim for claim, kind in kinds.items() if len(kind) != 2] == []
        assert ({claim: (cells[0], kinds[claim][0]) for claim, cells in claims.items()}
                == {claim.id: (claim.statement, claim.kind) for claim in CLAIMS})

    def test_no_claim_is_an_echo(self):
        assert {claim.kind for claim in CLAIMS} <= {EMERGENT, CALIBRATED}

    def test_dma_latency_perturbation_fails_exactly_the_unloaded_latency(self, monkeypatch):
        """+0.5 us of DMA latency per direction breaks the measured unloaded
        latency and no claim of any other cheap experiment.  The cited
        Tab. 4 inputs see it too: their sums and DMA row no longer read
        the paper's."""
        from repro.core import resources

        rx_us, tx_us = resources.NIC_MODULE_LATENCY_US["dma"]
        monkeypatch.setitem(
            resources.NIC_MODULE_LATENCY_US, "dma", (rx_us + 0.5, tx_us + 0.5)
        )
        cheap = ("tab1", "tab4", "tab5", "fig7_peers", "fig7_protocol",
                 "fig15", "ablation_stateful", "ablation_memfreq",
                 "ablation_collisions", "ablation_offload", "appendix_split",
                 "appendix_port")
        failing = set()
        for name in cheap:
            result = run_experiment(name, quick=True)
            failing |= {c.id for c in claims_for(name) if not c.check(result)[0]}
        assert failing == {"tab4.unloaded-latency"}
        assert _cited_mismatches() == {"tab4.rx-total", "tab4.tx-total",
                                       "tab4.dma-dominates"}

    @pytest.mark.parametrize("name, holding", [
        ("fig13", {"fig13.full-rate-before-burst"}),
        ("fig14", set()),
    ])
    def test_burst_claims_fail_on_a_run_that_ends_before_the_burst(self, name, holding):
        """Regression: ``--quick`` ran Fig. 13/14 for 500 ms, but the burst
        starts at 1 s, so the quick tables showed no overload at all."""
        function = EXPERIMENTS[name][0]
        result = function(duration_ns=500 * MS)
        assert {c.id for c in claims_for(name) if c.check(result)[0]} == holding
