"""Tests for the experiment infrastructure (results, runner, scaling) and the
paper claims, each checked at quick size."""

from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS, claims_for
from repro.experiments.common import ExperimentResult, format_table
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.sim.units import MS

REPO = Path(__file__).parent.parent


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
        from repro.scenarios import PodSpec, ScenarioSpec, build
        from repro.sim.units import MS
        from repro.workloads.generators import CbrSource, uniform_population

        pod_spec = PodSpec(data_cores=2, per_core_pps=100_000)
        handle = build(ScenarioSpec(name="scaled-pod", seed=1, pods=(pod_spec,)))
        counts = {}
        forward = handle.pod.nic.egress_fn

        def count_egress(packet, outcome):
            counts[packet.vni] = counts.get(packet.vni, 0) + 1
            forward(packet, outcome)

        handle.pod.nic.egress_fn = count_egress
        population = uniform_population(10, tenants=2)
        CbrSource(
            handle.sim, handle.rngs.stream("t"), handle.pod.ingress,
            population, rate_pps=50_000,
        )
        handle.run(10 * MS)
        assert sum(counts.values()) == handle.pod.transmitted()
        assert set(counts) == {0, 1}


class TestRunner:
    def test_covers_every_table_and_figure(self):
        for required in (
            "tab1", "tab3", "tab4", "tab5", "tab6",
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
        """EXPERIMENTS.md has one row per claim, carrying its paper text."""
        rows = {}
        for line in (REPO / "EXPERIMENTS.md").read_text().splitlines():
            if line.startswith("| `"):
                cells = [cell.strip() for cell in line.strip("|").split(" | ")]
                rows[cells[0].strip("`")] = cells[1]
        assert rows == {claim.id: claim.statement for claim in CLAIMS}

    def test_dma_latency_perturbation_fails_exactly_the_tab4_sums(self, monkeypatch):
        """+0.5 us of DMA latency per direction breaks Tab. 4's totals and
        the measured unloaded latency, and no claim of any other cheap
        experiment; DMA then dominates even more, so that claim holds."""
        from repro.core import resources

        rx_us, tx_us = resources.NIC_MODULE_LATENCY_US["dma"]
        monkeypatch.setitem(
            resources.NIC_MODULE_LATENCY_US, "dma", (rx_us + 0.5, tx_us + 0.5)
        )
        cheap = ("tab1", "tab4", "tab5", "tab6", "fig7_peers", "fig7_protocol",
                 "fig15", "ablation_stateful", "ablation_memfreq",
                 "ablation_collisions", "ablation_offload", "appendix_split",
                 "appendix_port")
        failing = set()
        for name in cheap:
            result = run_experiment(name, quick=True)
            failing |= {c.id for c in claims_for(name) if not c.check(result)[0]}
        assert failing == {"tab4.rx-total", "tab4.tx-total", "tab4.unloaded-latency"}

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
