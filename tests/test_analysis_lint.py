"""Determinism-linter tests: each DET rule fires exactly where expected."""

import os
import textwrap

import pytest

import repro
from repro.analysis import (
    all_project_rules,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    select_rules,
)
from repro.cli import main

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def lint(source, path="repro/example.py"):
    findings = lint_source(textwrap.dedent(source), path=path)
    return [(finding.code, finding.line) for finding in findings]


def codes(source, path="repro/example.py"):
    return [code for code, _line in lint(source, path=path)]


class TestDet001Entropy:
    def test_import_random_fires(self):
        assert codes("import random\n") == ["DET001"]

    def test_import_time_fires(self):
        assert codes("import time\n") == ["DET001"]

    def test_from_imports_fire(self):
        source = """\
        from random import Random
        from time import perf_counter
        """
        assert codes(source) == ["DET001", "DET001"]

    def test_os_urandom_fires(self):
        source = """\
        import os

        def token():
            return os.urandom(8)
        """
        assert codes(source) == ["DET001"]

    def test_rng_registry_is_clean(self):
        source = """\
        from repro.sim.rng import RngRegistry, derived_stream

        rng = derived_stream("kick", seed=3)
        """
        assert codes(source) == []

    def test_sim_rng_module_is_exempt(self):
        assert codes("import random\n", path="src/repro/sim/rng.py") == []

    def test_dotted_import_fires(self):
        assert codes("import time.monotonic\n") == ["DET001"]

    def test_from_os_import_urandom_fires(self):
        assert codes("from os import urandom\n") == ["DET001"]

    def test_bare_urandom_call_fires(self):
        source = """\
        from os import path

        def token(urandom):
            return urandom(8)
        """
        assert codes(source) == ["DET001"]

    def test_datetime_now_fires(self):
        source = """\
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
        assert codes(source) == ["DET001"]

    def test_datetime_utcnow_fires(self):
        source = """\
        from datetime import datetime

        def stamp():
            return datetime.utcnow()
        """
        assert codes(source) == ["DET001"]

    def test_uuid4_call_fires(self):
        source = """\
        import uuid

        def ident():
            return uuid.uuid4()
        """
        assert codes(source) == ["DET001"]

    def test_from_uuid_import_uuid1_fires(self):
        assert codes("from uuid import uuid1\n") == ["DET001"]

    def test_uuid5_is_clean(self):
        # uuid3/uuid5 are name-based (deterministic); only uuid1/uuid4
        # draw ambient entropy.
        source = """\
        import uuid

        def ident(name):
            return uuid.uuid5(uuid.NAMESPACE_DNS, name)
        """
        assert codes(source) == []


class TestDet002UnorderedIteration:
    def test_set_literal_feeding_schedule_fires(self):
        source = """\
        def arm(sim):
            for delay in {10, 20}:
                sim.schedule(delay, print)
        """
        assert codes(source) == ["DET002"]

    def test_dict_values_feeding_dispatch_fires(self):
        source = """\
        def spray(plb, packets):
            for packet in packets.values():
                plb.dispatch(packet)
        """
        assert codes(source) == ["DET002"]

    def test_set_call_feeding_schedule_at_fires(self):
        source = """\
        def arm(sim, times):
            for t in set(times):
                sim.schedule_at(t, print)
        """
        assert codes(source) == ["DET002"]

    def test_comprehension_over_set_fires(self):
        source = """\
        def arm(sim, delays):
            return [sim.every(d, print) for d in frozenset(delays)]
        """
        assert codes(source) == ["DET002"]

    def test_unsorted_set_feeding_post_fires(self):
        source = """\
        def arm(sim, delays):
            for delay in set(delays):
                sim.post(delay, print)
        """
        assert codes(source) == ["DET002"]

    def test_sorted_set_feeding_post_is_clean(self):
        source = """\
        def arm(sim, delays):
            for delay in sorted(set(delays)):
                sim.post(delay, print)
        """
        assert codes(source) == []

    def test_sorted_wrapper_is_clean(self):
        source = """\
        def arm(sim, tasks):
            for name, delay in sorted(tasks.items()):
                sim.schedule(delay, print, name)
        """
        assert codes(source) == []

    def test_iteration_without_scheduling_is_clean(self):
        source = """\
        def total(counters):
            return sum(value for value in counters.values())
        """
        assert codes(source) == []

    def test_list_iteration_is_clean(self):
        source = """\
        def arm(sim, delays):
            for delay in delays:
                sim.schedule(delay, print)
        """
        assert codes(source) == []


class TestDet003FloatSimtimeEquality:
    def test_float_literal_equality_fires(self):
        source = """\
        def check(sim):
            return sim.now == 1.5
        """
        assert codes(source) == ["DET003"]

    def test_division_equality_fires(self):
        source = """\
        def check(deadline_ns, total):
            return deadline_ns == total / 2
        """
        assert codes(source) == ["DET003"]

    def test_not_equals_fires(self):
        source = """\
        def check(start_ns):
            return start_ns != float(10)
        """
        assert codes(source) == ["DET003"]

    def test_integer_equality_is_clean(self):
        source = """\
        def check(sim, deadline_ns):
            return sim.now == deadline_ns and deadline_ns == 0
        """
        assert codes(source) == []

    def test_ordering_comparison_is_clean(self):
        source = """\
        def check(sim, budget):
            return sim.now >= budget / 2
        """
        assert codes(source) == []

    def test_non_time_float_equality_is_clean(self):
        source = """\
        def check(ratio):
            return ratio == 0.5
        """
        assert codes(source) == []


class TestDet004HandRolledHeaps:
    def test_import_heapq_fires(self):
        assert codes("import heapq\n") == ["DET004"]

    def test_from_heapq_fires(self):
        assert codes("from heapq import heappush\n") == ["DET004"]

    def test_sched_fires(self):
        assert codes("import sched\n") == ["DET004"]

    def test_priority_queue_fires(self):
        assert codes("from queue import PriorityQueue\n") == ["DET004"]

    def test_plain_queue_import_is_clean(self):
        assert codes("from queue import Queue\n") == []

    def test_engine_is_exempt(self):
        assert codes("import heapq\n", path="src/repro/sim/engine.py") == []


class TestDet005CompletionOrder:
    def test_imap_unordered_fires(self):
        source = """\
        def run(pool, jobs):
            return list(pool.imap_unordered(work, jobs))
        """
        assert codes(source) == ["DET005"]

    def test_as_completed_call_fires(self):
        source = """\
        def run(futures):
            return [f.result() for f in as_completed(futures)]
        """
        assert codes(source) == ["DET005"]

    def test_as_completed_attribute_call_fires(self):
        source = """\
        import concurrent.futures

        def run(futures):
            return [f.result() for f in concurrent.futures.as_completed(futures)]
        """
        assert codes(source) == ["DET005"]

    def test_as_completed_import_fires(self):
        assert codes("from concurrent.futures import as_completed\n") == [
            "DET005"
        ]

    def test_ordered_pool_map_is_clean(self):
        source = """\
        def run(pool, jobs):
            return pool.map(work, jobs)
        """
        assert codes(source) == []

    @pytest.mark.parametrize("path", [
        "src/repro/fleet/engine.py",     # the sanctioned file gets no path pass
        "src/repro/fleet/report.py",
        "src/repro/runs/store.py",
        "benchmarks/perf/driver.py",
    ])
    @pytest.mark.parametrize("call", [
        "pool.imap_unordered(work, jobs)", "as_completed(jobs)",
    ])
    def test_fires_everywhere_no_path_is_exempt(self, path, call):
        source = f"def run(pool, jobs):\n    return list({call})\n"
        assert codes(source, path=path) == ["DET005"]

    def test_pool_map_is_the_only_sanctioned_site(self):
        """One reasoned suppression in the shipped tree, on pool_map's loop."""
        from pathlib import Path

        sites = [
            (path.name, line.split("#")[0].strip())
            for path in sorted(Path(SRC_DIR, "repro").rglob("*.py"))
            if "analysis" not in path.parts  # the analyzers' docs quote the syntax
            for line in path.read_text(encoding="utf-8").splitlines()
            if "lint: disable=DET005(" in line
        ]
        assert sites == [(
            "engine.py",
            "for position, outcome in pool.imap_unordered(_worker_call, tasks):",
        )]


class TestSuppressions:
    def test_trailing_suppression_with_reason(self):
        source = "import time  # lint: disable=DET001(host-side timing only)\n"
        assert codes(source) == []

    def test_trailing_suppression_only_covers_its_line(self):
        source = """\
        import time  # lint: disable=DET001(host-side timing only)
        import random
        """
        assert lint(source) == [("DET001", 2)]

    def test_file_level_baseline_suppresses_everywhere(self):
        source = """\
        # lint: disable=DET001(fixture exercises the entropy rule)
        import time
        import random
        """
        assert codes(source) == []

    def test_suppression_without_reason_is_reported(self):
        source = "import time  # lint: disable=DET001\n"
        assert sorted(codes(source)) == ["DET001", "LNT000"]

    def test_empty_reason_is_reported(self):
        source = "import time  # lint: disable=DET001()\n"
        assert sorted(codes(source)) == ["DET001", "LNT000"]

    def test_multiple_codes_in_one_comment(self):
        source = (
            "import time, heapq  "
            "# lint: disable=DET001(timing),DET004(fixture heap)\n"
        )
        assert codes(source) == []

    def test_multiple_codes_one_stale_is_reported(self):
        # DET004 never fires on a bare `import time`, so its half of the
        # comment is stale even though DET001's half is live.
        source = (
            "import time  "
            "# lint: disable=DET001(timing),DET004(not actually a heap)\n"
        )
        assert codes(source) == ["LNT002"]

    def test_wrong_code_does_not_suppress(self):
        source = "import heapq  # lint: disable=DET001(wrong rule)\n"
        assert sorted(codes(source)) == ["DET004", "LNT002"]

    def test_unknown_code_reported_as_lnt003(self):
        source = "x = 1  # lint: disable=ZZZ999(no such rule)\n"
        assert codes(source) == ["LNT003"]

    def test_stale_file_level_suppression_reported(self):
        source = """\
        # lint: disable=DET001(there used to be an import time here)
        x = 1
        """
        assert codes(source) == ["LNT002"]

    def test_stale_not_reported_when_rule_not_active(self):
        # A DET004 baseline in a file linted with only the entropy rule
        # selected must not be called stale: the rule that could match
        # it never ran.
        rules, project_rules = select_rules(["DET001"])
        findings = lint_source(
            "# lint: disable=DET004(exempted heap use)\nx = 1\n",
            path="repro/example.py",
            rules=rules, project_rules=project_rules,
        )
        assert findings == []

    def test_stale_check_can_be_disabled(self):
        source = "# lint: disable=DET001(baseline kept on purpose)\nx = 1\n"
        findings = lint_source(
            source, path="repro/example.py", check_stale=False
        )
        assert findings == []

    def test_file_level_suppression_used_by_any_match_is_not_stale(self):
        source = """\
        # lint: disable=DET001(fixture imports entropy twice)
        import time
        import random
        """
        assert codes(source) == []


class TestReporting:
    def test_syntax_error_reported_not_raised(self):
        assert codes("def broken(:\n") == ["LNT001"]

    def test_findings_carry_position(self):
        findings = lint_source("import random\n", path="repro/x.py")
        finding = findings[0]
        assert (finding.path, finding.line, finding.code) == (
            "repro/x.py", 1, "DET001"
        )
        assert "repro/x.py:1:1: DET001" in finding.render()

    def test_rule_registry_complete(self):
        rules = all_rules()
        codes_seen = [rule.code for rule in rules]
        # The registry, not a hand-maintained list, is the inventory:
        # assert the families are present and every rule is documented.
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005",
                     "SNAP001", "SNAP002", "SNAP004"):
            assert code in codes_seen
        assert len(codes_seen) == len(set(codes_seen))
        assert all(rule.summary for rule in rules)
        assert get_rule("DET001").code == "DET001"

    def test_project_rule_registry(self):
        project = all_project_rules()
        assert "SNAP003" in [rule.code for rule in project]
        assert get_rule("SNAP003").code == "SNAP003"

    def test_select_rules_by_prefix_and_code(self):
        snap_rules, snap_project = select_rules(["SNAP"])
        assert {rule.code for rule in snap_rules} == {
            "SNAP001", "SNAP002", "SNAP004"
        }
        assert [rule.code for rule in snap_project] == ["SNAP003"]
        only_det1, no_project = select_rules(["DET001"])
        assert [rule.code for rule in only_det1] == ["DET001"]
        assert no_project == []

    def test_select_rules_unknown_selector_raises(self):
        with pytest.raises(ValueError):
            select_rules(["NOPE"])


class TestShippedTree:
    def test_lint_src_exits_clean(self):
        report = lint_paths([SRC_DIR])
        assert report.clean, "\n" + report.render()
        assert report.files_checked > 90

    def test_cli_lint_exit_code(self, capsys):
        assert main(["lint", SRC_DIR]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_lint_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["lint", str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005",
                     "SNAP001", "SNAP002", "SNAP003", "SNAP004"):
            assert code in out

    def test_cli_list_rules_respects_select(self, capsys):
        assert main(["lint", "--list-rules", "--select", "SNAP"]) == 0
        out = capsys.readouterr().out
        assert "SNAP001" in out and "SNAP003" in out
        assert "DET001" not in out

    def test_cli_select_runs_only_matching_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["lint", "--select", "SNAP", str(bad)]) == 0
        assert main(["lint", "--select", "DET", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_cli_select_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--select", "NOPE", "src"]) == 2
        assert "NOPE" in capsys.readouterr().err
