"""Tests of the reachability check's bookkeeping (``tests/reachability.py``).

The check itself runs every command and takes minutes, so CI's lint job
runs it.  These tests run its parts on a small planted package instead:
how ``def``s are named and keyed, how allow-list entries cover names,
and which problems make it exit 1.  The last three also hold today's
allow-list to the shape the check needs without running any command.
"""

import importlib
import re
import sys
import textwrap

import pytest

from tests.reachability import (
    ALLOWED,
    _covers,
    definitions,
    find_problems,
    profile_reached,
)

PLANTED = {
    "__init__.py": '''
        def package_helper():
            return 1
    ''',
    "mod.py": '''
        import functools


        def used():
            return helper()


        def helper():
            return 2


        def planted():
            """Nothing calls this."""
            return 3


        class Box:
            def open(self):
                def inner():
                    return 4
                return inner()

            @functools.lru_cache(maxsize=None)
            def cached(self):
                return 5
    ''',
}


@pytest.fixture
def planted(tmp_path):
    """A package ``plantpkg`` on ``sys.path``; yields its source directory."""
    package = tmp_path / "plantpkg"
    package.mkdir()
    for name, text in PLANTED.items():
        (package / name).write_text(textwrap.dedent(text).lstrip())
    sys.path.insert(0, str(tmp_path))
    try:
        yield package
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.split(".")[0] == "plantpkg"]:
            del sys.modules[name]


def _names(functions):
    return [name for name, _, _ in functions]


def _reached(run):
    """Profile ``run`` and keep the keys of the planted package only."""
    return {key for key in profile_reached(run) if "plantpkg" in key[0]}


def _call_used(workdir):
    importlib.import_module("plantpkg.mod").used()


class TestDefinitions:
    def test_dotted_names_follow_modules_classes_and_nesting(self, planted):
        assert _names(definitions(planted)) == [
            "plantpkg.package_helper",
            "plantpkg.mod.used",
            "plantpkg.mod.helper",
            "plantpkg.mod.planted",
            "plantpkg.mod.Box.open",
            "plantpkg.mod.Box.open.inner",
            "plantpkg.mod.Box.cached",
        ]

    def test_body_lines_count_from_the_first_statement(self, planted):
        bodies = {name: body for name, _, body in definitions(planted)}
        assert bodies["plantpkg.mod.planted"] == 2  # docstring + return
        assert bodies["plantpkg.mod.Box.open"] == 3  # inner's def counts

    def test_keys_match_what_the_profile_hook_records(self, planted):
        """A decorated function's code object starts at its first
        decorator; the key must too, or calling it would not count."""
        keys = {name: key for name, key, _ in definitions(planted)}

        def run(workdir):
            module = importlib.import_module("plantpkg.mod")
            module.Box().open()
            module.Box().cached()

        reached = _reached(run)
        assert keys["plantpkg.mod.Box.cached"] in reached
        assert keys["plantpkg.mod.Box.open"] in reached
        assert keys["plantpkg.mod.Box.open.inner"] in reached
        assert keys["plantpkg.mod.planted"] not in reached

    def test_importing_a_module_calls_none_of_its_functions(self, planted):
        """The package body and ``package_helper`` both start on line 1
        of ``__init__.py``; running the body is not calling the def."""
        keys = {name: key for name, key, _ in definitions(planted)}
        reached = _reached(lambda workdir: importlib.import_module("plantpkg.mod"))
        assert keys["plantpkg.package_helper"][1] == 1
        assert reached  # the class body ran, but it is no def
        assert reached.isdisjoint(keys.values())


class TestCovers:
    @pytest.mark.parametrize("entry, name, covered", [
        ("repro.core.nic", "repro.core.nic", True),
        ("repro.core.nic", "repro.core.nic.NicPipeline.ingress", True),
        ("repro.core.nic.NicPipeline", "repro.core.nic.NicPipeline.ingress", True),
        ("repro.core.nic", "repro.core.nicety.helper", False),
        ("repro.core.nic.NicPipeline.ingress", "repro.core.nic.NicPipeline", False),
    ])
    def test_an_entry_covers_its_dotted_subtree_only(self, entry, name, covered):
        assert _covers(entry, name) is covered


class TestFindProblems:
    def test_a_planted_uncalled_function_fails_the_check(self, planted):
        functions = list(definitions(planted))
        unreached, problems = find_problems(functions, _reached(_call_used), {
            "plantpkg.package_helper": "package surface",
            "plantpkg.mod.Box": "planted class",
        })
        assert problems == ["not called and not allow-listed: plantpkg.mod.planted"]
        assert ("plantpkg.mod.planted", 2) in unreached

    def test_entries_cover_what_is_not_called(self, planted):
        functions = list(definitions(planted))
        unreached, problems = find_problems(functions, _reached(_call_used), {
            "plantpkg.package_helper": "package surface",
            "plantpkg.mod.planted": "kept on purpose",
            "plantpkg.mod.Box": "planted class",
        })
        assert problems == []
        assert [name for name, _ in unreached] == [
            "plantpkg.package_helper",
            "plantpkg.mod.planted",
            "plantpkg.mod.Box.open",
            "plantpkg.mod.Box.open.inner",
            "plantpkg.mod.Box.cached",
        ]

    def test_a_module_entry_covers_the_whole_module(self, planted):
        functions = list(definitions(planted))
        _, problems = find_problems(functions, set(), {"plantpkg": "nothing runs"})
        assert problems == []

    def test_an_entry_over_a_called_function_is_stale(self, planted):
        functions = list(definitions(planted))
        _, problems = find_problems(functions, _reached(_call_used), {
            "plantpkg.package_helper": "package surface",
            "plantpkg.mod.planted": "kept on purpose",
            "plantpkg.mod.Box": "planted class",
            "plantpkg.mod.helper": "thought unused",
        })
        assert problems == [
            "allow-listed but called (stale entry plantpkg.mod.helper): plantpkg.mod.helper",
        ]

    def test_an_entry_that_matches_nothing_fails(self, planted):
        functions = list(definitions(planted))
        _, problems = find_problems(functions, set(), {
            "plantpkg": "nothing runs",
            "plantpkg.mod.gone": "deleted long ago",
        })
        assert problems == ["allow-list entry matches no function: plantpkg.mod.gone"]

    def test_an_entry_needs_a_reason(self, planted):
        functions = list(definitions(planted))
        _, problems = find_problems(functions, set(), {"plantpkg": "  "})
        assert problems == ["allow-list entry without a reason: plantpkg"]


class TestAllowList:
    def test_every_entry_names_code_in_the_tree(self):
        names = _names(definitions())
        missing = [
            entry for entry in ALLOWED
            if not any(_covers(entry, name) for name in names)
        ]
        assert missing == []

    def test_every_reason_is_one_line(self):
        for entry, reason in ALLOWED.items():
            assert reason.strip() and "\n" not in reason, entry

    def test_no_entry_keeps_code_only_tests_call_and_the_list_only_shrinks(self):
        """Code that only tests call goes, with the tests that call it; an
        entry names a command, a non-test caller or an oracle role."""
        assert [entry for entry, reason in ALLOWED.items()
                if re.search(r"only (tier-1 )?tests", reason)] == []
        assert len(ALLOWED) <= 75
