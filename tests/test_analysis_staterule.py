"""The completeness rule on seeded defects: each way a snapshot silently
stops being total is caught on a live object, and its clean twin is not.

One class per historical failure mode: an attribute that changes outside
``STATE``/``DERIVED`` (once SNAP001), a restore side that ignores or
invents a key (SNAP002), an undeclared component reached through wiring
(SNAP003) and an rng stream whose position is never captured (SNAP004).
"""

from repro.analysis.statecheck import check_completeness, probe_object
from repro.controlplane.snapshot import Stateful, Table
from repro.sim.rng import derived_stream


def findings(root, exercise):
    return [finding.detail for finding in check_completeness([root], exercise)]


class TestUndeclaredChange:
    def test_synthetic_drift_is_caught(self):
        # Add a mutable attribute, forget to declare it, and the rule
        # fires before any workload diverges.
        class Counter(Stateful):
            STATE = ("label",)

            def __init__(self):
                self.count = 0
                self.label = "x"

        counter = Counter()
        found = findings(counter, lambda: setattr(counter, "count", counter.count + 1))
        assert len(found) == 1
        assert "Counter.count changed outside STATE/DERIVED" in found[0]

    def test_container_mutation_counts_as_drift(self):
        class Log(Stateful):
            STATE = ("name",)

            def __init__(self):
                self.name = "log"
                self.entries = []

        log = Log()
        found = findings(log, lambda: log.entries.append("pkt"))
        assert found and "Log.entries" in found[0]

    def test_rebinding_counts_as_drift(self):
        class Holder(Stateful):
            STATE = ()

            def __init__(self):
                self.current = object()

        holder = Holder()
        found = findings(holder, lambda: setattr(holder, "current", object()))
        assert found and "Holder.current" in found[0]

    def test_declared_state_is_clean(self):
        class Counter(Stateful):
            STATE = ("count",)

            def __init__(self):
                self.count = 0

        counter = Counter()
        assert findings(counter, lambda: setattr(counter, "count", 5)) == []

    def test_a_derived_reason_exempts_the_attribute(self):
        class Tap(Stateful):
            STATE = ("seen_count",)
            DERIVED = {"seen": "observability log, not replay state"}

            def __init__(self):
                self.seen_count = 0
                self.seen = []

        tap = Tap()
        assert findings(tap, lambda: tap.seen.append("pkt")) == []

    def test_wiring_that_never_changes_is_clean(self):
        class Wired(Stateful):
            STATE = ("count",)

            def __init__(self, sink):
                self.count = 0
                self.sink = sink

        wired = Wired([])
        assert findings(wired, lambda: setattr(wired, "count", 1)) == []


class Box:
    """A hand-written pair whose restore drops one key."""

    def __init__(self):
        self.kept = 0
        self.orphan = 0

    def checkpoint(self):
        return {"kept": self.kept, "orphan": self.orphan}

    def restore(self, snapshot):
        self.kept = snapshot["kept"]


class TestAsymmetricRestore:
    def test_key_written_but_never_read_shows_in_the_twin(self):
        box = Box()
        box.kept, box.orphan = 1, 2
        error = probe_object(box, Box())
        assert "not byte-identical" in error

    def test_key_read_but_never_written_is_reported(self):
        class Ghost(Box):
            def restore(self, snapshot):
                super().restore(snapshot)
                self.ghost = snapshot["ghost"]

        error = probe_object(Ghost(), Ghost())
        assert "KeyError" in error and "ghost" in error

    def test_symmetric_pair_is_clean(self):
        class Both(Box):
            def restore(self, snapshot):
                super().restore(snapshot)
                self.orphan = snapshot["orphan"]

        both = Both()
        both.kept, both.orphan = 1, 2
        assert probe_object(both, Both()) is None


class Engine:
    """Mutates, declares nothing."""

    def __init__(self):
        self.processed = 0

    def tick(self):
        self.processed += 1


class TestUndeclaredComponent:
    def test_stateful_subcomponent_without_declaration(self):
        class Pod(Stateful):
            STATE = ("served",)

            def __init__(self):
                self.served = 0
                self.engine = Engine()

        pod = Pod()
        found = findings(pod, pod.engine.tick)
        assert len(found) == 1
        assert "Engine.processed changed, and Engine declares no state" in found[0]

    def test_declared_subcomponent_is_clean(self):
        class DeclaredEngine(Engine, Stateful):
            STATE = ("processed",)

        class Pod(Stateful):
            STATE = ("engine",)

            def __init__(self):
                self.engine = DeclaredEngine()

        pod = Pod()
        assert findings(pod, pod.engine.tick) == []

    def test_stateless_subcomponent_is_clean(self):
        class Codec:
            def __init__(self):
                self.width = 32

            def encode(self, value):
                return value % self.width

        class Pod(Stateful):
            STATE = ("last",)

            def __init__(self):
                self.last = 0
                self.codec = Codec()

        pod = Pod()
        assert findings(pod, lambda: setattr(pod, "last", pod.codec.encode(70))) == []

    def test_rows_inside_a_survivors_state_are_its_own_business(self):
        # A hand-written form covers the undeclared objects inside its
        # STATE (as the session table's rows are), so they are not walked.
        class Row:
            def __init__(self):
                self.hits = 0

        class Sessions:
            STATE = (("rows", "_rows"),)

            def __init__(self):
                self._rows = Table()
                self._rows[1] = Row()

            def checkpoint(self):
                return {"rows": [[key, row.hits] for key, row in sorted(self._rows.items())]}

        table = Sessions()
        assert findings(table, lambda: setattr(table._rows[1], "hits", 4)) == []


class TestUncapturedStream:
    def test_uncaptured_derived_stream(self):
        class Source(Stateful):
            STATE = ("sent",)

            def __init__(self):
                self.stream = derived_stream("traffic")
                self.sent = 0

        source = Source()
        found = findings(source, source.stream.random)
        assert len(found) == 1
        assert "Source.stream is an rng stream that advanced" in found[0]

    def test_captured_stream_is_clean(self):
        class Source(Stateful):
            STATE = ("sent", "stream")

            def __init__(self):
                self.stream = derived_stream("traffic")
                self.sent = 0

        source = Source()
        assert findings(source, source.stream.random) == []
        twin = Source()
        assert probe_object(source, twin) is None
        assert twin.stream.random() == source.stream.random()
