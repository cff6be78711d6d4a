"""Named counters with snapshot/delta support."""

from repro.controlplane.snapshot import Stateful


class CounterSet(Stateful):
    """A dict of integer counters with convenience arithmetic.

    ``incr`` is a plain try/except indexed add: the miss path runs once
    per counter name, every later bump is one dict store.  ``counts`` is
    the live name -> value dict, the same object for the set's lifetime
    (``restore`` refills it in place), so a per-packet path may bind it
    once and bump it without the ``incr`` call.
    """

    __slots__ = ("counts",)
    STATE = ("counts",)

    def __init__(self):
        self.counts = {}

    def incr(self, name, amount=1):
        counts = self.counts
        try:
            counts[name] += amount
        except KeyError:
            counts[name] = amount

    def get(self, name):
        return self.counts.get(name, 0)

    def snapshot(self):
        return dict(self.counts)

    def delta(self, previous_snapshot):
        """Per-counter change since ``previous_snapshot``."""
        return {
            name: value - previous_snapshot.get(name, 0)
            for name, value in self.counts.items()
        }

    def __repr__(self):
        return f"CounterSet({self.counts!r})"
