"""Named random-number streams for reproducible experiments.

Every stochastic component draws from its own named stream so that adding a
new component (or reordering calls inside one) does not perturb the random
sequence seen by the others.  Streams are derived from a single experiment
seed via ``random.Random`` seeded with ``hash-stable`` (seed, name) pairs.
"""

import random
import zlib

from repro.controlplane.snapshot import Stateful, Table

#: The type of every stream: snapshot code tests values against it.
Stream = random.Random


def derived_stream(name, seed=0):
    """A standalone ``random.Random`` derived from ``(seed, name)``.

    Same derivation as :meth:`RngRegistry.stream` (which calls it), for a
    component constructed outside an experiment's registry that must
    still draw every bit of entropy from a named, process-stable seed.
    """
    # zlib.crc32 is stable across processes (unlike hash()).
    derived = (seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
    return random.Random(derived)


def rng_state(rng):
    """A stream's position as plain JSON-serializable data.

    ``random.Random.getstate()`` returns ``(version, tuple of ints,
    gauss_next)``; the tuple becomes a list so the state survives a JSON
    round trip.  The snapshot codec carries every stream position through
    this helper -- a restored component replays the exact random sequence
    the original would have drawn.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def set_rng_state(rng, state):
    """Restore a stream position captured by :func:`rng_state`."""
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))


class RngRegistry(Stateful):
    """Factory for independent, deterministically seeded RNG streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("traffic")
    >>> b = rngs.stream("jitter")
    >>> a is rngs.stream("traffic")
    True

    Streams snapshot as ``[name, position]`` pairs sorted by name, so
    the bytes do not depend on materialization order.  A stream handed
    out by :meth:`carried_stream` is left out: its owner's own snapshot
    carries its position, so a whole-world capture writes each stream
    once.  Its restore is hand-written: it repositions live streams and
    derives the ones it lacks, which a table refill cannot.
    """

    STATE = ("seed", ("streams", "uncarried_streams"))

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = Table()
        self._carried = set()

    def stream(self, name):
        """Return the ``random.Random`` for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = derived_stream(name, seed=self.seed)
            self._streams[name] = rng
        return rng

    def carried_stream(self, name):
        """:meth:`stream` ``name`` for an owner whose snapshot carries it.

        A GW pod's verdict stream and its limiter's sampler stream ride
        in the pod's snapshot (a migration's freeze carries no
        registry), so the registry's snapshot leaves them out.
        """
        self._carried.add(name)
        return self.stream(name)

    @property
    def uncarried_streams(self):
        """The streams this registry's snapshot carries: all but the carried."""
        return Table(
            (name, rng) for name, rng in self._streams.items()
            if name not in self._carried
        )

    def restore(self, snapshot):
        """Reposition every stream from a checkpoint, **in place**.

        Existing stream objects are repositioned rather than replaced:
        components bind their stream at construction (``pod.rng``, a
        source's draw stream), so dropping ``_streams`` and re-deriving
        would silently orphan every live binding -- the registry would
        advance while the components kept drawing from frozen clones.
        Streams named by the snapshot but not yet materialized here are
        created on demand by :meth:`stream` and then repositioned.
        """
        self.seed = snapshot["seed"]
        for name, state in snapshot["streams"]:
            set_rng_state(self.stream(name), state)
