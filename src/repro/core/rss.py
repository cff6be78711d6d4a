"""Flow-level RSS dispatch: the 1st-gen baseline and PLB's fallback mode.

Hashes the 5-tuple with the Toeplitz function through a 128-entry
indirection table, exactly like a hardware NIC.  Every packet of a flow
lands on one core -- which is why a single heavy-hitter flow overloads a
single core (§2.1) and why Fig. 8's RSS line collapses once the hitter
exceeds one core's capacity.
"""

from repro.controlplane.snapshot import Stateful
from repro.packet.flows import FlowMemo
from repro.packet.hashing import TOEPLITZ_DEFAULT_KEY, toeplitz_flow_hash

INDIRECTION_ENTRIES = 128


class RssDispatcher(Stateful):
    """Receive-side scaling across a pod's data cores."""

    STATE = ("dispatched", ("indirection", "_indirection"))
    DERIVED = {"_hash_cache": "pure memo of the Toeplitz flow hash; a rebuilt cache re-derives it"}

    def __init__(self, cores, key=TOEPLITZ_DEFAULT_KEY):
        if not cores:
            raise ValueError("RSS needs at least one core")
        self.cores = list(cores)
        self.key = key
        # Default indirection table: round-robin over cores, as drivers do.
        self._indirection = [
            index % len(self.cores) for index in range(INDIRECTION_ENTRIES)
        ]
        self.dispatched = 0
        self._hash_cache = FlowMemo(lambda flow: toeplitz_flow_hash(flow, key))

    def restore(self, snapshot):
        self.set_indirection(snapshot["indirection"])  # validated against these cores
        super().restore(snapshot)

    def set_indirection(self, table):
        """Reprogram the indirection table (len must divide evenly)."""
        if len(table) != INDIRECTION_ENTRIES:
            raise ValueError(
                f"indirection table must have {INDIRECTION_ENTRIES} entries"
            )
        for entry in table:
            if not 0 <= entry < len(self.cores):
                raise ValueError(f"core index out of range: {entry}")
        self._indirection = list(table)

    def core_for_flow(self, flow):
        """The core a flow is pinned to (pure function of the 5-tuple)."""
        hashed = self._hash_cache[flow]
        return self.cores[self._indirection[hashed % INDIRECTION_ENTRIES]]

    def dispatch(self, packet):
        """Pick the core for ``packet``; pure selection, no queueing."""
        self.dispatched += 1
        return self.core_for_flow(packet.flow)
