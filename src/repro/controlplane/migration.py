"""Live pod migration: drain -> freeze -> restore -> route-update.

The :class:`MigrationController` executes one
:class:`~repro.scenarios.spec.MigrationSpec` as clock-driven simulator
events:

1. **drain** -- at ``start_ns`` the controller starts buffering all new
   traffic aimed at the pod (the upstream ToR holds packets while the
   route is in flux) and polls every ``poll_ns`` until the pod is
   :meth:`~repro.core.gateway.GwPodRuntime.quiescent` -- no packet
   anywhere between ingress and egress.
2. **freeze** -- the quiescent pod is checkpointed into a plain-data
   snapshot (validated by :func:`~repro.controlplane.snapshot.ensure_plain`);
   the freeze costs ``freeze_ns`` plus ``per_kib_ns`` per KiB of
   canonical snapshot bytes (state-transfer bandwidth).
3. **restore** -- the pod is torn down, rebuilt on the target NUMA node
   from the same :class:`~repro.scenarios.spec.PodSpec` (placed on the
   target node), and every stateful component is reinstated from
   the snapshot (RNG stream positions included, so the restored pod's
   future draws match what the original would have produced).
4. **route-update / flush** -- after ``route_update_ns`` the buffered
   packets are released *in arrival order* to the restored pod, paced at
   ``flush_rate_pps`` (the upstream buffer drains at line rate, not in
   one burst that would blow through the reorder timeout window); live
   arrivals keep queueing behind the buffer head until it empties, so
   global arrival order -- and therefore per-flow order -- survives the
   migration, and buffering (instead of dropping) preserves every packet.

The executed timeline lands in a :class:`MigrationPlan` -- per-phase
timestamps plus the headline metrics (drain time, blackout window,
total latency, packets buffered, snapshot size).
"""

from collections import deque
from dataclasses import replace

from repro.controlplane.snapshot import ensure_plain, snapshot_bytes


class MigrationPhase:
    """Phase names of the migration state machine, in execution order."""

    IDLE = "idle"
    DRAIN = "drain"
    FREEZE = "freeze"
    RESTORE = "restore"
    ROUTE_UPDATE = "route_update"
    FLUSH = "flush"
    COMPLETE = "complete"

    ORDER = (IDLE, DRAIN, FREEZE, RESTORE, ROUTE_UPDATE, FLUSH, COMPLETE)


class MigrationPlan:
    """The executed timeline of one migration (plain data throughout).

    Timestamps are ``None`` until their phase is reached; the derived
    metrics (``drain_ns``, ``blackout_ns``, ``total_ns``) follow suit.
    ``blackout_ns`` is the window during which the pod processed nothing:
    freeze start to the first flushed packet.  ``total_ns`` runs to
    ``completed_ns``, when the upstream buffer has fully drained and
    live traffic flows directly again.
    """

    __slots__ = (
        "pod", "state", "phases", "started_ns", "drained_ns", "frozen_ns",
        "restored_ns", "flush_started_ns", "completed_ns",
        "packets_buffered", "snapshot_bytes", "poll_count",
        "source_numa_node", "target_numa_node",
    )

    def __init__(self, pod):
        self.pod = pod
        self.state = MigrationPhase.IDLE
        self.phases = []            # [[phase, entered_at_ns], ...]
        self.started_ns = None
        self.drained_ns = None
        self.frozen_ns = None
        self.restored_ns = None
        self.flush_started_ns = None
        self.completed_ns = None
        self.packets_buffered = 0
        self.snapshot_bytes = 0
        self.poll_count = 0
        self.source_numa_node = None
        self.target_numa_node = None

    def enter(self, phase, now_ns):
        self.state = phase
        self.phases.append([phase, now_ns])

    @property
    def drain_ns(self):
        if self.started_ns is None or self.drained_ns is None:
            return None
        return self.drained_ns - self.started_ns

    @property
    def blackout_ns(self):
        if self.drained_ns is None or self.flush_started_ns is None:
            return None
        return self.flush_started_ns - self.drained_ns

    @property
    def total_ns(self):
        if self.started_ns is None or self.completed_ns is None:
            return None
        return self.completed_ns - self.started_ns

    def to_dict(self):
        """Plain, deterministic dict (embedded in the run report)."""
        return {
            "pod": self.pod,
            "state": self.state,
            "phases": [list(entry) for entry in self.phases],
            "started_ns": self.started_ns,
            "drained_ns": self.drained_ns,
            "frozen_ns": self.frozen_ns,
            "restored_ns": self.restored_ns,
            "flush_started_ns": self.flush_started_ns,
            "completed_ns": self.completed_ns,
            "drain_ns": self.drain_ns,
            "blackout_ns": self.blackout_ns,
            "total_ns": self.total_ns,
            "packets_buffered": self.packets_buffered,
            "snapshot_bytes": self.snapshot_bytes,
            "poll_count": self.poll_count,
            "source_numa_node": self.source_numa_node,
            "target_numa_node": self.target_numa_node,
        }


class MigrationController:
    """Orchestrates one live migration on the simulator clock.

    Parameters:
        sim: the simulator.
        server: the :class:`~repro.core.gateway.AlbatrossServer` hosting
            the pod.
        migration: the :class:`~repro.scenarios.spec.MigrationSpec`.
        pods: the shared ``{name: GwPodRuntime}`` dict (the one inside
            :class:`~repro.scenarios.build.RunHandle`); the controller
            swaps the migrated pod's entry in place so every reader --
            report code, fault routers, tests -- sees the restored pod.

    Traffic aimed at the migrating pod must flow through :meth:`route`
    (``build()`` wires the scenario workload that way); packets arriving
    while the pod is frozen are buffered, not dropped.
    """

    def __init__(self, sim, server, migration, pods):
        self.sim = sim
        self.server = server
        self.migration = migration
        self.pods = pods
        self.pod_name = migration.pod
        self.plan = MigrationPlan(migration.pod)
        self.snapshot = None
        self._buffer = deque()
        self._buffering = False
        self._poll_task = None
        self._flush_interval_ns = (
            None
            if migration.flush_rate_pps is None
            else max(1, round(1_000_000_000 / migration.flush_rate_pps))
        )
        sim.schedule_at(migration.start_ns, self._begin_drain)

    # -- traffic indirection ----------------------------------------------

    def route(self, packet):
        """Ingress for traffic aimed at the (possibly migrating) pod."""
        if self._buffering:
            self._buffer.append(packet)
            self.plan.packets_buffered += 1
            return
        self.pods[self.pod_name].ingress(packet)

    # -- state machine ------------------------------------------------------

    def _begin_drain(self):
        self.plan.enter(MigrationPhase.DRAIN, self.sim.now)
        self.plan.started_ns = self.sim.now
        self.plan.source_numa_node = self.pods[self.pod_name].numa_node
        self._buffering = True
        self._poll_task = self.sim.every(
            self.migration.poll_ns, self._poll_drain, start_delay=0
        )

    def _poll_drain(self):
        self.plan.poll_count += 1
        if not self.pods[self.pod_name].quiescent():
            return
        self._poll_task.cancel()
        self._poll_task = None
        self._freeze()

    def _freeze(self):
        migration = self.migration
        self.plan.enter(MigrationPhase.FREEZE, self.sim.now)
        self.plan.drained_ns = self.sim.now
        snapshot = self.pods[self.pod_name].checkpoint()
        ensure_plain(snapshot)
        self.snapshot = snapshot
        size = len(snapshot_bytes(snapshot))
        self.plan.snapshot_bytes = size
        cost = migration.freeze_ns + migration.per_kib_ns * ((size + 1023) // 1024)
        self.sim.schedule(cost, self._restore)

    def _restore(self):
        migration = self.migration
        self.plan.enter(MigrationPhase.RESTORE, self.sim.now)
        self.plan.frozen_ns = self.sim.now
        old_pod = self.server.remove_pod(self.pod_name)
        # Re-placed copies: the run's own spec is never edited.
        spec = old_pod.spec
        if migration.target_numa_node is not None:
            spec = replace(spec, numa_node=migration.target_numa_node)
        if migration.target_memory_node is not None:
            spec = replace(spec, memory_node=migration.target_memory_node)
        new_pod = self.server.add_pod(spec)
        new_pod.restore_state(self.snapshot)
        # Readers go through the shared pods dict and exit subscribers
        # through the list add_pod() hands every pod: nothing to carry over.
        self.pods[self.pod_name] = new_pod
        self.plan.target_numa_node = new_pod.numa_node
        self.sim.schedule(migration.restore_ns, self._route_update)

    def _route_update(self):
        self.plan.enter(MigrationPhase.ROUTE_UPDATE, self.sim.now)
        self.plan.restored_ns = self.sim.now
        self.sim.schedule(self.migration.route_update_ns, self._begin_flush)

    def _begin_flush(self):
        self.plan.enter(MigrationPhase.FLUSH, self.sim.now)
        self.plan.flush_started_ns = self.sim.now
        # Buffered packets drain from the head in arrival order; live
        # arrivals keep appending at the tail until the buffer empties,
        # so global arrival order -- per-flow order included -- holds.
        if self._flush_interval_ns is None:
            # Unpaced: one burst within this event, ahead of any
            # same-timestamp arrival scheduled later.
            pod = self.pods[self.pod_name]
            while self._buffer:
                pod.ingress(self._buffer.popleft())
            self._complete()
            return
        self._flush_next()

    def _flush_next(self):
        if not self._buffer:
            self._complete()
            return
        self.pods[self.pod_name].ingress(self._buffer.popleft())
        self.sim.schedule(self._flush_interval_ns, self._flush_next)

    def _complete(self):
        self.plan.enter(MigrationPhase.COMPLETE, self.sim.now)
        self.plan.completed_ns = self.sim.now
        self._buffering = False

    @property
    def complete(self):
        return self.plan.state == MigrationPhase.COMPLETE
