"""Container elasticity: 10-second pods and make-before-break migration.

§7 "Leveraging container elasticity": facing load growth, Albatross spins
up a bigger GW pod in ~10 seconds and migrates traffic to it -- but only
after the new pod advertises its BGP route and demonstrably forwards for
a validation window (30 s), so service never blips.  Physical gateway
clusters needed *tens of days* for the same (Tab. 6).
"""

from repro.sim.units import SECOND

POD_PREPARE_NS = 10 * SECOND
VALIDATION_NS = 30 * SECOND


class MigrationPlan:
    """State machine for one make-before-break pod migration.

    Phases: ``preparing`` -> ``advertising`` -> ``validating`` ->
    ``cutover`` -> ``done``.  ``failed`` if validation does not pass.
    """

    PHASES = ("preparing", "advertising", "validating", "cutover", "done", "failed")

    def __init__(self, old_pod_name, new_pod_name):
        self.old_pod_name = old_pod_name
        self.new_pod_name = new_pod_name
        self.phase = "preparing"
        self.history = [("preparing", 0)]

    def advance(self, phase, now_ns):
        if phase not in self.PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase
        self.history.append((phase, now_ns))


class ElasticityManager:
    """Prepares pods and runs migrations on the simulator clock.

    Parameters:
        sim: the simulator.
        prepare_fn: called to actually create the new pod when its
            preparation completes; gets the new pod's name.
        validate_fn: called at the end of the validation window; must
            return True if the new pod forwarded correctly.
        advertise_fn / withdraw_fn: BGP hooks (new pod advertises before
            the old pod withdraws -- never the other way around).
    """

    def __init__(self, sim, prepare_fn, validate_fn, advertise_fn, withdraw_fn,
                 prepare_ns=POD_PREPARE_NS, validation_ns=VALIDATION_NS):
        self.sim = sim
        self.prepare_fn = prepare_fn
        self.validate_fn = validate_fn
        self.advertise_fn = advertise_fn
        self.withdraw_fn = withdraw_fn
        self.prepare_ns = prepare_ns
        self.validation_ns = validation_ns
        self.migrations = []

    def start_migration(self, old_pod_name, new_pod_name):
        """Begin a make-before-break migration; returns its plan."""
        plan = MigrationPlan(old_pod_name, new_pod_name)
        plan.history[0] = ("preparing", self.sim.now)
        self.migrations.append(plan)
        self.sim.schedule(self.prepare_ns, self._prepared, plan)
        return plan

    def start_replacement(self, dead_pod_name, new_pod_name):
        """Crash recovery: reschedule a dead pod's replacement.

        Unlike :meth:`start_migration` there is no make-before-break --
        the dead pod is already gone -- so its route is withdrawn
        immediately and the replacement advertises as soon as the
        container scheduler has it running (~10 s), with no validation
        window.  Returns the plan.
        """
        plan = MigrationPlan(dead_pod_name, new_pod_name)
        plan.history[0] = ("preparing", self.sim.now)
        self.migrations.append(plan)
        self.withdraw_fn(dead_pod_name)
        self.sim.schedule(self.prepare_ns, self._replacement_ready, plan)
        return plan

    def _replacement_ready(self, plan):
        self.prepare_fn(plan.new_pod_name)
        plan.advance("advertising", self.sim.now)
        self.advertise_fn(plan.new_pod_name)
        plan.advance("done", self.sim.now)

    def _prepared(self, plan):
        self.prepare_fn(plan.new_pod_name)
        plan.advance("advertising", self.sim.now)
        self.advertise_fn(plan.new_pod_name)
        plan.advance("validating", self.sim.now)
        self.sim.schedule(self.validation_ns, self._validated, plan)

    def _validated(self, plan):
        if not self.validate_fn(plan.new_pod_name):
            plan.advance("failed", self.sim.now)
            # Roll back: withdraw the new pod's route, old pod keeps serving.
            self.withdraw_fn(plan.new_pod_name)
            return
        plan.advance("cutover", self.sim.now)
        self.withdraw_fn(plan.old_pod_name)
        plan.advance("done", self.sim.now)
