"""Restore a world mid-run and hold every later event to the straight run's
``(time, seq)``: the check behind each timer owner's restore test.
"""

from repro.sim.engine import PeriodicTask


def live_events(sim):
    """How many queued entries of ``sim`` would still fire: a cancelled
    handle's entry stays in the heap until it surfaces."""
    return sum(1 for entry in sim._heap if entry[4] is None or not entry[4].cancelled)


def fired(sim):
    """Log ``(now, seq, handler)`` of every event ``sim`` fires from now
    on: each entry it queues is wrapped as it is pushed.  A periodic
    task's firing is named by the handler it calls."""
    log = []
    push = sim.push

    def traced_push(entry):
        time, seq, fn, args, event = entry
        owner = getattr(fn, "__self__", None)
        name = (owner.fn if isinstance(owner, PeriodicTask) else fn).__qualname__

        def fire(*args):
            # A rearmed handle fires at its own slot, not its first entry's.
            log.append((sim.now, seq if event is None else event.seq, name))
            fn(*args)

        push((time, seq, fire, args, event))

    sim.push = traced_push
    return log


def assert_restored_run_matches(world, prefix, steps, fresh=None):
    """Run ``world()`` -- ``(sim, parts, fired(sim))`` -- through
    ``prefix(sim, parts)``, and restore ``fresh()`` (another ``world()``
    unless given) from its snapshot there, simulator first, as
    ``RunHandle.restore_checkpoint`` orders it; then apply ``steps``,
    ``(run until, call(parts) or None)``, to both.  Every event after the
    restore fires at the same ``(time, seq)``, and the simulators and parts
    end with equal snapshots.  Returns the straight run's log after the
    restore, for the caller to check that something happened there."""
    sim, parts, log = world()
    prefix(sim, parts)
    restored_at = sim.now
    snapshot = [sim.checkpoint(), [part.checkpoint() for part in parts]]
    other_sim, others, other_log = (fresh or world)()
    other_sim.restore(snapshot[0])
    for other, state in zip(others, snapshot[1]):
        other.restore(state)
    for until, call in steps:
        for side_sim, side in ((sim, parts), (other_sim, others)):
            side_sim.run_until(until)
            if call is not None:
                call(side)
    after = [entry for entry in log if entry[0] > restored_at]
    assert other_log == after
    assert [part.checkpoint() for part in others] == [part.checkpoint() for part in parts]
    assert other_sim.checkpoint() == sim.checkpoint()
    return after


def deployment(spec, sanitized=False):
    """``build(spec)`` as a world: its parts are what
    ``RunHandle.restore_checkpoint`` restores after the simulator, in its
    order -- the rng registry, the pods, the sources."""
    from repro.analysis.sanitizer import install, uninstall
    from repro.scenarios import build

    if sanitized:
        install()
    try:
        handle = build(spec)
    finally:
        uninstall()     # the sanitizer is resolved at construction
    log = fired(handle.sim)
    return handle.sim, [handle.rngs, *handle.pods.values(), *handle.sources], log


def until_quiescent(start):
    """A prefix that runs to ``start``, then on 1 us at a time until no
    packet is inside any pod: the restore instant has nothing on the wire."""

    def prefix(sim, parts):
        pods = [part for part in parts if hasattr(part, "quiescent")]
        sim.run_until(start)
        while not all(pod.quiescent() for pod in pods):
            sim.run_until(sim.now + 1_000)

    return prefix
