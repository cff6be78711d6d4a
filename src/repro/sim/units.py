"""Time units for the integer-nanosecond simulation clock.

All simulator timestamps and durations are plain ``int`` nanoseconds.
These constants keep call sites readable::

    sim.schedule(5 * US, handler)      # 5 microseconds from now
    sim.run_until(2 * SECOND)
"""

NS = 1
US = 1_000
MS = 1_000_000
SECOND = 1_000_000_000
