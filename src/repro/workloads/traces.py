"""Production-style load traces (Fig. 10's week of operational data).

Real gateways show a diurnal load curve with noise; the Fig. 10 experiment
replays a compressed week, as a source's rate schedule, through two pods
(PLB and RSS) and compares per-core utilization spread.
"""

import math

from repro.sim.units import SECOND

HOURS = 3600.0


def diurnal_rate_fn(base_pps, day_seconds=86400.0, peak_factor=1.5, trough_factor=0.5):
    """Rate as a function of time-of-day: sinusoid between trough and peak.

    Returns ``fn(t_seconds) -> pps``.  The mean over a day is ``base_pps``
    when peak and trough are symmetric around 1.0.
    """
    amplitude = (peak_factor - trough_factor) / 2.0
    offset = (peak_factor + trough_factor) / 2.0

    def rate(t_seconds):
        phase = 2.0 * math.pi * (t_seconds % day_seconds) / day_seconds
        # Peak mid-day: shift the sinusoid so t=0 is the trough.
        return base_pps * (offset - amplitude * math.cos(phase))

    return rate


def weekly_load_profile(base_pps, samples_per_day=24, days=7, peak_factor=1.5,
                        trough_factor=0.5):
    """[(t_seconds, pps)] sampled over a synthetic week."""
    rate = diurnal_rate_fn(base_pps, peak_factor=peak_factor, trough_factor=trough_factor)
    step = 86400.0 / samples_per_day
    profile = []
    for day in range(days):
        for sample in range(samples_per_day):
            t = day * 86400.0 + sample * step
            profile.append((t, rate(t)))
    return profile


def compressed_schedule(profile, time_compression):
    """A [(t_seconds, pps)] profile as a ``WorkloadSpec.schedule``:
    ``((t_ns, rate_pps), ...)``, compressed in time.

    ``time_compression`` < 1 replays the profile faster (0.001 turns a
    week into ~10 simulated minutes).
    """
    return tuple(
        (int(round(t_seconds * time_compression * SECOND)), int(pps))
        for t_seconds, pps in profile
    )
