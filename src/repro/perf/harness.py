"""``host_metadata``, the one function ``benchmarks/perf/child.py`` imports."""

# The next ``benchmark`` issue inlines this into child.py and deletes
# ``src/repro/perf/``; no other PR may touch ``benchmarks/perf``.

import os
import platform


def host_metadata():
    """Host facts needed to judge whether two reports are comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
