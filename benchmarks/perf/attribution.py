"""Bucket a ``cProfile`` run by the ``repro.*`` layer that owns each function.

``cProfile`` charges a fixed cost to every Python call and none to work
inside C code, so call-heavy layers look larger than they are: use the
shares to find candidates, and the untraced end-to-end metrics and the
probes in ``probes.py`` to measure them.
"""

import os
import pstats

#: The layers, named as the repo's modules.  A function belongs to the
#: longest layer name that prefixes its module; ``python`` is everything
#: outside ``repro`` (stdlib, builtins such as heapq/random/json/zlib).
LAYERS = (
    "sim", "workloads", "packet", "core.nic", "core.pktdir", "core.plb",
    "core.ratelimit", "core.hitters", "core.gateway", "cpu", "metrics",
    "topology", "telemetry", "controlplane", "scenarios", "fleet", "runs",
    "python",
)
#: Small per-packet helper modules, counted with the layer that calls them.
_ALIASES = {
    "core.meta": "core.plb",
    "core.priority": "core.nic",
    "core.resources": "core.nic",
    "core.rss": "core.nic",
}
_BY_LENGTH = sorted(
    [(name, name) for name in LAYERS if name != "python"] + list(_ALIASES.items()),
    key=lambda item: -len(item[0]),
)
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename):
    """The layer owning ``filename``, or ``None`` for unattributed code."""
    marker = os.sep + "repro" + os.sep
    if marker in filename:
        module = filename.rsplit(marker, 1)[1][:-len(".py")].replace(os.sep, ".")
        for prefix, layer in _BY_LENGTH:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return None
    if filename.startswith(_BENCH_DIR):
        return None
    return "python"


def attribute(profiler, pkts_offered):
    """``{layer: {"self_frac", "calls_per_pkt"}}`` plus the unattributed share."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    unattributed_s = 0.0
    stats = pstats.Stats(profiler).stats
    for (filename, _line, _name), (_prim, ncalls, own_s, _cum, _callers) in stats.items():
        layer = layer_of(filename)
        if layer is None:
            unattributed_s += own_s
        else:
            self_s[layer] += own_s
            calls[layer] += ncalls
    total_s = sum(self_s.values()) + unattributed_s
    layers = {
        layer: {
            "self_frac": self_s[layer] / total_s,
            "calls_per_pkt": calls[layer] / pkts_offered,
        }
        for layer in LAYERS
    }
    return layers, unattributed_s / total_s
