"""Host facts for the repo benchmark (``BENCHMARK.json``, ``benchmarks/perf/``)."""
