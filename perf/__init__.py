"""perf: the repository's one benchmark.

Four workloads (``kernel_build``, ``kernel_enum``, ``serve_read``,
``serve_mixed_rw``), each generated from a seed by :mod:`perf.inputs`,
driven through the program's public entry points by :mod:`perf.workloads`,
answer-checked by :mod:`perf.check`, and — in a traced run — attributed to
layers by :mod:`perf.trace`.  ``python3 -m perf`` is the one command; see
``perf/README.md`` for the metric tables and how to claim a gain.
"""
