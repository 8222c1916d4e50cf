"""Every patch point of the perf tracer resolves in the program.

``perf/trace.py`` wraps the callables named in its ``PATCHES`` table by module
and attribute path; one that was moved or renamed is skipped and its layer
reports ``null``.  This test installs the tracer, requires that nothing was
skipped, and uninstalls it again.  It only reads ``perf/``.
"""

import importlib.util
import os

import repro.reachability.factory as factory
import repro.simulation.context as context_module

TRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perf", "trace.py")


def load_trace():
    spec = importlib.util.spec_from_file_location("perf_trace_under_test", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_patch_point_resolves():
    tracer = load_trace().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert context_module.build_reachability_index is not factory.build_reachability_index
    finally:
        tracer.uninstall()
    assert context_module.build_reachability_index is factory.build_reachability_index
