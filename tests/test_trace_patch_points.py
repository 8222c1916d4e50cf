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


def test_stream_patch_points_fire():
    # A patch point can resolve yet never be called (a renamed call path),
    # which would silently zero its layer: run one wire stream of k pages
    # under the tracer and read the spans and counts back.
    from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
    from repro.client import GraphClient
    from repro.server import GraphServer

    tracer = load_trace().Tracer()
    tracer.install()
    try:
        graph = build_paper_graph()
        with GraphServer() as server, GraphClient(*server.address) as client:
            client.create_graph("paper", labels=graph.labels, edges=graph.edges())
            tracer.take()
            pages = list(client.stream(build_paper_query(), page_size=1).pages(timeout=30.0))
            spans, events = tracer.take()
    finally:
        tracer.uninstall()
    assert len(pages) == len(PAPER_ANSWER)
    names = {span[0] for span in spans}
    assert {"server.pump", "framing.encode", "service.stream"} <= names
    assert sum(1 for span in spans if span[0] == "server.pump") == len(pages)
    assert sum(value for key, value, _ in events if key == "server.stream_pages") == len(pages)
