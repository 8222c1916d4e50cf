"""Tests for the incremental match-iterator protocol.

Covers the new execution primitives across the matcher layer:

* ``MatchStream`` mechanics — running counters, terminal statuses,
  ``report()`` equivalence with the eager path, counting drains;
* true laziness of GM (MJoin) and the WCOJ engine — the work done to
  produce the first ``k`` matches is measured (candidate-expansion /
  adjacency-read counters), not guessed from wall clocks;
* early termination — closing a generator mid-search stops it;
* an engine without ``_iter_evaluate`` raises ``NotImplementedError``.
"""

from __future__ import annotations

import pytest

from fixtures_paper import (
    PAPER_ANSWER,
    build_paper_graph,
    build_paper_query,
)
from repro.engines import BinaryJoinEngine, RelationalEngine, TreeDecompEngine, WCOJEngine
from repro.engines.base import Engine
from repro.graph.digraph import DataGraph
from repro.matching.gm import GraphMatcher, mjoin_iter
from repro.matching.result import Budget, MatchStatus
from repro.matching.stream import MatchStream
from repro.query.pattern import EdgeType, PatternQuery
from repro.session import QuerySession

ENGINE_CLASSES = [BinaryJoinEngine, RelationalEngine, WCOJEngine, TreeDecompEngine]


def fanout_graph(width: int = 12) -> DataGraph:
    """One A-node pointing at ``width`` B nodes, each pointing at ``width`` Cs.

    The A->B->C path query has ``width**2`` matches — enough that lazy and
    materialised enumeration are easy to tell apart by work counters.
    """
    labels = ["A"] + ["B"] * width + ["C"] * width
    edges = []
    for b in range(1, width + 1):
        edges.append((0, b))
        for c in range(width + 1, 2 * width + 1):
            edges.append((b, c))
    return DataGraph(labels, edges, name="fanout")


def path_query() -> PatternQuery:
    return PatternQuery(
        labels=["A", "B", "C"],
        edges=[(0, 1, EdgeType.CHILD), (1, 2, EdgeType.CHILD)],
        name="path-abc",
    )


# ---------------------------------------------------------------------- #
# MatchStream mechanics
# ---------------------------------------------------------------------- #


class TestMatchStream:
    def test_counters_and_status_lifecycle(self):
        graph = build_paper_graph()
        matcher = GraphMatcher(graph)
        stream = matcher.match_stream(build_paper_query())
        assert stream.status is None and not stream.finished
        first = next(stream)
        assert first in PAPER_ANSWER
        assert stream.num_yielded == 1
        assert stream.first_match_seconds is not None
        rest = list(stream)
        assert stream.finished and stream.status is MatchStatus.OK
        assert {first, *rest} == set(PAPER_ANSWER)

    def test_report_equals_eager_match(self):
        graph = build_paper_graph()
        matcher = GraphMatcher(graph)
        eager = matcher.match(build_paper_query())
        streamed = matcher.match_stream(build_paper_query()).report()
        assert streamed.occurrence_set() == eager.occurrence_set()
        assert streamed.status == eager.status
        assert streamed.num_matches == eager.num_matches
        assert streamed.extra["rig_size"] == eager.extra["rig_size"]

    def test_counting_drain_keeps_no_occurrences(self):
        graph = build_paper_graph()
        matcher = GraphMatcher(graph)
        stream = matcher.match_stream(build_paper_query(), keep_occurrences=False)
        report = stream.report()
        assert report.num_matches == len(PAPER_ANSWER)
        assert report.occurrences == []

    def test_close_mid_stream_reports_cancelled_partial(self):
        matcher = GraphMatcher(fanout_graph())
        stream = matcher.match_stream(path_query())
        next(stream)
        stream.close()
        report = stream.report(drain=False)
        assert report.status is MatchStatus.CANCELLED
        assert report.num_matches == 1

    def test_match_limit_status(self):
        matcher = GraphMatcher(fanout_graph())
        stream = matcher.match_stream(path_query(), budget=Budget(max_matches=5))
        assert len(list(stream)) == 5
        assert stream.status is MatchStatus.MATCH_LIMIT

    def test_timeout_becomes_status_not_exception(self):
        # width=50 gives 2500 matches: the amortised budget clock (one real
        # check per 2048 calls) is guaranteed to fire mid-enumeration.
        matcher = GraphMatcher(fanout_graph(width=50))
        budget = Budget(max_matches=None, time_limit_seconds=0.0)
        stream = matcher.match_stream(query=path_query(), budget=budget)
        drained = list(stream)
        assert stream.status is MatchStatus.TIMEOUT
        assert len(drained) < 2500  # stopped before full enumeration


# ---------------------------------------------------------------------- #
# JM baseline streaming (the final hash join emits as it probes)
# ---------------------------------------------------------------------- #


class TestJMStreaming:
    def test_stream_no_longer_replays_a_finished_report(self):
        session = QuerySession(build_paper_graph())
        stream = session.stream(build_paper_query(), engine="JM")
        report = stream.report()
        assert set(report.occurrences) == set(PAPER_ANSWER)
        assert report.status is MatchStatus.OK
        assert "pre_materialized" not in report.extra
        assert report.extra.get("streamed") is True
        assert "plans_considered" in report.extra

    def test_stream_equals_eager(self):
        graph = fanout_graph(width=8)
        session = QuerySession(graph)
        eager = session.query(path_query(), engine="JM")
        streamed = session.stream(path_query(), engine="JM").report()
        assert streamed.occurrence_set() == eager.occurrence_set()
        assert streamed.num_matches == eager.num_matches
        assert streamed.status is eager.status

    def test_final_join_emits_before_all_rows_are_probed(self):
        # The final hash join must yield per probe: with a match cap of k,
        # only a prefix of the probe loop runs, and the enumeration order
        # matches the eager execution's projection order exactly.
        graph = fanout_graph(width=10)
        session = QuerySession(graph)
        full = session.query(path_query(), engine="JM").occurrences
        for k in (1, 3, 17):
            stream = session.stream(
                path_query(), engine="JM", budget=Budget(max_matches=k)
            )
            prefix = list(stream)
            assert prefix == full[:k]
            assert stream.status is MatchStatus.MATCH_LIMIT

    def test_close_stops_the_probe_loop(self):
        graph = fanout_graph(width=10)
        session = QuerySession(graph)
        stream = session.stream(path_query(), engine="JM")
        first = next(stream)
        stream.close()
        report = stream.report(drain=False)
        assert report.status is MatchStatus.CANCELLED
        assert report.occurrences == [first]

    def test_single_node_query_streams(self):
        graph = fanout_graph(width=4)
        session = QuerySession(graph)
        single = PatternQuery(labels=["B"], edges=[], name="b-only")
        assert sorted(session.stream(single, engine="JM")) == sorted(
            session.query(single, engine="JM").occurrences
        )

    def test_single_edge_query_streams(self):
        graph = fanout_graph(width=4)
        session = QuerySession(graph)
        pair = PatternQuery(
            labels=["A", "B"], edges=[(0, 1, EdgeType.CHILD)], name="ab"
        )
        eager = session.query(pair, engine="JM")
        assert list(session.stream(pair, engine="JM")) == eager.occurrences

    def test_descendant_edges_stream(self):
        session = QuerySession(build_paper_graph())
        query = build_paper_query()
        hybrid_eager = session.query(query, engine="JM")
        assert set(session.stream(query, engine="JM")) == hybrid_eager.occurrence_set()

    def test_timeout_becomes_terminal_status(self):
        graph = fanout_graph(width=50)
        session = QuerySession(graph)
        budget = Budget(max_matches=None, time_limit_seconds=0.0)
        stream = session.stream(path_query(), engine="JM", budget=budget)
        drained = list(stream)
        assert stream.status is MatchStatus.TIMEOUT
        assert len(drained) < 2500

    def test_count_uses_the_streaming_path(self):
        graph = fanout_graph(width=6)
        session = QuerySession(graph)
        assert session.count(path_query(), engine="JM") == 36


# ---------------------------------------------------------------------- #
# engine iter_matches protocol
# ---------------------------------------------------------------------- #


class TestEngineIterMatches:
    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_stream_equals_eager(self, engine_class):
        graph = build_paper_graph()
        engine = engine_class(graph)
        eager = engine.match(build_paper_query())
        streamed = engine.match_stream(build_paper_query()).report()
        assert streamed.occurrence_set() == eager.occurrence_set()
        assert streamed.status == eager.status

    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_count_short_circuits_on_match_cap(self, engine_class):
        engine = engine_class(fanout_graph())
        assert engine.count(path_query(), budget=Budget(max_matches=7)) == 7
        assert engine.count(path_query(), budget=Budget(max_matches=None)) == 144

    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_generator_close_stops_search(self, engine_class):
        engine = engine_class(fanout_graph())
        iterator = engine.iter_matches(path_query(), budget=Budget(max_matches=None))
        first = next(iterator)
        assert len(first) == 3
        iterator.close()
        with pytest.raises(StopIteration):
            next(iterator)

    def test_gm_count_uses_counting_drain(self):
        matcher = GraphMatcher(fanout_graph())
        assert matcher.count(path_query(), budget=Budget(max_matches=9)) == 9
        assert matcher.count(path_query(), budget=Budget(max_matches=None)) == 144


# ---------------------------------------------------------------------- #
# true laziness, measured
# ---------------------------------------------------------------------- #


class CountingGraph(DataGraph):
    """A data graph that counts adjacency-set reads (WCOJ's extension work)."""

    __slots__ = ("successor_reads",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.successor_reads = 0

    def successor_set(self, node):
        self.successor_reads += 1
        return super().successor_set(node)


class TestLaziness:
    def test_wcoj_first_match_reads_far_less_than_full_run(self):
        width = 12
        base = fanout_graph(width)
        graph = CountingGraph(list(base.labels), list(base.edges()), name="fanout")
        engine = WCOJEngine(graph)
        graph.successor_reads = 0  # ignore catalog-construction reads

        iterator = engine.iter_matches(path_query(), budget=Budget(max_matches=None))
        next(iterator)
        first_match_reads = graph.successor_reads
        iterator.close()

        graph.successor_reads = 0
        assert engine.count(path_query(), budget=Budget(max_matches=None)) == width**2
        full_reads = graph.successor_reads

        # The first descent touches O(depth) adjacency sets; the full run
        # touches one per extension.  A materialising engine would pay the
        # full cost before the first yield.
        assert first_match_reads <= 4
        assert full_reads > 4 * first_match_reads

    def test_gm_first_match_expands_far_fewer_candidates(self):
        # Laziness through the enumerator's own ``stats`` channel (flushed
        # when the generator finishes *or is closed*): one row pulled means
        # one descent's worth of candidate sets, not the whole search.
        rig = GraphMatcher(fanout_graph(width=12)).build_rig(path_query()).rig
        unlimited = Budget(max_matches=None)

        first: dict = {}
        iterator = mjoin_iter(rig, budget=unlimited, stats=first)
        next(iterator)
        assert first == {}  # nothing is flushed while the search is live
        iterator.close()

        full: dict = {}
        assert sum(1 for _ in mjoin_iter(rig, budget=unlimited, stats=full)) == 144
        assert full["intersections"] > 4 * first["intersections"]
        assert full["candidates"] > 4 * first["candidates"]

    def test_session_stream_is_lazy_for_gm(self):
        session = QuerySession(fanout_graph())
        stream = session.stream(path_query())
        assert next(stream) is not None
        assert stream.num_yielded == 1
        stream.close()
        # A fresh stream still answers in full (the closed one did not
        # poison the session's cached RIG).
        assert session.count(path_query()) == 144


# ---------------------------------------------------------------------- #
# an engine must implement the streaming primitive
# ---------------------------------------------------------------------- #


class TestLegacyShim:
    def test_engine_without_any_evaluate_raises(self):
        class Empty(Engine):
            name = "empty"

        engine = Empty(build_paper_graph())
        with pytest.raises(NotImplementedError):
            list(engine.iter_matches(path_query()))
