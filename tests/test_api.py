"""Tests for the unified :class:`repro.GraphDB` facade.

The facade must compose — not reimplement — the underlying layers: answers
through ``GraphDB`` equal answers through the historical entry points
(``GraphMatcher``, ``QuerySession``, ``VersionedGraphStore`` +
``QueryService``), and every lifecycle guarantee of those layers (version
pinning, pin release, admission control) holds when reached through it.
"""

from __future__ import annotations

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro import (
    Budget,
    DataGraph,
    GraphDB,
    GraphMatcher,
    MatchStream,
    QuerySession,
    ServiceConfig,
    StreamingResult,
    VersionedGraphStore,
    parse_query,
)

PERSON_PROJECT = """
node p Person
node j Project
edge p -> j
"""


class TestOpen:
    def test_open_empty_and_ingest(self):
        with GraphDB.open() as db:
            assert db.num_nodes == 0
            report = db.ingest(
                labels=["Person", "Person", "Project"], edges=[(0, 2), (1, 2)]
            )
            assert report.new_version == 1
            assert db.num_nodes == 3
            assert db.count(PERSON_PROJECT) == 2

    def test_open_data_graph(self):
        with GraphDB.open(build_paper_graph()) as db:
            assert db.graph.name == "paper-example"
            assert db.query(build_paper_query()).occurrence_set() == PAPER_ANSWER

    def test_open_existing_session_seeds_first_epoch(self):
        session = QuerySession(build_paper_graph())
        session.query(build_paper_query())  # warm the artifacts
        with GraphDB.open(session) as db:
            report = db.query(build_paper_query())
            assert report.occurrence_set() == PAPER_ANSWER
        assert session.frozen  # the store took ownership

    def test_open_external_store_is_not_closed(self):
        store = VersionedGraphStore(build_paper_graph())
        with GraphDB.open(store) as db:
            assert db.head_version == 0
        # The database did not own the store: it must still serve pins.
        with store.pin() as snap:
            assert snap.version == 0
        store.close()

    def test_open_path_round_trip(self, tmp_path):
        path = str(tmp_path / "db.json")
        with GraphDB.open(build_paper_graph()) as db:
            db.save(path)
        with GraphDB.open(path) as restored:
            assert restored.num_nodes == build_paper_graph().num_nodes
            assert (
                restored.query(build_paper_query()).occurrence_set() == PAPER_ANSWER
            )

    def test_open_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            GraphDB.open(42)

    def test_from_edges(self):
        with GraphDB.from_edges(["A", "B"], [(0, 1)]) as db:
            assert db.count("node a A\nnode b B\nedge a -> b") == 1


class TestQuerySurface:
    def test_str_queries_are_parsed(self):
        with GraphDB.open(build_paper_graph()) as db:
            text = "node a A\nnode b B\nnode c C\nedge a -> b\nedge a -> c\nedge b => c"
            report = db.query(text, name="Q-paper-text")
            assert report.occurrence_set() == PAPER_ANSWER
            assert report.query_name == "Q-paper-text"

    def test_matches_legacy_graph_matcher(self):
        graph = build_paper_graph()
        legacy = GraphMatcher(graph).match(build_paper_query())
        with GraphDB.open(graph) as db:
            unified = db.query(build_paper_query())
        assert unified.occurrence_set() == legacy.occurrence_set()
        assert unified.status == legacy.status

    def test_stream_is_a_streaming_result(self):
        with GraphDB.open(build_paper_graph()) as db:
            result = db.stream(build_paper_query(), page_size=2)
            assert isinstance(result, StreamingResult)
            with result:
                pages = list(result.pages(timeout=30.0))
            assert {occ for page in pages for occ in page} == PAPER_ANSWER
            assert db.stats()["pinned_epochs"] == 0

    def test_count_honours_budget_short_circuit(self):
        with GraphDB.open(build_paper_graph()) as db:
            assert db.count(build_paper_query()) == len(PAPER_ANSWER)
            assert db.count(build_paper_query(), budget=Budget(max_matches=2)) == 2

    def test_a_pin_answers_many_queries_at_one_version(self):
        with GraphDB.open(build_paper_graph()) as db:
            with db.pin() as snapshot:
                db.ingest(labels=["A"], edges=[])
                reports = [snapshot.query(build_paper_query()) for _ in range(2)]
                assert snapshot.version == 0 and db.head_version == 1
            assert all(report.occurrence_set() == PAPER_ANSWER for report in reports)


class TestWriteSurface:
    def test_ingest_then_apply_delta(self):
        with GraphDB.open(build_paper_graph()) as db:
            base_answer = db.count(build_paper_query())
            delta = db.delta()
            c_new = delta.add_node("C")
            delta.add_edge(1, c_new)  # A1 -> new C (direct)
            delta.add_edge(3, c_new)  # B0 -> new C: (A1, B0, c_new) matches
            report = db.apply(delta)
            assert report.new_version == 1
            assert db.head_version == 1
            assert db.count(build_paper_query()) > base_answer

    def test_stream_stays_pinned_across_ingest(self):
        with GraphDB.open(build_paper_graph()) as db:
            result = db.stream(build_paper_query(), page_size=1)
            new_c = build_paper_graph().num_nodes
            db.ingest(labels=["C"], edges=[(1, new_c), (3, new_c)])
            with result:
                streamed = {occ for page in result.pages(timeout=30.0) for occ in page}
            assert result.version == 0
            assert streamed == PAPER_ANSWER  # pre-ingest answer, pinned
            assert db.count(build_paper_query()) > len(PAPER_ANSWER)

    def test_apply_async_folds_in_order(self):
        # Edge-only deltas stay valid against a moving head (node-adding
        # deltas racing the writer queue need rebasing — a ROADMAP item).
        new_edges = [(0, 4), (2, 4), (6, 9)]
        with GraphDB.open(build_paper_graph()) as db:
            futures = []
            for edge in new_edges:
                delta = db.delta()
                delta.add_edge(*edge)
                futures.append(db.apply_async(delta))
            reports = [future.result(timeout=30.0) for future in futures]
            assert [r.new_version for r in reports] == [1, 2, 3]
            assert db.head_version == 3


class TestIntrospection:
    def test_stats_merge_service_and_store_gauges(self):
        with GraphDB.open(build_paper_graph()) as db:
            db.query(build_paper_query())
            stats = db.stats()
            assert stats["completed"] == 1
            assert stats["head_version"] == 0
            assert "store" in stats and "applies" in stats["store"]

    def test_pin_gives_repeated_consistent_reads(self):
        with GraphDB.open(build_paper_graph()) as db:
            with db.pin() as snap:
                first = snap.query(build_paper_query()).occurrence_set()
                new_c = db.num_nodes
                db.ingest(labels=["C"], edges=[(1, new_c), (3, new_c)])
                second = snap.query(build_paper_query()).occurrence_set()
            assert first == second == PAPER_ANSWER

    def test_old_import_paths_still_work(self):
        # The facade is additive: every historical symbol stays importable.
        import repro

        for name in (
            "DataGraph",
            "GraphBuilder",
            "GraphMatcher",
            "QuerySession",
            "VersionedGraphStore",
            "QueryService",
            "StreamingResult",
            "MatchStream",
            "GraphDB",
            "mjoin_iter",
        ):
            assert hasattr(repro, name), name

    def test_facade_config_reaches_service(self):
        with GraphDB.open(
            build_paper_graph(), config=ServiceConfig(workers=3)
        ) as db:
            assert db.service.config.workers == 3
