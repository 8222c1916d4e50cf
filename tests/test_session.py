"""Tests for the QuerySession cached-index execution layer."""

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from fixtures_paper import PAPER_ANSWER
from repro.bench.harness import make_matcher, run_workload
from repro.engines.base import Engine
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine
from repro.engines.treedecomp import TreeDecompEngine
from repro.engines.wcoj import WCOJEngine
from repro.graph.generators import random_labeled_graph
from repro.matching.gm import GMVariant, GraphMatcher
from repro.matching.result import Budget, MatchStatus
from repro.query.generators import random_pattern_query, to_child_only
from repro.session import QuerySession

ENGINE_CLASSES = {
    "Neo4j": BinaryJoinEngine,
    "EH": RelationalEngine,
    "GF": WCOJEngine,
    "RM": TreeDecompEngine,
}


@pytest.fixture()
def session(paper_graph) -> QuerySession:
    return QuerySession(paper_graph)


class TestCachedResultsIdentical:
    """(a) cached-index results equal from-scratch results on the Fig. 2 fixture."""

    def test_gm_answer_matches_paper(self, session, paper_query):
        report = session.query(paper_query)
        assert report.occurrence_set() == PAPER_ANSWER

    def test_gm_equals_standalone(self, session, paper_graph, paper_query):
        standalone = GraphMatcher(paper_graph).match(paper_query)
        via_session = session.query(paper_query)
        assert via_session.occurrence_set() == standalone.occurrence_set()

    @pytest.mark.parametrize("name", ["GM-S", "GM-F", "GM-NR", "GM-RI", "GM-BJ"])
    def test_gm_variants_equal_standalone(self, session, paper_query, name):
        assert session.query(paper_query, engine=name).occurrence_set() == PAPER_ANSWER

    @pytest.mark.parametrize("name", sorted(ENGINE_CLASSES))
    def test_engines_equal_standalone(self, session, paper_graph, paper_query, name):
        standalone = ENGINE_CLASSES[name](paper_graph).match(paper_query)
        via_session = session.query(paper_query, engine=name)
        assert via_session.occurrence_set() == standalone.occurrence_set()

    @pytest.mark.parametrize("name", ["JM", "TM"])
    def test_baselines_equal_paper_answer(self, session, paper_query, name):
        assert session.query(paper_query, engine=name).occurrence_set() == PAPER_ANSWER


class TestCacheReuse:
    """(b) the second query on a session triggers zero index rebuilds."""

    def test_second_query_rebuilds_nothing(self, session, paper_query):
        first = session.query(paper_query)
        assert first.extra["rig_cached"] is False
        misses_after_first = session.cache_counts()["misses"]
        hits_after_first = session.cache_counts()["hits"]

        second = session.query(paper_query)
        assert second.extra["rig_cached"] is True
        assert second.occurrence_set() == first.occurrence_set()
        # No artifact was rebuilt; every access was a cache hit.
        assert session.cache_counts()["misses"] == misses_after_first
        assert session.cache_counts()["hits"] > hits_after_first

    def test_reachability_index_built_once(self, session, paper_query):
        session.query(paper_query)
        session.query(paper_query, engine="JM")
        session.query(paper_query, engine="TM")
        assert session.cache_counts("reachability")["misses"] == 1
        assert session.cache_counts("reachability")["hits"] >= 2
        assert session.context.reachability is session.reachability

    def test_rig_counters(self, session, paper_query):
        session.query(paper_query)
        assert session.cache_counts("rig")["misses"] == 1
        assert session.cache_counts("rig")["hits"] == 0
        session.query(paper_query)
        session.query(paper_query)
        assert session.cache_counts("rig")["misses"] == 1
        assert session.cache_counts("rig")["hits"] == 2
        assert session.cached_rig(paper_query, GMVariant.GM) is not None

    def test_engines_share_expanded_graph(self, session, paper_query):
        session.query(paper_query, engine="Neo4j")
        session.query(paper_query, engine="RM")
        neo = session.matcher("Neo4j")
        rm = session.matcher("RM")
        assert neo._expanded_graph is rm._expanded_graph
        assert session.cache_counts("expanded_graph")["misses"] == 1
        assert session.cache_counts("closure")["misses"] == 1

    def test_matcher_instance_cached(self, session, paper_query):
        assert session.matcher("GM") is session.matcher("GM")
        # Only the build is counted; lookups are not an interesting signal.
        assert session.cache_counts("matcher")["misses"] == 1
        assert session.cache_counts("matcher")["hits"] == 0

    def test_variants_do_not_share_rig_caches(self, session, paper_query):
        full = session.query(paper_query, engine="GM")
        no_filter = session.query(paper_query, engine="GM-F")
        assert full.extra["rig_cached"] is False
        assert no_filter.extra["rig_cached"] is False
        assert full.occurrence_set() == no_filter.occurrence_set()

    def test_clear_drops_artifacts(self, session, paper_query):
        session.query(paper_query)
        before = session.cache_counts("reachability")
        session.clear()
        # clear() drops artifacts, not counts: registry counters only go up,
        # so hit-rate math over a reused session is done on deltas.
        assert session.cache_counts("reachability") == before
        session.query(paper_query)
        # The artifact was really dropped: the query rebuilt it (one more
        # miss), rather than silently reusing a stale instance.
        after = session.cache_counts("reachability")
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] == before["hits"]

    def test_unknown_matcher_raises(self, session):
        with pytest.raises(KeyError):
            session.matcher("nope")


class TestParallelReads:
    """(c) queries fanned over threads answer exactly as serial execution."""

    @pytest.fixture(scope="class")
    def workload_graph(self):
        return random_labeled_graph(num_nodes=80, num_edges=240, num_labels=4, seed=11)

    @pytest.fixture(scope="class")
    def workload(self, workload_graph):
        queries = {}
        for seed in range(6):
            query = random_pattern_query(workload_graph, 4, seed=seed)
            queries[f"H{seed}"] = query
            queries[f"C{seed}"] = to_child_only(query, name=f"C{seed}")
        return queries

    @staticmethod
    def _answers(session, workload, workers, **options):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = pool.map(partial(session.query, **options), workload.values())
            return {name: report.occurrence_set() for name, report in zip(workload, reports)}

    def test_parallel_equals_serial(self, workload_graph, workload):
        serial = QuerySession(workload_graph)
        expected = {name: serial.query(query).occurrence_set() for name, query in workload.items()}
        assert self._answers(QuerySession(workload_graph), workload, 4) == expected

    def test_parallel_on_one_session_is_stable(self, workload_graph, workload):
        session = QuerySession(workload_graph)
        first = self._answers(session, workload, 4)
        misses = session.cache_counts()["misses"]
        assert self._answers(session, workload, 4) == first
        # The second round is fully cache-served: no builds at all.
        assert session.cache_counts()["misses"] == misses

    @pytest.mark.parametrize("engine", ["GM", "JM", "TM", *sorted(ENGINE_CLASSES)])
    def test_parallel_equals_serial_on_each_engine(self, workload_graph, workload, engine):
        serial = QuerySession(workload_graph)
        expected = {
            name: serial.query(query, engine=engine).occurrence_set()
            for name, query in workload.items()
        }
        assert any(expected.values())
        parallel = self._answers(QuerySession(workload_graph), workload, 4, engine=engine)
        assert parallel == expected

    def test_query_respects_budget(self, session, paper_query):
        report = session.query(paper_query, budget=Budget(max_matches=1))
        assert report.num_matches == 1
        assert report.status is MatchStatus.MATCH_LIMIT


class TestHarnessIntegration:
    def test_make_matcher_uses_session(self, paper_graph):
        session = QuerySession(paper_graph)
        budget = Budget()
        first = make_matcher("GM", paper_graph, session.context, budget, session=session)
        second = make_matcher("GM", paper_graph, session.context, budget, session=session)
        assert first is second
        assert isinstance(
            make_matcher("EH", paper_graph, session.context, budget, session=session),
            Engine,
        )

    def test_run_workload_with_session(self, paper_graph, paper_query):
        session = QuerySession(paper_graph)
        result = run_workload(
            paper_graph, {"Q": paper_query}, ("GM", "JM"), session=session
        )
        assert result.solved_count("GM") == 1
        gm_run = result.run_for("GM", paper_query.name)
        jm_run = result.run_for("JM", paper_query.name)
        assert gm_run.matches == jm_run.matches == len(PAPER_ANSWER)
        assert session.cache_counts("reachability")["misses"] == 1

    def test_run_workload_rejects_foreign_session(self, paper_graph, small_random_graph, paper_query):
        session = QuerySession(small_random_graph)
        with pytest.raises(ValueError):
            run_workload(paper_graph, {"Q": paper_query}, ("GM",), session=session)
