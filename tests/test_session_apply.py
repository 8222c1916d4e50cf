"""Tests for version-aware session invalidation: QuerySession.apply()."""

import random

import pytest

from fixtures_paper import A1, B0, C0, PAPER_ANSWER
from repro.dynamic import GraphDelta
from repro.engines.base import expand_descendant_edges
from repro.exceptions import EngineError
from repro.engines.binary_join import BinaryJoinEngine
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.query.pattern import PatternQuery
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.session import QuerySession
from repro.session import session as session_module
from repro.store import VersionedGraphStore
from repro.wal.durability import WalDurability


@pytest.fixture()
def session(paper_graph) -> QuerySession:
    return QuerySession(paper_graph)


def _new_a_delta(graph):
    """A new A-node pointing at b0 and c0: adds exactly one GM match."""
    delta = GraphDelta.for_graph(graph)
    node = delta.add_node("A")
    delta.add_edge(node, B0)
    delta.add_edge(node, C0)
    return delta, node


class TestApplySemantics:
    def test_apply_bumps_version_and_updates_answers(self, session, paper_query):
        assert session.version == 0
        assert session.query(paper_query).occurrence_set() == PAPER_ANSWER
        delta, node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert session.version == 1
        assert report.old_version == 0 and report.new_version == 1
        answers = session.query(paper_query).occurrence_set()
        assert (node, B0, C0) in answers
        assert PAPER_ANSWER < answers

    def test_patched_equals_cold_session(self, session, paper_graph, paper_query):
        session.query(paper_query)
        session.transitive_closure
        session.partitions
        delta, _node = _new_a_delta(paper_graph)
        session.apply(delta)
        cold_graph, _ = paper_graph.with_delta(GraphDelta.from_dict(delta.to_dict()))
        cold = QuerySession(cold_graph)
        for engine in ("GM", "GM-F", "Neo4j", "EH", "GF", "RM", "JM", "TM"):
            assert (
                session.query(paper_query, engine=engine).occurrence_set()
                == cold.query(paper_query, engine=engine).occurrence_set()
            ), engine

    def test_insert_only_delta_folds_the_context_and_drops_comparator_artifacts(
        self, session, paper_query
    ):
        session.query(paper_query)
        session.transitive_closure
        session.partitions
        delta, _node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert report.patched == ["reachability"]
        assert {"closure", "partitions"} <= set(report.invalidated)
        assert session.cache_counts("closure")["invalidations"] == 1
        assert session.cache_counts("reachability")["patches"] == 1
        assert session.cache_counts("reachability")["invalidations"] == 0
        # the reachability index was not rebuilt by the next query
        misses_before = session.cache_counts("reachability")["misses"]
        session.query(paper_query)
        assert session.cache_counts("reachability")["misses"] == misses_before

    def test_removal_delta_invalidates_reachability(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        delta = GraphDelta.for_graph(session.graph).remove_edge(A1, B0)
        report = session.apply(delta)
        assert "reachability" in report.invalidated
        assert "closure" in report.invalidated
        assert session.cache_counts("reachability")["invalidations"] == 1
        # answers reflect the removal (rebuilt lazily)
        answers = session.query(paper_query).occurrence_set()
        assert all(occ[:2] != (A1, B0) for occ in answers)
        assert session.cache_counts("reachability")["misses"] == 2  # initial + rebuild

    def test_unbuilt_artifacts_are_untouched(self, session):
        # nothing built yet: apply reports no patches/invalidation of indexes
        delta, _node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert report.patched == []
        assert set(report.invalidated) <= {"rig", "matcher"}

    def test_rig_cache_is_version_keyed(self, session, paper_query):
        first = session.query(paper_query)
        assert first.extra["rig_cached"] is False
        assert session.query(paper_query).extra["rig_cached"] is True
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        assert session.cache_counts("rig")["invalidations"] == 1
        # post-apply the old RIG is stranded: the same query rebuilds it
        post = session.query(paper_query)
        assert post.extra["rig_cached"] is False
        assert session.query(paper_query).extra["rig_cached"] is True

    def test_noop_delta_changes_nothing(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        graph_before = session.graph
        counters_before = session.telemetry.registry.snapshot()
        # every op is a no-op: the edge exists, the label is unchanged
        delta = GraphDelta.for_graph(session.graph)
        delta.add_edge(A1, B0)
        delta.relabel(A1, "A")
        report = session.apply(delta)
        assert report.num_ops == 0
        assert report.old_version == report.new_version == 0
        assert report.patched == [] and report.invalidated == []
        assert session.graph is graph_before
        assert session.telemetry.registry.snapshot() == counters_before
        # the RIG cache survives: the same query is still served warm
        assert session.query(paper_query).extra["rig_cached"] is True

    def test_successive_applies(self, session, paper_query):
        session.query(paper_query)
        for expected_version in (1, 2, 3):
            delta, _node = _new_a_delta(session.graph)
            session.apply(delta)
            assert session.version == expected_version
        cold = QuerySession(session.graph)
        assert (
            session.query(paper_query).occurrence_set()
            == cold.query(paper_query).occurrence_set()
        )


class TestClearContract:
    def test_clear_drops_artifacts_not_counts(self, session, paper_query):
        session.query(paper_query)
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        before = session.cache_counts()
        assert before["misses"] > 0
        session.clear()
        assert session.cache_counts() == before
        # post-clear hit-rate math is done on deltas: the query rebuilds the
        # dropped reachability index and reuses nothing
        reachability = session.cache_counts("reachability")
        session.query(paper_query)
        after = session.cache_counts("reachability")
        assert after["misses"] - reachability["misses"] == 1
        assert after["hits"] == reachability["hits"]


class TestEngineVersionChecks:
    def test_stale_expanded_graph_rejected(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta, _node = _new_a_delta(paper_graph)
        patched, _ = paper_graph.with_delta(delta)
        # expanded graph built for version 0 injected next to the v1 graph
        with pytest.raises(EngineError, match="stale"):
            BinaryJoinEngine(patched, expanded_graph=expanded)

    def test_matching_expanded_graph_accepted(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        assert expanded.version == paper_graph.version
        engine = BinaryJoinEngine(paper_graph, expanded_graph=expanded)
        result = engine.match(paper_query)
        assert result.num_matches > 0

    def test_stale_lazy_provider_rejected(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta, _node = _new_a_delta(paper_graph)
        patched, _ = paper_graph.with_delta(delta)
        engine = BinaryJoinEngine(patched, expanded_graph=lambda: expanded)
        with pytest.raises(EngineError, match="stale"):
            engine.match(paper_query)

    def test_session_reinjects_fresh_artifacts_after_apply(self, session, paper_query):
        # engines served through the session always see matching versions
        session.query(paper_query, engine="Neo4j")
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        report = session.query(paper_query, engine="Neo4j")
        assert report.num_matches > 0


#: The four comparator artifacts: artifact name -> the session property
#: that builds it.
COMPARATOR_ARTIFACTS = {
    "closure": "transitive_closure",
    "expanded_graph": "expanded_graph",
    "catalog": "catalog",
    "partitions": "partitions",
}


def _comparable(artifact, value):
    """What two builds of ``artifact`` on one graph version agree on."""
    if artifact == "closure":
        return [value.reachable_set(node) for node in value.graph.nodes()]
    if artifact == "expanded_graph":
        return value, value.version
    if artifact == "catalog":
        return value.edge_counts, value.path_counts
    return {key: sorted(edges) for key, edges in value.items()}


def _write(kind, graph):
    """One write of each kind on the paper graph."""
    delta = GraphDelta.for_graph(graph)
    if kind == "insert":
        delta.add_edge(A1, 4)  # a1 -> b1
    elif kind == "scc_merge":
        delta.add_edge(C0, A1)  # a1 -> b0 -> c0 -> a1
    elif kind == "removal":
        delta.remove_edge(A1, B0)
    elif kind == "relabel":
        delta.relabel(A1, "C")
    else:
        delta.add_edge(delta.add_node("A"), B0)
    return delta


class TestComparatorArtifactsPerVersion:
    """Each comparator artifact is built from one version's graph on first
    use: a write drops it, a fork shares it, a pinned epoch keeps it."""

    @pytest.mark.parametrize("kind", ["insert", "scc_merge", "removal", "relabel", "new_node"])
    @pytest.mark.parametrize("artifact", COMPARATOR_ARTIFACTS)
    def test_a_write_drops_it_and_the_rebuild_equals_a_cold_build(
        self, paper_graph, artifact, kind
    ):
        session = QuerySession(paper_graph)
        before = getattr(session, COMPARATOR_ARTIFACTS[artifact])
        report = session.apply(_write(kind, paper_graph))
        assert artifact in report.invalidated and artifact not in report.patched
        assert session.cache_counts(artifact)["invalidations"] == 1
        after = getattr(session, COMPARATOR_ARTIFACTS[artifact])
        assert after is not before
        assert session.cache_counts(artifact)["misses"] == 2
        cold = getattr(QuerySession(session.graph), COMPARATOR_ARTIFACTS[artifact])
        assert _comparable(artifact, after) == _comparable(artifact, cold)

    @pytest.mark.parametrize("artifact", COMPARATOR_ARTIFACTS)
    def test_a_fork_shares_it(self, paper_graph, artifact):
        session = QuerySession(paper_graph)
        built = getattr(session, COMPARATOR_ARTIFACTS[artifact])
        assert getattr(session.fork(), COMPARATOR_ARTIFACTS[artifact]) is built
        counts = session.cache_counts(artifact)
        assert (counts["misses"], counts["hits"]) == (1, 1)

    @pytest.mark.parametrize("artifact", COMPARATOR_ARTIFACTS)
    def test_a_pinned_epoch_keeps_it(self, paper_graph, artifact):
        store = VersionedGraphStore(paper_graph)
        try:
            with store.pin() as old:
                built = getattr(old.session, COMPARATOR_ARTIFACTS[artifact])
                store.apply(_write("insert", paper_graph))
                assert getattr(old.session, COMPARATOR_ARTIFACTS[artifact]) is built
                cold = getattr(QuerySession(paper_graph), COMPARATOR_ARTIFACTS[artifact])
                assert _comparable(artifact, built) == _comparable(artifact, cold)
                with store.pin() as head:
                    assert head.version == 1
                    assert getattr(head.session, COMPARATOR_ARTIFACTS[artifact]) is not built
        finally:
            store.close()


class TestReachabilityPatchBranches:
    """Which writes rebuild the match context: only those with a removal.

    Every insert folds into the context (``MatchContext.with_delta``), the
    inserts that merge SCCs included.
    """

    def test_cycle_closing_and_acyclic_inserts_patch_and_a_removal_invalidates(
        self, paper_graph, paper_query
    ):
        graph = paper_graph
        closing = next(
            (v, u) for u in graph.nodes() for v in graph.bfs_forward(u) if not graph.reaches_bfs(v, u)
        )
        acyclic = next(
            (u, v)
            for u in graph.nodes()
            for v in graph.nodes()
            if u != v and not graph.has_edge(u, v) and not graph.reaches_bfs(v, u)
        )
        removal = GraphDelta.for_graph(graph).remove_edge(*next(iter(graph.edges())))
        everyone = set(graph.nodes())
        for delta, outcome in (
            (GraphDelta.for_graph(graph).add_edge(*acyclic), "patched"),
            (GraphDelta.for_graph(graph).add_edge(*closing), "patched"),
            (removal, "invalidated"),
        ):
            session = QuerySession(graph)
            session.query(paper_query)
            before = session.context
            answers_before = before.expand_reachability(everyone, everyone)
            report = session.apply(delta)
            assert "reachability" in getattr(report, outcome), delta.ops
            cold = QuerySession(session.graph)
            assert (
                session.query(paper_query).occurrence_set()
                == cold.query(paper_query).occurrence_set()
            )
            # the context the write replaced still answers for the old graph
            assert before.graph is graph
            assert before.expand_reachability(everyone, everyone) == answers_before


class TestWritePathNeverRebuilds:
    """A write folds its delta; it never runs the O(V + E) constructor, and
    it never builds, patches or copies a comparator artifact."""

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def _count_constructor(self, monkeypatch):
        return self._count_calls(monkeypatch, DataGraph, "__init__")

    @staticmethod
    def _big_graph_and_insert(num_edges=10_000):
        graph = random_labeled_graph(5_000, num_edges, num_labels=8, seed=3, name="big")
        rng = random.Random(4)
        delta = GraphDelta.for_graph(graph)
        while len(delta) < 4:
            source, target = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
            if not graph.has_edge(source, target) and not graph.reaches_bfs(target, source):
                delta.add_edge(source, target)
        return graph, delta

    def test_session_apply_never_calls_the_constructor(self, monkeypatch):
        graph, delta = self._big_graph_and_insert()
        session = QuerySession(graph)
        session.context.label_bits(outgoing=True, direct=True)  # built tables take the fold
        calls = self._count_constructor(monkeypatch)
        report = session.apply(delta)
        assert report.patched == ["reachability"]
        assert session.graph.num_edges == graph.num_edges + 4
        assert calls == []

    def test_a_write_does_no_comparator_work(self, monkeypatch):
        # 4 000 edges keep the closure small (~24k pairs; at 10 000 edges it
        # is ~16M pairs, far too many to expand in a unit test).
        graph, delta = self._big_graph_and_insert(num_edges=4_000)
        store = VersionedGraphStore(graph)
        try:
            with store.pin() as old:
                old.session.context.label_bits(outgoing=True, direct=True)
                for artifact in ("transitive_closure", "expanded_graph", "catalog", "partitions"):
                    getattr(old.session, artifact)
                closure = old.session.transitive_closure
            calls = {
                name: self._count_calls(monkeypatch, owner, builder)
                for name, owner, builder in (
                    ("closure", TransitiveClosureIndex, "_build"),
                    ("expanded_graph", session_module, "expand_descendant_edges"),
                    ("catalog", session_module, "build_catalog"),
                    ("partitions", session_module, "build_edge_partitions"),
                )
            }
            report = store.apply(delta)
            assert report.patched == ["reachability"]
            assert set(report.invalidated) == set(calls)
            assert calls == {name: [] for name in calls}
            monkeypatch.undo()

            source, target = delta.added_edges[0]
            query = PatternQuery(
                [graph.label(source), graph.label(target)], [(0, 1, "descendant")]
            )
            cold = QuerySession(store.graph)
            read = store.telemetry.registry.read
            misses = {name: read("session_cache_misses_total", artifact=name) for name in calls}
            with store.pin() as head:
                assert head.version == 1
                for engine in ("GF", "Neo4j"):
                    answer = head.query(query, engine=engine).occurrence_set()
                    assert (source, target) in answer
                    assert answer == cold.query(query, engine=engine).occurrence_set()
                assert head.session.transitive_closure is not closure
            for name in ("closure", "expanded_graph", "catalog"):
                assert read("session_cache_misses_total", artifact=name) == misses[name] + 1, name
        finally:
            store.close()

    def test_scc_merging_inserts_never_call_the_constructor(self, monkeypatch):
        graph, _ = self._big_graph_and_insert()
        delta = GraphDelta.for_graph(graph)
        for source in range(0, graph.num_nodes, 97):
            reached = graph.bfs_forward(source)
            if len(delta) < 4 and len(reached) > 1 and not graph.has_edge(reached[-1], source):
                delta.add_edge(reached[-1], source)  # closes a cycle
        session = QuerySession(graph)
        session.context.label_bits(outgoing=True, direct=True)
        calls = self._count_constructor(monkeypatch)
        report = session.apply(delta)
        assert report.patched == ["reachability"] and len(delta) == 4
        assert calls == []
        cold = QuerySession(session.graph).context
        for outgoing in (True, False):
            for direct in (True, False):
                assert session.context.label_bits(outgoing, direct) == cold.label_bits(outgoing, direct)

    def test_recovery_builds_only_the_checkpoint(self, tmp_path, monkeypatch):
        graph, delta = self._big_graph_and_insert()
        directory = str(tmp_path / "tenant")
        durability = WalDurability.create(directory, graph)
        durability.journal(delta, graph.version, graph.version + 1)
        durability.close()
        calls = self._count_constructor(monkeypatch)
        recovered, reopened, report = WalDurability.recover(directory)
        reopened.close()
        assert report.entries_applied == 1 and recovered.version == 1
        assert recovered == graph.with_delta(delta)[0]
        assert len(calls) == 1  # the checkpoint load
