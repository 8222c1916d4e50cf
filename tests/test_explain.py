"""EXPLAIN / EXPLAIN ANALYZE: plan introspection across every surface.

Cross-engine parity on the paper's running example: EXPLAIN ANALYZE root
row counts must reconcile exactly with each evaluator's own eager
:class:`MatchReport` (GM and the JM baseline answer the paper answer; the
four comparator engines answer the descendant-relaxed query their closure
mode actually evaluates — the reconciliation contract is against *their
own* report, see ``test_engines.py``).  Also covered: truncated (first-k)
reconciliation, plan digests flowing into the slow-query log, the wire
``explain`` op via :class:`GraphClient`, render determinism, and the
structured-logging satellite.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro.api import GraphDB
from repro.client import GraphClient
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine
from repro.engines.treedecomp import TreeDecompEngine
from repro.engines.wcoj import WCOJEngine
from repro.explain import PlanOperator, QueryPlan, plan_digest
from repro.matching.gm import GraphMatcher
from repro.matching.result import Budget
from repro.obs import Telemetry
from repro.obs.log import TenantLoggerAdapter, configure, get_logger
from repro.server import GraphServer
from repro.session import QuerySession

pytestmark = pytest.mark.timeout(120)

ENGINE_CLASSES = [BinaryJoinEngine, RelationalEngine, WCOJEngine, TreeDecompEngine]

PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)


@pytest.fixture
def paper_graph():
    return build_paper_graph()


@pytest.fixture
def paper_query():
    return build_paper_query()


# ---------------------------------------------------------------------- #
# GM: the paper pipeline
# ---------------------------------------------------------------------- #


class TestGMExplain:
    def test_plan_only_never_enumerates(self, paper_graph, paper_query):
        plan = GraphMatcher(paper_graph).explain(paper_query)
        assert isinstance(plan, QueryPlan)
        assert plan.analyze is False
        assert plan.engine == "GM"
        assert plan.root.actual == {}
        assert plan.execution == {}
        assert len(plan.vertex_order) == len(list(paper_query.nodes()))
        # Every extend step carries a RIG candidate-set estimate.
        for child in plan.root.children:
            assert child.estimate is not None and child.estimate > 0

    def test_digest_is_canonical(self, paper_graph, paper_query):
        plan = GraphMatcher(paper_graph).explain(paper_query)
        assert plan.digest() == plan_digest(
            plan.engine, plan.ordering, plan.vertex_order
        )
        # Deterministic across repeated planning of the same query.
        again = GraphMatcher(paper_graph).explain(paper_query)
        assert again.digest() == plan.digest()

    def test_analyze_reconciles_with_eager_report(self, paper_graph, paper_query):
        matcher = GraphMatcher(paper_graph)
        plan = matcher.explain(paper_query, analyze=True)
        report = matcher.match(paper_query)
        assert plan.analyze is True
        assert plan.root.actual["rows"] == report.num_matches == len(PAPER_ANSWER)
        assert plan.execution["rows"] == report.num_matches
        # One actual-counter column per extend step, none missing.
        for child in plan.root.children:
            assert "rows" in child.actual
            assert "candidates" in child.actual

    def test_analyze_first_k_reconciles_with_truncated_prefix(
        self, paper_graph, paper_query
    ):
        budget = Budget(max_matches=2)
        matcher = GraphMatcher(paper_graph)
        plan = matcher.explain(paper_query, analyze=True, budget=budget)
        report = matcher.match(paper_query, budget=budget)
        assert plan.root.actual["rows"] == report.num_matches == 2

    def test_report_carries_matching_plan_digest(self, paper_graph, paper_query):
        matcher = GraphMatcher(paper_graph)
        plan = matcher.explain(paper_query)
        report = matcher.match(paper_query)
        assert report.extra["plan_digest"] == plan.digest()

    def test_render_is_deterministic_and_structured(self, paper_graph, paper_query):
        matcher = GraphMatcher(paper_graph)
        plan = matcher.explain(paper_query, analyze=True)
        text = plan.render()
        assert text == plan.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "vertex order:" in text
        assert "artifacts:" in text
        assert "execution:" in text
        assert "est=" in text and "act=" in text
        plain = GraphMatcher(paper_graph).explain(paper_query).render()
        assert plain.startswith("EXPLAIN  ")
        assert "act=" not in plain

    def test_wire_and_dict_round_trips(self, paper_graph, paper_query):
        plan = GraphMatcher(paper_graph).explain(paper_query, analyze=True)
        via_dict = QueryPlan.from_dict(plan.to_dict())
        via_wire = QueryPlan.from_wire(plan.to_wire())
        assert via_dict.render() == plan.render()
        assert via_wire.render() == plan.render()
        assert via_wire.digest() == plan.digest()
        json.dumps(plan.to_wire())  # the wire form is pure JSON


# ---------------------------------------------------------------------- #
# comparator engines
# ---------------------------------------------------------------------- #


class TestLazyReachabilityIndex:
    """GM and TM run on the condensation; the per-pair index is built only
    for the matchers that ask per-pair questions (ISO, and JM)."""

    @staticmethod
    def _count_builds(monkeypatch):
        import repro.simulation.context as context_module

        built = []
        original = context_module.build_reachability_index

        def counting(*args, **kwargs):
            index = original(*args, **kwargs)
            built.append(type(index).__name__)
            return index

        monkeypatch.setattr(context_module, "build_reachability_index", counting)
        return built

    def test_gm_query_and_explain_leave_the_index_unbuilt(
        self, monkeypatch, paper_graph, paper_query
    ):
        built = self._count_builds(monkeypatch)
        session = QuerySession(paper_graph)
        assert session.query(paper_query).occurrence_set() == PAPER_ANSWER
        plan = session.explain(paper_query)
        assert plan.artifacts["reachability_index"] == "condensation"
        steps = [step.details.get("reachability_index") for step in plan.root.children]
        assert "condensation" in steps
        assert built == []

    def test_tm_reads_the_condensation_too(self, monkeypatch, paper_graph, paper_query):
        built = self._count_builds(monkeypatch)
        session = QuerySession(paper_graph)
        assert session.query(paper_query, engine="TM").occurrence_set() == PAPER_ANSWER
        assert built == []

    @pytest.mark.parametrize("engine", ["ISO", "JM"])
    def test_per_pair_matchers_build_it_on_demand(self, monkeypatch, paper_graph, paper_query, engine):
        built = self._count_builds(monkeypatch)
        session = QuerySession(paper_graph)
        assert session.query(paper_query, engine=engine).occurrence_set() == PAPER_ANSWER
        assert built == ["BloomFilterLabeling"]
        assert session.reachability._cond is session.context._components()
        session.query(paper_query, engine=engine)
        assert built == ["BloomFilterLabeling"]  # once per context


class TestEngineExplain:
    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_plan_only_has_operator_tree(self, engine_class, paper_graph, paper_query):
        plan = engine_class(paper_graph).explain(paper_query)
        assert plan.analyze is False
        assert plan.engine == engine_class.name
        assert plan.root.children, "engines must describe a multi-step tree"
        assert plan.root.actual == {}
        assert "expanded_graph" in plan.artifacts

    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_analyze_root_rows_match_own_eager_report(
        self, engine_class, paper_graph, paper_query
    ):
        # Each edge reads the graph its type names, so the engines answer
        # the hybrid query itself: the 4 rows of PAPER_ANSWER.
        engine = engine_class(paper_graph)
        plan = engine.explain(paper_query, analyze=True)
        report = engine.match(paper_query)
        assert plan.root.actual["rows"] == report.num_matches == len(PAPER_ANSWER)
        assert plan.execution["rows"] == report.num_matches
        assert plan.artifacts["expanded_graph"] is True
        assert len(plan.root.children) >= 1
        for child in plan.root.children:
            assert child.actual, "every operator must carry actual counters"

    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_analyze_first_k_reconciles(self, engine_class, paper_graph, paper_query):
        budget = Budget(max_matches=1)
        engine = engine_class(paper_graph)
        plan = engine.explain(paper_query, analyze=True, budget=budget)
        report = engine.match(paper_query, budget=budget)
        assert plan.root.actual["rows"] == report.num_matches == 1


# ---------------------------------------------------------------------- #
# session / facade
# ---------------------------------------------------------------------- #


class TestSessionAndFacadeExplain:
    def test_session_annotates_cached_artifacts(self, paper_graph, paper_query):
        session = QuerySession(paper_graph)
        first = session.explain(paper_query)
        assert "session_cached" in first.artifacts
        session.query(paper_query)
        warmed = session.explain(paper_query)
        assert "reachability" in warmed.artifacts["session_cached"]

    def test_session_baseline_degenerate_plan_reconciles(
        self, paper_graph, paper_query
    ):
        session = QuerySession(paper_graph)
        plan = session.explain(paper_query, engine="JM", analyze=True)
        assert plan.engine == "JM"
        assert plan.root.op == "evaluate"
        assert plan.root.children == []
        assert plan.root.actual["rows"] == len(PAPER_ANSWER)

    def test_session_engine_names_dispatch(self, paper_graph, paper_query):
        session = QuerySession(paper_graph)
        for name in ("GF", "Neo4j", "EH", "RM"):
            plan = session.explain(paper_query, engine=name)
            assert plan.engine == name

    def test_graphdb_explain_and_metric(self, paper_graph):
        with GraphDB.from_edges(paper_graph.labels, paper_graph.edges()) as db:
            plan = db.explain(PAPER_DSL)
            assert plan.analyze is False
            analyzed = db.explain(PAPER_DSL, analyze=True)
            report = db.query(PAPER_DSL)
            assert analyzed.root.actual["rows"] == report.num_matches
            assert analyzed.root.actual["rows"] == len(PAPER_ANSWER)
            families = db.metrics()
        values = {
            tuple(sorted(value["labels"].items())): value["value"]
            for value in families["explain_total"]["values"]
        }
        assert values[(("engine", "GM"), ("mode", "plan"))] == 1.0
        assert values[(("engine", "GM"), ("mode", "analyze"))] == 1.0

    def test_snapshot_explain_pins_version(self, paper_graph):
        with GraphDB.from_edges(paper_graph.labels, paper_graph.edges()) as db:
            with db.store.pin() as snapshot:
                plan = snapshot.explain(db._as_query(PAPER_DSL, None), analyze=True)
                assert plan.root.actual["rows"] == len(PAPER_ANSWER)

    def test_slow_log_carries_trace_id_and_plan_digest(self, paper_graph):
        telemetry = Telemetry(slow_query_seconds=0.0)
        with GraphDB.from_edges(
            paper_graph.labels, paper_graph.edges(), telemetry=telemetry
        ) as db:
            db.query(PAPER_DSL, trace_id="feedc0de")
            expected = db.explain(PAPER_DSL).digest()
            entries = db.slow_queries()
        entry = entries[0]
        assert entry["trace_id"] == "feedc0de"
        assert entry["plan_digest"] == expected
        assert entry["trace"]["meta"]["plan_digest"] == expected


# ---------------------------------------------------------------------- #
# the wire
# ---------------------------------------------------------------------- #


@pytest.fixture
def server():
    with GraphServer() as srv:
        yield srv


@pytest.fixture
def client(server, paper_graph):
    with GraphClient(*server.address, timeout=60.0) as cli:
        cli.create_graph(
            "paper", labels=paper_graph.labels, edges=paper_graph.edges(), switch=True
        )
        yield cli


class TestWireExplain:
    def test_remote_plan_matches_local(self, client, paper_graph):
        remote = client.explain(PAPER_DSL)
        with GraphDB.from_edges(paper_graph.labels, paper_graph.edges()) as db:
            local = db.explain(PAPER_DSL)
        assert remote.digest() == local.digest()
        assert remote.vertex_order == local.vertex_order
        assert remote.ordering == local.ordering
        remote_tree = [
            (op.op, op.label, op.estimate) for op in remote.root.walk()
        ]
        local_tree = [(op.op, op.label, op.estimate) for op in local.root.walk()]
        assert remote_tree == local_tree

    def test_remote_analyze_reconciles(self, client):
        plan = client.explain(PAPER_DSL, analyze=True)
        report = client.query(PAPER_DSL)
        assert plan.analyze is True
        assert plan.root.actual["rows"] == report.num_matches == len(PAPER_ANSWER)

    def test_remote_engine_and_budget(self, client):
        plan = client.explain(
            PAPER_DSL, engine="GF", analyze=True, budget=Budget(max_matches=2)
        )
        assert plan.engine == "GF"
        assert plan.root.actual["rows"] == 2

    def test_pinned_snapshot_explain(self, client):
        with client.pin() as snapshot:
            plan = snapshot.explain(PAPER_DSL, analyze=True)
        assert plan.root.actual["rows"] == len(PAPER_ANSWER)


# ---------------------------------------------------------------------- #
# logging satellite
# ---------------------------------------------------------------------- #


class TestLogging:
    def test_server_lifecycle_logs(self, caplog, paper_graph):
        with caplog.at_level(logging.INFO, logger="repro.server"):
            with GraphServer() as srv:
                with GraphClient(*srv.address) as cli:
                    cli.create_graph(
                        "paper", labels=paper_graph.labels, edges=paper_graph.edges()
                    )
                    cli.drop_graph("paper")
        messages = [record.getMessage() for record in caplog.records]
        assert any("listening on" in message for message in messages)
        assert any("client connected" in message for message in messages)
        assert any("created graph 'paper'" in message for message in messages)
        assert any("dropped graph 'paper'" in message for message in messages)
        assert any("server stopped" in message for message in messages)

    def test_tenant_adapter_prefixes_and_stamps(self):
        logger = get_logger("server", tenant="fraud")
        assert isinstance(logger, TenantLoggerAdapter)
        message, kwargs = logger.process("hello", {})
        assert message == "[fraud] hello"
        assert kwargs["extra"]["tenant"] == "fraud"

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        root = configure("WARNING", stream=stream)
        handlers_before = list(root.handlers)
        configure("DEBUG", stream=stream)
        assert list(root.handlers) == handlers_before
        get_logger("server").debug("visible now")
        assert "visible now" in stream.getvalue()
        with pytest.raises(ValueError):
            configure("NOISY")

    def test_library_is_silent_by_default(self):
        # The repro root carries a NullHandler: no "no handler" warnings
        # and nothing written unless the application opts in.
        assert any(
            isinstance(handler, logging.NullHandler)
            for handler in logging.getLogger("repro").handlers
        )
