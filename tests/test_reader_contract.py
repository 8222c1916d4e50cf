"""The reader contract: seven readers, six verbs, one answer.

Every layer that answers reads — the evaluating :class:`QuerySession`, a
pinned store snapshot, the :class:`GraphDB` facade and its pins, the wire
client and its server-side pins, and the replica router — must answer each
of the six read verbs (``query`` / ``count`` / ``histogram`` / ``explain``
/ ``stream`` / ``run_batch``) exactly as the session does, refuse an option
it does not take with :class:`TypeError` before any frame leaves, and
define in its class body only the verbs it genuinely overrides (everything
else is :class:`~repro.store.Reader`'s one declaration over ``_read``).
"""

from __future__ import annotations

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro.api import GraphDB
from repro.client import GraphClient, RemoteSnapshot, RoutedClient
from repro.query.pattern import EdgeType, PatternQuery
from repro.server import GraphCatalog, GraphServer
from repro.server.protocol import encode_request
from repro.service import ServiceConfig
from repro.session import QuerySession
from repro.store import Reader, StoreSnapshot, VersionedGraphStore

pytestmark = pytest.mark.timeout(120)

VERBS = ("query", "count", "histogram", "explain", "stream", "run_batch")

PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)
AB_DSL = "node a A\nnode b B\nedge a -> b"

#: Per reader: an option that layer does not take (in-process layers take
#: no wire-only knob; the wire takes no evaluator-only one).
FOREIGN_OPTION = {
    "session": "deadline_seconds",
    "store.pin()": "deadline_seconds",
    "GraphDB": "pin",
    "db.pin()": "deadline_seconds",
    "GraphClient": "injective",
    "client.pin()": "injective",
    "RoutedClient": "injective",
}


def ab_query(name: str = "ab") -> PatternQuery:
    return PatternQuery(labels=["A", "B"], edges=[(0, 1, EdgeType.CHILD)], name=name)


def outcomes(report) -> list:
    """A batch report's outcomes, in order, as ``(name, status, rows)``."""
    return [(o.name, o.status, o.occurrence_set()) for o in report.outcomes]


def serve(database: GraphDB):
    catalog = GraphCatalog()
    catalog.attach("paper", database)
    server = GraphServer(catalog)
    server.start()
    return server


@pytest.fixture(scope="module")
def readers():
    """The seven readers over the paper graph (each its own version 0)."""
    database = GraphDB.open(build_paper_graph())
    store = VersionedGraphStore(build_paper_graph())
    server = serve(database)
    client = GraphClient(*server.address, graph="paper", timeout=60.0)
    routed = RoutedClient(server.address, graph="paper")
    pins = [store.pin(), database.pin(), client.pin()]
    try:
        yield {
            "session": QuerySession(build_paper_graph()),
            "store.pin()": pins[0],
            "GraphDB": database,
            "db.pin()": pins[1],
            "GraphClient": client,
            "client.pin()": pins[2],
            "RoutedClient": routed,
        }
    finally:
        for pin in pins:
            pin.release()
        routed.close()
        client.close()
        server.close()
        database.close()
        store.close()


@pytest.fixture
def sent_frames(monkeypatch):
    """Every frame any GraphClient sends while the test runs."""
    frames = []
    send = GraphClient._send

    def record(self, frame):
        frames.append(frame)
        return send(self, frame)

    monkeypatch.setattr(GraphClient, "_send", record)
    return frames


def answers(reader) -> dict:
    """Each verb's answer on ``reader``, in a comparable form."""
    query = build_paper_query()
    with reader.stream(query) as stream:
        streamed = list(stream)
    plan = reader.explain(query)
    batch = reader.run_batch({"q0": query, "q1": ab_query()})
    # Entries that share a name (one query twice, or two unnamed queries:
    # both take the default name "query") each keep their outcome.
    unnamed_ac = PatternQuery(labels=["A", "C"], edges=[(0, 1, EdgeType.CHILD)])
    shared = reader.run_batch([query, query, ab_query("query"), unnamed_ac])
    return {
        "query": reader.query(query).occurrence_set(),
        "count": reader.count(query),
        "histogram": reader.histogram(query),
        "histogram(node=1)": reader.histogram(query, node=1),
        "explain": (plan.engine, plan.ordering, plan.vertex_order, plan.digest()),
        "stream": sorted(streamed),
        "run_batch": outcomes(batch),
        "run_batch(shared names)": outcomes(shared),
    }


@pytest.mark.parametrize("name", sorted(FOREIGN_OPTION))
class TestEveryReader:
    def test_every_verb_answers_what_the_session_answers(self, readers, name):
        assert answers(readers[name]) == answers(readers["session"])

    def test_counts_agree_across_verbs(self, readers, name):
        reader, query = readers[name], build_paper_query()
        with reader.stream(query) as stream:
            streamed = sum(1 for _ in stream)
        plan = reader.explain(query, analyze=True)
        assert (
            reader.count(query)
            == reader.query(query).num_matches
            == streamed
            == plan.root.actual["rows"]
            == len(PAPER_ANSWER)
        )

    @pytest.mark.parametrize("verb", VERBS)
    def test_an_option_the_layer_does_not_take_is_a_type_error(
        self, readers, name, verb, sent_frames
    ):
        reader = readers[name]
        subject = {"queries": [build_paper_query()]} if verb == "run_batch" else {
            "query": build_paper_query()
        }
        for option in ("bogus", FOREIGN_OPTION[name]):
            with pytest.raises(TypeError):
                getattr(reader, verb)(**subject, **{option: True})
        assert sent_frames == []


class TestStructure:
    def test_forwarding_layers_define_only_the_verbs_they_override(self):
        overrides = {
            StoreSnapshot: set(),
            RemoteSnapshot: set(),
            RoutedClient: set(),
            GraphClient: {"query", "stream"},
            GraphDB: {"query", "stream", "run_batch"},
        }
        for cls, allowed in overrides.items():
            assert issubclass(cls, Reader), cls
            assert set(VERBS) & set(vars(cls)) == allowed, cls
            assert "_read" in vars(cls), cls

    def test_encode_request_refuses_undeclared_fields(self):
        with pytest.raises(TypeError, match="count takes no 'timeout'"):
            encode_request("count", query=PAPER_DSL, timeout=1.0)
        with pytest.raises(TypeError, match="'not_a_field'"):
            encode_request("query", query=PAPER_DSL, not_a_field=None)
        # ``graph`` rides on any frame (node-scoped ops count against it).
        assert encode_request("ping", graph="paper") == {"op": "ping", "graph": "paper"}


class TestTenantDefaults:
    def test_explain_plans_with_the_tenants_default_engine(self):
        database = GraphDB.open(build_paper_graph(), config=ServiceConfig(default_engine="JM"))
        server = serve(database)
        try:
            with GraphClient(*server.address, graph="paper", timeout=60.0) as client:
                with client.pin() as remote_pin:
                    for reader in (database, client, remote_pin):
                        assert reader.explain(PAPER_DSL).engine == "JM", reader
                        assert reader.query(PAPER_DSL).algorithm == "JM", reader
                        assert reader.count(PAPER_DSL) == len(PAPER_ANSWER), reader
                # A db.pin() is a store pin: it reads with the session's
                # defaults unless told otherwise.
                with database.pin() as local_pin:
                    query = build_paper_query()
                    assert local_pin.explain(query).engine == "GM"
                    assert local_pin.explain(query, engine="JM").engine == "JM"
        finally:
            server.close()
            database.close()


class TestTextBatches:
    def test_a_text_batch_answers_alike_in_process_and_over_the_wire(self):
        database = GraphDB.open(build_paper_graph())
        server = serve(database)
        batch = [PAPER_DSL, AB_DSL, build_paper_query()]
        try:
            local = database.run_batch(batch)
            with GraphClient(*server.address, graph="paper", timeout=60.0) as client:
                remote = client.run_batch(batch)
        finally:
            server.close()
            database.close()

        assert outcomes(local) == outcomes(remote)
        assert [name for name, _, _ in outcomes(local)] == ["q0", "q1", "Q-paper"]
        assert outcomes(local)[0][2] == set(PAPER_ANSWER)
