"""The compiled MJoin kernel: differential, counter-reconciliation, set-kind
and cancellation coverage.

One oracle (``baselines/bruteforce.py``) against every way the enumerator can
be driven — search order, injectivity, RIG set representation, match cap,
drained or closed early — plus the accounting identities the ``stats`` /
``step_stats`` channels and EXPLAIN ANALYZE promise for each such run.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms, bruteforce_isomorphisms
from repro.exceptions import QueryCancelled, TimeoutExceeded
from repro.matching.gm import GraphMatcher, mjoin_iter
from repro.matching.mjoin import compile_plan
from repro.matching.ordering import OrderingMethod, search_order
from repro.matching.result import Budget, MatchStatus
from repro.rig.build import RIGOptions, build_rig
from repro.simulation.context import MatchContext
from test_simulation_properties import graph_and_query
from test_streaming import fanout_graph, path_query

SET_KINDS = ["set", "roaring", "intbitset"]


def _budget(cap, **limits) -> Budget:
    return Budget(max_matches=cap, time_limit_seconds=None, max_intermediate_results=None, **limits)


def _reconciles(rows, stats, step_stats) -> None:
    """The identities every run — drained, capped or closed — must satisfy."""
    assert step_stats[-1]["rows"] == len(rows)
    assert sum(step["candidates"] for step in step_stats) == stats["candidates"]
    assert sum(step["intersections"] for step in step_stats) == stats["intersections"]


@settings(max_examples=60, deadline=None)
@given(
    data=graph_and_query(),
    method=st.sampled_from(list(OrderingMethod)),
    injective=st.booleans(),
    cap=st.sampled_from([None, 1, 3]),
)
def test_every_drive_mode_agrees_with_bruteforce(data, method, injective, cap):
    graph, query = data
    context = MatchContext(graph)
    oracle = bruteforce_isomorphisms if injective else bruteforce_homomorphisms
    expected = set(oracle(graph, query))

    by_kind = {}
    for set_kind in SET_KINDS:
        options = RIGOptions(set_kind=set_kind)
        rig = build_rig(context, query, options).rig
        if rig.is_empty():
            assert not expected
            assert list(mjoin_iter(rig, budget=_budget(cap), injective=injective)) == []
            continue
        order = search_order(rig.query, rig, method)

        # Drained (or capped): the answer, exactly.
        stats, step_stats = {}, []
        rows = list(mjoin_iter(rig, order, _budget(cap), injective, stats, step_stats))
        assert len(set(rows)) == len(rows)
        if cap is None:
            assert set(rows) == expected
        else:
            assert len(rows) == min(cap, len(expected))
            assert set(rows) <= expected
        _reconciles(rows, stats, step_stats)
        # A capped run explores whichever prefix the kind's iteration order
        # reaches first, so only a drained run pins the rows and the work.
        by_kind[set_kind] = (set(rows), stats) if cap is None else len(rows)

        # Closed after the first row: counters flush for exactly that row.
        if expected:
            stats, step_stats = {}, []
            iterator = mjoin_iter(rig, order, _budget(cap), injective, stats, step_stats)
            first = next(iterator)
            iterator.close()
            assert first in expected
            _reconciles([first], stats, step_stats)

        # EXPLAIN ANALYZE's root reconciles with the report of the same run.
        matcher = GraphMatcher(graph, context=context, ordering=method, rig_options=options)
        plan = matcher.explain(query, analyze=True, budget=_budget(cap), injective=injective)
        report = matcher.match(query, budget=_budget(cap), injective=injective)
        assert plan.root.actual["rows"] == plan.execution["rows"] == report.num_matches == len(rows)

    # Every set kind runs the same search: same answer, same work.
    assert all(outcome == by_kind["set"] for outcome in by_kind.values())


@pytest.mark.parametrize("method", list(OrderingMethod))
def test_set_kinds_do_identical_work_on_the_paper_fixture(
    paper_context, paper_query, paper_answer, method
):
    work = {}
    for set_kind in SET_KINDS:
        rig = build_rig(paper_context, paper_query, RIGOptions(set_kind=set_kind)).rig
        stats: dict = {}
        rows = list(
            mjoin_iter(rig, search_order(rig.query, rig, method), _budget(None), stats=stats)
        )
        assert frozenset(rows) == paper_answer
        assert len(rows) == len(paper_answer)
        work[set_kind] = stats
    assert work["roaring"] == work["intbitset"] == work["set"]
    assert work["set"]["candidates"] > 0 and work["set"]["intersections"] > 0


def test_local_candidates_keep_the_rig_set_kind(paper_context, paper_query):
    # The kernel intersects with each kind's own ``&``: no operand is ever
    # converted to a built-in set on the way.  Adjacency is the kind's
    # ``make_set`` type — for the default kind the immutable ``frozenset``,
    # because equal answers share one object — and ``cos(q) & adjacency``
    # stays the mutable kind ``cos(q)`` has.
    for set_kind in SET_KINDS:
        rig = build_rig(paper_context, paper_query, RIGOptions(set_kind=set_kind)).rig
        kind = type(rig.candidates(0))
        adjacency_kind = frozenset if set_kind == "set" else kind
        assert type(rig.make_set(())) is adjacency_kind
        for _, base, probes, _ in compile_plan(rig, search_order(rig.query, rig)):
            assert type(base) is kind
            for index, _ in probes:
                assert all(type(adjacency) is adjacency_kind for adjacency in index.values())
                assert all(type(base & adjacency) is kind for adjacency in index.values())


def test_plan_is_compiled_once_per_rig_and_order(paper_context, paper_query):
    rig = build_rig(paper_context, paper_query).rig
    order = search_order(rig.query, rig)
    plan = compile_plan(rig, order)
    assert compile_plan(rig, list(order)) is plan
    assert compile_plan(rig, order, injective=True) is not plan
    assert compile_plan(rig, order[::-1]) is not plan
    rig.set_candidates(order[0], rig.candidates(order[0]))  # any mutation drops it
    assert compile_plan(rig, order) is not plan


class TestCancellation:
    WIDTH = 12  # every last-position candidate set of the fan-out has WIDTH rows

    def _rig(self):
        return GraphMatcher(fanout_graph(self.WIDTH)).build_rig(path_query()).rig

    def test_set_cancel_event_stops_within_one_candidate_set(self):
        event = threading.Event()
        iterator = mjoin_iter(self._rig(), budget=_budget(None, cancel_event=event))
        for _ in range(5):
            next(iterator)
        event.set()
        late = 0
        with pytest.raises(QueryCancelled):
            for _ in iterator:
                late += 1
        assert late < self.WIDTH

    def test_expired_deadline_stops_within_one_candidate_set(self):
        budget = Budget(max_matches=None, time_limit_seconds=0.05)
        stats: dict = {}
        iterator = mjoin_iter(self._rig(), budget=budget, stats=stats)
        next(iterator)
        time.sleep(0.06)
        late = 0
        with pytest.raises(TimeoutExceeded):
            for _ in iterator:
                late += 1
        assert late < self.WIDTH
        assert stats["candidates"] > 0  # flushed on the way out

    def test_already_expired_budget_yields_nothing(self):
        with pytest.raises(TimeoutExceeded):
            next(mjoin_iter(self._rig(), budget=Budget(time_limit_seconds=0.0)))
        event = threading.Event()
        event.set()
        with pytest.raises(QueryCancelled):
            next(mjoin_iter(self._rig(), budget=_budget(None, cancel_event=event)))

    def test_matcher_reports_the_terminal_status(self):
        matcher = GraphMatcher(fanout_graph(self.WIDTH))
        event = threading.Event()
        event.set()
        assert matcher.match(path_query(), budget=_budget(None, cancel_event=event)).status is (
            MatchStatus.CANCELLED
        )
        assert matcher.match(path_query(), budget=Budget(time_limit_seconds=0.0)).status is (
            MatchStatus.TIMEOUT
        )

    def test_unlimited_budget_never_builds_a_checker(self):
        assert _budget(None).start_clock().checker() is None
        assert Budget(time_limit_seconds=1.0).start_clock().checker() is not None
