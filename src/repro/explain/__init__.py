"""EXPLAIN / EXPLAIN ANALYZE: query-plan introspection and profiling.

The plan document lives here (:class:`QueryPlan`, :class:`PlanOperator`,
:func:`plan_digest`); the builders live with the code they introspect —
every evaluator's ``describe_plan`` (GM's pipeline in
:mod:`repro.matching.gm`, the engines' operator trees under
:mod:`repro.engines`), with the execute-and-attach-actuals half written
once in :meth:`repro.matching.stream.Evaluator.explain` — and
:meth:`repro.session.QuerySession.explain` /
:meth:`repro.api.GraphDB.explain` are the cache-aware entry points.
"""

from repro.explain.plan import PlanOperator, QueryPlan, plan_digest

__all__ = ["PlanOperator", "QueryPlan", "plan_digest"]
