"""Fig. 12 — (a) child-constraint check methods; (b) FB construction methods."""

import pytest

from conftest import BENCH_SCALE_FAST, representative_query, write_report
from repro.bench.experiments import fig12_constraint_checking
from repro.bench.workloads import query_set, representative_templates
from repro.rig.build import build_rig
from repro.simulation.context import ChildCheckMethod
from repro.simulation.fbsim import SimulationOptions, fbsim, fbsim_basic


def _rig_shape(report):
    """What every child-check method must build alike: ``cos`` and the edges."""
    rig = report.rig
    return {node: set(rig.candidates(node)) for node in rig.query.nodes()}, rig.num_rig_edges()


@pytest.mark.parametrize(
    "method", [ChildCheckMethod.BIN_SEARCH, ChildCheckMethod.BIT_ITER, ChildCheckMethod.BIT_BAT],
    ids=["binSearch", "bitIter", "bitBat"],
)
def test_rig_construction_by_child_check_method(benchmark, method, em_graph, em_context):
    query = representative_query(em_graph, kind="C", template="HQ11")
    simulation = SimulationOptions(child_check=method)
    built = benchmark(lambda: build_rig(em_context, query, simulation=simulation))
    # The ablation times one RIG three ways: each method must build it.
    for other in ChildCheckMethod:
        reference = build_rig(em_context, query, simulation=SimulationOptions(child_check=other))
        assert _rig_shape(built) == _rig_shape(reference), other


SIMULATORS = {
    "Gra": lambda context, query: fbsim_basic(context, query),
    "Dag": lambda context, query: fbsim(
        context, query, options=SimulationOptions(use_change_flags=False)
    ),
    "DagMap": lambda context, query: fbsim(
        context, query, options=SimulationOptions(use_change_flags=True)
    ),
}


@pytest.mark.parametrize("algorithm", list(SIMULATORS))
def test_double_simulation_construction(benchmark, algorithm, em_graph, em_context):
    query = representative_query(em_graph, kind="H", template="HQ17")
    simulate = SIMULATORS[algorithm]
    result = benchmark(lambda: simulate(em_context, query))
    # Every FB construction computes the same double simulation.
    for other in SIMULATORS.values():
        assert result.candidates == other(em_context, query).candidates


def test_fig12_ablations_agree_on_every_query(em_graph, em_context):
    # The timed queries above are empty at this scale; of the figure's own
    # query sets only HQ0 keeps candidates.  Check every one anyway.
    templates = representative_templates(per_class=2)
    for query in query_set(em_graph, kind="C", templates=templates).values():
        shapes = [
            _rig_shape(build_rig(em_context, query, simulation=SimulationOptions(child_check=method)))
            for method in ChildCheckMethod
        ]
        assert shapes[1:] == shapes[:-1], query.name
    for query in query_set(em_graph, kind="H", templates=templates).values():
        candidates = [simulate(em_context, query).candidates for simulate in SIMULATORS.values()]
        assert candidates[1:] == candidates[:-1], query.name


def test_regenerate_fig12(benchmark):
    report = benchmark.pedantic(
        lambda: fig12_constraint_checking(scale=BENCH_SCALE_FAST),
        rounds=1,
        iterations=1,
    )
    path = write_report(report)
    benchmark.extra_info["rows"] = len(report.rows)
    benchmark.extra_info["table_path"] = str(path)
