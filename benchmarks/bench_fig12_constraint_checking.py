"""Fig. 12 — (a) child-constraint check methods; (b) FB construction methods."""

import pytest

from conftest import BENCH_SCALE_FAST, representative_query, write_report
from repro.bench.experiments import fig12_constraint_checking
from repro.rig.build import build_rig
from repro.simulation.context import ChildCheckMethod
from repro.simulation.fbsim import SimulationOptions, fbsim, fbsim_basic


@pytest.mark.parametrize(
    "method", [ChildCheckMethod.BIN_SEARCH, ChildCheckMethod.BIT_ITER, ChildCheckMethod.BIT_BAT],
    ids=["binSearch", "bitIter", "bitBat"],
)
def test_rig_construction_by_child_check_method(benchmark, method, em_graph, em_context):
    query = representative_query(em_graph, kind="C", template="HQ11")
    simulation = SimulationOptions(child_check=method)
    benchmark(lambda: build_rig(em_context, query, simulation=simulation))


@pytest.mark.parametrize("algorithm", ["Gra", "Dag", "DagMap"])
def test_double_simulation_construction(benchmark, algorithm, em_graph, em_context):
    query = representative_query(em_graph, kind="H", template="HQ17")
    if algorithm == "Gra":
        benchmark(lambda: fbsim_basic(em_context, query))
    elif algorithm == "Dag":
        benchmark(lambda: fbsim(em_context, query, options=SimulationOptions(use_change_flags=False)))
    else:
        benchmark(lambda: fbsim(em_context, query, options=SimulationOptions(use_change_flags=True)))


def test_regenerate_fig12(benchmark):
    report = benchmark.pedantic(
        lambda: fig12_constraint_checking(scale=BENCH_SCALE_FAST),
        rounds=1,
        iterations=1,
    )
    path = write_report(report)
    benchmark.extra_info["rows"] = len(report.rows)
    benchmark.extra_info["table_path"] = str(path)
