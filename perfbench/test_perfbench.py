"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from structham import blocksolver, harness, numerics, problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLOAT_WORKLOADS = ("pendulum-long", "solar-nbody", "order-sweep")


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): smoke(w, t) for w in workloads.WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(results, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in workloads.WORKLOADS:
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want, workload


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_no_double_double_work_on_float_workloads(results):
    for workload in FLOAT_WORKLOADS:
        metrics = results[workload, 1]["metrics"]
        assert metrics["numerics.dd_ops"]["value"] == 0, workload
        assert metrics["numerics.dd_objects"]["value"] == 0, workload
    assert results["ddouble-oscillator", 1]["metrics"]["numerics.dd_ops"]["value"] > 0


def test_order_sweep_builds_one_table_per_distinct_r_dt(results):
    sweep = workloads.OrderSweep(4, smoke=True)
    built = results["order-sweep", 1]["metrics"]["secoeff.tables_built"]["value"]
    assert built == len(sweep.table_keys()) == len(sweep.Rs) * len(sweep.ks)


def _patched_attributes(problem):
    DD = numerics.DoubleDouble
    attrs = [(owner, attr) for owner, attr, _ in spans.MODULE_SPANS]
    attrs += [(harness, "build_problem"), (DD, "__init__")] + [(DD, op) for op in spans.DD_OPS]
    attrs += [(problem, a) for a in ("first_rhs", "second_rhs", "exact_solution", "invariants")]
    return {(id(owner), attr): vars(owner).get(attr, getattr(owner, attr)) for owner, attr in attrs}


def test_tracer_restores_every_patched_attribute():
    problem = problems.make_mass_spring(precision=numerics.DDOUBLE)
    before = _patched_attributes(problem)
    tracer = spans.Tracer([problem], count_dd=True)
    with pytest.raises(RuntimeError, match="stop"):
        with tracer, tracer.root(spans.ROOT, 1):
            assert blocksolver.se_update is not before[id(blocksolver), "se_update"]
            config = blocksolver.SolverConfig(precision=numerics.DDOUBLE)
            blocksolver.integrate(problem, "zds", 2, 4, 0.5, config=config)
            raise RuntimeError("stop")
    after = _patched_attributes(problem)
    assert all(after[key] is value for key, value in before.items())
    assert tracer.dd["ops"] > 0 and tracer.dd["objects"] > 0
    times = spans.layer_times(tracer, [1])
    assert times["problems.rhs1"]["count"] > 0 and times[spans.ROOT]["count"] == 1


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.root(spans.ROOT, 1):
        tracer.wrap(lambda: tracer.wrap(lambda: None, "inner")(), "outer")()
    t = spans.layer_times(tracer, [1])
    total = t[spans.ROOT]["total"]
    assert np.isclose(t[spans.ROOT]["self"] + t["outer"]["self"] + t["inner"]["self"], total)
    assert t["outer"]["total"] >= t["inner"]["total"]
