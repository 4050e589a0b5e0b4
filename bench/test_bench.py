"""Smoke tests of the benchmark on tiny inputs.

    python3 -m pytest bench -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mstiff import stiffness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# per-layer metrics that each workload must move, so that a counter or an
# observer that stops being reached shows as a failure, not as a zero
DRIVEN = {
    "dims-even": {"search.divisor_candidates.calls", "search.divisors",
                  "search.candidates",
                  "stiffness.top_coefficient_screen.calls",
                  "stiffness.decided.top-screen"},
    "dims-odd": {"search.classify_dimension.calls", "search.candidates",
                 "stiffness.screen_coefficients.calls",
                 "stiffness.decided.coefficient-screen",
                 "exact_core.factorize.calls"},
    "certify": {"cli.main.calls", "search.verify_theorem.busy_s",
                "stiffness.verify_certificate.calls",
                "stiffness.decided.certificate",
                "exact_core.rational_roots.calls",
                "gegenbauer.closed_form_quadrature.calls",
                "render.render_table.bytes"},
    "deg-sweep": {"cli.main.calls", "cli.ckpt_bytes", "cli.cells_replayed",
                  "search.classify_degree.busy_s", "diophantine.x_scanned",
                  "diophantine.points", "diophantine.point_yield"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert DRIVEN[workload] <= {m["name"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace or name in DRIVEN[workload]:
            assert metric["value"] > 0, name


# one deliberately wrong expectation per workload
CORRUPT = {
    "dims-even": lambda inp: inp["expected"].update(
        {inp["dims"][0]: inp["expected"][inp["dims"][0]] + (6,)}),
    "dims-odd": lambda inp: inp["expected"].update(
        {inp["dims"][0]: (1, 2, 3)}),
    "certify": lambda inp: inp["streams"][4].append(inp["streams"][4][-1] + 1),
    "deg-sweep": lambda inp: inp.update(admissible=[5]),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checks_catch_a_wrong_expected_value(workload):
    inputs = workloads.make_inputs(workload, 3, "tiny")
    run.WORKDIR.mkdir(parents=True, exist_ok=True)
    good = workloads.run_pass(workload, inputs, run.WORKDIR)
    run.check_pass(workload, inputs, good, None)
    assert not [op.error for op in good.ops if op.error]

    CORRUPT[workload](inputs)
    bad = workloads.run_pass(workload, inputs, run.WORKDIR)
    run.check_pass(workload, inputs, bad, None)
    assert [op.error for op in bad.ops if op.error]


def test_inputs_depend_only_on_the_seed():
    for workload in run.WORKLOADS:
        assert (workloads.make_inputs(workload, 7)
                == workloads.make_inputs(workload, 7))
    assert (workloads.make_inputs("dims-odd", 1)
            != workloads.make_inputs("dims-odd", 2))


@pytest.mark.parametrize("m, d, stage", [
    (4, 23, "certificate"),
    (4, 24, "coefficient-screen"),
    (200, 60, "top-screen"),
    (40, 4, "bound"),
    (6, 24, "newton"),
    (10, 4, "roots"),
])
def test_stage_read_off_the_witness(m, d, stage):
    assert tracer.decided_stage(stiffness.stiff_exists(m, d)) == stage


def test_spans_account_for_the_traced_calls():
    t = tracer.Tracer()
    t.install()
    try:
        inputs = workloads.make_inputs("deg-sweep", 3, "tiny")
        run.WORKDIR.mkdir(parents=True, exist_ok=True)
        workloads.run_pass("deg-sweep", inputs, run.WORKDIR)
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    assert metrics["diophantine.points"] > 0
    roots = sum(e - s for s, e, p in zip(t.start, t.end, t.parent) if p < 0)
    assert metrics["trace.self_sum_s"] == pytest.approx(roots)

    path = run.WORKDIR / "test.spans"
    t.dump(path)
    names, (ids, parents, starts, ends) = tracer.load_spans(path)
    assert names == t.names and list(starts) == list(t.start)
    assert list(parents) == list(t.parent)
