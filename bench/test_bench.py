"""Tests of the benchmark itself: report determinism across thread counts,
repeatable per-layer counts, the preflight budget guard and the output
contract.  Run from the repository root with `python3 -m pytest bench -q`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads = run.import_program()
import tracing  # noqa: E402  (needs the program on sys.path)
from croftonlab import geom  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts a later change may cite as counts, so they must repeat exactly
REPEATABLE = (
    "geom.boundary_nodes",
    "planes.planes_sampled",
    "planes.hit_ratio",
    "coeffcore.calls",
    "valuations.hermitian_volumes.calls",
)


def test_montecarlo_reports_identical_across_thread_counts(monkeypatch):
    reports = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CROFTONLAB_THREADS", threads)
        outcomes = [op.run() for op in workloads.build("montecarlo", 0)]
        assert all(out.passed for out in outcomes)
        reports[threads] = [out.report for out in outcomes]
    assert reports["1"] == reports["2"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload, monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", "1")
    counts = []
    for _ in range(2):
        ledger = run.Ledger()
        ops = run.setup(workload, 5)
        _, layers = run.run_passes(ops, ledger, 0.0, tracing.Tracer())
        assert ledger.failed == 0
        assert len(layers) == 1
        counts.append({name: layers[0][name] for name in REPEATABLE})
    assert counts[0] == counts[1]


def test_grid_nodes_match_the_product_rule():
    for n, level in ((2, 0), (2, 1), (3, 0)):
        assert len(geom.sphere_grid(2 * n, level)[1]) == workloads.grid_nodes(n, level)
    assert workloads.grid_nodes(3, 1) == workloads.NODE_BUDGET


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_fits_the_budget(workload):
    for op in workloads.build(workload, 0):
        workloads.preflight(op)


@pytest.mark.parametrize(
    "argv",
    [
        # default level 2: 67M nodes per n=3 table
        ("check", "total-gauss", "--n", "3", "--r", "1"),
        ("volumes", "--shape", "ellipsoid", "--axes", "1,1,1,1,1,2"),
        # n=4 level 0 already needs 4.2M nodes
        ("check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,1,1,1,1,1,2",
         "--level", "0"),
        # would silently run level 1 instead of the requested level 2
        ("check", "crofton-mc", "--n", "3", "--r", "1", "--level", "2", "--samples", "1000"),
        ("check", "crofton-cpn", "--samples", "1000000"),
    ],
)
def test_preflight_refuses_without_running(argv):
    op = workloads.cli_op(*argv)
    started = []
    op.run = lambda: started.append(op.name)
    with pytest.raises(workloads.BudgetError):
        workloads.preflight(op)
    ledger = run.Ledger()
    run.run_pass([op], ledger)
    assert ledger.failed == 1
    assert started == []


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_the_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "montecarlo", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "montecarlo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
