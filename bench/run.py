#!/usr/bin/env python3
"""Benchmark of the croftonlab verification lab.

    python3 bench/run.py --workload {deterministic,montecarlo} \
        --seed N --seconds S --trace {0,1}

Runs the workload's fixed list of verifications (a pass) again and again, one
after the other in one process, for about S seconds; every operation must end
in a passing verdict.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced part with
--trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("deterministic", "montecarlo")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
    "quad_rel_residual": "ratio",
    "mc_rel_stderr": "ratio",
}

PER_LAYER = {
    "geom.sample_boundary.calls": "count",
    "geom.sample_boundary.s": "s",
    "geom.boundary_nodes": "count",
    "geom.us_per_node": "us",
    "geom.cloud_mb_max": "MiB",
    "geom.sphere_grid.s": "s",
    "geom.sphere_grid.misses": "count",
    "extalg.build_pullbacks.calls": "count",
    "extalg.build_pullbacks.s": "s",
    "extalg.points": "count",
    "extalg.wedge.calls": "count",
    "extalg.wedge.s": "s",
    "extalg.density.calls": "count",
    "extalg.density.s": "s",
    "extalg.permutation_oracle.s": "s",
    "valuations.hermitian_volumes.calls": "count",
    "valuations.hermitian_volumes.s": "s",
    "valuations.hermitian_volumes.self_s": "s",
    "valuations.ball_closed_form.calls": "count",
    "valuations.ball_closed_form.s": "s",
    "valuations.gauss_bonnet_residual.s": "s",
    "planes.chi_measure_estimate.calls": "count",
    "planes.chi_measure_estimate.s": "s",
    "planes.calibrate.s": "s",
    "planes.total_gauss_estimate.s": "s",
    "planes.grassmann_sigma_average.s": "s",
    "planes.planes_sampled": "count",
    "planes.chunks": "count",
    "planes.us_per_plane": "us",
    "planes.hit_ratio": "ratio",
    "coeffcore.calls": "count",
    "coeffcore.s": "s",
    "coeffcore.distinct_ratio": "ratio",
    "varcheck.tilde_integrals.s": "s",
    "varcheck.variation_fd.s": "s",
    "varcheck.crofton_variation_check.s": "s",
    "varcheck.fd_tables": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.report_bytes": "count",
    "trace_overhead_s": "s",
}

# Reported as mc_rel_stderr by a workload that runs no Monte Carlo check.
NO_MONTE_CARLO = 1.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time the set-up of a fresh interpreter started at this time.time()
    p.add_argument("--setup-probe", dest="setup_probe", type=float, default=None)
    return p.parse_args(argv)


def import_program():
    """Import croftonlab from this checkout's src/ and the benchmark modules."""
    if not (SRC / "croftonlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'croftonlab'} not found; run from a croftonlab checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import croftonlab

    if Path(croftonlab.__file__).resolve().parent != (SRC / "croftonlab").resolve():
        raise SystemExit(f"error: croftonlab imported from {croftonlab.__file__}, not {SRC}")
    import workloads

    return workloads


def setup(workload: str, seed: int):
    """Everything before the first timed operation: inputs and warm-up."""
    workloads = import_program()
    os.environ["CROFTONLAB_THREADS"] = str(workloads.THREADS[workload])
    ops = workloads.build(workload, seed)
    # fault in lazy imports and the CLI path with one tiny verification
    workloads.run_cli(["check", "gamma-b", "--n", "2", "--eps", "1", "--R", "0.5"])
    return ops


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time to reach the first operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe", repr(start)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Ledger:
    """Verdicts and accuracy figures of every operation run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reports: Dict[str, str] = {}
        self.gb_residuals: List[float] = []
        self.mc_rel_stderrs: List[float] = []
        self.cli_bytes = 0

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        print(f"FAIL {name}: {reason}", file=sys.stderr)


def run_pass(ops, ledger: Ledger, tracer=None) -> float:
    """Run every operation once; returns the pass's wall time."""
    import workloads

    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        ledger.attempted += 1
        try:
            workloads.preflight(op)
            out = op.run()
        except Exception as exc:  # a raising operation is a failed verdict
            ledger.fail(op.name, f"{type(exc).__name__}: {exc}")
            continue
        first = ledger.reports.setdefault(op.name, out.report)
        if not out.passed:
            ledger.fail(op.name, "verdict failed")
        elif first != out.report:
            ledger.fail(op.name, "report differs from the first pass")
        ledger.gb_residuals += out.gb_residuals
        ledger.mc_rel_stderrs += out.mc_rel_stderrs
        ledger.cli_bytes += out.cli_bytes
    return time.perf_counter() - start


def run_passes(ops, ledger: Ledger, budget: float, tracer=None):
    """Passes until the next would end past `budget` seconds (at least one).

    Returns the pass times and, when traced, each pass's per-layer metrics."""
    from croftonlab import geom

    sphere_grid = geom.sphere_grid
    times, layers = [], []
    start = time.perf_counter()
    while True:
        # each pass pays the grid set-up that a fresh `croftonlab` process pays
        sphere_grid.cache_clear()
        if tracer is not None:
            tracer.spans = []
            bytes_before = ledger.cli_bytes
            tracer.install()
            try:
                times.append(run_pass(ops, ledger, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(
                sphere_grid.cache_info().misses, ledger.cli_bytes - bytes_before))
        else:
            times.append(run_pass(ops, ledger))
        if time.perf_counter() - start + times[-1] > budget:
            return times, layers


def environment(args, pass_times: List[float]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_s": pass_times,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in (*BLAS_ENV, "CROFTONLAB_THREADS")},
    }


def end_to_end(wall: float, setup_s: float, ledger: Ledger) -> Dict[str, float]:
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
        "quad_rel_residual": max(ledger.gb_residuals),
        "mc_rel_stderr": max(ledger.mc_rel_stderrs, default=NO_MONTE_CARLO),
    }


def with_units(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy is imported
    if args.setup_probe is not None:
        setup(args.workload, args.seed)
        print(time.time() - args.setup_probe)
        return 0

    import_program()
    setup_s = measure_setup(args.workload, args.seed)
    ops = setup(args.workload, args.seed)
    ledger = Ledger()
    budget = args.seconds / 2 if args.trace else args.seconds
    times, _ = run_passes(ops, ledger, budget)
    e2e = end_to_end(statistics.median(times), setup_s, ledger)
    pass_times = list(times)
    if args.trace:
        import tracing

        traced_times, layers = run_passes(ops, ledger, budget, tracing.Tracer())
        pass_times += traced_times
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        per_layer["trace_overhead_s"] = statistics.median(traced_times) - e2e["wall_s"]
        print(json.dumps({"end_to_end": with_units(e2e, END_TO_END)}))
        metrics = with_units(per_layer, PER_LAYER)
    else:
        metrics = with_units(e2e, END_TO_END)
    print(json.dumps({"environment": environment(args, pass_times)}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
