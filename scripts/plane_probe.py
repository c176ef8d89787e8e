#!/usr/bin/env python3
"""Time the flat plane kernel in fresh processes, with and without pinned BLAS.

    python3 scripts/plane_probe.py --src PATH [--planes 262144] [--estimates 7]

For each of threads {1, 2} x BLAS {pinned, default}, a fresh interpreter
imports croftonlab from PATH (a checkout's `src` directory), runs one small
warm-up estimate and then `--estimates` flat n = 3, r = 2 chi-measure
estimates of `--planes` planes each on the ellipsoid [1, 1, 1, 1, 2, 2]
(seeds 0, 1, ...).  Then it times one n = 3, r = 1 Grassmann average
(`planes.grassmann_sigma_average`, seed 0) of `--planes` planes on a fixed
symmetric 5 x 5 form, after a one-chunk warm-up.  "pinned" runs with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, as
bench/run.py does; "default" removes them, so OpenBLAS picks its own thread
count.

Prints one JSON object: per configuration the wall time of the timed
estimates, their minor page faults (ru_minflt), user and system CPU time,
the process's peak RSS and the estimate means, and under "grassmann" the
Grassmann average's wall time, CPU time (user + system) and mean.  The means
must not depend on the configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
AXES = [1, 1, 1, 1, 2, 2]
R = 2
GRASSMANN_FORM_SEED = 0  # the symmetric 5 x 5 second fundamental form of the Grassmann probe


def child(args: argparse.Namespace) -> dict:
    """One configuration, in this process: the timed estimates and their cost."""
    sys.path.insert(0, str(Path(args.src).resolve()))
    from croftonlab import geom, planes

    shape = geom.Ellipsoid.from_axes(AXES)
    planes.chi_measure_estimate(shape, R, planes.SAMPLE_CHUNK, 1000)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    means = [planes.chi_measure_estimate(shape, R, args.planes, seed).mean
             for seed in range(args.estimates)]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": round(wall, 3),
        "minflt": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "maxrss_mb": round(after.ru_maxrss / 1024, 1),
        "means": means,
        "grassmann": grassmann(planes, args.planes),
    }


def grassmann(planes, count: int) -> dict:
    """One n = 3, r = 1 Grassmann average of `count` planes: wall, CPU, mean."""
    import numpy as np

    a = np.random.default_rng(GRASSMANN_FORM_SEED).standard_normal((5, 5))
    h = (a + a.T) / 2
    planes.grassmann_sigma_average(h, 1, planes.SAMPLE_CHUNK, 1000)  # warm-up
    cpu = time.process_time()
    start = time.perf_counter()
    mean = planes.grassmann_sigma_average(h, 1, count, 0).mean
    return {"wall_s": round(time.perf_counter() - start, 3),
            "cpu_s": round(time.process_time() - cpu, 3), "mean": mean}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="the src directory of a croftonlab checkout")
    p.add_argument("--planes", type=int, default=262_144, help="planes per estimate")
    p.add_argument("--estimates", type=int, default=7, help="timed estimates per process")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.child:
        print(json.dumps(child(args)))
        return
    results = {}
    for blas in ("pinned", "default"):
        for threads in (1, 2):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
            if blas == "pinned":
                env.update({k: "1" for k in BLAS_ENV})
            env["CROFTONLAB_THREADS"] = str(threads)
            proc = subprocess.run(
                [sys.executable, __file__, "--child", "--src", args.src,
                 "--planes", str(args.planes), "--estimates", str(args.estimates)],
                env=env, capture_output=True, text=True, check=True,
            )
            results[f"threads={threads} blas={blas}"] = json.loads(proc.stdout)
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
