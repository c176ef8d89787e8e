#!/usr/bin/env python3
"""Record a BENCH_*.json: this checkout's benchmark against a base commit.

    python3 scripts/bench_record.py --base REV --out BENCH_N.json [--seed 41] [--note TEXT]

Exports REV with `git archive` into a temporary directory, and copies this
checkout's working tree there too: every tracked and every untracked file
that is not ignored (`git ls-files -co --exclude-standard`).  Both sides so
start from fresh trees, with no build or cache left over from earlier runs.
Then, for each workload in BENCHMARK.json, it runs `bench/run.py --trace 0`
for the file's `run_seconds` on the base and on the change in PAIRS = 10
alternating pairs (pair i uses seed + i on both sides, and the side that
runs first alternates), then one `--trace 1` run per side.  Last, it times
the Tier-1 suite once per side.  The record holds the --note text (what
moved and why), every run, the median and quartiles of each end-to-end
metric per side, the pairs each side won by the metric's `better`
direction, the traced per-layer metrics and the Tier-1 wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider"]
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files."""
    listing = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard",
                              "-z"], capture_output=True, text=True, check=True).stdout
    for name in listing.split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the tree is not copied
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run: verdict counts, environment and metrics."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, capture_output=True, text=True, check=True,
    )
    out = {}
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        out.update(record if "metrics" not in record else {"result": record})
    values = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    run = {"seed": seed, "correct": out["result"]["correct"],
           "attempted": out["result"]["attempted"], "failed": out["result"]["failed"],
           "environment": out["environment"]}
    if trace:
        run["end_to_end"] = {k: v["value"] for k, v in out["end_to_end"].items()}
        run["per_layer"] = values
    else:
        run["end_to_end"] = values
    return run


def tier1(side: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=side, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"wall_s": wall, "summary": tail, **counts}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    except OSError:
        names = []
    return names[0] if names else platform.processor()


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs, metrics) -> dict:
    out = {}
    for name, spec in metrics.items():
        base = [p["base"]["end_to_end"][name] for p in pairs]
        change = [p["change"]["end_to_end"][name] for p in pairs]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "base": quartiles(base), "change": quartiles(change),
                     "change_wins": wins, "base_wins": losses, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=41)
    p.add_argument("--note", default="", help="what the change moves and why, kept in the record")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain")
                                               else ""),
        # the basename of --out: a temporary output path stays out of the record
        "command": f"python3 scripts/bench_record.py --base {args.base} "
                   f"--out {Path(args.out).name} --seed {args.seed}",
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "python": platform.python_version()},
        "note": args.note,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(args.base, sides["base"])
        export_worktree(sides["change"])
        for w in spec["workloads"]:
            name = w["name"]
            pairs = []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(sides[side], name, args.seed + i, spec["run_seconds"], 0)
                pairs.append(pair)
                print(f"{name} pair {i}: wall_s base {pair['base']['end_to_end']['wall_s']:.3f}"
                      f" change {pair['change']['end_to_end']['wall_s']:.3f}", file=sys.stderr)
            traced = {side: bench(sides[side], name, args.seed, spec["run_seconds"], 1)
                      for side in ("base", "change")}
            record["workloads"][name] = {"summary": summarize(pairs, metrics), "pairs": pairs,
                                         "traced": traced}
        record["tier1"] = {side: tier1(path) for side, path in sides.items()}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
