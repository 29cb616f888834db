#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to ``BENCH_<label>.json``.

For every workload and seed, ``perfbench/run.py --trace 0`` runs once in
the parent checkout and once in the change checkout, one after the other:
odd seeds run the parent first, even seeds the change first.  Each run is
a fresh interpreter started in its own checkout, so both sides use their
own ``perfbench``, ``src`` and run length.  Both checkouts must be clean
git checkouts; the file names the commit of each.  It records every run,
each side's median and quartiles, and per metric which pairs the change
won (a lower value; ties count for neither side).  It is written to the
current directory.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workloads queries,ball --seeds 1-10 --label mychange --what "..."
"""

from __future__ import annotations

import argparse
import json
import statistics
import re
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("op_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """"1-10" or "1,3,5" or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit_of(checkout: Path) -> str:
    """Short commit hash of a clean git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    if git("status", "--porcelain", "--untracked-files=no"):
        sys.exit(f"bench_pairs: {checkout} has uncommitted changes; its commit would not name what ran")
    return git("rev-parse", "--short", "HEAD")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run at its own run length; returns its result line,
    machine record and run length, or the reason it produced none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    machine = next((json.loads(ln[len("machine: "):]) for ln in lines if ln.startswith("machine: ")), None)
    header = next(ln for ln in lines if ln.startswith("workload: "))
    seconds = float(re.search(r" seconds=(\S+) ", header).group(1))
    return {"result": json.loads(lines[-1]), "machine": machine, "seconds": seconds}


def quartile_summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,2,5"')
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: commit_of(checkouts[side]) for side in SIDES}
    run_seconds = {side: set() for side in SIDES}
    runs = {w: {m: {s: [] for s in SIDES} for m in METRICS} for w in workloads}
    failed = {w: {s: 0 for s in SIDES} for w in workloads}
    paired_seeds = {w: [] for w in workloads}
    machine = None
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            got = {}
            for side in order:
                t0 = time.monotonic()
                got[side] = run_once(checkouts[side], workload, seed)
                status = got[side].get("error") or got[side]["result"]["metrics"]["op_s"]["value"]
                print(f"{workload} seed {seed} {side}: {status} ({time.monotonic() - t0:.0f} s)", file=sys.stderr)
            if any("error" in g for g in got.values()):
                for side in SIDES:
                    failed[workload][side] += "error" in got[side]
                continue
            machine = machine or got["change"]["machine"]
            paired_seeds[workload].append(seed)
            for side in SIDES:
                run_seconds[side].add(got[side]["seconds"])
                result = got[side]["result"]
                failed[workload][side] += result["failed"]
                for m in METRICS:
                    runs[workload][m][side].append(result["metrics"][m]["value"])

    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for m in METRICS:
            parent, change = runs[workload][m]["parent"], runs[workload][m]["change"]
            if not parent:
                continue
            lower = [c < p for p, c in zip(parent, change)]
            summary[workload][m] = {
                "unit": "MB" if m == "peak_rss_mb" else "s",
                "parent": quartile_summary(parent),
                "change": quartile_summary(change),
                "change_lower_in_pairs": f"{sum(lower)}/{len(lower)}",
                "change_lower_by_pair": lower,
            }
    record = {
        "label": args.label,
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "run_seconds": {side: sorted(run_seconds[side]) for side in SIDES},
        "order": "parent and change alternate for each (seed, workload): odd seeds run the parent first, "
                 "even seeds the change first",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": machine,
        "seeds": paired_seeds,
        "failed": failed,
        "workloads": summary,
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
