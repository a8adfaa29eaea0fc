"""Interleaved A/B runs of the benchmark: the parent commit against the working tree.

    python3 tools/bench_pairs.py --label NAME --what TEXT

Run from anywhere inside a git checkout, with the change uncommitted.  The
committed files of HEAD (the change's parent) are exported with `git archive`
into a temporary directory; the working tree is measured where it stands.
For each of the three workloads, pair k (of PAIRS) runs
`perfbench/run.py --workload W --seed S_k --seconds 30 --trace 0` once on
each side with the same seed, the parent first on even pairs and the working
tree first on odd ones, so that slow drift of the host falls on both sides
alike.  Workload number i (in WORKLOADS order) takes the seeds
SEED + 100 i + k.  Pair count, run length and seeds are fixed so that every
BENCH file is measured alike.

The result is written to BENCH_<label>.json at the root of the working tree:
per workload and end-to-end metric (BENCHMARK.json), both sides' median,
quartiles (numpy linear percentiles) and every run, the number of pairs the
working tree wins, and the ratio of the medians (working tree / parent).  A run
that prints no result (a crash) stops the script with its output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

WORKLOADS = ("table1", "ensemble", "fine-paths")
PAIRS = 10
SECONDS = 30
SEED = 2001


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced benchmark run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"no result from {' '.join(cmd)} in {tree} (exit {proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3), "runs": runs}


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """The per-workload block of the report from both sides' results."""
    out = {"pairs": len(parent),
           "failed": {"parent": sum(r["failed"] for r in parent),
                      "change": sum(r["failed"] for r in change)}}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        out[name] = {"parent": summary(a), "change": summary(b),
                     "change_wins": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
                     "median_ratio": float(np.median(b) / np.median(a))}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--what", required=True, help="what the two sides are")
    args = p.parse_args(argv)

    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    parent = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   f"--trace 0",
        "seeds": ", ".join(f"{w} {SEED + 100 * i}-{SEED + 100 * i + PAIRS - 1}"
                           for i, w in enumerate(WORKLOADS))
                 + "; one per pair, same seed on both sides",
        "pairs": f"{PAIRS} per workload; even pairs (0, 2, ...) run the parent "
                 f"({parent}) first, odd pairs the change first",
        "host": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}, scipy "
                f"{scipy.__version__}, one BLAS thread",
        "metrics": "median, quartiles (numpy linear percentiles) and every run; "
                   "change_wins counts pairs where the change is better",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        for i, workload in enumerate(WORKLOADS):
            sides = {"parent": [], "change": []}
            for k in range(PAIRS):
                seed = SEED + 100 * i + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else root
                    sides[side].append(run_once(tree, workload, seed))
                print(f"{workload} pair {k} (seed {seed}) done", file=sys.stderr, flush=True)
            report["workloads"][workload] = compare(sides["parent"], sides["change"], metrics)
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
