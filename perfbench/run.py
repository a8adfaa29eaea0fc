"""Benchmark of stochsem on three studies from the paper.

    python3 perfbench/run.py --workload {table1,ensemble,fine-paths}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The workload's study is repeated in whole rounds until
S seconds have passed.  Each round's outputs are checked (untimed); a failed
check counts its trajectories as failed and the command exits 1; an
exception inside a study (a numerical failure of the program) ends the run
with a traceback and no result.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` (trajectories) and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
Timings are medians over the rounds; set-up time is the median over every
set-up repetition of the run; peak RSS is read at the end of the first round.  The traced run also writes its last round's
spans to perfbench/out/spans-<workload>.json.

BLAS is pinned to one thread and ensembles run with one worker, so that a
run measures one core's work.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table1", "ensemble", "fine-paths"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochsem" / "__init__.py").is_file():
        print(f"error: no stochsem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer, per_layer_names
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer().install() if args.trace else None
    walls, setups, rates, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
            tracer.active = True
        out = wl.study(args.seed)
        if tracer:
            tracer.active = False
        fails, summary = wl.check(out.data)
        attempted += sum(out.groups.values())
        failed += sum(out.groups[g] for g in {g for g, _ in fails})
        for group, msg in fails:
            print(f"FAILED check ({group}): {msg}", file=sys.stderr)
        walls.append(out.wall_s)
        rates.append(out.steps / out.run_s)
        setups.append(out.setup_s)
        setups += [wl.setup() for _ in range(wl.setup_repeats)]
        if tracer:
            layers.append(tracer.layer_metrics())
        if len(walls) == 1:
            # one whole study; later rounds only add allocator drift
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del out     # free this round's operators before the next round is built
        if failed or time.perf_counter() - start >= args.seconds:
            break
    print(f"{args.workload} seed {args.seed}: {summary}; wall_s per round "
          + " ".join(f"{w:.4f}" for w in walls))

    if tracer:
        print(f"traced wall_s median {statistics.median(walls):.4f}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.json",
                     workload=args.workload, seed=args.seed)
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
