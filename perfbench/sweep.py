#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py                  # every workload, seeds 1-10
    python3 perfbench/sweep.py --seeds 11       # every workload on the held-out seed
    python3 perfbench/sweep.py --workloads daemon-zipf --seeds 1 2 3 4 5

For each end-to-end metric it prints the median of the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the metric's bound in BENCHMARK.json. With --trace 1 it prints the
per-layer metrics instead (they have no bound). Exits 1 if any run
failed its correctness checks.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            result = run(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED {result and {k: result[k] for k in ('attempted', 'failed')}}")
                continue
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}"
                  + ("" if args.trace else f"  {shown}"), flush=True)
        print(f"== {workload}: {len(args.seeds)} seeds, {args.seconds} s each")
        for m in metrics:
            vs = values[m["name"]]
            if not vs:
                continue
            med = statistics.median(vs)
            line = f"  {m['name']:34s} {m['unit']:6s} median {med:.6g}"
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                line += f"  spread {(q3 - q1) / abs(med):.4f}"
                if "bound" in m:
                    line += f"  (bound {m['bound']}, a third {m['bound'] / 3:.4f})"
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
