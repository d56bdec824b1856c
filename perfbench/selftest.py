#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at small sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, with --trace 0 and --trace 1, it
runs the benchmark with --smoke --seconds 1 and checks that:

- the last line of standard output is the JSON result, correct, with no
  failed operation, so every answer agreed with the interpreted oracle;
- every metric BENCHMARK.json names for that trace value is emitted
  with its unit, and nothing else;
- on the daemon workloads, every child server drained: it exited 0 and
  removed its socket;
- the run left nothing behind in .perfbench-run.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True,
            )
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                failures.append(f"{label}: exit {out.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted.items()))}")
            if workload.startswith("daemon") and not any(
                    "every server exited 0 and removed its socket" in l for l in lines):
                failures.append(f"{label}: a server did not drain")
            if not any("oracle mismatches 0" in l for l in lines):
                failures.append(f"{label}: oracle disagreed")
            if os.path.exists(".perfbench-run"):
                failures.append(f"{label}: .perfbench-run left behind")
            print(f"{label}: {'ok' if not failures else 'FAILED'}", flush=True)
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
