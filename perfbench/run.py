#!/usr/bin/env python3
"""Build the benchmark and the trustseq daemon from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload daemon-zipf --seed 7 --seconds 10 --trace 0

Every argument is passed to the benchmark program (perfbench/bench.ml);
the last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
SERVER = "_build/default/bin/trustseq.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/trustseq.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(BENCH):
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    os.execv(BENCH, [BENCH, "--server", SERVER] + sys.argv[1:])


if __name__ == "__main__":
    main()
