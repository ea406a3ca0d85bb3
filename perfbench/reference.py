#!/usr/bin/env python3
"""Regenerate the reference figures of README.md: one traced run per
workload (every per-layer metric, the tracing overhead) plus the host facts.

    python3 perfbench/reference.py [--seed N]

Prints a Markdown table on standard output.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["campaign", "serve", "fit"]


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True,
                              cwd=HERE).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    results, host = {}, "unknown"
    for w in WORKLOADS:
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", w, "--seed", str(args.seed),
                            "--seconds", "1", "--trace", "1"],
                           capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"traced {w} run failed:\n{p.stderr[-2000:]}")
        results[w] = json.loads(p.stdout.strip().splitlines()[-1])
        m = re.search(r"^host: (.*)$", p.stderr, re.M)
        host = m.group(1) if m else host

    print(f"Host: {host}, commit {commit()}, seed {args.seed}.\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    print("| operations replayed | count | " +
          " | ".join(str(results[w]["attempted"]) for w in WORKLOADS) + " |")
    names = sorted(results[WORKLOADS[0]]["metrics"])
    for n in names:
        unit = results[WORKLOADS[0]]["metrics"][n]["unit"]
        cells = [f'{results[w]["metrics"][n]["value"]:.4g}' for w in WORKLOADS]
        print(f"| `{n}` | {unit} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
