#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

  python3 perfbench/spread.py --workload served_mix --seeds 1-10 [--seconds 10]

Runs run.py once per seed (untraced), then prints each metric's median and
its quartile spread (Q3 - Q1) / median against the bound in BENCHMARK.json.
A benchmark is steady when every spread stays under a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    steady = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = benchmath.quartile_spread(vals)
        ok = spread < m["bound"] / 3
        steady = steady and ok
        print(f"{m['name']:16} median {statistics.median(vals):12.6g} "
              f"spread {spread:7.4f} bound {m['bound']:.2f} "
              f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
