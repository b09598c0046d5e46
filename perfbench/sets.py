#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sets.py --workload calib_sweep --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one after another, from the root of
the checkout, and prints for each metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median.  The raw results go to ``perfbench/.work/sets/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--label", default="set")
    args = p.parse_args()

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["seed"] = seed
        doc["diagnostics"] = proc.stderr.strip().splitlines()
        results.append(doc)
        print(f"seed {seed}: correct {doc['correct']} attempted {doc['attempted']} "
              f"failed {doc['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
              flush=True)

    out = HERE / ".work" / "sets"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}_{args.label}.json").write_text(json.dumps(results, indent=1))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {100 * spread:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
