#!/usr/bin/env python3
"""maxentcast benchmark: one workload per call, end-to-end or per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_200k --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src``.  Inputs are made from
``--seed`` with the package's own generators, then rounds of the workload
run until ``--seconds`` have passed.  The first round's outputs are checked
against computations made apart from the program; every later round must
reproduce them.  With ``--trace 0`` the last line of standard output is
the end-to-end result (the mean round time, medians of the rest); with ``--trace 1``, untraced
and traced rounds alternate and the result holds the per-layer metrics of
the traced rounds and the tracing overhead.  ``--size small`` runs every
workload at toy size.  Progress and diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("cli_200k", "calib_sweep", "wide_200k")
# BLAS and OpenMP pools are pinned before numpy is first imported.  On a
# small machine a pool of several threads spends more CPU than it saves on
# the many small SVDs of a sweep, and its wall time wanders from run to run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import maxentcast; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure rounds for this long (at least one round)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS and OpenMP threads (default 1)")
    return p.parse_args(argv)


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_s() -> float:
    self_, kids = (resource.getrusage(w) for w in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def import_s() -> float:
    """Time to import the package in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def steal_s() -> float:
    """Time the machine's CPUs were held by other guests (diagnostics only)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxentcast" / "__init__.py").is_file():
        print(f"no package source at {SRC}/maxentcast", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    import maxentcast
    if Path(maxentcast.__file__).resolve().parent != (SRC / "maxentcast").resolve():
        print(f"maxentcast came from {maxentcast.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from checks import CheckFailed, require
    from tracer import METRICS, Tracer, layer_values, median_values
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload](SIZES[args.size], args.seed, WORK / args.size)
    tracer = Tracer() if args.trace else None

    setup_times, imports, synth_layers = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_s())
        if tracer:
            tracer.reset()
            tracer.install()
        gc.collect()
        t0 = clock()
        wl.setup()
        setup_times.append(clock() - t0)
        if tracer:
            tracer.remove()
            synth_layers.append(layer_values(tracer.snapshot()))

    times = {False: [], True: []}
    peaks, layer_rounds, cpus = [], [], []
    attempted = failed = 0
    correct, reference = True, None
    steal0 = steal_s()
    deadline = clock() + args.seconds
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        r = None  # let the last round's outputs go before the next round
        gc.collect()
        if traced and wl.in_process:
            tracer.reset()
            tracer.install()
        c0, t0 = cpu_s(), clock()
        r = wl.run(traced)
        times[traced].append(clock() - t0)
        cpus.append(cpu_s() - c0)
        if traced and wl.in_process:
            tracer.remove()
            r.layers = layer_values(tracer.snapshot())
        elif not wl.in_process and not r.failed:
            wl.finish(r, traced)
        if traced:
            layer_rounds.append(r.layers)
        else:
            peaks.append(r.peak_mb)
        attempted += r.attempted
        failed += r.failed
        k += 1
        if r.failed == 0:
            try:
                if reference is None:
                    wl.check(r.output)
                    reference = wl.digest(r.output)
                else:
                    require(wl.digest(r.output) == reference,
                            f"round {k} outputs differ from round 1")
            except CheckFailed as exc:
                print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
                correct = False
                break
        if clock() >= deadline and (not tracer or k >= 2):
            break
    steal = steal_s() - steal0
    if tracer and wl.in_process:
        # The spans of the last traced round (the launcher writes the CLI's).
        spans_dir = WORK / args.size / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)

    # The mean, not the median: this machine's speed switches between a fast
    # and a slow phase, and a median of rounds jumps between the two.
    run_s = fmean(times[False])
    print(f"{args.workload}: {k} rounds, run_s {[round(t, 4) for t in times[False]]}"
          f" traced {[round(t, 4) for t in times[True]]},"
          f" peak_mb {[round(p, 1) for p in peaks]},"
          f" cpu {[round(c, 4) for c in cpus]}, machine steal {steal:.2f} s,"
          f" setup {[round(t, 4) for t in setup_times]}"
          f" + import {[round(t, 4) for t in imports]}", file=sys.stderr)
    if tracer:
        values = median_values(layer_rounds) if layer_rounds else {m: 0.0 for m in METRICS}
        synth = median_values(synth_layers)
        for key in ("synth.generate_s", "synth.points_generated"):
            values[key] = synth[key]
        values["trace.overhead_s"] = (fmean(times[True]) - run_s) if times[True] else 0.0
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in METRICS.items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "points_per_s": {"value": wl.points / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": median(peaks), "unit": "MB"},
            "setup_s": {"value": median(i + t for i, t in zip(imports, setup_times)),
                        "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
