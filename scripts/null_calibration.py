#!/usr/bin/env python3
"""Measure the false-flag rate of the detector on pure random walks.

Runs seeded walks through the full default pipeline with fixed-width
window bucketing and reports the fraction of windows flagged PREDICTABLE
plus the distribution of window scores (model rel_mse / naive baseline).
A healthy configuration keeps the flag rate at or under 5 percent and the
median score near 1.
"""

import argparse
import math
import time

import numpy as np

from maxentcast import (DetectorConfig, ProtocolConfig, Regime,
                        WindowBuckets, classify, gen_random_walk,
                        run_protocol)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-series", type=int, default=50,
                        help="number of seeded walks (default 50)")
    parser.add_argument("--n-points", type=int, default=2000,
                        help="length of each walk (default 2000)")
    parser.add_argument("--width", type=int, default=125,
                        help="scoring window width (default 125)")
    parser.add_argument("--theta", type=float, default=DetectorConfig.theta)
    parser.add_argument("--min-run", type=int, default=DetectorConfig.min_run)
    parser.add_argument("--seed0", type=int, default=0,
                        help="first seed; series use seed0..seed0+n-1")
    args = parser.parse_args()

    protocol = ProtocolConfig(bucketing=WindowBuckets(args.width))
    detector = DetectorConfig(theta=args.theta, min_run=args.min_run)
    t0 = time.perf_counter()
    flagged = total = 0
    scores = []
    for seed in range(args.seed0, args.seed0 + args.n_series):
        walk = gen_random_walk(args.n_points, 1.0, seed=seed)
        report = run_protocol(walk, protocol)
        for track in report.tracks:
            labels = classify(track.windows, detector)
            flagged += sum(1 for lab in labels
                           if lab.regime is Regime.PREDICTABLE)
            total += len(labels)
            scores.extend(lab.score for lab in labels
                          if not math.isnan(lab.score))
    elapsed = time.perf_counter() - t0

    scores = np.asarray(scores)
    q = np.percentile(scores, [5, 25, 50, 75, 95])
    print(f"series: {args.n_series} x {args.n_points} points, "
          f"window width {args.width}")
    print(f"flagged windows: {flagged}/{total} "
          f"({100.0 * flagged / total:.2f}%)")
    print("score quantiles (rel_mse / baseline):")
    for level, value in zip((5, 25, 50, 75, 95), q):
        print(f"  p{level:02d}  {value:.4f}")
    print(f"elapsed: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
