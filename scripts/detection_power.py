#!/usr/bin/env python3
"""Measure detection power on walks that switch into a deterministic map.

Each trial splices a seeded random walk into a low-noise chaotic map placed
at the walk's final level, then runs the detection pipeline and checks
whether the deterministic half is flagged and how far the first flag lands
from the true changepoint window.
"""

import argparse
import collections
import time

from maxentcast import (DetectorConfig, ProtocolConfig, RandomWalkSpec,
                        Regime, WindowBuckets, classify, detection_outcome,
                        gen_spliced, logistic_splice, run_protocol)
from maxentcast.synth import SPLICE_MAP_R, SPLICE_MAP_SCALE


def run_trial(seed: int, args) -> dict:
    spec = logistic_splice(RandomWalkSpec(n=args.splice, sigma=args.sigma,
                                          seed=seed),
                           args.n_points - args.splice,
                           args.noise_sigma * args.sigma, args.map_r,
                           args.map_scale)
    spliced = gen_spliced(spec.first, spec.second)

    protocol = ProtocolConfig(dim=2, degree=1, fit_window=700,
                              anticipation=(7,),
                              bucketing=WindowBuckets(args.width))
    report = run_protocol(spliced.series, protocol, rank_tolerance=0.2,
                          standardize=True)
    track = report.tracks[0]
    labels = classify(track.windows, DetectorConfig())
    flags = [k for k, lab in enumerate(labels)
             if lab.regime is Regime.PREDICTABLE]
    return detection_outcome(
        [(w.start_index, w.end_index) for w in track.windows], flags,
        spliced.changepoint)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-series", type=int, default=100)
    parser.add_argument("--n-points", type=int, default=2000)
    parser.add_argument("--splice", type=int, default=1333,
                        help="changepoint index (default 1333, a window "
                             "boundary under width 125)")
    parser.add_argument("--width", type=int, default=125)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--noise-sigma", type=float, default=0.01,
                        help="map noise in units of sigma (default 0.01)")
    parser.add_argument("--map-r", type=float, default=SPLICE_MAP_R)
    parser.add_argument("--map-scale", type=float, default=SPLICE_MAP_SCALE,
                        help="map amplitude in units of sigma "
                             "(default %(default)s)")
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    hits = 0
    false_total = 0
    localizations = collections.Counter()
    for seed in range(args.seed0, args.seed0 + args.n_series):
        outcome = run_trial(seed, args)
        hits += outcome["hit"]
        false_total += outcome["false_flags"]
        if outcome["hit"]:
            localizations[outcome["localization_error"]] += 1
    elapsed = time.perf_counter() - t0

    print(f"trials: {args.n_series}, hit rate {hits}/{args.n_series}")
    print(f"false flags before the changepoint: {false_total}")
    print("localization error (first flag minus truth window, in windows):")
    for err in sorted(localizations):
        print(f"  {err:+d}: {localizations[err]}")
    print(f"elapsed: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
