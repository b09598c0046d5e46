#!/usr/bin/env python3
"""Calibrate the detector on seeded 2,000-point walks of unit sigma.

Null: walks, default protocol, 125-point windows; the share of windows
flagged PREDICTABLE and the score (rel_mse / baseline) quantiles.
Detection: walks handing over to synth's logistic map at index 1,333, with
d 2, degree 1, M 700, T 7, rank tolerance 0.2 and standardized features;
hits, false flags and localization errors.  Seeds run from --seed0 up.
`null` and `detection` return the figures that are printed; acceptance
criteria 4 and 5 call them at the default sizes."""

import argparse
import time
from collections import Counter

import numpy as np

from maxentcast import (DetectorConfig, ProtocolConfig, RandomWalkSpec,
                        Regime, WindowBuckets, classify, detection_outcome,
                        generate, logistic_splice, run_protocol)
from maxentcast.synth import SPLICE_NOISE

N_POINTS, SPLICE, WIDTH = 2000, 1333, 125
NULL = ProtocolConfig(bucketing=WindowBuckets(WIDTH))
DETECTION = ProtocolConfig(dim=2, degree=1, fit_window=700, anticipation=(7,),
                           bucketing=WindowBuckets(WIDTH))


def classified(series, protocol, detector, **fit):
    """Each track's window spans, labels and PREDICTABLE positions."""
    for track in run_protocol(series, protocol, **fit).tracks:
        labels = classify(track.windows, detector)
        yield ([(w.start_index, w.end_index) for w in track.windows], labels,
               [k for k, lab in enumerate(labels)
                if lab.regime is Regime.PREDICTABLE])


def null(seeds, detector):
    """Acceptance criterion 4's experiment: the windows flagged and the score
    quantiles over the walks of the given seeds."""
    labels, flagged = [], 0
    for seed in seeds:
        walk = generate(RandomWalkSpec(n=N_POINTS, sigma=1.0, seed=seed))
        for _, track_labels, flags in classified(walk, NULL, detector):
            labels += track_labels
            flagged += len(flags)
    scores = [lab.score for lab in labels if not np.isnan(lab.score)]
    return {"series": len(seeds), "flagged": flagged, "windows": len(labels),
            "quantiles": {level: float(np.percentile(scores, level))
                          for level in (5, 25, 50, 75, 95)}}


def detection(seeds, detector):
    """Acceptance criterion 5's experiment: hits, false flags and the count
    of each localization error over the splices of the given seeds."""
    outcomes = []
    for seed in seeds:
        spec = logistic_splice(RandomWalkSpec(n=SPLICE, sigma=1.0, seed=seed),
                               N_POINTS - SPLICE, SPLICE_NOISE)
        [(spans, _, flags)] = classified(generate(spec), DETECTION, detector,
                                         rank_tolerance=0.2, standardize=True)
        outcomes.append(detection_outcome(spans, flags, spec.splice_index))
    errors = Counter(o["localization_error"] for o in outcomes if o["hit"])
    return {"trials": len(seeds), "hits": errors.total(),
            "false_flags": sum(o["false_flags"] for o in outcomes),
            "localization": dict(sorted(errors.items()))}


def print_null(figures) -> None:
    windows = figures["windows"]
    print(f"series: {figures['series']} x {N_POINTS} points, "
          f"window width {WIDTH}")
    print(f"flagged windows: {figures['flagged']}/{windows} "
          f"({100.0 * figures['flagged'] / windows:.2f}%)")
    print("score quantiles (rel_mse / baseline):")
    for level, value in figures["quantiles"].items():
        print(f"  p{level:02d}  {value:.4f}")


def print_detection(figures) -> None:
    print(f"trials: {figures['trials']}, "
          f"hit rate {figures['hits']}/{figures['trials']}")
    print(f"false flags before the changepoint: {figures['false_flags']}")
    print("localization error (first flag minus truth window, in windows):")
    for err, n in figures["localization"].items():
        print(f"  {err:+d}: {n}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--walks", type=int, default=50, help="null walks")
    parser.add_argument("--splices", type=int, default=100, help="splices")
    parser.add_argument("--seed0", type=int, default=0, help="first seed")
    parser.add_argument("--theta", type=float, default=DetectorConfig.theta)
    parser.add_argument("--min-run", type=int, default=DetectorConfig.min_run)
    args = parser.parse_args()
    try:
        detector = DetectorConfig(theta=args.theta, min_run=args.min_run)
        if min(args.walks, args.splices) < 1:
            raise ValueError("--walks and --splices must be at least 1")
    except ValueError as exc:
        parser.error(str(exc))
    for experiment, size, show in ((null, args.walks, print_null),
                                   (detection, args.splices, print_detection)):
        t0 = time.perf_counter()
        show(experiment(range(args.seed0, args.seed0 + size), detector))
        print(f"elapsed: {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
