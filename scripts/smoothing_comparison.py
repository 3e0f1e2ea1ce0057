#!/usr/bin/env python3
"""Train twin models with and without the smoothing penalty and compare the
jitter of their validation risk trajectories.

Outputs per-model risk series CSVs (step and relative-time columns, so the
trajectories can be plotted against either axis) plus a summary line.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import driftscope as ds
from driftscope.events import SECONDS_PER_HOUR
from driftscope.model import EncodedEpisode
from driftscope.tables import write_csv


def mean_sq_first_diff(params, episodes) -> float:
    vals = []
    for ep in episodes:
        risk, _ = ds.forward(params, ep.steps)
        vals.append(float(np.mean(np.square(np.diff(risk.p)))))
    return float(np.mean(vals))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="smoothing_out")
    ap.add_argument("--n-episodes", type=int, default=260)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--eta", type=float, default=0.005)
    ap.add_argument("--hidden-size", type=int, default=32)
    ap.add_argument("--max-epochs", type=int, default=15)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scenario = ds.ScenarioConfig(seed=20240, n_episodes=args.n_episodes,
                                 deterioration_fraction=0.5)
    corpus = ds.generate_corpus(scenario)
    catalog = scenario.catalog()
    stats = ds.fit_feature_stats(corpus)
    encoded = [
        EncodedEpisode(s.episode_id, ds.encode_steps(s, catalog, stats),
                       s.outcome, s.split)
        for s in corpus
    ]
    val = [e for e in encoded if e.split == "validation"]

    results = {}
    for label, eta in (("plain", 0.0), ("smoothed", args.eta)):
        config = ds.ModelConfig(hidden_size=args.hidden_size, seed=args.seed,
                                eta=eta, max_epochs=args.max_epochs)
        params, report = ds.train(encoded, config)
        results[label] = mean_sq_first_diff(params, val)
        rows = []
        for ep in val:
            risk, _ = ds.forward(params, ep.steps)
            for j in range(ep.steps.T):
                rows.append([ep.episode_id, j + 1, float(ep.steps.step_time[j]),
                             float(ep.steps.step_time[j]) / SECONDS_PER_HOUR, float(risk.p[j])])
        write_csv(out / f"risk_series_{label}.csv",
                  ["episode", "step", "time_s", "time_h", "p"], rows)
        print(f"{label}: eta={eta} best_epoch={report.best_epoch} "
              f"val_jitter={results[label]:.6f}")

    ratio = results["smoothed"] / results["plain"]
    print(f"jitter ratio smoothed/plain = {ratio:.3f} "
          f"({'reduced' if ratio < 1 else 'NOT reduced'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
