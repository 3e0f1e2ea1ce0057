#!/usr/bin/env python3
"""End-to-end demo: generate a corpus, train, alert, explain, evaluate.

Writes everything under one output directory and prints the results table.
"""

import argparse
import sys
from pathlib import Path

from driftscope.cli import main as cli
from driftscope.evaluation import TOP_K, MethodContext
from driftscope.tables import read_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="pipeline_out")
    ap.add_argument("--n-episodes", type=int, default=400)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--hidden-size", type=int, default=32)
    ap.add_argument("--max-epochs", type=int, default=15)
    ap.add_argument("--eta", type=float, default=0.005)
    ap.add_argument("--k", type=int, default=TOP_K)
    ap.add_argument("--m", type=int, default=MethodContext.m)
    args = ap.parse_args()

    out = Path(args.out_dir)
    data, model, expl, res = out / "data", out / "model", out / "explain", out / "results"
    steps = [
        ["gen-data", "--out-dir", data, "--n-episodes", args.n_episodes,
         "--deterioration-fraction", "0.5", "--seed", args.seed],
        ["train", "--events", data / "events.jsonl", "--out-dir", model,
         "--hidden-size", args.hidden_size, "--max-epochs", args.max_epochs,
         "--eta", args.eta, "--seed", args.seed],
        ["alerts", "--events", data / "events.jsonl",
         "--checkpoint", model / "checkpoint.json", "--out-dir", model,
         "--min-new-events", "10"],
        ["explain", "--events", data / "events.jsonl",
         "--checkpoint", model / "checkpoint.json", "--bins", model / "bins.json",
         "--out-dir", expl, "--k", args.k, "--m", args.m, "--seed", args.seed],
        ["evaluate", "--events", data / "events.jsonl",
         "--explanations", expl / "explanations.csv", "--windows", expl / "windows.csv",
         "--out-dir", res, "--k", args.k, "--seed", args.seed],
    ]
    for argv in steps:
        print(f"\n$ driftscope {' '.join(str(a) for a in argv)}")
        code = cli([str(a) for a in argv])
        if code != 0:
            return code

    header, rows = read_csv(res / "results.csv")
    width = max(len(r[0]) for r in rows)
    print("\n" + " ".join(header))
    for r in sorted(rows, key=lambda r: -float(r[2])):
        print(f"{r[0]:{width}s}  k={r[1]}  {float(r[2]):.3f}  "
              f"[{float(r[3]):.3f}, {float(r[4]):.3f}]  n={r[5]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
