"""Command-line pipeline: gen-data / train / alerts / explain / evaluate.

Every command is deterministic under fixed seeds and writes its outputs
atomically. Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation, synth
from .alerts import AlertRule, NoAnchorError
from .bin_stats import BinTable, StatWeightConfig, fit_bins
from .events import (
    EventFormatError,
    catalog_from_sequences,
    fit_feature_stats,
    parse_event_log,
    write_event_log,
)
from .model import (
    CatalogMismatchError,
    EncodedEpisode,
    ModelConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .events import encode_steps, normalize
from .evaluation import (
    METHODS,
    MethodContext,
    bootstrap_ci,
    explain_window,
    prepare_episodes,
)
from .tables import read_csv, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SEED_ENV = "DRIFTSCOPE_SEED"

EXPLANATIONS_HEADER = ["episode", "method", "rank", "step", "time_s", "feature", "raw_value", "weight"]
WINDOWS_HEADER = ["episode", "t0", "t1", "t0_time_s", "t1_time_s", "source"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextlib.contextmanager
def _usage_scope():
    """Re-tag config validation failures as usage errors."""
    try:
        yield
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"run seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--out-dir", required=True, help="output directory")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio-threshold", type=float, default=1.5)
    p.add_argument("--floor", type=float, default=0.2)
    p.add_argument("--anchor-hours", type=float, default=12.0)
    p.add_argument("--horizon-hours", type=float, default=24.0)
    p.add_argument("--interval-hours", type=float, default=2.0)
    p.add_argument("--min-new-events", type=int, default=40)
    p.add_argument("--all-alerts", action="store_true",
                   help="keep every alert per episode, not only the first")


def _rule_from_args(args) -> AlertRule:
    with _usage_scope():
        return AlertRule(
            ratio_threshold=args.ratio_threshold,
            floor=args.floor,
            anchor_time=args.anchor_hours * 3600.0,
            horizon=args.horizon_hours * 3600.0,
            check_interval=args.interval_hours * 3600.0,
            min_new_events=args.min_new_events,
            first_alert_only=not args.all_alerts,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic event corpus")
    _add_common(p)
    p.add_argument("--n-episodes", type=int, default=200)
    p.add_argument("--deterioration-fraction", type=float, default=0.5)
    p.add_argument("--duration-hours", type=float, default=36.0)

    p = sub.add_parser("train", help="train the risk model on an event log")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint path (default: OUT_DIR/checkpoint.json)")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--hidden-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=0.002)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--max-epochs", type=int, default=20)
    p.add_argument("--clip-norm", type=float, default=6.0)
    p.add_argument("--input-dropout", type=float, default=0.03)
    p.add_argument("--output-dropout", type=float, default=0.02)
    p.add_argument("--recurrent-dropout", type=float, default=0.01)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--bins-per-feature", type=int, default=10)

    p = sub.add_parser("alerts", help="apply the alert rule to every episode")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", required=True)
    _add_rule_flags(p)

    p = sub.add_parser("explain", help="explain risk increases per window and method")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", default=None, help="bin table JSON (default: fit from the train split)")
    p.add_argument("--methods", default="all",
                   help=f"comma-separated subset of: {','.join(METHODS)} (default: all)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--windows", choices=("checkpoints", "alerts"), default="checkpoints")
    p.add_argument("--checkpoint-hours", type=float, default=3.0)
    _add_rule_flags(p)

    p = sub.add_parser("evaluate", help="score explanations against ground truth")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--explanations", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--truth", default=None, help="episode audit JSONL to join into the dump")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--resamples", type=int, default=2000)
    return parser


def _read_events(path, catalog=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_event_log(fh, catalog=catalog)


def _methods_from_arg(arg: str) -> list[str]:
    if arg == "all":
        return list(METHODS)
    methods = [m.strip() for m in arg.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; available: {', '.join(METHODS)}")
    if not methods:
        raise UsageError("no methods requested")
    return methods


def cmd_gen_data(args) -> int:
    with _usage_scope():
        config = synth.ScenarioConfig(
            seed=args.seed,
            n_episodes=args.n_episodes,
            deterioration_fraction=args.deterioration_fraction,
            duration_hours=args.duration_hours,
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = synth.generate_corpus(config)
    write_event_log(out / "events.jsonl", corpus)
    lines = []
    n_pos = 0
    for i, seq in enumerate(corpus):
        meta = synth.episode_metadata(config, i)
        first_pos = synth.first_positive_checkpoint(seq)
        n_pos += int(first_pos is not None)
        lines.append(json.dumps({
            "episode": seq.episode_id,
            "outcome": seq.outcome,
            "split": seq.split,
            "onset_s": meta["onset_s"],
            "mechanism": meta["mechanism"],
            "first_positive_checkpoint_s": first_pos,
        }))
    (out / "episodes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} episodes to {out / 'events.jsonl'}")
    print(f"positive label at some checkpoint: {n_pos}")
    return EXIT_OK


def cmd_train(args) -> int:
    with _usage_scope():
        config = ModelConfig(
            hidden_size=args.hidden_size,
            input_dropout=args.input_dropout,
            output_dropout=args.output_dropout,
            recurrent_dropout=args.recurrent_dropout,
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            clip_norm=args.clip_norm,
            eta=args.eta,
            max_epochs=args.max_epochs,
            seed=args.seed,
            patience=args.patience,
            attention=not args.no_attention,
        )
        bin_config = StatWeightConfig(bins_per_feature=args.bins_per_feature)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw = _read_events(args.events)
    catalog = catalog_from_sequences(raw)
    stats = fit_feature_stats(raw)
    bins = fit_bins(raw, bin_config)
    corpus = [
        EncodedEpisode(seq.episode_id, encode_steps(normalize(seq, stats), catalog),
                       seq.outcome, seq.split)
        for seq in raw
    ]
    params, report = train(corpus, config)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.json"
    save_checkpoint(ckpt_path, params, config, catalog, stats)
    (out / "bins.json").write_text(json.dumps(bins.to_json()), encoding="utf-8")
    write_csv(
        out / "train_report.csv",
        ["phase", "epoch", "train_loss", "val_loss", "val_auroc"],
        [[r.phase, r.epoch, r.train_loss, r.val_loss, r.val_auroc] for r in report.rows],
    )
    print(f"wrote checkpoint to {ckpt_path}")
    if report.rows:
        last = [r for r in report.rows if r.phase == "risk"][-1]
        print(f"best epoch {report.best_epoch}; last val_loss {last.val_loss:.4f} "
              f"val_auroc {last.val_auroc:.4f}")
    return EXIT_OK


def _load_and_prepare(args):
    params, _config, catalog, stats = load_checkpoint(args.checkpoint)
    raw = _read_events(args.events, catalog=catalog)
    episodes = prepare_episodes(params, stats, catalog, raw)
    return episodes, params, catalog, stats, raw


def cmd_alerts(args) -> int:
    rule = _rule_from_args(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes, *_ = _load_and_prepare(args)
    windows = evaluation.alert_windows(episodes, rule)
    by_id = {ep.episode_id: ep for ep in episodes}
    rows = []
    for w in windows:
        ep = by_id[w.episode_id]
        rows.append([w.episode_id, w.t0, w.t1, w.t0_time, w.t1_time,
                     float(ep.risk.p[w.t0 - 1]), float(ep.risk.p[w.t1 - 1]),
                     w.t1 - w.t0])
    write_csv(out / "alerts.csv",
              ["episode", "t0", "t1", "t0_time_s", "t1_time_s", "p0", "p1", "new_events"],
              rows)
    print(f"wrote {len(rows)} alerts to {out / 'alerts.csv'}")
    return EXIT_OK


def cmd_explain(args) -> int:
    methods = _methods_from_arg(args.methods)
    with _usage_scope():
        if args.k < 1:
            raise ValueError("--k must be >= 1")
        if args.m < 1:
            raise ValueError("--m must be >= 1")
    rule = _rule_from_args(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes, params, catalog, stats, raw = _load_and_prepare(args)

    if args.bins:
        bins = BinTable.from_json(json.loads(Path(args.bins).read_text(encoding="utf-8")))
    else:
        bins = fit_bins(raw, StatWeightConfig())
    ctx = MethodContext(params=params, catalog=catalog, bins=bins, m=args.m, seed=args.seed)

    if args.windows == "alerts":
        windows = evaluation.alert_windows(episodes, rule)
    else:
        windows = evaluation.checkpoint_windows(episodes, args.checkpoint_hours)
    by_id = {ep.episode_id: ep for ep in episodes}

    expl_rows = []
    for w in windows:
        ep = by_id[w.episode_id]
        for method in methods:
            expl = explain_window(method, ctx, ep, w, args.k)
            expl_rows.extend(
                [w.episode_id, method, rank, it.step, it.time,
                 catalog.ids[it.feature], it.raw, it.weight]
                for rank, it in enumerate(expl.items, start=1)
            )

    write_csv(out / "explanations.csv", EXPLANATIONS_HEADER, expl_rows)
    write_csv(out / "windows.csv", WINDOWS_HEADER,
              [[w.episode_id, w.t0, w.t1, w.t0_time, w.t1_time, w.source] for w in windows])
    risk_rows = []
    for ep in episodes:
        for j in range(ep.steps.T):
            risk_rows.append([ep.episode_id, j + 1, float(ep.steps.step_time[j]),
                              float(ep.steps.step_time[j]) / 3600.0, float(ep.risk.p[j])])
    write_csv(out / "risk_series.csv",
              ["episode", "step", "time_s", "time_h", "p"], risk_rows)
    print(f"wrote {len(expl_rows)} explanation rows over {len(windows)} windows "
          f"and {len(methods)} methods")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    with _usage_scope():
        if args.k < 1:
            raise ValueError("--k must be >= 1")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw = _read_events(args.events)
    by_id = {seq.episode_id: seq for seq in raw}

    _, window_rows = read_csv(args.windows, WINDOWS_HEADER)
    windows = [(r[0], int(r[1]), int(r[2])) for r in window_rows]
    _, expl_rows = read_csv(args.explanations, EXPLANATIONS_HEADER)
    selected: dict[tuple[str, str], list[tuple[int, str]]] = {}
    methods_seen: list[str] = []
    for r in expl_rows:
        episode, method, step, feature = r[0], r[1], int(r[3]), r[5]
        selected.setdefault((episode, method), []).append((step, feature))
        if method not in methods_seen:
            methods_seen.append(method)

    audit = {}
    if args.truth:
        with open(args.truth, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    audit[rec["episode"]] = rec

    kept = []
    truth_lines = []
    for episode, t0, t1 in windows:
        seq = by_id.get(episode)
        if seq is None:
            raise EventFormatError(f"window references unknown episode {episode!r}")
        members = synth.ground_truth_set(seq, t0, t1)
        record = {
            "episode": episode, "t0": t0, "t1": t1,
            "truth": sorted([list(m) for m in members]),
            "excluded": not members,
        }
        if episode in audit:
            record["audit"] = audit[episode]
        truth_lines.append(json.dumps(record))
        if members:
            kept.append((episode, t0, t1, members))
    (out / "truth_windows.jsonl").write_text("\n".join(truth_lines) + "\n", encoding="utf-8")

    if not kept:
        raise EventFormatError("empty evaluation: no windows with ground truth")

    rows = []
    for method in methods_seen:
        per_window = []
        for episode, t0, t1, members in kept:
            items = selected.get((episode, method), [])
            if not items:
                per_window.append(0.0)
                continue
            hits = sum(item in members for item in items)
            per_window.append(hits / min(args.k, len(items)))
        lo, hi = bootstrap_ci(per_window, resamples=args.resamples, seed=args.seed)
        rows.append([method, args.k, float(np.mean(per_window)), lo, hi, len(per_window)])
    write_csv(out / "results.csv",
              ["method", "k", "mean_precision", "ci_lo", "ci_hi", "n_windows"], rows)
    print(f"wrote results for {len(rows)} methods over {len(kept)} windows")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "alerts": cmd_alerts,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None:
        args.seed = _default_seed()
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"driftscope: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EventFormatError, CatalogMismatchError, NoAnchorError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"driftscope: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"driftscope: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"driftscope: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
