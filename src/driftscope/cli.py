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
from dataclasses import astuple, fields
from pathlib import Path

from . import evaluation, synth
from .alerts import AlertRule, NoAnchorError, select_alert_cohort
from .bin_stats import BinTable, fit_bins
from .events import (
    EventFormatError,
    catalog_from_sequences,
    encode_steps,
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
from .evaluation import (
    METHODS,
    BenchmarkRow,
    MethodContext,
    Window,
    WindowTruth,
    explain_windows,
    prepare_episodes,
)
from .tables import atomic_open, read_csv, write_csv

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
    value = os.environ.get(SEED_ENV, "0")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"${SEED_ENV} must be an integer, got {value!r}") from None


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
    _add_rule_flags(p)

    p = sub.add_parser("evaluate", help="score explanations against ground truth")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--explanations", required=True)
    p.add_argument("--windows", required=True)
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
    with atomic_open(out / "events.jsonl") as fh:
        write_event_log(fh, corpus)
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
    with atomic_open(out / "episodes.jsonl") as fh:
        fh.write("\n".join(lines) + "\n")
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
        if args.bins_per_feature < 2:
            raise ValueError("--bins-per-feature must be >= 2")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw = _read_events(args.events)
    catalog = catalog_from_sequences(raw)
    stats = fit_feature_stats(raw)
    bins = fit_bins(raw, args.bins_per_feature)
    corpus = [
        EncodedEpisode(seq.episode_id, encode_steps(seq, catalog, stats),
                       seq.outcome, seq.split)
        for seq in raw
    ]
    del raw  # the encodings are all that training reads; this lowers its peak memory
    params, report = train(corpus, config)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.json"
    save_checkpoint(ckpt_path, params, config, catalog, stats)
    with atomic_open(out / "bins.json") as fh:
        json.dump(bins.to_json(), fh)
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
    cohort = select_alert_cohort(((ep.episode_id, ep.risk) for ep in episodes), rule)
    write_csv(out / "alerts.csv",
              ["episode", "t0", "t1", "t0_time_s", "t1_time_s", "p0", "p1", "new_events"],
              [astuple(a) for a in cohort])
    print(f"wrote {len(cohort)} alerts to {out / 'alerts.csv'}")
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
        try:
            payload = json.loads(Path(args.bins).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"malformed bin table: JSON nested too deeply: {args.bins}") from None
        bins = BinTable.from_json(payload)
    else:
        bins = fit_bins(raw)
    ctx = MethodContext(params=params, catalog=catalog, bins=bins, m=args.m, seed=args.seed)

    if args.windows == "alerts":
        windows = evaluation.alert_windows(episodes, rule)
    else:
        windows = evaluation.checkpoint_windows(episodes)

    expl_rows = []
    for w, method, (expl,) in explain_windows(ctx, episodes, windows, methods, args.k):
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
    by_id = {seq.episode_id: seq for seq in _read_events(args.events)}

    _, window_rows = read_csv(args.windows, WINDOWS_HEADER)
    _, expl_rows = read_csv(args.explanations, EXPLANATIONS_HEADER)
    selected: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for r in expl_rows:
        if int(r[2]) > args.k:
            raise EventFormatError(f"{args.explanations}: rank {r[2]} of episode {r[0]!r}, "
                                   f"method {r[1]!r} exceeds --k {args.k}")
        selected.setdefault((r[0], r[1]), []).append((int(r[3]), r[5]))
    methods = list(dict.fromkeys(method for _, method in selected))

    truths = []
    for r in window_rows:
        w = Window(r[0], int(r[1]), int(r[2]), float(r[3]), float(r[4]), r[5])
        seq = by_id.get(w.episode_id)
        if seq is None:
            raise EventFormatError(f"window references unknown episode {w.episode_id!r}")
        truths.append(WindowTruth(w, frozenset(synth.ground_truth_set(seq, w.t0, w.t1))))
    with atomic_open(out / "truth_windows.jsonl") as fh:
        fh.write("\n".join(
            json.dumps({"episode": t.window.episode_id, "t0": t.window.t0, "t1": t.window.t1,
                        "truth": sorted([list(m) for m in t.members]), "excluded": t.empty})
            for t in truths) + "\n")

    kept = evaluation.scorable(truths)
    rows = [
        evaluation.benchmark_row(
            method, args.k,
            [evaluation.window_precision(selected.get((t.window.episode_id, method), []),
                                         t.members, args.k) for t in kept],
            resamples=args.resamples, seed=args.seed)
        for method in methods
    ]
    write_csv(out / "results.csv", [f.name for f in fields(BenchmarkRow)],
              [astuple(row) for row in rows])
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
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"driftscope: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EventFormatError, CatalogMismatchError, NoAnchorError,
            OSError, json.JSONDecodeError) as exc:
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
