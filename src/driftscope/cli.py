"""Command-line pipeline: gen-data / train / alerts / explain / evaluate.

Every command is deterministic under fixed seeds and writes its outputs
atomically. Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter
from dataclasses import astuple, fields
from pathlib import Path

from . import evaluation, synth
from .alerts import AlertRule, select_alert_cohort
from .bin_stats import BINS_PER_FEATURE, BinTable, fit_bins
from .events import (
    SECONDS_PER_HOUR,
    EventFormatError,
    catalog_from_sequences,
    encode_steps,
    fit_feature_stats,
    parse_event_log,
    write_event_log,
)
from .model import (
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
    explain_windows,
    prepare_episodes,
)
from .tables import atomic_open, read_csv, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

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


def _config(cls, args, **explicit):
    """``cls`` from the parsed flags whose dests are its field names, with
    ``explicit`` for the fields no flag names; a rejected value is a usage error."""
    with _usage_scope():
        flags = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
        return cls(**{**flags, **explicit})


def _check_at_least(args, minimum: int, *names: str) -> None:
    for name in names:
        if getattr(args, name) < minimum:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {minimum}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--out-dir", required=True, help="output directory")


# The AlertRule times in seconds that the CLI takes in hours, as (flag, field).
_RULE_HOURS = (("anchor", "anchor_time"), ("horizon", "horizon"), ("interval", "check_interval"))


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio-threshold", type=float, default=AlertRule.ratio_threshold)
    p.add_argument("--floor", type=float, default=AlertRule.floor)
    for flag, name in _RULE_HOURS:
        p.add_argument(f"--{flag}-hours", type=float,
                       default=getattr(AlertRule, name) / SECONDS_PER_HOUR)
    p.add_argument("--min-new-events", type=int, default=AlertRule.min_new_events)
    p.add_argument("--all-alerts", action="store_true",
                   help="keep every alert per episode, not only the first")


def _rule_from_args(args) -> AlertRule:
    times = {name: getattr(args, f"{flag}_hours") * SECONDS_PER_HOUR for flag, name in _RULE_HOURS}
    return _config(AlertRule, args, **times, first_alert_only=not args.all_alerts)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic event corpus")
    _add_common(p)
    p.add_argument("--n-episodes", type=int, default=200)  # ScenarioConfig's default is 100
    p.add_argument("--deterioration-fraction", type=float,
                   default=synth.ScenarioConfig.deterioration_fraction)
    p.add_argument("--duration-hours", type=float, default=synth.ScenarioConfig.duration_hours)

    p = sub.add_parser("train", help="train the risk model on an event log")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint path (default: OUT_DIR/checkpoint.json)")
    for f in fields(ModelConfig):
        if f.name not in ("seed", "attention"):
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--bins-per-feature", type=int, default=BINS_PER_FEATURE)

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
    p.add_argument("--k", type=int, default=evaluation.TOP_K)
    p.add_argument("--m", type=int, default=MethodContext.m)
    p.add_argument("--windows", choices=("checkpoints", "alerts"), default="checkpoints")
    _add_rule_flags(p)

    p = sub.add_parser("evaluate", help="score explanations against ground truth")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--explanations", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--k", type=int, default=evaluation.TOP_K)
    p.add_argument("--resamples", type=int, default=evaluation.RESAMPLES)
    return parser


def _read_events(path, catalog=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_event_log(fh, catalog=catalog)


def _methods_from_arg(arg: str) -> list[str]:
    if arg == "all":
        return list(METHODS)
    methods = list(dict.fromkeys(m.strip() for m in arg.split(",") if m.strip()))
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; available: {', '.join(METHODS)}")
    if not methods:
        raise UsageError("no methods requested")
    return methods


def cmd_gen_data(args) -> int:
    config = _config(synth.ScenarioConfig, args)
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
    config = _config(ModelConfig, args, attention=not args.no_attention)
    _check_at_least(args, 2, "bins_per_feature")
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
    _check_at_least(args, 1, "k", "m")
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
    risk_rows = [[ep.episode_id, j + 1, t, t / SECONDS_PER_HOUR, p]
                 for ep in episodes
                 for j, (t, p) in enumerate(zip(ep.steps.step_time.tolist(), ep.risk.p.tolist()))]
    write_csv(out / "risk_series.csv",
              ["episode", "step", "time_s", "time_h", "p"], risk_rows)
    print(f"wrote {len(expl_rows)} explanation rows over {len(windows)} windows "
          f"and {len(methods)} methods")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_at_least(args, 1, "k", "resamples")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_id = {seq.episode_id: seq for seq in _read_events(args.events)}

    _, window_rows = read_csv(args.windows, WINDOWS_HEADER)
    _, expl_rows = read_csv(args.explanations, EXPLANATIONS_HEADER)
    # explain writes each rank at most once per window of an episode; more
    # copies (say, a file concatenated with itself) would each be scored
    n_windows = Counter(r[0] for r in window_rows)
    copies = Counter()
    selected: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for r in expl_rows:
        rank = int(r[2])
        if not 1 <= rank <= args.k:
            bound = "is below 1" if rank < 1 else f"exceeds --k {args.k}"
            raise EventFormatError(f"{args.explanations}: rank {r[2]} of episode {r[0]!r}, "
                                   f"method {r[1]!r} {bound}")
        copies[r[0], r[1], rank] += 1
        if copies[r[0], r[1], rank] > n_windows[r[0]] > 0:
            raise EventFormatError(f"{args.explanations}: episode {r[0]!r}, method {r[1]!r} has "
                                   f"more rows of rank {rank} than its {n_windows[r[0]]} "
                                   f"window(s) in {args.windows}")
        selected.setdefault((r[0], r[1]), []).append((int(r[3]), r[5]))
    methods = list(dict.fromkeys(method for _, method in selected))

    truths = []
    for r in window_rows:
        w = Window(r[0], int(r[1]), int(r[2]), float(r[3]), float(r[4]), r[5])
        seq = by_id.get(w.episode_id)
        if seq is None:
            raise EventFormatError(f"window references unknown episode {w.episode_id!r}")
        truths.append(evaluation.window_truth(seq, w))
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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"driftscope: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"driftscope: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # input-format errors are ValueErrors
        print(f"driftscope: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
