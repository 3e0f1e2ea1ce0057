"""Checks on the files each driftscope CLI stage writes.

Every `check_*` function takes the stage's output directory and returns
(problems, facts): a list of one-line problems, empty when the output is
correct, and the counts the benchmark derives its metrics from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

# The documented header of every CSV the CLI writes.
HEADERS = {
    "train_report.csv": ("phase", "epoch", "train_loss", "val_loss", "val_auroc"),
    "alerts.csv": ("episode", "t0", "t1", "t0_time_s", "t1_time_s", "p0", "p1", "new_events"),
    "windows.csv": ("episode", "t0", "t1", "t0_time_s", "t1_time_s", "source"),
    "explanations.csv": ("episode", "method", "rank", "step", "time_s", "feature",
                         "raw_value", "weight"),
    "risk_series.csv": ("episode", "step", "time_s", "time_h", "p"),
    "results.csv": ("method", "k", "mean_precision", "ci_lo", "ci_hi", "n_windows"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_table(path: Path, problems: list[str]) -> list[dict] | None:
    """Rows of a CLI CSV as dicts, or None (with a problem) when the file is
    missing, truncated, has another header, or a row of another width."""
    name = path.name
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        problems.append(f"{name}: {exc.strerror or exc}")
        return None
    if not text.endswith("\n"):
        problems.append(f"{name}: last line is not terminated (truncated file)")
    rows = list(csv.reader(text.splitlines()))
    header = tuple(rows[0]) if rows else ()
    if header != HEADERS[name]:
        problems.append(f"{name}: header {','.join(header)!r} is not {','.join(HEADERS[name])!r}")
        return None
    bad = [i for i, row in enumerate(rows[1:], start=2) if len(row) != len(header)]
    if bad:
        problems.append(f"{name}: {len(bad)} rows do not have {len(header)} fields "
                        f"(first at line {bad[0]})")
        return None
    return [dict(zip(header, row)) for row in rows[1:]]


def _numbers(rows, name, problems, ints=(), floats=()) -> bool:
    """Convert the named columns in place; False (with a problem) if one is malformed."""
    for i, row in enumerate(rows, start=2):
        try:
            for col in ints:
                row[col] = int(row[col])
            for col in floats:
                row[col] = float(row[col])
                if not math.isfinite(row[col]):
                    raise ValueError(col)
        except ValueError:
            problems.append(f"{name}: malformed number at line {i}")
            return False
    return True


def _json_object(path: Path, problems: list[str]) -> None:
    try:
        if not isinstance(json.loads(path.read_text(encoding="utf-8")), dict):
            problems.append(f"{path.name}: not a JSON object")
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")


def check_train(out: Path, epochs: int):
    """train_report.csv, checkpoint.json and bins.json; the number of risk and
    attention epochs must equal `epochs`, so the amount of work is fixed."""
    problems: list[str] = []
    facts = {}
    _json_object(out / "checkpoint.json", problems)
    _json_object(out / "bins.json", problems)
    rows = read_table(out / "train_report.csv", problems)
    # val_auroc is nan when the validation split holds one class only
    if rows is not None and _numbers(rows, "train_report.csv", problems, ints=("epoch",),
                                     floats=("train_loss", "val_loss")):
        per_phase = Counter(r["phase"] for r in rows)
        facts["epochs_run"] = per_phase["risk"]
        for phase in ("risk", "attention"):
            if per_phase[phase] != epochs:
                problems.append(f"train_report.csv: {per_phase[phase]} {phase} epochs run, "
                                f"configured {epochs}")
        if per_phase["risk"]:
            facts["best_val_loss"] = min(r["val_loss"] for r in rows if r["phase"] == "risk")
    return problems, facts


def check_alerts(out: Path, min_new_events: int):
    problems: list[str] = []
    rows = read_table(out / "alerts.csv", problems)
    if rows is None or not _numbers(rows, "alerts.csv", problems, ints=("t0", "t1", "new_events"),
                                    floats=("t0_time_s", "t1_time_s", "p0", "p1")):
        return problems, {}
    for i, r in enumerate(rows, start=2):
        if not (0 <= r["t0"] < r["t1"] and r["new_events"] == r["t1"] - r["t0"] >= min_new_events
                and 0 <= r["p0"] <= 1 and 0 <= r["p1"] <= 1):
            problems.append(f"alerts.csv: inconsistent alert at line {i}")
            break
    return problems, {"alerts": len(rows)}


def check_explain(out: Path, k: int, methods: list[str], steps: int):
    """windows.csv, risk_series.csv (one row per step of the corpus) and
    explanations.csv: every group of rows is ranked 1..n with n <= k, lies in a
    window of its episode, and no (episode, method) has more groups than the
    episode has windows."""
    problems: list[str] = []
    facts = {}
    windows = read_table(out / "windows.csv", problems)
    if windows is not None and _numbers(windows, "windows.csv", problems, ints=("t0", "t1"),
                                        floats=("t0_time_s", "t1_time_s")):
        facts["windows"] = len(windows)
        by_episode = defaultdict(list)
        for w in windows:
            if not 0 <= w["t0"] < w["t1"]:
                problems.append(f"windows.csv: empty window {w['episode']} ({w['t0']}, {w['t1']}]")
            by_episode[w["episode"]].append((w["t0"], w["t1"]))
        facts["windows_per_episode_max"] = max(map(len, by_episode.values()), default=0)
    else:
        by_episode = None

    risk = read_table(out / "risk_series.csv", problems)
    if risk is not None and _numbers(risk, "risk_series.csv", problems, ints=("step",),
                                     floats=("time_s", "time_h", "p")):
        if len(risk) != steps:
            problems.append(f"risk_series.csv: {len(risk)} rows for {steps} steps")
        if any(not 0 <= r["p"] <= 1 for r in risk):
            problems.append("risk_series.csv: risk outside [0, 1]")

    expl = read_table(out / "explanations.csv", problems)
    if expl is None or by_episode is None or not _numbers(
            expl, "explanations.csv", problems, ints=("rank", "step"),
            floats=("time_s", "raw_value", "weight")):
        return problems, facts
    facts["explanation_rows"] = len(expl)
    facts["explanations_sha256"] = sha256(out / "explanations.csv")
    groups: Counter = Counter()
    prev = None
    for i, r in enumerate(expl, start=2):
        key = (r["episode"], r["method"])
        if r["method"] not in methods:
            problems.append(f"explanations.csv: unrequested method {r['method']!r}")
            break
        if r["rank"] == 1:
            groups[key] += 1
        elif prev is None or prev[0] != key or r["rank"] != prev[1] + 1:
            problems.append(f"explanations.csv: rank {r['rank']} out of sequence at line {i}")
            break
        if r["rank"] > k:
            problems.append(f"explanations.csv: more than k={k} rows for one window at line {i}")
            break
        spans = by_episode.get(r["episode"], [])
        if not any(t0 < r["step"] <= t1 for t0, t1 in spans):
            problems.append(f"explanations.csv: step {r['step']} of {r['episode']} "
                            f"is in none of its windows (line {i})")
            break
        prev = (key, r["rank"])
    over = [key for key, n in groups.items() if n > len(by_episode[key[0]])]
    if over:
        problems.append(f"explanations.csv: {len(over)} (episode, method) pairs have more "
                        f"explanations than windows, e.g. {over[0]}")
    return problems, facts


def check_evaluate(out: Path, k: int, methods: list[str]):
    """results.csv has one row per method with 0 <= ci_lo <= mean_precision <=
    ci_hi <= 1; truth_windows.jsonl is JSON lines."""
    problems: list[str] = []
    facts = {}
    try:
        for line in (out / "truth_windows.jsonl").read_text(encoding="utf-8").splitlines():
            json.loads(line)
    except (OSError, ValueError) as exc:
        problems.append(f"truth_windows.jsonl: {exc}")
    rows = read_table(out / "results.csv", problems)
    if rows is None or not _numbers(rows, "results.csv", problems, ints=("k", "n_windows"),
                                    floats=("mean_precision", "ci_lo", "ci_hi")):
        return problems, facts
    if sorted(r["method"] for r in rows) != sorted(methods):
        problems.append(f"results.csv: methods {[r['method'] for r in rows]} != {methods}")
    for r in rows:
        facts[f"precision.{r['method']}"] = r["mean_precision"]
        if not 0 <= r["ci_lo"] <= r["mean_precision"] <= r["ci_hi"] <= 1:
            problems.append(f"results.csv: {r['method']} has ci_lo={r['ci_lo']:.4g} "
                            f"mean_precision={r['mean_precision']:.4g} ci_hi={r['ci_hi']:.4g}, "
                            f"not 0 <= ci_lo <= mean <= ci_hi <= 1")
        if r["k"] != k or r["n_windows"] < 1:
            problems.append(f"results.csv: {r['method']} has k={r['k']} n_windows={r['n_windows']}")
    return problems, facts
