"""In-memory spans around driftscope's public functions, and the per-layer
metrics derived from them.

`patched(tracer)` rebinds every traced function, in every driftscope module
that refers to it, to a wrapper that opens a span; leaving the block restores
the originals. Running `driftscope.cli.main` inside the block therefore
records exactly the library calls that each `cmd_*` makes. A layer is a
driftscope module; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

# module -> public functions wrapped in a span. A name the program no longer
# defines is skipped, and the metrics that need it are left out. The one
# private name is the batched LSTM gradient that integrated gradients runs;
# without it that model work would count as attribution self time.
TRACED = {
    "events": ("parse_event_log", "write_event_log", "catalog_from_sequences",
               "fit_feature_stats", "normalize", "encode_steps"),
    "synth": ("generate_corpus", "episode_metadata", "first_positive_checkpoint",
              "ground_truth_set"),
    "model": ("train", "forward", "backward", "loss", "grad_wrt_inputs",
              "attention_forward", "save_checkpoint", "load_checkpoint", "_risk_gradient_batch"),
    "evaluation": ("prepare_episodes", "alert_windows", "checkpoint_windows",
                   "explain_window", "bootstrap_ci"),
    "attribution": ("integrated_gradients", "random_guess", "top_k_explanations",
                    "time_restrict", "time_diff", "discrete_time_derivatives",
                    "event_weight_matrix"),
    "bin_stats": ("fit_bins", "stat_weights"),
    "alerts": ("select_alert_cohort",),
    "tables": ("write_csv", "read_csv"),
}
_MODULES = ("__init__", "cli", *TRACED)


def _windows(args, out):
    per_episode = Counter(w.episode_id for w in out)
    return {"windows": len(out), "per_episode_max": max(per_episode.values(), default=0)}


# span name -> attrs(bound arguments, return value), recorded when the call returns
_ATTRS = {
    "events.parse_event_log": lambda a, out: {"events": sum(len(s.events) for s in out)},
    "events.encode_steps": lambda a, out: {"steps": out.T},
    "model.forward": lambda a, out: {"mode": a["mode"], "steps": a["steps"].T},
    "model.backward": lambda a, out: {"steps": a["steps"].T},
    "model.train": lambda a, out: {
        "epochs": sum(r.phase == "risk" for r in out[1].rows)},
    "evaluation.alert_windows": _windows,
    "evaluation.checkpoint_windows": _windows,
    "evaluation.explain_window": lambda a, out: {"method": a["method"], "short": out.short},
    "attribution.integrated_gradients": lambda a, out: {"path_steps": a["m"] * a["t1"]},
    "alerts.select_alert_cohort": lambda a, out: {"alerts": len(out)},
    "synth.ground_truth_set": lambda a, out: {"empty": not out},
    "tables.write_csv": lambda a, out: {"rows": len(a["rows"])},
}


class Tracer:
    """Spans of one run: name, start, end, parent id, run id and attributes.
    Kept in memory, to be written once, at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "name": name, "start": time.perf_counter(),
               "end": None, "attrs": {}}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _wrap(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["attrs"].update(attrs(bound.arguments, out))
            return out
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every reference to a traced function through a span."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"driftscope.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, _wrap(tracer, f"{module}.{name}", fn))
    undo = []
    for module in _MODULES:
        mod = importlib.import_module("driftscope" if module == "__init__" else f"driftscope.{module}")
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(mod, attr, wrappers[id(value)][1])
                undo.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def stage_of(spans: list[dict]) -> dict[int, str]:
    """Span id -> name of the stage whose root span it descends from."""
    out: dict[int, str] = {}
    for s in spans:  # a parent is recorded before its children
        out[s["id"]] = s["name"][len("stage."):] if s["parent"] is None else out[s["parent"]]
    return out


def layer_of(name: str) -> str:
    """Module a span belongs to; a stage root's own time is the CLI's glue."""
    return "cli" if name.startswith("stage.") else name.split(".", 1)[0]


def stage_breakdown(spans: list[dict]) -> dict[str, dict]:
    """Per stage: its traced wall, and the self time of each layer in it.
    The self times add up to the wall."""
    own = self_times(spans)
    stages = stage_of(spans)
    out: dict[str, dict] = {}
    for s in spans:
        if s["parent"] is None:
            out[stages[s["id"]]] = {"wall_s": s["end"] - s["start"], "self_s": defaultdict(float)}
    for s in spans:
        out[stages[s["id"]]]["self_s"][layer_of(s["name"])] += own[s["id"]]
    return out


def distribution(values: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 that has at least ten samples
    beyond it, and the sample count."""
    ordered = sorted(values)
    out = {"p50": statistics.median(ordered), "n": len(ordered)}
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[int(len(ordered) * p / 100)]
            break
    return out


# metric -> the spans whose durations it adds up
TOTALS = {
    "synth.generate_s": ("synth.generate_corpus",),
    "events.parse_s": ("events.parse_event_log",),
    "events.encode_s": ("events.normalize", "events.encode_steps"),
    "model.checkpoint_save_s": ("model.save_checkpoint",),
    "model.checkpoint_load_s": ("model.load_checkpoint",),
    "evaluation.prepare_episodes_s": ("evaluation.prepare_episodes",),
    "bin_stats.fit_bins_s": ("bin_stats.fit_bins",),
    "tables.write_csv_s": ("tables.write_csv",),
    "tables.read_csv_s": ("tables.read_csv",),
}
# metric -> (span, attribute summed, stage it is counted in or None for all)
COUNTS = {
    "events.events": ("events.parse_event_log", "events", None),
    "events.steps": ("events.encode_steps", "steps", None),
    "tables.rows_written": ("tables.write_csv", "rows", None),
    "attribution.ig_path_steps": ("attribution.integrated_gradients", "path_steps", None),
    "alerts.alerts": ("alerts.select_alert_cohort", "alerts", "alerts"),
    # windows are counted where `explain` picks them
    "evaluation.windows": ("evaluation.*_windows", "windows", "explain"),
    "evaluation.windows_excluded": ("synth.ground_truth_set", "empty", "evaluate"),
}
# metric -> span timed per call, in ms
PER_CALL = {
    "model.grad_wrt_inputs_ms": "model.grad_wrt_inputs",
    "model.attention_forward_ms": "model.attention_forward",
    "evaluation.bootstrap_ci_ms": "evaluation.bootstrap_ci",
    "attribution.top_k_ms": "attribution.top_k_explanations",
    "attribution.random_guess_ms": "attribution.random_guess",
    "bin_stats.stat_weights_ms": "bin_stats.stat_weights",
    "alerts.select_alert_cohort_ms": "alerts.select_alert_cohort",
}


def layer_metrics(spans: list[dict]) -> dict[str, float | dict]:
    """Per-layer metrics of one traced pass, for the layers the pass called.
    A value is a number, or a `distribution` of per-call timings."""
    def dur(s):
        return s["end"] - s["start"]

    stages = stage_of(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_name["evaluation.*_windows"] = (by_name["evaluation.alert_windows"]
                                       + by_name["evaluation.checkpoint_windows"])

    m: dict[str, float | dict] = {}
    for metric, names in TOTALS.items():
        if any(by_name[n] for n in names):
            m[metric] = sum(dur(s) for n in names for s in by_name[n])
    for metric, (name, attr, stage) in COUNTS.items():
        calls = [s for s in by_name[name] if stage in (None, stages[s["id"]])]
        if calls:
            m[metric] = sum(s["attrs"].get(attr, 0) for s in calls)
    for metric, name in PER_CALL.items():
        if by_name[name]:
            m[metric] = distribution([dur(s) * 1e3 for s in by_name[name]])

    # attrs are missing on a call that raised
    per_step = {"model.forward_train_us_per_step": [s for s in by_name["model.forward"]
                                                    if s["attrs"].get("mode") == "train"],
                "model.forward_eval_us_per_step": [s for s in by_name["model.forward"]
                                                   if s["attrs"].get("mode") == "eval"],
                "model.backward_us_per_step": [s for s in by_name["model.backward"]
                                               if "steps" in s["attrs"]]}
    for metric, calls in per_step.items():
        if calls:
            m[metric] = sum(map(dur, calls)) / sum(s["attrs"]["steps"] for s in calls) * 1e6
    if by_name["model.train"]:
        m["model.epochs_run"] = sum(s["attrs"].get("epochs", 0) for s in by_name["model.train"])
        m["model.epoch_s"] = sum(map(dur, by_name["model.train"])) / max(m["model.epochs_run"], 1)
    picked = [s for s in by_name["evaluation.*_windows"] if stages[s["id"]] == "explain"]
    if picked:
        m["evaluation.windows_per_episode_max"] = max(s["attrs"].get("per_episode_max", 0)
                                                      for s in picked)
    explained = [s for s in by_name["evaluation.explain_window"] if s["attrs"]]
    for method in sorted({s["attrs"]["method"] for s in explained}):
        calls = [s for s in explained if s["attrs"]["method"] == method]
        m[f"evaluation.explain_window_ms.{method}"] = distribution([dur(s) * 1e3 for s in calls])
        m[f"attribution.short_explanations.{method}"] = sum(s["attrs"]["short"] for s in calls)

    for stage in stage_breakdown(spans).values():
        for layer, seconds in stage["self_s"].items():
            m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + seconds
    return m
