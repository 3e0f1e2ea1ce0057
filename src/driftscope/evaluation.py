"""Explanation quality harness: windows, method dispatch, precision, bootstrap.

A window is an (episode, t0, t1] interval whose explanation is scored against
the set of signal-feature steps inside it. Windows come either from the alert
rule or from fixed injury checkpoints (first positive checkpoint per episode).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import synth
from .alerts import AlertRule, select_alert_cohort
from .attribution import (
    Explanation,
    event_weight_matrix,
    discrete_time_derivatives,
    integrated_gradients,
    random_guess,
    time_diff,
    time_restrict,
    top_k_explanations,
)
from .bin_stats import BinTable, StatWeightConfig, stat_weights
from .events import EventSequence, FeatureCatalog, FeatureStats, StepSeries, encode_steps, normalize
from .model import ModelParams, RiskSeries, attention_forward, forward, grad_wrt_inputs
from .synth import first_positive_checkpoint, ground_truth_set

METHODS = (
    "random",
    "gradient",
    "attention",
    "discrete_derivative",
    "odds_ratio_diff",
    "rothman_diff",
    "odds_ratio",
    "integrated_gradients",
)


@dataclass(frozen=True)
class PreparedEpisode:
    """The raw episode, its model encoding and its risk series."""

    episode_id: str
    raw: EventSequence
    steps: StepSeries
    risk: RiskSeries


@dataclass(frozen=True)
class Window:
    episode_id: str
    t0: int
    t1: int
    t0_time: float
    t1_time: float
    source: str  # "alert" or "checkpoint"


@dataclass(frozen=True)
class WindowTruth:
    episode_id: str
    t0: int
    t1: int
    members: frozenset[tuple[int, str]]  # (step, feature id)

    @property
    def empty(self) -> bool:
        return not self.members


@dataclass
class MethodContext:
    """Everything the method dispatcher needs besides the episode itself."""

    params: ModelParams
    catalog: FeatureCatalog
    bins: BinTable | None = None
    stat_config: StatWeightConfig = field(default_factory=StatWeightConfig)
    m: int = 64
    seed: int = 0


def prepare_episodes(
    params: ModelParams,
    stats: FeatureStats,
    catalog: FeatureCatalog,
    sequences: Sequence[EventSequence],
) -> list[PreparedEpisode]:
    out = []
    for seq in sequences:
        steps = encode_steps(normalize(seq, stats), catalog)
        risk, _ = forward(params, steps, mode="eval")
        out.append(PreparedEpisode(seq.episode_id, seq, steps, risk))
    return out


def alert_windows(episodes: Sequence[PreparedEpisode], rule: AlertRule) -> list[Window]:
    cohort = select_alert_cohort(((ep.episode_id, ep.risk) for ep in episodes), rule)
    return [
        Window(a.episode_id, a.t0, a.t1, a.t0_time, a.t1_time, source="alert")
        for a in cohort
    ]


def checkpoint_windows(
    episodes: Sequence[PreparedEpisode], interval_hours: float = 3.0
) -> list[Window]:
    """One window per episode at its first positive checkpoint: the steps in
    the checkpoint interval leading up to it. Episodes never positive, or with
    no new steps in that interval, yield no window."""
    out = []
    for ep in episodes:
        c = first_positive_checkpoint(ep.raw, interval_hours)
        if c is None:
            continue
        times = ep.steps.step_time
        t1 = int(np.searchsorted(times, c + 1e-9, side="right"))
        t0 = int(np.searchsorted(times, c - interval_hours * synth.HOUR + 1e-9, side="right"))
        if t1 <= t0:
            continue
        t0_time = float(times[t0 - 1]) if t0 >= 1 else 0.0
        out.append(Window(ep.episode_id, t0, t1, t0_time, float(times[t1 - 1]),
                          source="checkpoint"))
    return out


def window_truth(ep: PreparedEpisode, window: Window) -> WindowTruth:
    return WindowTruth(
        episode_id=window.episode_id,
        t0=window.t0,
        t1=window.t1,
        members=frozenset(ground_truth_set(ep.raw, window.t0, window.t1)),
    )


def explain_window(
    method: str,
    ctx: MethodContext,
    ep: PreparedEpisode,
    window: Window,
    k: int,
    rep: int = 0,
) -> Explanation:
    """Run one attribution method on one window and select its top-k events."""
    t0, t1 = window.t0, window.t1
    if method == "random":
        return random_guess(ep.steps, t0, t1, k, seed=[ctx.seed, _seed_tag(window), rep])
    if method == "gradient":
        a = grad_wrt_inputs(ctx.params, ep.steps, t1)
        return top_k_explanations(time_restrict(a, t0, t1), ep.steps, k)
    if method == "integrated_gradients":
        a = integrated_gradients(ctx.params, ep.steps, t0, t1, m=ctx.m)
        return top_k_explanations(a, ep.steps, k)
    if method == "attention":
        _, weights = attention_forward(ctx.params, ep.steps)
        a = event_weight_matrix(weights, ep.steps, method="attention")
        return top_k_explanations(time_restrict(a, t0, t1), ep.steps, k)
    if method == "discrete_derivative":
        a = discrete_time_derivatives(ep.risk, ep.steps)
        return top_k_explanations(time_restrict(a, t0, t1), ep.steps, k)
    if method in ("odds_ratio", "odds_ratio_diff", "rothman_diff"):
        if ctx.bins is None:
            raise ValueError(f"method {method!r} requires a fitted bin table")
        stat = "rothman" if method.startswith("rothman") else "odds_ratio"
        cfg = StatWeightConfig(
            statistic=stat,
            laplace_alpha=ctx.stat_config.laplace_alpha,
            bins_per_feature=ctx.stat_config.bins_per_feature,
        )
        a = stat_weights(ep.steps, ep.raw, ctx.bins, cfg)
        if method.endswith("_diff"):
            return top_k_explanations(time_diff(a, ep.steps, t0, t1), ep.steps, k)
        return top_k_explanations(time_restrict(a, t0, t1), ep.steps, k)
    raise ValueError(f"unknown method {method!r}; available: {', '.join(METHODS)}")


def _seed_tag(window: Window) -> int:
    # Process-independent per-window tag for seeding (built-in hash is salted).
    key = f"{window.episode_id}:{window.t0}:{window.t1}".encode()
    return zlib.crc32(key)


def precision_at_k(
    explanations: Sequence[Explanation],
    truths: Sequence[WindowTruth],
    catalog: FeatureCatalog,
    k: int,
) -> tuple[float, list[float]]:
    """Per-window |selected ∩ truth| / min(k, |selected|) and its mean.

    Windows with empty truth must be excluded by the caller; an empty selection
    scores 0.
    """
    if len(explanations) != len(truths):
        raise ValueError("explanations and truths must align")
    per_window = []
    for expl, truth in zip(explanations, truths):
        if truth.empty:
            raise ValueError("window with empty truth must be excluded upstream")
        if not expl.items:
            per_window.append(0.0)
            continue
        hits = sum(
            (it.step, catalog.ids[it.feature]) in truth.members for it in expl.items
        )
        per_window.append(hits / min(k, len(expl.items)))
    mean = float(np.mean(per_window)) if per_window else float("nan")
    return mean, per_window


def bootstrap_ci(
    per_window: Sequence[float],
    resamples: int = 2000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean over windows."""
    v = np.asarray(per_window, dtype=float)
    if v.size == 0:
        raise ValueError("per-window list is empty")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(resamples, v.size))
    means = v[idx].mean(axis=1)
    lo_q = (1.0 - level) / 2.0
    return float(np.quantile(means, lo_q)), float(np.quantile(means, 1.0 - lo_q))


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    k: int
    mean_precision: float
    ci_lo: float
    ci_hi: float
    n_windows: int


def run_benchmark(
    episodes: Sequence[PreparedEpisode],
    ctx: MethodContext,
    methods: Sequence[str],
    k: int = 3,
    mode: str = "checkpoint",
    rule: AlertRule | None = None,
    interval_hours: float = 3.0,
    random_repeats: int = 25,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[list[BenchmarkRow], list[Window]]:
    """Mean precision@k with bootstrap CI per method over the evaluated windows.

    ``mode="checkpoint"`` scores the first positive injury checkpoint per
    episode; ``mode="alert"`` scores the alert-rule cohort. Windows with empty
    ground truth are excluded. The random baseline averages ``random_repeats``
    seeded draws per window.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; available: {', '.join(METHODS)}")
    if mode == "checkpoint":
        windows = checkpoint_windows(episodes, interval_hours)
    elif mode == "alert":
        windows = alert_windows(episodes, rule or AlertRule())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    by_id = {ep.episode_id: ep for ep in episodes}
    kept: list[tuple[PreparedEpisode, Window, WindowTruth]] = []
    for w in windows:
        ep = by_id[w.episode_id]
        truth = window_truth(ep, w)
        if not truth.empty:
            kept.append((ep, w, truth))

    rows = []
    for method in methods:
        per_window: list[float] = []
        for ep, w, truth in kept:
            if method == "random":
                reps = []
                for rep in range(random_repeats):
                    expl = explain_window(method, ctx, ep, w, k, rep=rep)
                    p, _ = precision_at_k([expl], [truth], ctx.catalog, k)
                    reps.append(p)
                per_window.append(float(np.mean(reps)))
            else:
                expl = explain_window(method, ctx, ep, w, k)
                p, _ = precision_at_k([expl], [truth], ctx.catalog, k)
                per_window.append(p)
        if not per_window:
            raise ValueError("empty evaluation: no windows left after exclusions")
        lo, hi = bootstrap_ci(per_window, resamples=resamples, seed=seed)
        rows.append(BenchmarkRow(
            method=method, k=k, mean_precision=float(np.mean(per_window)),
            ci_lo=lo, ci_hi=hi, n_windows=len(per_window),
        ))
    return rows, [w for _, w, _ in kept]
