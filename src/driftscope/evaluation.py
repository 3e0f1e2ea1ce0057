"""Explanation quality harness: windows, method dispatch, precision, bootstrap.

A window is an (episode, t0, t1] interval whose explanation is scored against
the set of signal-feature steps inside it. Windows come either from the alert
rule or from fixed injury checkpoints (first positive checkpoint per episode).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import synth
from .alerts import AlertRule, _step_at_or_before, select_alert_cohort
from .attribution import (
    AttributionMatrix,
    Explanation,
    IGPath,
    adaptive_integrated_gradients,
    discrete_time_derivatives,
    integrated_gradients,
    random_guess,
    time_diff,
    time_restrict,
    top_k_explanations,
)
from .bin_stats import BinTable, _quantiles, stat_weights
from .events import EventSequence, FeatureCatalog, FeatureStats, StepSeries, encode_steps
from .model import (
    KeptStates,
    ModelParams,
    RiskSeries,
    StepBatch,
    _length_chunks,
    attention_forward,
    forward,
    grad_wrt_inputs,
)
from .synth import first_positive_checkpoint, ground_truth_set

# Events per explanation, and bootstrap resamples per precision interval,
# when none are asked for.
TOP_K = 3
RESAMPLES = 2000

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
    """The raw episode, its model encoding, and what explain reads of its one
    eval scan: the risk series, every ceil(sqrt(T))-th LSTM state and the
    attention weights (None for a model without an attention head)."""

    episode_id: str
    raw: EventSequence
    steps: StepSeries
    risk: RiskSeries
    states: KeptStates
    attention: np.ndarray | None


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
    window: Window
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
    m: int = 64
    seed: int = 0


def prepare_episodes(
    params: ModelParams,
    stats: FeatureStats,
    catalog: FeatureCatalog,
    sequences: Sequence[EventSequence],
) -> list[PreparedEpisode]:
    """Encode each episode and run its eval scan, in batches of
    ``model.EVAL_BATCH`` episodes of similar length. Only copies of each
    scan's kept states and attention weights outlive it, so a batch's cache is
    freed before the next batch runs. Episodes are returned in input order."""
    encoded = [encode_steps(seq, catalog, stats) for seq in sequences]
    out: list[PreparedEpisode | None] = [None] * len(sequences)
    for chunk in _length_chunks([s.T for s in encoded]):
        risks, cache = forward(params, StepBatch([encoded[i] for i in chunk]), mode="eval")
        for b, (i, risk) in enumerate(zip(chunk, risks)):
            h, c = cache.h[: risk.T, b], cache.c[: risk.T, b]
            attention = None if params.w_att is None else attention_forward(params, h)[1]
            out[i] = PreparedEpisode(sequences[i].episode_id, sequences[i], encoded[i], risk,
                                     KeptStates.of_scan(h, c), attention)
        del cache, h, c  # freed before the next batch's scan, which keeps peak memory down
    return out


def alert_windows(episodes: Sequence[PreparedEpisode], rule: AlertRule) -> list[Window]:
    cohort = select_alert_cohort(((ep.episode_id, ep.risk) for ep in episodes), rule)
    return [
        Window(a.episode_id, a.t0, a.t1, a.t0_time, a.t1_time, source="alert")
        for a in cohort
    ]


def checkpoint_windows(episodes: Sequence[PreparedEpisode]) -> list[Window]:
    """One window per episode at its first positive checkpoint: the steps in
    the checkpoint interval leading up to it. Episodes never positive, or with
    no new steps in that interval, yield no window."""
    out = []
    for ep in episodes:
        c = first_positive_checkpoint(ep.raw)
        if c is None:
            continue
        times = ep.steps.step_time
        t1 = _step_at_or_before(times, c) + 1
        t0 = _step_at_or_before(times, c - synth.CHECKPOINT_INTERVAL_H * synth.HOUR) + 1
        if t1 <= t0:
            continue
        t0_time = float(times[t0 - 1]) if t0 >= 1 else 0.0
        out.append(Window(ep.episode_id, t0, t1, t0_time, float(times[t1 - 1]),
                          source="checkpoint"))
    return out


def window_truth(seq: EventSequence | PreparedEpisode, window: Window) -> WindowTruth:
    """The window with the ground truth of its episode's raw events (a
    prepared episode's ``raw``)."""
    if isinstance(seq, PreparedEpisode):
        seq = seq.raw
    return WindowTruth(window, frozenset(ground_truth_set(seq, window.t0, window.t1)))


def explain_windows(
    ctx: MethodContext,
    episodes: Sequence[PreparedEpisode],
    windows: Sequence[Window],
    methods: Sequence[str],
    k: int,
    random_repeats: int = 1,
    ig_paths: list[IGPath] | None = None,
) -> Iterator[tuple[Window, str, list[Explanation]]]:
    """Explain each window with each method, in order, episode by episode:
    weights that are the same in every window of an episode are computed once
    for its run of windows, and the ``gradient`` and ``integrated_gradients``
    weights of all windows first, in batches (``grad_wrt_inputs``,
    ``adaptive_integrated_gradients`` with ``ctx.m`` as the cap). ``random``
    gives ``random_repeats`` draws, others one. ``ig_paths``, when given,
    receives each window's IGPath."""
    by_id = {ep.episode_id: ep for ep in episodes}
    pairs = [(by_id[w.episode_id], w) for w in windows]
    batched = {}  # method -> each window's weights
    if "gradient" in methods:
        batched["gradient"] = [a.a for a in grad_wrt_inputs(
            ctx.params, StepBatch([ep.steps for ep, _ in pairs]), [w.t1 for _, w in pairs],
            [w.t0 for _, w in pairs], [ep.states for ep, _ in pairs])]
    if "integrated_gradients" in methods:
        paths = adaptive_integrated_gradients(
            ctx.params, [(ep.steps, w.t0, w.t1, ep.states) for ep, w in pairs], ctx.m)
        if ig_paths is not None:
            ig_paths.extend(paths)
        batched["integrated_gradients"] = [p.weights for p in paths]
    for episode_id, run in itertools.groupby(enumerate(windows), key=lambda iw: iw[1].episode_id):
        ep, shared = by_id[episode_id], {}
        for i, w in run:
            for method in methods:
                weights = batched[method][i] if method in batched else None
                reps = random_repeats if method == "random" else 1
                yield w, method, [explain_window(method, ctx, ep, w, k, rep, shared, weights)
                                  for rep in range(reps)]


def explain_window(
    method: str,
    ctx: MethodContext,
    ep: PreparedEpisode,
    window: Window,
    k: int,
    rep: int = 0,
    shared: dict[str, AttributionMatrix] | None = None,
    weights: np.ndarray | None = None,
) -> Explanation:
    """Run one attribution method on one window and select its top-k events.
    ``shared`` keeps the episode's window-independent weights between calls.
    ``weights`` (t1 - t0,) are the window's ``gradient`` or
    ``integrated_gradients`` weights, which those two methods require:
    ``explain_windows`` computes them for all windows in batches."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; available: {', '.join(METHODS)}")
    t0, t1 = window.t0, window.t1
    if method == "random":
        return random_guess(ep.steps, t0, t1, k, seed=[ctx.seed, _seed_tag(window), rep])
    if method in ("gradient", "integrated_gradients"):
        if weights is None:
            raise ValueError(f"method {method!r} requires the window's precomputed weights")
        a = (AttributionMatrix(weights, method, (t0, t1)) if method == "gradient" else
             integrated_gradients(ctx.params, ep.steps, t0, t1, m=ctx.m, states=ep.states,
                                  weights=weights))
        return top_k_explanations(a, ep.steps, k)
    shared = {} if shared is None else shared
    key = method.removesuffix("_diff")  # a statistic's two methods share its weights
    if key not in shared:
        if key == "attention":
            if ep.attention is None:
                raise ValueError("method 'attention' requires a model with an attention head")
            shared[key] = AttributionMatrix(ep.attention, "attention", (0, ep.steps.T))
        elif key == "discrete_derivative":
            shared[key] = discrete_time_derivatives(ep.risk, ep.steps)
        elif ctx.bins is None:
            raise ValueError(f"method {method!r} requires a fitted bin table")
        else:
            shared[key] = stat_weights(ep.steps, ctx.catalog, ctx.bins, key)
    if method.endswith("_diff"):
        return top_k_explanations(time_diff(shared[key], ep.steps, t0, t1), ep.steps, k)
    return top_k_explanations(time_restrict(shared[key], t0, t1), ep.steps, k)


def _seed_tag(window: Window) -> int:
    # Process-independent per-window tag for seeding (built-in hash is salted).
    key = f"{window.episode_id}:{window.t0}:{window.t1}".encode()
    return zlib.crc32(key)


def window_precision(
    selected: Sequence[tuple[int, str]], truth: AbstractSet[tuple[int, str]], k: int
) -> float:
    """|selected ∩ truth| / min(k, |selected|) over (step, feature id) pairs.

    An empty selection scores 0. Windows with empty truth must be excluded
    first (see ``scorable``).
    """
    if not truth:
        raise ValueError("window with empty truth must be excluded upstream")
    if not selected:
        return 0.0
    hits = sum(item in truth for item in selected)
    return hits / min(k, len(selected))


def scorable(truths: Iterable[WindowTruth]) -> list[WindowTruth]:
    """The windows that can be scored: those with non-empty ground truth."""
    kept = [t for t in truths if not t.empty]
    if not kept:
        raise ValueError("empty evaluation: no windows with ground truth")
    return kept


def bootstrap_ci(
    per_window: Sequence[float], resamples: int, seed: int = 0
) -> tuple[float, float]:
    """95% percentile bootstrap interval for the mean over windows."""
    v = np.asarray(per_window, dtype=float)
    if v.size == 0:
        raise ValueError("per-window list is empty")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(resamples, v.size))
    means = v[idx].mean(axis=1)
    lo_q = (1.0 - 0.95) / 2.0
    lo, hi = _quantiles(np.sort(means), np.array([lo_q, 1.0 - lo_q]))
    return float(lo), float(hi)


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    k: int
    mean_precision: float
    ci_lo: float
    ci_hi: float
    n_windows: int


def score_windows(
    kept: Sequence[WindowTruth],
    picks: Mapping[tuple[Window, str], Sequence[Sequence[tuple[int, str]]]],
    methods: Sequence[str],
    k: int,
    resamples: int,
    seed: int,
) -> list[BenchmarkRow]:
    """Each method's mean precision@k over the scorable windows ``kept``, with
    its bootstrap interval. ``picks[(window, method)]``, given for every kept
    window and method, holds that window's selections of (step, feature id)
    pairs; a window scores the mean precision of its selections."""
    rows = []
    for method in methods:
        per_window = [float(np.mean([window_precision(sel, t.members, k)
                                     for sel in picks[t.window, method]])) for t in kept]
        lo, hi = bootstrap_ci(per_window, resamples=resamples, seed=seed)
        rows.append(BenchmarkRow(method, k, float(np.mean(per_window)), lo, hi, len(per_window)))
    return rows


def run_benchmark(
    episodes: Sequence[PreparedEpisode],
    ctx: MethodContext,
    methods: Sequence[str],
    k: int,
    resamples: int,
    mode: str = "checkpoint",
    random_repeats: int = 25,
    seed: int = 0,
) -> tuple[list[BenchmarkRow], list[Window]]:
    """Mean precision@k with bootstrap CI per method over the first positive
    injury checkpoint of each episode, the only ``mode``. Windows with empty
    ground truth are excluded. The random baseline averages ``random_repeats``
    seeded draws per window. A method listed twice gets one row; an unknown
    method raises ValueError.
    """
    if mode != "checkpoint":
        raise ValueError(f"unknown mode {mode!r}")
    by_id = {ep.episode_id: ep for ep in episodes}
    kept = scorable(window_truth(by_id[w.episode_id], w) for w in checkpoint_windows(episodes))
    windows = [t.window for t in kept]
    methods = list(dict.fromkeys(methods))
    picks = {(w, method): [[(it.step, ctx.catalog.ids[it.feature]) for it in e.items]
                           for e in expls]
             for w, method, expls in explain_windows(ctx, episodes, windows, methods, k,
                                                     random_repeats)}
    return score_windows(kept, picks, methods, k, resamples, seed), windows
