"""Attribution of risk increases to events in a window.

Every method produces an AttributionMatrix holding the weights of one window
(t0, t1]: one weight per step, the weight of the event at that step. Windows
are half-open step intervals with 1-based steps; t0 = 0 means episode start.
Weights that do not depend on the window cover the whole episode: (0, T].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .events import StepSeries
from .model import (
    KeptStates,
    ModelParams,
    RiskSeries,
    _check_window,
    _risk_gradient_batch,
    _state_at,
)

# Methods whose weights are ratios; their neutral (no-evidence) weight is 1.
RATIO_METHODS = frozenset({"odds_ratio", "rothman"})

# Path points per call of the batched risk gradient in integrated gradients:
# as many as one call held at the default m, which bounds peak memory at any m.
IG_ROWS = 64
# The adaptive ladder's first rung, in midpoints, and the completeness
# residual in probability units below which a window stops refining.
IG_FIRST_RUNG = 8
IG_TOLERANCE = 1e-4


@dataclass(frozen=True)
class AttributionMatrix:
    """Weights ``a`` (t1 - t0,) of the window ``window`` = (t0, t1]: entry i
    weighs the event at step t0 + i + 1."""

    a: np.ndarray
    method: str
    window: tuple[int, int]

    def __post_init__(self):
        if self.a.ndim != 1:
            raise ValueError("attribution weights must be 1-D, one per step")
        if not np.all(np.isfinite(self.a)):
            raise ValueError("attribution weights must be finite")
        t0, t1 = self.window
        if t0 < 0 or t1 - t0 != len(self.a):
            raise ValueError(f"{len(self.a)} attribution weights for window ({t0}, {t1}]")


@dataclass(frozen=True)
class ExplanationItem:
    step: int       # 1-based
    feature: int    # catalog index
    time: float
    raw: float
    weight: float


@dataclass(frozen=True)
class Explanation:
    """Ranked distinct-feature events; ``short`` flags fewer than k entries."""

    items: tuple[ExplanationItem, ...]
    k: int
    short: bool

    def __post_init__(self):
        feats = [it.feature for it in self.items]
        if len(set(feats)) != len(feats):
            raise ValueError("explanation features must be pairwise distinct")
        weights = [it.weight for it in self.items]
        if any(b > a for a, b in zip(weights, weights[1:])):
            raise ValueError("explanation weights must be non-increasing")
        if len(self.items) > self.k:
            raise ValueError("explanation longer than k")


def time_restrict(a: AttributionMatrix, t0: int, t1: int) -> AttributionMatrix:
    """The weights of the window (t0, t1], which must lie inside ``a.window``:
    a view of ``a.a``."""
    s0, s1 = a.window
    if not s0 <= t0 <= t1 <= s1:
        raise ValueError(f"window ({t0}, {t1}] is not inside ({s0}, {s1}]")
    return AttributionMatrix(a=a.a[t0 - s0 : t1 - s0], method=a.method, window=(t0, t1))


def _window_weights(g: np.ndarray, steps: StepSeries, t0: int, t1: int,
                    method: str) -> AttributionMatrix:
    """The weights of the window (t0, t1] from input gradients ``g``
    (t1 - t0, d), one row per window step: each step keeps the entry at its
    own feature's value channel, the channel that holds its event's value."""
    a = g[np.arange(t1 - t0), steps.step_feature[t0:t1]]
    return AttributionMatrix(a=a, method=method, window=(t0, t1))


def build_carry_forward_baseline(steps: StepSeries, t0: int) -> StepSeries:
    """Counterfactual input that pretends no value changed after step t0.

    Steps up to t0 are kept verbatim. Afterwards each step keeps its
    measurement pattern (feature and delta-time untouched) but its value is
    replaced by the most recent value of the same feature at or before t0;
    features never observed by t0 get 0 (the population mean under
    z-scoring), so at t0 = 0 every value is 0. Only ``step_value`` is new.
    """
    if not 0 <= t0 <= steps.T:
        raise ValueError(f"t0 must be in [0, {steps.T}], got {t0}")
    value = steps.step_value.copy()
    last = np.full(steps.d_features, -1)  # each feature's last index among steps 1..t0
    np.maximum.at(last, steps.step_feature[:t0], np.arange(t0))
    carried = np.where(last >= 0, value[last], 0.0)
    value[t0:] = carried[steps.step_feature[t0:]]
    return replace(steps, step_value=value)


def integrated_gradients(
    params: ModelParams, steps: StepSeries, t0: int, t1: int, m: int,
    states: KeptStates | None = None, weights: np.ndarray | None = None,
) -> AttributionMatrix:
    """Path-integrated gradients of p_t1 from the carry-forward baseline.

    Each step's weight is its entry at its own feature's value channel: the
    baseline shares the measurement pattern, so the (target - baseline)
    factor vanishes on every other channel. Every path point equals the input
    up to step t0, so the m path points are scanned over (t0, t1] only, from
    the state at t0, which is scanned from the latest of ``states`` at or
    before t0 (from step 0 without them). ``weights`` are the window's
    weights when already computed (``IGPath.weights``).
    """
    _check_window(steps.T, t0, t1)
    if weights is not None:
        return AttributionMatrix(weights, "integrated_gradients", (t0, t1))
    if m < 1:
        raise ValueError("m must be >= 1")
    x, b = steps.rows(t0, t1), build_carry_forward_baseline(steps, t0).rows(t0, t1)
    path = _fixed_m_path(params, x, b, _state_at(params, steps, t0, states), m)
    return _window_weights(path, steps, t0, t1, "integrated_gradients")


@dataclass(frozen=True)
class IGPath:
    """A window's integrated-gradient weights (t1 - t0,) at the rung of
    ``points`` midpoints it stopped at, after ``used`` path points in all,
    and their completeness residual |sum - (p_t1(x) - p_t1(baseline))|."""

    weights: np.ndarray
    points: int
    used: int
    residual: float


def _rung_alphas(rung: int, nested: bool) -> np.ndarray:
    """The path fractions of the midpoints that a rung computes: all of them,
    or, after the rung of rung / 3 points, the two in three that rung lacks
    ((i + 1/2) / r = (3i + 3/2) / (3r))."""
    j = np.arange(rung)
    return ((j[j % 3 != 1] if nested else j) + 0.5) / rung


def adaptive_integrated_gradients(
    params: ModelParams,
    windows: Sequence[tuple[StepSeries, int, int, KeptStates | None]],
    m: int,
) -> list[IGPath]:
    """The integrated gradients of each window (steps, t0, t1, states), with
    as many midpoints as completeness asks for and at most m.

    Each window starts at ``IG_FIRST_RUNG`` midpoints and triples them while
    the tripled count stays below m; each rung reuses every point of the one
    before. A window stops at the first rung whose completeness residual is
    below ``IG_TOLERANCE``. One that never does ends with a fresh m-point
    rung computed as ``integrated_gradients`` computes it, so its weights are
    the fixed-m weights bit for bit. The rows of a rung, over all windows
    still refining in order of length, run as calls of ``IG_ROWS`` rows of
    the model's window-row core; the first rung adds each window's two
    endpoints, its input and its baseline, whose risks give the residual.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    xs, bs, starts = [], [], []
    for steps, t0, t1, states in windows:
        _check_window(steps.T, t0, t1)
        xs.append(steps.rows(t0, t1))
        bs.append(build_carry_forward_baseline(steps, t0).rows(t0, t1))
        starts.append(_state_at(params, steps, t0, states))
    rungs = []  # the nested rungs, all below m
    while (rung := IG_FIRST_RUNG * 3 ** len(rungs)) < m:
        rungs.append(rung)
    active = sorted(range(len(windows)), key=lambda i: len(xs[i]))
    change = [0.0] * len(windows)  # p_t1(x) - p_t1(baseline)
    sums: list = [None] * len(windows)  # gradient sums over the points so far
    out: list[IGPath | None] = [None] * len(windows)

    def finish(i: int, path: np.ndarray, points: int, used: int) -> None:
        steps, t0, t1, _ = windows[i]
        a = _window_weights(path, steps, t0, t1, "integrated_gradients").a
        out[i] = IGPath(a, points, used, abs(float(a.sum()) - change[i]))

    for depth, rung in enumerate(rungs or [0]):  # with no nested rung, the endpoints alone
        alphas = _rung_alphas(rung, nested=depth > 0)
        blocks = []  # (window, path fractions of its rows; None for its endpoints)
        for i in active:
            if depth == 0:
                blocks.append((i, None))
            if rung:
                blocks.append((i, alphas))
        grads, risks = _block_gradients(params, blocks, xs, bs, starts)
        for (i, alphas), g, p in zip(blocks, grads, risks):
            if alphas is None:
                change[i] = p[0] - p[1]
            else:
                sums[i] = g if sums[i] is None else sums[i] + g
        if rung:
            refining = []
            for i in active:
                finish(i, (xs[i] - bs[i]) * (sums[i] / rung), rung, rung)
                if not out[i].residual < IG_TOLERANCE:
                    refining.append(i)
            active = refining
    for i in active:
        finish(i, _fixed_m_path(params, xs[i], bs[i], starts[i], m), m,
               (rungs[-1] if rungs else 0) + m)
    return out


def _fixed_m_path(params: ModelParams, x: np.ndarray, b: np.ndarray, state, m: int) -> np.ndarray:
    """Integrated gradients (L, d) of the window inputs ``x`` from the
    baseline inputs ``b`` at m fresh midpoints, every point scanned from
    ``state``: one block of ``_block_gradients``, alone in its calls."""
    (g,), _ = _block_gradients(params, [(0, _rung_alphas(m, nested=False))], [x], [b], [state])
    return (x - b) * (g / m)


def _path_rows(x: np.ndarray, b: np.ndarray, alphas: np.ndarray):
    """The points (L, d) at the fractions ``alphas`` of the way from the
    window inputs ``x`` toward the baseline ``b``, one at a time."""
    for a in alphas:
        yield x + a * (b - x)


def _block_gradients(params: ModelParams, blocks, xs, bs, starts):
    """For each block (window i, alphas), the sum over its rows of the risk
    gradients (L, d), and for each block of endpoints the rows' risks. The
    rows are the points of window i at the fractions ``alphas`` of the way
    from its inputs ``xs[i]`` toward its baseline ``bs[i]``, or, for alphas
    None, those two endpoints. The rows of all blocks run in order as calls
    of at most ``IG_ROWS`` rows of ``_risk_gradient_batch``, each from its
    window's state ``starts[i]``; each row is built as the call copies it in,
    which bounds memory at any number of rows."""
    grads: list = [None] * len(blocks)
    risks: list[list[float]] = [[] for _ in blocks]
    rows = ((k, j) for k, (_, alphas) in enumerate(blocks)
            for j in range(2 if alphas is None else len(alphas)))
    for call in iter(lambda: list(itertools.islice(rows, IG_ROWS)), []):
        runs = []  # (block k, first row, end row)
        for k, run in itertools.groupby(call, key=lambda row: row[0]):
            js = [j for _, j in run]
            runs.append((k, js[0], js[-1] + 1))
        lengths, parts, states = [], [], []
        for k, j0, j1 in runs:
            i, alphas = blocks[k]
            lengths += [len(xs[i])] * (j1 - j0)
            parts.append([xs[i], bs[i]][j0:j1] if alphas is None
                         else _path_rows(xs[i], bs[i], alphas[j0:j1]))
            states += [starts[i]] * (j1 - j0)
        g, p = _risk_gradient_batch(params, lengths, itertools.chain.from_iterable(parts), states)
        lo = 0
        for k, j0, j1 in runs:
            i, alphas = blocks[k]
            hi = lo + j1 - j0
            if alphas is None:
                risks[k].extend(p[lo:hi].tolist())
            else:
                part = g[: len(xs[i]), lo:hi].sum(axis=1)
                grads[k] = part if grads[k] is None else grads[k] + part
            lo = hi
        del g, p  # freed before the next call, which keeps peak memory down
    return grads, risks


def discrete_time_derivatives(risk: RiskSeries, steps: StepSeries) -> AttributionMatrix:
    """Assign the risk change p_t - p_{t-1} to the single event at step t.

    Step 1 is differenced against the model output on the empty prefix, so
    window sums telescope exactly from episode start.
    """
    if risk.T != steps.T:
        raise ValueError("risk and steps disagree on T")
    deltas = np.empty(steps.T)
    if steps.T:
        deltas[0] = risk.p[0] - risk.p_base
        deltas[1:] = risk.p[1:] - risk.p[:-1]
    return AttributionMatrix(deltas, method="discrete_derivative", window=(0, steps.T))


def time_diff(
    a: AttributionMatrix,
    steps: StepSeries,
    t0: int,
    t1: int,
) -> AttributionMatrix:
    """Subtract each feature's best weight at or before t0 from its in-window
    weights, so unchanged abnormalities score zero. ``a`` holds weights from
    episode start, window (0, s1] with t1 <= s1.

    A feature with no occurrence at or before t0 is differenced against the
    method's neutral weight: 1 for ratio statistics, 0 otherwise.
    """
    s0, s1 = a.window
    if not s0 == 0 <= t0 <= t1 <= s1 <= steps.T:
        raise ValueError(f"cannot difference window ({t0}, {t1}] from weights over "
                         f"({s0}, {s1}] of {steps.T} steps")
    neutral = 1.0 if a.method in RATIO_METHODS else 0.0
    best = np.full(steps.d_features, -np.inf)
    np.maximum.at(best, steps.step_feature[:t0], a.a[:t0])
    best[best == -np.inf] = neutral  # weights are finite: -inf marks an absent feature
    out = a.a[t0:t1] - best[steps.step_feature[t0:t1]]
    return AttributionMatrix(a=out, method=f"{a.method}_diff", window=(t0, t1))


def random_guess(
    steps: StepSeries, t0: int, t1: int, k: int, seed
) -> Explanation:
    """Uniform draw of k window events conditioned on pairwise-distinct features.

    A set of k distinct features covers as many event subsets as the product
    of its features' event counts, so the features are drawn with that weight
    (``_weighted_subset``) and then one event uniformly within each. This is
    exactly uniform on the distinct-feature subsets, in O(k * #features) time.
    With fewer than k distinct features in the window, one event per present
    feature is returned and flagged short.
    """
    if t0 > t1 or t0 < 0 or t1 > steps.T:
        raise ValueError(f"invalid window ({t0}, {t1}] for T={steps.T}")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    idx = np.arange(t0, t1)
    feats = steps.step_feature[idx]
    order = np.argsort(feats, kind="stable")  # events grouped by feature, in step order
    counts = np.bincount(feats)
    present = np.flatnonzero(counts)
    short = len(present) < k
    picked = present if short else present[_weighted_subset(counts[present], k, rng)]
    offsets = (np.cumsum(counts) - counts)[picked] + rng.integers(counts[picked])
    chosen = [int(j) for j in idx[order[offsets]]]
    chosen.sort(reverse=True)  # recency order; all weights are 0
    items = tuple(
        ExplanationItem(
            step=j + 1,
            feature=int(steps.step_feature[j]),
            time=float(steps.step_time[j]),
            raw=float(steps.step_raw[j]),
            weight=0.0,
        )
        for j in chosen
    )
    return Explanation(items=items, k=k, short=short)


def _weighted_subset(weights, k: int, rng: np.random.Generator) -> list[int]:
    """Indices of a k-subset drawn with probability proportional to the
    product of its integer weights (conditional Poisson sampling; Chen,
    Dempster & Liu 1994). ``e[i][r]``, the elementary symmetric polynomial of
    degree r over weights i.., is exact in Python ints; item i is kept with
    probability w_i * e[i+1][r-1] / e[i][r] while r items are still needed."""
    w = [int(x) for x in weights]
    n = len(w)
    e = [[1] + [0] * k for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for r in range(1, k + 1):
            e[i][r] = e[i + 1][r] + w[i] * e[i + 1][r - 1]
    u = rng.random(n).tolist()
    out: list[int] = []
    for i in range(n):
        r = k - len(out)
        if r == 0:
            break
        if u[i] < w[i] * e[i + 1][r - 1] / e[i][r]:
            out.append(i)
    return out


def top_k_explanations(a: AttributionMatrix, steps: StepSeries, k: int) -> Explanation:
    """Greedy top-k events of the window by weight, keeping the first event
    per feature.

    Exact-zero weights never rank. Ties break toward the later step (each
    step holds one event, so no tie reaches the feature index). Fewer than k
    nonzero-weight features yields a short explanation.
    """
    t0, t1 = a.window
    if t1 > steps.T:
        raise ValueError(f"window ({t0}, {t1}] out of range for T={steps.T}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = np.flatnonzero(a.a)
    ranked = t0 + ranked[np.lexsort((-ranked, -a.a[ranked]))]  # weight, then step, descending
    items: list[ExplanationItem] = []
    seen: set[int] = set()
    for j, feature in zip(ranked.tolist(), steps.step_feature[ranked].tolist()):
        if feature in seen:
            continue
        seen.add(feature)
        items.append(ExplanationItem(step=j + 1, feature=feature, time=float(steps.step_time[j]),
                                     raw=float(steps.step_raw[j]), weight=float(a.a[j - t0])))
        if len(items) == k:
            break
    return Explanation(items=tuple(items), k=k, short=len(items) < k)
