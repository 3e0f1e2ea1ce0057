"""Attribution of risk increases to events in a window.

Every method produces an AttributionMatrix holding one weight per step: the
weight of the event at that step. Windows are half-open step intervals
(t0, t1] with 1-based steps; t0 = 0 means episode start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .events import StepSeries
from .model import KeptStates, ModelParams, RiskSeries, _restart, _risk_gradient_batch

# Methods whose weights are ratios; their neutral (no-evidence) weight is 1.
RATIO_METHODS = frozenset({"odds_ratio", "rothman"})


@dataclass(frozen=True)
class AttributionMatrix:
    """Weights ``a`` (T,): entry j weighs the event at step j + 1.
    ``window`` = (t0, t1] when the weights have been time-restricted; entries
    outside it are then zero."""

    a: np.ndarray
    method: str
    window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.a.ndim != 1:
            raise ValueError("attribution weights must be 1-D, one per step")
        if not np.all(np.isfinite(self.a)):
            raise ValueError("attribution weights must be finite")
        if self.window is not None:
            t0, t1 = self.window
            if not 0 <= t0 <= t1 <= self.T:
                raise ValueError(f"invalid window ({t0}, {t1}] for T={self.T}")
            if np.any(self.a[:t0] != 0.0) or np.any(self.a[t1:] != 0.0):
                raise ValueError("entries outside the window must be zero")

    @property
    def T(self) -> int:
        return self.a.shape[0]


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
    """Zero all weights outside the window (t0, t1] and record the window."""
    if t0 > t1:
        raise ValueError(f"t0={t0} > t1={t1}")
    if t0 < 0 or t1 > a.T:
        raise ValueError(f"window ({t0}, {t1}] out of range for T={a.T}")
    out = np.zeros_like(a.a)
    out[t0:t1] = a.a[t0:t1]
    return AttributionMatrix(a=out, method=a.method, window=(t0, t1))


def _window_weights(g: np.ndarray, steps: StepSeries, t0: int, t1: int,
                    method: str) -> AttributionMatrix:
    """The weights of the window (t0, t1] from input gradients ``g``
    (t1 - t0, d), one row per window step: each step keeps the entry at its
    own feature's value channel, the channel that holds its event's value."""
    a = np.zeros(steps.T)
    a[t0:t1] = g[np.arange(t1 - t0), steps.step_feature[t0:t1]]
    return AttributionMatrix(a=a, method=method, window=(t0, t1))


def build_carry_forward_baseline(steps: StepSeries, t0: int) -> StepSeries:
    """Counterfactual input that pretends no value changed after step t0.

    Steps up to t0 are copied verbatim. Afterwards each step keeps its
    measurement pattern (indicator and delta-time channels untouched) but its
    value channel is replaced by the most recent value of the same feature at
    or before t0; features never observed by t0 get 0 (the population mean
    under z-scoring), so at t0 = 0 every value channel is 0.
    """
    if not 0 <= t0 <= steps.T:
        raise ValueError(f"t0 must be in [0, {steps.T}], got {t0}")
    x = steps.x.copy()
    last: dict[int, float] = {}
    for j in range(t0):
        f = int(steps.step_feature[j])
        last[f] = x[j, f]
    for j in range(t0, steps.T):
        f = int(steps.step_feature[j])
        x[j, f] = last.get(f, 0.0)
    return replace(steps, x=x)


def averaged_gradient_attribution(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x_target: np.ndarray,
    x_baseline: np.ndarray,
    m: int,
) -> np.ndarray:
    """Midpoint-rule average of gradients along the segment baseline->target,
    multiplied elementwise by (target - baseline).

    ``grad_fn`` maps a stacked batch (B, T, d) of input sequences to gradients
    of the explained quantity, shape (B, T, d). Exact at any m >= 1 when the
    explained quantity is quadratic in the inputs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    alphas = (np.arange(m) + 0.5) / m  # fraction of the way toward the baseline
    xs = x_target[None] + alphas[:, None, None] * (x_baseline - x_target)[None]
    grads = grad_fn(xs)
    return (x_target - x_baseline) * grads.mean(axis=0)


def integrated_gradients(
    params: ModelParams, steps: StepSeries, t0: int, t1: int, m: int = 64,
    states: KeptStates | None = None,
) -> AttributionMatrix:
    """Path-integrated gradients of p_t1 from the carry-forward baseline.

    Each step's weight is its entry at its own feature's value channel: the
    baseline shares the measurement pattern, so the (target - baseline)
    factor vanishes on every other channel. Every path point equals the input
    up to step t0, so those steps get 0 and the m path points are scanned over
    (t0, t1] only, from the state at t0, which is scanned from the latest of
    ``states`` at or before t0 (from step 0 without them).
    """
    if not 0 <= t0 < t1 <= steps.T:
        raise ValueError(f"need 0 <= t0 < t1 <= {steps.T}, got t0={t0}, t1={t1}")
    baseline = build_carry_forward_baseline(steps, t0)
    s, state = _restart(states, t0)

    def grad_fn(xs: np.ndarray) -> np.ndarray:  # (m, L, d) path points of the window
        return _risk_gradient_batch(params, steps.x[s:t0], xs.transpose(1, 0, 2),
                                    state).transpose(1, 0, 2)

    g = averaged_gradient_attribution(grad_fn, steps.x[t0:t1], baseline.x[t0:t1], m)
    return _window_weights(g, steps, t0, t1, "integrated_gradients")


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
    return AttributionMatrix(deltas, method="discrete_derivative")


def time_diff(
    a: AttributionMatrix,
    steps: StepSeries,
    t0: int,
    t1: int,
) -> AttributionMatrix:
    """Subtract each feature's best weight at or before t0 from its in-window
    weights, so unchanged abnormalities score zero.

    A feature with no occurrence at or before t0 is differenced against the
    method's neutral weight: 1 for ratio statistics, 0 otherwise.
    """
    if a.T != steps.T:
        raise ValueError(f"{a.T} attribution weights for {steps.T} steps")
    if t0 > t1:
        raise ValueError(f"t0={t0} > t1={t1}")
    if t0 < 0 or t1 > a.T:
        raise ValueError(f"window ({t0}, {t1}] out of range for T={a.T}")
    neutral = 1.0 if a.method in RATIO_METHODS else 0.0
    baseline: dict[int, float] = {}
    for j in range(t0):
        f = int(steps.step_feature[j])
        baseline[f] = max(baseline[f], a.a[j]) if f in baseline else a.a[j]
    out = np.zeros_like(a.a)
    for j in range(t0, t1):
        out[j] = a.a[j] - baseline.get(int(steps.step_feature[j]), neutral)
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
    """Greedy top-k events by weight, keeping the first event per feature.

    Exact-zero weights never rank (outside-window entries are zero by
    construction). Ties break toward the later step, then the lower feature
    index. Fewer than k nonzero-weight features yields a short explanation.
    """
    if a.window is None:
        raise ValueError("attribution matrix must be time-restricted first")
    if a.T != steps.T:
        raise ValueError(f"{a.T} attribution weights for {steps.T} steps")
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = [
        (float(a.a[j]), j + 1, int(steps.step_feature[j]))
        for j in range(a.T)
        if a.a[j] != 0.0
    ]
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))
    items = []
    seen: set[int] = set()
    for weight, step, feature in candidates:
        if feature in seen:
            continue
        seen.add(feature)
        j = step - 1
        items.append(ExplanationItem(
            step=step, feature=feature, time=float(steps.step_time[j]),
            raw=float(steps.step_raw[j]), weight=weight,
        ))
        if len(items) == k:
            break
    return Explanation(items=tuple(items), k=k, short=len(items) < k)
