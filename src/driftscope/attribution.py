"""Attribution of risk increases to events in a window.

All methods produce an AttributionMatrix over the full input dimension
(value channels, indicators, delta-time); the weight of the event at step t is
the entry at its active feature's value-channel row. Windows are half-open
step intervals (t0, t1] with 1-based steps; t0 = 0 means episode start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .events import StepSeries
from .model import ModelParams, RiskSeries

# Methods whose weights are ratios; their neutral (no-evidence) weight is 1.
RATIO_METHODS = frozenset({"odds_ratio", "rothman"})


@dataclass(frozen=True)
class AttributionMatrix:
    """Weights a (rows x T). Rows 0..d_features-1 are value channels, one per
    catalog feature; gradient methods also populate indicator/delta rows.
    ``window`` = (t0, t1] when the matrix has been time-restricted."""

    a: np.ndarray
    method: str
    window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.a.ndim != 2:
            raise ValueError("attribution matrix must be 2-D")
        if not np.all(np.isfinite(self.a)):
            raise ValueError("attribution weights must be finite")
        if self.window is not None:
            t0, t1 = self.window
            T = self.a.shape[1]
            if not 0 <= t0 <= t1 <= T:
                raise ValueError(f"invalid window ({t0}, {t1}] for T={T}")
            outside = np.ones(T, dtype=bool)
            outside[t0:t1] = False
            if np.any(self.a[:, outside] != 0.0):
                raise ValueError("entries outside the window must be zero")

    @property
    def T(self) -> int:
        return self.a.shape[1]

    def event_weights(self, steps: StepSeries) -> np.ndarray:
        """Per-step weight: the entry at each step's active feature row."""
        cols = np.arange(self.T)
        return self.a[steps.step_feature, cols]


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
    out[:, t0:t1] = a.a[:, t0:t1]
    return AttributionMatrix(a=out, method=a.method, window=(t0, t1))


def event_weight_matrix(weights: np.ndarray, steps: StepSeries, method: str) -> AttributionMatrix:
    """Place one scalar weight per step on its active feature's value row."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (steps.T,):
        raise ValueError(f"expected {steps.T} weights, got shape {w.shape}")
    a = np.zeros((steps.d, steps.T))
    a[steps.step_feature, np.arange(steps.T)] = w
    return AttributionMatrix(a=a, method=method)


def build_carry_forward_baseline(steps: StepSeries, t0: int) -> StepSeries:
    """Counterfactual input that pretends no value changed after step t0.

    Steps up to t0 are copied verbatim. Afterwards each step keeps its
    measurement pattern (indicator and delta-time channels untouched) but its
    value channel is replaced by the most recent value of the same feature at
    or before t0; features never observed by t0 get 0 (the population mean
    under z-scoring).
    """
    if not 1 <= t0 <= steps.T:
        raise ValueError(f"t0 must be in [1, {steps.T}], got {t0}")
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
    params: ModelParams, steps: StepSeries, t0: int, t1: int, m: int = 64
) -> AttributionMatrix:
    """Path-integrated gradients of p_t1 from the carry-forward baseline.

    Only value channels receive weight: the baseline shares the measurement
    pattern, so the (target - baseline) factor vanishes on indicator and
    delta-time channels. Steps at or before t0 match the baseline and get 0.
    """
    from .model import _risk_gradient_batch

    if not 1 <= t0 < t1 <= steps.T:
        raise ValueError(f"need 1 <= t0 < t1 <= {steps.T}, got t0={t0}, t1={t1}")
    baseline = build_carry_forward_baseline(steps, t0)

    def grad_fn(xs: np.ndarray) -> np.ndarray:
        return _risk_gradient_batch(params, xs, t1)[1]

    a = averaged_gradient_attribution(grad_fn, steps.x, baseline.x, m).T
    out = np.zeros_like(a)
    out[:, t0:t1] = a[:, t0:t1]
    return AttributionMatrix(a=out, method="integrated_gradients", window=(t0, t1))


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
    return event_weight_matrix(deltas, steps, method="discrete_derivative")


def time_diff(
    a: AttributionMatrix,
    steps: StepSeries,
    t0: int,
    t1: int,
) -> AttributionMatrix:
    """Subtract each feature's best weight at or before t0 from its in-window
    weights, so unchanged abnormalities score zero.

    Requires per-event weights (each column's mass on its active feature). A
    feature with no occurrence at or before t0 is differenced against the
    method's neutral weight: 1 for ratio statistics, 0 otherwise.
    """
    if t0 > t1:
        raise ValueError(f"t0={t0} > t1={t1}")
    if t0 < 0 or t1 > a.T:
        raise ValueError(f"window ({t0}, {t1}] out of range for T={a.T}")
    neutral = 1.0 if a.method in RATIO_METHODS else 0.0
    w = a.event_weights(steps)
    baseline: dict[int, float] = {}
    for j in range(t0):
        f = int(steps.step_feature[j])
        baseline[f] = max(baseline[f], w[j]) if f in baseline else w[j]
    out = np.zeros_like(a.a)
    for j in range(t0, t1):
        f = int(steps.step_feature[j])
        out[f, j] = w[j] - baseline.get(f, neutral)
    return AttributionMatrix(a=out, method=f"{a.method}_diff", window=(t0, t1))


def random_guess(
    steps: StepSeries, t0: int, t1: int, k: int, seed
) -> Explanation:
    """Uniform draw of k window events conditioned on pairwise-distinct features.

    Sampling is by rejection over k-subsets of events, which is exactly uniform
    on the distinct-feature subsets. With fewer than k distinct features in the
    window, one event per present feature is returned and flagged short.
    """
    if t0 > t1 or t0 < 0 or t1 > steps.T:
        raise ValueError(f"invalid window ({t0}, {t1}] for T={steps.T}")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    idx = np.arange(t0, t1)
    feats = steps.step_feature[idx]
    distinct = np.unique(feats)
    if len(distinct) < k:
        chosen = []
        for f in distinct:
            candidates = idx[feats == f]
            chosen.append(int(rng.choice(candidates)))
        short = True
    else:
        while True:
            pick = rng.choice(idx, size=k, replace=False)
            if len(set(steps.step_feature[pick])) == k:
                chosen = [int(j) for j in pick]
                break
        short = False
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


def top_k_explanations(a: AttributionMatrix, steps: StepSeries, k: int) -> Explanation:
    """Greedy top-k events by weight, keeping the first event per feature.

    Exact-zero weights never rank (outside-window entries are zero by
    construction). Ties break toward the later step, then the lower feature
    index. Fewer than k nonzero-weight features yields a short explanation.
    """
    if a.window is None:
        raise ValueError("attribution matrix must be time-restricted first")
    if k < 1:
        raise ValueError("k must be >= 1")
    w = a.event_weights(steps)
    candidates = [
        (float(w[j]), j + 1, int(steps.step_feature[j]))
        for j in range(a.T)
        if w[j] != 0.0
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
