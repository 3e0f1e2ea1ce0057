"""Gated recurrent risk model with handwritten reverse-mode differentiation.

A single LSTM cell maps the step encoding to a per-step risk probability via a
scalar output projection. One forward scan over a batch of sequences records
the gate activations and cell states; one reverse sweep over them gives exact
gradients for both parameters and inputs, so training and attribution code
(d(p_t1)/d(x_t)) share a single core. Training uses Adam with
global-norm clipping, inverted dropout with cached masks, and early stopping on
validation loss. An optional bilinear attention head over the hidden states is
fitted after the recurrent trunk, with the trunk frozen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence

import numpy as np

from .events import FeatureCatalog, FeatureStats, StepSeries
from .tables import atomic_open, read_json

P_CLAMP = 1e-7


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int = 64
    input_dropout: float = 0.03
    output_dropout: float = 0.02
    recurrent_dropout: float = 0.01
    learning_rate: float = 0.002
    batch_size: int = 16
    clip_norm: float = 6.0
    eta: float = 0.0  # smoothing coefficient on squared risk first-differences
    max_epochs: int = 20
    seed: int = 0
    patience: int = 3
    attention: bool = True

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be positive")
        for name in ("input_dropout", "output_dropout", "recurrent_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not math.isfinite(self.clip_norm) or self.clip_norm <= 0:
            raise ValueError("clip_norm must be finite and positive")
        if not math.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be finite and non-negative")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be positive")


@dataclass
class ModelParams:
    """LSTM weights with gate rows ordered [input; forget; cell; output]."""

    w_gates: np.ndarray  # (4H, d)
    u_gates: np.ndarray  # (4H, H)
    b_gates: np.ndarray  # (4H,)
    w_out: np.ndarray    # (H,)
    b_out: np.ndarray    # (1,)
    w_att: np.ndarray | None = None  # (H, H) bilinear attention projection

    @property
    def hidden_size(self) -> int:
        return self.u_gates.shape[1]

    @property
    def d(self) -> int:
        return self.w_gates.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        """The weight arrays by name, in field order, without an absent head."""
        return {name: a for name, a in vars(self).items() if a is not None}


def _shapes(H: int, d: int, attention: bool) -> dict[str, tuple[int, ...]]:
    """The shape of each weight array of ModelParams, in field order."""
    shapes = {"w_gates": (4 * H, d), "u_gates": (4 * H, H), "b_gates": (4 * H,),
              "w_out": (H,), "b_out": (1,), "w_att": (H, H)}
    if not attention:
        del shapes["w_att"]
    return shapes


@dataclass(frozen=True)
class RiskSeries:
    """Per-step probabilities with their step-to-wall-clock mapping.

    ``p_base`` is the model output on the empty prefix (the projection of the
    initial hidden state), used as p_0 when differencing risks from episode
    start.
    """

    p: np.ndarray
    logits: np.ndarray
    step_time: np.ndarray
    p_base: float

    @property
    def T(self) -> int:
        return self.p.shape[0]


class StepBatch:
    """Step series that run as one batch, right-padded with zero steps.

    Every pad step comes after the real steps of its row, so the causal
    recurrence computes each row's real steps as it would for that series
    alone. ``T`` counts real steps only.
    """

    def __init__(self, series: Sequence[StepSeries]):
        self.series = tuple(series)
        self.lengths = np.array([s.T for s in self.series])

    @property
    def T(self) -> int:
        return int(self.lengths.sum())

    def padded(self) -> np.ndarray:
        """The inputs as one (T_max, B, d) array, built on each call: each
        series writes its rows straight into its slot."""
        x = np.zeros((int(self.lengths.max()), len(self.series), self.series[0].d))
        for b, s in enumerate(self.series):
            s.rows(0, s.T, out=x[: s.T, b])
        return x


@dataclass
class ForwardCache:
    """What the reverse sweep and readers of the forward pass need.

    ``gates`` holds the activations [i; f; g; o] of every step until
    ``backward`` overwrites them with their gradients, and ``c`` the cell
    states until ``backward`` reuses their buffer. The previous
    cell state and the masked previous hidden state are one-step shifts of
    ``c`` and ``h``; tanh(c) is recomputed where it is needed. The shapes are
    those of one series; a batch adds its axis after the time axis,
    (T_max, B, ...), and ``rec_mask`` is then (B, H).
    """

    x_in: np.ndarray     # (T, d) inputs after input dropout
    gates: np.ndarray    # (T, 4H)
    c: np.ndarray        # (T, H) cell states
    h: np.ndarray        # (T, H) hidden states
    in_mask: np.ndarray | None   # (T, d); the masks are None without dropout
    out_mask: np.ndarray | None  # (T, H)
    rec_mask: np.ndarray | None  # (H,) one mask per sequence
    logits: np.ndarray
    p: np.ndarray


def _axis(name: str, a, add: bool):
    """Add the batch axis to one cache array of a single series, or drop it."""
    if a is None:
        return None
    if name == "rec_mask":
        return a[None] if add else a[0]
    return a[:, None] if add else a[:, 0]


def _batch_axis(cache: ForwardCache, add: bool) -> ForwardCache:
    return ForwardCache(**{k: _axis(k, v, add) for k, v in vars(cache).items()})


@dataclass(frozen=True)
class EncodedEpisode:
    """One episode ready for the model."""

    episode_id: str
    steps: StepSeries
    outcome: int
    split: str


@dataclass(frozen=True)
class EpochStats:
    phase: str  # "risk" or "attention"
    epoch: int
    train_loss: float
    val_loss: float
    val_auroc: float


@dataclass
class TrainReport:
    rows: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0


def _sigmoid(z):
    """1 / (1 + exp(-z)), with z clipped to [-60, 60], as a new float array.
    The upper clip changes no result: from z = 60 on, exp(-z) < 2**-53, so
    1 + exp(-z) rounds to 1.0 either way."""
    out = np.array(z, dtype=float)
    _sigmoid_inplace(out)
    return out


def _sigmoid_inplace(z):
    """_sigmoid written into z, with the same rounding."""
    np.maximum(z, -60.0, out=z)  # np.clip's lower bound, without its per-call overhead
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def model_init(config: ModelConfig, d: int) -> ModelParams:
    """Weight matrices uniform(-s, s) with s = 1/sqrt(H), drawn in field order;
    vectors zero except the forget-gate bias 1. The output projection is zero,
    so the initial model predicts 0.5 everywhere."""
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    rng = np.random.default_rng(config.seed)
    H = config.hidden_size
    s = 1.0 / math.sqrt(H)
    params = ModelParams(**{
        name: rng.uniform(-s, s, size=shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _shapes(H, d, config.attention).items()
    })
    params.b_gates[H : 2 * H] = 1.0
    return params


def _draw_masks(config: ModelConfig, T: int, d: int, rng: np.random.Generator):
    """Inverted-dropout masks of the inputs (T, d), the outputs (T, H) and the
    recurrent state (H,), drawn in that order; a zero rate draws nothing."""
    H = config.hidden_size
    masks = []
    for rate, shape in ((config.input_dropout, (T, d)), (config.output_dropout, (T, H)),
                        (config.recurrent_dropout, (H,))):
        keep = 1.0 - rate
        masks.append((rng.random(shape) < keep).astype(float) / keep if rate > 0
                     else np.ones(shape))
    return masks


def _scan(params: ModelParams, x: np.ndarray, rec_mask: np.ndarray | None = None,
          state=(0.0, 0.0)):
    """The forward recurrence over a batch of sequences.

    ``x`` has shape (T, B, d). Every row starts from ``state`` = (h, c), by
    default the zero state; each part is a scalar or of shape (H,). The input
    projection of all steps is one matrix product before the loop; each step
    adds only the recurrent term. Returns the gate activations (T, B, 4H)
    ordered [i; f; g; o], the cell states and the hidden states o * tanh(c),
    both (T, B, H).
    """
    T, B, d = x.shape
    H = params.hidden_size
    u_t = params.u_gates.T
    gates = (x.reshape(T * B, d) @ params.w_gates.T).reshape(T, B, 4 * H)
    gates += params.b_gates
    c = np.empty((T, B, H))
    hs = np.empty((T, B, H))
    h, c_prev = (np.broadcast_to(s, (B, H)) for s in state)
    for t in range(T):
        z = gates[t]
        z += (h if rec_mask is None else h * rec_mask) @ u_t
        gg = np.tanh(z[:, 2 * H : 3 * H])
        _sigmoid_inplace(z)  # one call over the whole block is the cheapest
        z[:, 2 * H : 3 * H] = gg
        c_prev = np.multiply(z[:, H : 2 * H], c_prev, out=c[t])
        c_prev += z[:, :H] * gg
        h = np.multiply(z[:, 3 * H :], np.tanh(c_prev), out=hs[t])
    return gates, c, hs


def _sweep(params: ModelParams, gates, c, dlogit, out_mask=None, rec_mask=None, c0=0.0):
    """The reverse recurrence: backpropagation through time over one scan.

    Seeded with d(objective)/d(logit_t) as ``dlogit`` (T, B), which the output
    head turns into d/dh_t. ``c0`` is the cell state the scan started from.
    Overwrites ``gates`` with dZ, the gradient with respect to the gate
    pre-activations, and returns it; the parameter and input gradients are
    matrix products of dZ taken outside the loop.
    """
    T, B, _ = gates.shape
    H = params.hidden_size
    U = params.u_gates
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    dlogit = dlogit[:, :, None]
    for t in range(T - 1, -1, -1):
        seed = dlogit[t] * params.w_out
        if out_mask is not None:
            seed *= out_mask[t]
        dh += seed
        z = gates[t]
        gi, gf, gg, go = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
        tanh_c = np.tanh(c[t])  # bitwise the value the scan used: same input, same call
        do = dh * tanh_c
        dc += dh * go * (1.0 - tanh_c ** 2)
        di = dc * gg
        df = dc * (c[t - 1] if t else c0)
        dg = dc * gi
        dc = dc * gf
        np.multiply(di * gi, 1.0 - gi, out=gi)
        np.multiply(df * gf, 1.0 - gf, out=gf)
        np.multiply(dg, 1.0 - gg ** 2, out=gg)
        np.multiply(do * go, 1.0 - go, out=go)
        dh = z @ U
        if rec_mask is not None:
            dh *= rec_mask
    return gates


def _forward_with_masks(params: ModelParams, x: np.ndarray, in_mask, out_mask, rec_mask) -> ForwardCache:
    """The forward pass under fixed dropout masks (None: no dropout), for one
    series (x of shape (T, d)) or a batch ((T, B, d), with rec_mask (B, H))."""
    if x.ndim == 2:
        masks = {"in_mask": in_mask, "out_mask": out_mask, "rec_mask": rec_mask}
        return _batch_axis(_forward_with_masks(
            params, x[:, None], *(_axis(k, m, add=True) for k, m in masks.items())), add=False)
    T, B, _ = x.shape
    H = params.hidden_size
    x_in = x if in_mask is None else x * in_mask
    gates, c, h = _scan(params, x_in, rec_mask)
    h_out = h if out_mask is None else h * out_mask
    logits = (h_out.reshape(T * B, H) @ params.w_out).reshape(T, B) + params.b_out[0]
    return ForwardCache(
        x_in=x_in, gates=gates, c=c, h=h,
        in_mask=in_mask, out_mask=out_mask, rec_mask=rec_mask,
        logits=logits, p=_sigmoid(logits),
    )


def forward(
    params: ModelParams,
    steps: StepSeries | StepBatch,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    config: ModelConfig | None = None,
) -> tuple[RiskSeries | list[RiskSeries], ForwardCache]:
    """Run the recurrence over a step series, or over a StepBatch of them.

    Returns (RiskSeries, ForwardCache) for a series, and for a batch one
    RiskSeries per row with a cache that keeps the batch axis. Dropout is
    active only in train mode, which requires ``rng`` and ``config``; masks
    are drawn per series in batch order and recorded in the cache so backward
    is exact.
    """
    batch = steps if isinstance(steps, StepBatch) else StepBatch([steps])
    x = batch.padded()
    T, B, d = x.shape
    H = params.hidden_size
    if d != params.d:
        raise ValueError(f"steps dimension {d} != model dimension {params.d}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    in_mask = out_mask = rec_mask = None
    if mode == "train":
        if rng is None or config is None:
            raise ValueError("train mode requires rng and config")
        in_mask, out_mask, rec_mask = np.ones((T, B, d)), np.ones((T, B, H)), np.ones((B, H))
        for b, length in enumerate(batch.lengths):
            in_mask[:length, b], out_mask[:length, b], rec_mask[b] = _draw_masks(config, length, d, rng)
        x *= in_mask  # x is this call's own array, so it is masked in place, not copied
    cache = _forward_with_masks(params, x, None, out_mask, rec_mask)
    cache.in_mask = in_mask  # x is masked already; backward reads the mask
    p_base = float(_sigmoid(params.b_out)[0])
    risks = [RiskSeries(p=cache.p[:s.T, b].copy(), logits=cache.logits[:s.T, b].copy(),
                        step_time=s.step_time.copy(), p_base=p_base)
             for b, s in enumerate(batch.series)]
    if isinstance(steps, StepBatch):
        return risks, cache
    return risks[0], _batch_axis(cache, add=False)


def loss(risk: RiskSeries, outcome: int, eta: float) -> float:
    """Mean per-step cross-entropy against the episode outcome plus the
    smoothing penalty eta * sum of squared risk first-differences."""
    if risk.T < 1:
        raise ValueError("risk series is empty")
    p = np.clip(risk.p, P_CLAMP, 1.0 - P_CLAMP)
    bce = -(outcome * np.log(p) + (1 - outcome) * np.log1p(-p)).mean()
    smooth = 0.0
    if eta and risk.T >= 2:
        smooth = eta * float(np.square(np.diff(risk.p)).sum())
    return float(bce + smooth)


def _dloss_dlogit(p: np.ndarray, outcome: int, eta: float) -> np.ndarray:
    T = p.shape[0]
    pc = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    inside = (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    dp = np.where(inside, (pc - outcome) / (pc * (1.0 - pc)), 0.0) / T
    if eta and T >= 2:
        diffs = p[1:] - p[:-1]
        dp[1:] += 2.0 * eta * diffs
        dp[:-1] -= 2.0 * eta * diffs
    return dp * p * (1.0 - p)


def backward(
    params: ModelParams,
    cache: ForwardCache,
    steps: StepSeries | StepBatch,
    outcome,
    eta: float,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Exact gradients of loss() with respect to parameters and inputs.

    For a StepBatch, ``outcome`` holds one label per row and the parameter
    gradients are summed over the rows' losses; input gradients are returned
    for a single series only (None for a batch). Pad steps are seeded with
    zero, so they carry zero dZ. The reverse sweep overwrites
    ``cache.gates`` with dZ, and after it the buffer of the cell states
    ``cache.c`` takes the masked hidden states that the parameter gradients
    read, so a cache serves one backward call.
    """
    batch = steps if isinstance(steps, StepBatch) else StepBatch([steps])
    if batch is not steps:
        cache, outcome = _batch_axis(cache, add=True), [outcome]
    T, B, d = cache.x_in.shape
    H = params.hidden_size
    dlogit = np.zeros((T, B))
    for b, (length, y) in enumerate(zip(batch.lengths, outcome)):
        dlogit[:length, b] = _dloss_dlogit(cache.p[:length, b], y, eta)
    dz = _sweep(params, cache.gates, cache.c, dlogit,
                cache.out_mask, cache.rec_mask).reshape(T * B, 4 * H)
    # The sweep was the last reader of the cell states, so their buffer holds
    # the hidden states as the output head and then as the recurrence read them.
    h_out = cache.h if cache.out_mask is None else np.multiply(cache.h, cache.out_mask,
                                                               out=cache.c)
    w_out = dlogit.reshape(T * B) @ h_out.reshape(T * B, H)
    h_rec = cache.c  # the masked hidden state entering each step
    h_rec[0] = 0.0
    h_rec[1:] = cache.h[:-1]
    if cache.rec_mask is not None:
        h_rec[1:] *= cache.rec_mask
    grads = {
        "w_gates": dz.T @ cache.x_in.reshape(T * B, d),
        "u_gates": dz.T @ h_rec.reshape(T * B, H),
        "b_gates": dz.sum(axis=0),
        "w_out": w_out,
        "b_out": np.array([dlogit.sum()]),
    }
    if batch is steps:
        return grads, None
    dx = dz @ params.w_gates
    if cache.in_mask is not None:
        dx *= cache.in_mask[:, 0]
    return grads, dx


@dataclass(frozen=True)
class KeptStates:
    """The LSTM state after every ``stride``-th step of one episode's eval scan.

    With stride = ceil(sqrt(T)) an episode keeps about sqrt(T) states instead
    of T, and a scan restarted from the latest kept state before a step runs
    fewer than sqrt(T) steps to reach it: the sqrt(n) checkpointing of Chen et
    al. 2016, "Training Deep Nets with Sublinear Memory Cost".
    """

    stride: int
    h: np.ndarray  # (T // stride, H); row i is the state after step (i + 1) * stride
    c: np.ndarray

    @classmethod
    def of_scan(cls, h: np.ndarray, c: np.ndarray) -> "KeptStates":
        """Copies of every stride-th row of a scan's (T, H) states."""
        stride = math.isqrt(len(h) - 1) + 1  # ceil(sqrt(T)) for T >= 1
        return cls(stride, h[stride - 1 :: stride].copy(), c[stride - 1 :: stride].copy())

    def start(self, t0: int):
        """(s, (h, c)): the latest kept step s <= t0 and the state after it,
        or (0, zero state) before the first kept step."""
        i = t0 // self.stride
        if i == 0:
            return 0, (0.0, 0.0)
        return i * self.stride, (self.h[i - 1], self.c[i - 1])


def _state_at(params: ModelParams, steps: StepSeries, t0: int,
              states: KeptStates | None = None):
    """The state (h, c) after step t0, scanned as one row from the latest of
    ``states`` at or before t0 (from step 0 and the zero state without them)."""
    s, state = (0, (0.0, 0.0)) if states is None else states.start(t0)
    if s < t0:
        _, c, h = _scan(params, steps.rows(s, t0)[:, None], state=state)
        state = (h[-1, 0].copy(), c[-1, 0].copy())  # copies, so the scan is freed
    return state


def _risk_gradient_batch(params: ModelParams, lengths: Sequence[int],
                         rows: Iterable[np.ndarray], states):
    """Eval-mode gradient of the risk at each row's last window step with
    respect to the window's inputs.

    Row b holds the ``lengths[b]`` inputs (L_b, d) of one window and starts
    from ``states[b]`` = (h, c), the state before its window. The rows are
    right-padded to the longest, L, and scanned and swept as one batch; each
    row of ``rows`` is copied into the padded batch as it arrives, so the
    caller need not hold them all at once. Each row is seeded at its own last
    step, so its pad steps carry zero dZ and zero gradient. Returns
    d p_last / d inputs, (L, B, d), and p_last, (B,).
    """
    L, B, H, d = max(lengths), len(lengths), params.hidden_size, params.d
    xs = np.zeros((L, B, d))
    h0, c0 = np.zeros((2, B, H))
    for b, (x, (h, c)) in enumerate(zip(rows, states)):
        xs[: lengths[b], b] = x
        h0[b], c0[b] = h, c
    del x  # the last row: freed before the scan, which keeps peak memory down
    gates, c, h = _scan(params, xs, state=(h0, c0))
    del xs  # only the scan's input projection reads the inputs
    last, batch = np.asarray(lengths) - 1, np.arange(B)
    p = _sigmoid(h[last, batch] @ params.w_out + params.b_out[0])
    dlogit = np.zeros((L, B))
    dlogit[last, batch] = p * (1.0 - p)
    dz = _sweep(params, gates, c, dlogit, c0=c0)
    del c, h  # freed before the product below, which keeps peak memory down
    return (dz.reshape(L * B, 4 * H) @ params.w_gates).reshape(L, B, d), p


def grad_wrt_inputs(params: ModelParams, steps: StepSeries | StepBatch, t1, t0=0,
                    states=None):
    """d(p_t1) / d(value of the step-t event) for the steps t of the window
    (t0, t1], eval mode, as the attribution weights of that window.

    The state before the window is scanned from the latest of ``states`` at
    or before t0 (from step 0 without them). For a StepBatch, ``t1``, ``t0``
    and ``states`` give each row's window and kept states (or None), and one
    AttributionMatrix per row is returned: the windows are scanned and swept
    as one right-padded batch, each from its own state at its t0, which
    changes only the rounding. One series runs as a batch of one.
    """
    from .attribution import _window_weights

    if not isinstance(steps, StepBatch):
        return grad_wrt_inputs(params, StepBatch([steps]), [t1], [t0], [states])[0]
    B = len(steps.series)
    rows = list(zip(steps.series, np.broadcast_to(t0, B).tolist(), t1,
                    [None] * B if states is None else states))
    for series, a, b, _ in rows:
        _check_window(series.T, a, b)
    g, _ = _risk_gradient_batch(params, [b - a for _, a, b, _ in rows],
                                (series.rows(a, b) for series, a, b, _ in rows),
                                [_state_at(params, series, a, kept) for series, a, _, kept in rows])
    return [_window_weights(g[: b - a, i], series, a, b, "gradient")
            for i, (series, a, b, _) in enumerate(rows)]


def _check_window(T: int, t0: int, t1: int) -> None:
    if not 0 <= t0 < t1 <= T:
        raise ValueError(f"need 0 <= t0 < t1 <= {T}, got t0={t0}, t1={t1}")


def attention_forward(params: ModelParams, h: np.ndarray):
    """Bilinear attention over one episode's hidden states ``h`` (T, H).

    score_t = h_t' (W_att h_T); weights are the softmax of the scores; the
    prediction is the output projection of the weight-averaged hidden state.
    Returns (prediction, weights (T,), averaged state (H,)).
    """
    if params.w_att is None:
        raise ValueError("model has no attention projection")
    scores = h @ (params.w_att @ h[-1])
    scores = scores - scores.max()
    w = np.exp(scores)
    w = w / w.sum()
    ctx = w @ h
    pred = float(_sigmoid(ctx @ params.w_out + params.b_out[0]))
    return pred, w, ctx


def _attention_loss_grad(params: ModelParams, h: np.ndarray, outcome: int):
    """BCE of the attention prediction and its gradient w.r.t. w_att only."""
    pred, w, ctx = attention_forward(params, h)
    pc = min(max(pred, P_CLAMP), 1.0 - P_CLAMP)
    bce = -(outcome * math.log(pc) + (1 - outcome) * math.log1p(-pc))
    dlogit = pred - outcome if P_CLAMP < pred < 1.0 - P_CLAMP else 0.0
    dctx = dlogit * params.w_out
    dw = h @ dctx
    ds = w * (dw - (w @ dw))
    grad = np.outer(h.T @ ds, h[-1])
    return bce, grad, pred


def auroc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve via the rank statistic, ties averaged."""
    y = np.asarray(labels, dtype=float)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # The tied scores of s fill sorted positions [left, right), so their
    # average 1-based rank is (left + right + 1) / 2.
    ordered = np.sort(s)
    ranks = (np.searchsorted(ordered, s, "left") + np.searchsorted(ordered, s, "right") + 1) / 2
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    def __init__(self, arrays: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.t = 0

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1c = 1.0 - _ADAM_BETA1 ** self.t
        b2c = 1.0 - _ADAM_BETA2 ** self.t
        for k, g in grads.items():
            self.m[k] = _ADAM_BETA1 * self.m[k] + (1.0 - _ADAM_BETA1) * g
            self.v[k] = _ADAM_BETA2 * self.v[k] + (1.0 - _ADAM_BETA2) * g * g
            arrays[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + _ADAM_EPS)


def _clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> None:
    total = math.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
    if total > clip:
        scale = clip / total
        for g in grads.values():
            g *= scale


def _batches(order: Sequence, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def train(corpus: Sequence[EncodedEpisode], config: ModelConfig) -> tuple[ModelParams, TrainReport]:
    """Fit the per-step risk model, then (optionally) the attention head.

    Each minibatch runs as one padded forward scan and one reverse sweep.
    Per batch, episode gradients are averaged, clipped to the configured global
    norm, and applied with Adam. Early stopping keeps the parameters of the best
    validation-loss epoch. The attention head is trained afterwards against the
    episode outcome with the recurrent trunk frozen.
    """
    train_eps = [e for e in corpus if e.split == "train"]
    val_eps = [e for e in corpus if e.split == "validation"]
    if not train_eps or not val_eps:
        raise ValueError("training requires non-empty train and validation splits")
    dims = {e.steps.d for e in corpus}
    if len(dims) != 1:
        raise ValueError(f"inconsistent input dimensions: {sorted(dims)}")
    d = dims.pop()

    params = model_init(config, d)
    report = TrainReport()
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    def risk_grad(eps):
        batch = StepBatch([ep.steps for ep in eps])
        risks, cache = forward(params, batch, mode="train", rng=dropout_rng, config=config)
        grads, _ = backward(params, cache, batch, [ep.outcome for ep in eps], config.eta)
        return [loss(r, ep.outcome, config.eta) for r, ep in zip(risks, eps)], grads

    def risk_val(eps):
        risks, _ = forward(params, StepBatch([ep.steps for ep in eps]), mode="eval")
        return [(loss(r, ep.outcome, config.eta), float(r.p[-1])) for r, ep in zip(risks, eps)]

    trainable = {k: v for k, v in params.arrays().items() if k != "w_att"}
    report.best_epoch = _fit(
        "risk", trainable, train_eps, val_eps, risk_grad, risk_val, config, shuffle_rng, report)

    if config.attention and config.max_epochs > 0:
        # The trunk is frozen; each batch's hidden states are recomputed when
        # needed rather than kept for the whole corpus.
        def attention_batch(eps):
            _, cache = forward(params, StepBatch([ep.steps for ep in eps]), mode="eval")
            return [_attention_loss_grad(params, cache.h[: ep.steps.T, b], ep.outcome)
                    for b, ep in enumerate(eps)]

        def attention_grad(eps):
            out = attention_batch(eps)
            return [bce for bce, _, _ in out], {"w_att": sum(g for _, g, _ in out)}

        def attention_val(eps):
            return [(bce, pred) for bce, _, pred in attention_batch(eps)]

        _fit("attention", {"w_att": params.w_att}, train_eps, val_eps,
             attention_grad, attention_val, config, shuffle_rng, report)
    return params, report


def _fit(phase, trainable, train_eps, val_eps, batch_grad, batch_val,
         config, shuffle_rng, report) -> int:
    """Minibatch training of ``trainable`` in place, shared by both phases.

    ``batch_grad(eps)`` returns the loss of each of the train episodes ``eps``
    and their summed gradients; ``batch_val(eps)`` the loss and score of each
    validation episode, which it is given in chunks of ``config.batch_size``.
    Ends with the arrays of the best validation-loss epoch restored; returns
    that epoch.
    """
    adam = _Adam(trainable, lr=config.learning_rate)
    best_loss = math.inf
    best = {k: v.copy() for k, v in trainable.items()}
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_eps))
        epoch_losses = []
        for batch in _batches(order, config.batch_size):
            losses, grads = batch_grad([train_eps[i] for i in batch])
            for i, l in zip(batch, losses):
                if not math.isfinite(l):
                    raise TrainingDivergedError(f"non-finite {phase} loss at epoch {epoch}, "
                                                f"episode {train_eps[i].episode_id!r}")
            epoch_losses.extend(losses)
            for g in grads.values():
                g /= len(batch)
            _clip_global_norm(grads, config.clip_norm)
            adam.step(trainable, grads)

        val = [v for chunk in _batches(val_eps, config.batch_size) for v in batch_val(chunk)]
        val_loss = float(np.mean([v[0] for v in val]))
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite {phase} validation loss at epoch {epoch}")
        report.rows.append(EpochStats(
            phase=phase, epoch=epoch, train_loss=float(np.mean(epoch_losses)), val_loss=val_loss,
            val_auroc=auroc([ep.outcome for ep in val_eps], [v[1] for v in val]),
        ))
        if val_loss < best_loss:
            best_loss = val_loss
            best = {k: v.copy() for k, v in trainable.items()}
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    for k, v in trainable.items():
        v[...] = best[k]
    return best_epoch


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    catalog: FeatureCatalog, stats: FeatureStats) -> None:
    """Single-file JSON checkpoint: weights, config, catalog, and stats."""
    payload = {
        "format": "driftscope-checkpoint-v1",
        "config": asdict(config),
        "catalog": [[fid, fid] for fid in catalog.ids],  # [id, display name], kept for the format
        "stats": stats.to_json(),
        "d": params.d,
        "params": {k: v.tolist() for k, v in params.arrays().items()},
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload))  # the C encoder; json.dump runs the Python one


def load_checkpoint(path):
    """Load a checkpoint.

    A file that is not JSON (or nests past Python's recursion limit), a
    payload that is not an object, lacks a section, or has a section of the
    wrong form (such as an unknown config key or invalid stats) raises ValueError. Every weight
    array must have the shape that ``config.hidden_size`` H and
    d = 2 * len(catalog) + 1 give it, and finite entries; otherwise ValueError.
    Returns (params, config, catalog, stats).
    """
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict) or payload.get("format") != "driftscope-checkpoint-v1":
        raise ValueError(f"not a driftscope checkpoint: {path}")
    missing = [k for k in ("catalog", "config", "stats", "params") if k not in payload]
    if missing:
        raise ValueError(f"checkpoint has no {', '.join(missing)}")
    try:
        catalog = FeatureCatalog(tuple(fid for fid, _ in payload["catalog"]))
        config = ModelConfig(**payload["config"])
        stats = FeatureStats.from_json(payload["stats"])
        arrs = {k: np.asarray(v, dtype=float) for k, v in payload["params"].items()}
    except (TypeError, KeyError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    H, d = config.hidden_size, 2 * catalog.d_features + 1
    if payload.get("d") != d:
        raise ValueError(f"checkpoint d={payload.get('d')!r}, but its catalog of "
                         f"{catalog.d_features} features gives d={d}")
    shapes = _shapes(H, d, attention="w_att" in arrs)
    for name, shape in shapes.items():
        if name not in arrs:
            raise ValueError(f"checkpoint has no {name}")
        if arrs[name].shape != shape:
            raise ValueError(f"checkpoint {name} has shape {arrs[name].shape}, expected {shape} "
                             f"for hidden size {H} and d={d}")
        if not np.all(np.isfinite(arrs[name])):
            raise ValueError(f"checkpoint {name} has non-finite weights")
    return ModelParams(**{name: arrs[name] for name in shapes}), config, catalog, stats
