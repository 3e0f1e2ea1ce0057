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

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from .events import FeatureCatalog, FeatureStats, StepSeries

P_CLAMP = 1e-7


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during optimization."""


class CatalogMismatchError(ValueError):
    """Checkpoint was trained against a different feature catalog."""


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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
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
        out = {
            "w_gates": self.w_gates,
            "u_gates": self.u_gates,
            "b_gates": self.b_gates,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }
        if self.w_att is not None:
            out["w_att"] = self.w_att
        return out


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


@dataclass
class ForwardCache:
    """What the reverse sweep and readers of the forward pass need.

    ``gates`` holds the activations [i; f; g; o] of every step. The previous
    cell state and the masked previous hidden state are one-step shifts of
    ``c`` and ``h``.
    """

    x_in: np.ndarray     # (T, d) inputs after input dropout
    gates: np.ndarray    # (T, 4H)
    c: np.ndarray        # (T, H) cell states
    tanh_c: np.ndarray
    h: np.ndarray
    h_out: np.ndarray    # (T, H) hidden state after output dropout
    in_mask: np.ndarray
    out_mask: np.ndarray
    rec_mask: np.ndarray  # (H,) one mask per sequence
    logits: np.ndarray
    p: np.ndarray


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
    stopped_early: bool = False


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _sigmoid_inplace(z):
    """_sigmoid written into z, with the same rounding."""
    np.clip(z, -60.0, 60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def model_init(config: ModelConfig, d: int) -> ModelParams:
    """Initialize weights uniform(-s, s) with s = 1/sqrt(H); forget-gate bias 1;
    output projection zero so the initial model predicts 0.5 everywhere."""
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    rng = np.random.default_rng(config.seed)
    H = config.hidden_size
    s = 1.0 / math.sqrt(H)
    params = ModelParams(
        w_gates=rng.uniform(-s, s, size=(4 * H, d)),
        u_gates=rng.uniform(-s, s, size=(4 * H, H)),
        b_gates=np.zeros(4 * H),
        w_out=np.zeros(H),
        b_out=np.zeros(1),
        w_att=rng.uniform(-s, s, size=(H, H)) if config.attention else None,
    )
    params.b_gates[H : 2 * H] = 1.0
    return params


def _draw_masks(config: ModelConfig, T: int, d: int, rng: np.random.Generator):
    H = config.hidden_size
    if config.input_dropout > 0:
        keep = 1.0 - config.input_dropout
        in_mask = (rng.random((T, d)) < keep).astype(float) / keep
    else:
        in_mask = np.ones((T, d))
    if config.output_dropout > 0:
        keep = 1.0 - config.output_dropout
        out_mask = (rng.random((T, H)) < keep).astype(float) / keep
    else:
        out_mask = np.ones((T, H))
    if config.recurrent_dropout > 0:
        keep = 1.0 - config.recurrent_dropout
        rec_mask = (rng.random(H) < keep).astype(float) / keep
    else:
        rec_mask = np.ones(H)
    return in_mask, out_mask, rec_mask


def _scan(params: ModelParams, x: np.ndarray, rec_mask: np.ndarray | None = None):
    """The forward recurrence over a batch of sequences, from the zero state.

    ``x`` has shape (T, B, d). The input projection of all steps is one matrix
    product before the loop; each step adds only the recurrent term. Returns
    the gate activations (T, B, 4H) ordered [i; f; g; o], the cell states and
    their tanh, both (T, B, H). The hidden state is o * tanh(c).
    """
    T, B, d = x.shape
    H = params.hidden_size
    u_t = params.u_gates.T
    gates = (x.reshape(T * B, d) @ params.w_gates.T).reshape(T, B, 4 * H)
    gates += params.b_gates
    c = np.empty((T, B, H))
    tanh_c = np.empty((T, B, H))
    h = np.zeros((B, H))
    c_t = np.zeros((B, H))
    for t in range(T):
        z = gates[t]
        z += (h if rec_mask is None else h * rec_mask) @ u_t
        gg = np.tanh(z[:, 2 * H : 3 * H])
        _sigmoid_inplace(z)  # one call over the whole block is the cheapest
        z[:, 2 * H : 3 * H] = gg
        c_t = z[:, H : 2 * H] * c_t + z[:, :H] * gg
        c[t] = c_t
        np.tanh(c_t, out=tanh_c[t])
        h = z[:, 3 * H :] * tanh_c[t]
    return gates, c, tanh_c


def _sweep(params: ModelParams, gates, c, tanh_c, dlogit, out_mask=None, rec_mask=None):
    """The reverse recurrence: backpropagation through time over one scan.

    Seeded with d(objective)/d(logit_t) as ``dlogit`` (T, B), which the output
    head turns into d/dh_t. Overwrites ``gates`` with dZ, the gradient with
    respect to the gate pre-activations, and returns it; the parameter and
    input gradients are matrix products of dZ taken outside the loop.
    """
    T, B, _ = gates.shape
    H = params.hidden_size
    U = params.u_gates
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        seed = dlogit[t][:, None] * params.w_out
        if out_mask is not None:
            seed *= out_mask[t]
        dh = dh + seed
        z = gates[t]
        gi, gf, gg, go = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
        do = dh * tanh_c[t]
        dc = dc + dh * go * (1.0 - tanh_c[t] ** 2)
        di = dc * gg
        df = dc * (c[t - 1] if t else 0.0)
        dg = dc * gi
        dc = dc * gf
        gi[...] = di * gi * (1.0 - gi)
        gf[...] = df * gf * (1.0 - gf)
        gg[...] = dg * (1.0 - gg ** 2)
        go[...] = do * go * (1.0 - go)
        dh = z @ U
        if rec_mask is not None:
            dh *= rec_mask
    return gates


def _forward_with_masks(params: ModelParams, x: np.ndarray, in_mask, out_mask, rec_mask) -> ForwardCache:
    H = params.hidden_size
    x_in = x * in_mask
    gates, c, tanh_c = (a[:, 0] for a in _scan(params, x_in[:, None, :], rec_mask))
    h = gates[:, 3 * H :] * tanh_c
    h_out = h * out_mask
    logits = h_out @ params.w_out + params.b_out[0]
    return ForwardCache(
        x_in=x_in, gates=gates, c=c, tanh_c=tanh_c, h=h, h_out=h_out,
        in_mask=in_mask, out_mask=out_mask, rec_mask=rec_mask,
        logits=logits, p=_sigmoid(logits),
    )


def forward(
    params: ModelParams,
    steps: StepSeries,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    config: ModelConfig | None = None,
) -> tuple[RiskSeries, ForwardCache]:
    """Run the recurrence over a step series.

    Dropout is active only in train mode, which requires ``rng`` and ``config``;
    the drawn masks are recorded in the cache so backward is exact.
    """
    if steps.x.shape[1] != params.d:
        raise ValueError(f"steps dimension {steps.x.shape[1]} != model dimension {params.d}")
    T, d = steps.x.shape
    if mode == "train":
        if rng is None or config is None:
            raise ValueError("train mode requires rng and config")
        in_mask, out_mask, rec_mask = _draw_masks(config, T, d, rng)
    elif mode == "eval":
        in_mask = np.ones((T, d))
        out_mask = np.ones((T, params.hidden_size))
        rec_mask = np.ones(params.hidden_size)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    cache = _forward_with_masks(params, steps.x, in_mask, out_mask, rec_mask)
    risk = RiskSeries(
        p=cache.p.copy(),
        logits=cache.logits.copy(),
        step_time=steps.step_time.copy(),
        p_base=float(_sigmoid(params.b_out)[0]),
    )
    return risk, cache


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
    steps: StepSeries,
    outcome: int,
    eta: float,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of loss() with respect to parameters and inputs."""
    dlogit = _dloss_dlogit(cache.p, outcome, eta)
    dz = _sweep(params, cache.gates.copy()[:, None], cache.c[:, None], cache.tanh_c[:, None],
                dlogit[:, None], cache.out_mask, cache.rec_mask)[:, 0]
    h_rec = np.zeros_like(cache.h)  # the masked hidden state entering each step
    h_rec[1:] = cache.h[:-1] * cache.rec_mask
    grads = {
        "w_gates": dz.T @ cache.x_in,
        "u_gates": dz.T @ h_rec,
        "b_gates": dz.sum(axis=0),
        "w_out": dlogit @ cache.h_out,
        "b_out": np.array([dlogit.sum()]),
    }
    return grads, (dz @ params.w_gates) * cache.in_mask


def _risk_gradient_batch(params: ModelParams, xs: np.ndarray, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode gradient of p_t1 with respect to every input vector.

    ``xs`` has shape (B, T, d); returns (p_t1 of shape (B,), grads of shape
    (B, T, d)) with columns after t1 identically zero.
    """
    B, T, d = xs.shape
    if not 1 <= t1 <= T:
        raise ValueError(f"t1 must be in [1, {T}], got {t1}")
    H = params.hidden_size
    gates, c, tanh_c = _scan(params, xs[:, :t1].transpose(1, 0, 2))
    p = _sigmoid((gates[-1, :, 3 * H :] * tanh_c[-1]) @ params.w_out + params.b_out[0])
    dlogit = np.zeros((t1, B))
    dlogit[-1] = p * (1.0 - p)
    dz = _sweep(params, gates, c, tanh_c, dlogit)
    del c, tanh_c  # freed before the product below, which keeps peak memory down
    grads = np.zeros((B, T, d))
    grads[:, :t1] = (dz.reshape(t1 * B, 4 * H) @ params.w_gates).reshape(t1, B, d).transpose(1, 0, 2)
    return p, grads


def grad_wrt_inputs(params: ModelParams, steps: StepSeries, t1: int):
    """d(p_t1)/d(x_t) for every step t, eval mode, as an attribution matrix.

    Column t holds the input gradient at step t; columns after t1 are zero.
    """
    from .attribution import AttributionMatrix

    _, grads = _risk_gradient_batch(params, steps.x[None, :, :], t1)
    return AttributionMatrix(a=grads[0].T.copy(), method="gradient")


def attention_forward(params: ModelParams, steps: StepSeries) -> tuple[float, np.ndarray]:
    """Bilinear attention over the hidden states.

    score_t = h_t' (W_att h_T); weights are the softmax of the scores; the
    prediction is the output projection of the weight-averaged hidden state.
    """
    if params.w_att is None:
        raise ValueError("model has no attention projection")
    _, cache = forward(params, steps, mode="eval")
    return _attention_from_states(params, cache.h)[:2]


def _attention_from_states(params: ModelParams, h: np.ndarray):
    scores = h @ (params.w_att @ h[-1])
    scores = scores - scores.max()
    w = np.exp(scores)
    w = w / w.sum()
    ctx = w @ h
    pred = float(_sigmoid(ctx @ params.w_out + params.b_out[0]))
    return pred, w, ctx


def _attention_loss_grad(params: ModelParams, h: np.ndarray, outcome: int):
    """BCE of the attention prediction and its gradient w.r.t. w_att only."""
    pred, w, ctx = _attention_from_states(params, h)
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
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class _Adam:
    def __init__(self, arrays: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.t = 0

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            arrays[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


def _clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> None:
    total = math.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
    if total > clip:
        scale = clip / total
        for g in grads.values():
            g *= scale


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start : start + size]


def train(corpus: Sequence[EncodedEpisode], config: ModelConfig) -> tuple[ModelParams, TrainReport]:
    """Fit the per-step risk model, then (optionally) the attention head.

    Per batch, episode gradients are averaged, clipped to the configured global
    norm, and applied with Adam. Early stopping keeps the parameters of the best
    validation-loss epoch. The attention head is trained afterwards against the
    episode outcome with the recurrent trunk frozen.
    """
    train_eps = [e for e in corpus if e.split == "train"]
    val_eps = [e for e in corpus if e.split == "validation"]
    if not train_eps or not val_eps:
        raise ValueError("training requires non-empty train and validation splits")
    dims = {e.steps.x.shape[1] for e in corpus}
    if len(dims) != 1:
        raise ValueError(f"inconsistent input dimensions: {sorted(dims)}")
    d = dims.pop()

    params = model_init(config, d)
    report = TrainReport()
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    def risk_grad(i):
        ep = train_eps[i]
        risk, cache = forward(params, ep.steps, mode="train", rng=dropout_rng, config=config)
        grads, _ = backward(params, cache, ep.steps, ep.outcome, config.eta)
        return loss(risk, ep.outcome, config.eta), grads

    def risk_val(i):
        risk, _ = forward(params, val_eps[i].steps, mode="eval")
        return loss(risk, val_eps[i].outcome, config.eta), float(risk.p[-1])

    trainable = {k: v for k, v in params.arrays().items() if k != "w_att"}
    report.best_epoch, report.stopped_early = _fit(
        "risk", trainable, train_eps, val_eps, risk_grad, risk_val, config, shuffle_rng, report)

    if config.attention and params.w_att is not None and config.max_epochs > 0:
        # Trunk is frozen, so hidden states can be computed once per episode.
        h_train = [forward(params, ep.steps, mode="eval")[1].h for ep in train_eps]
        h_val = [forward(params, ep.steps, mode="eval")[1].h for ep in val_eps]

        def attention_grad(i):
            bce, grad, _ = _attention_loss_grad(params, h_train[i], train_eps[i].outcome)
            return bce, {"w_att": grad}

        def attention_val(i):
            bce, _, pred = _attention_loss_grad(params, h_val[i], val_eps[i].outcome)
            return bce, pred

        _fit("attention", {"w_att": params.w_att}, train_eps, val_eps,
             attention_grad, attention_val, config, shuffle_rng, report)
    return params, report


def _fit(phase, trainable, train_eps, val_eps, episode_grad, episode_val,
         config, shuffle_rng, report) -> tuple[int, bool]:
    """Minibatch training of ``trainable`` in place, shared by both phases.

    ``episode_grad(i)`` returns the loss and gradients of train episode i;
    ``episode_val(i)`` the loss and score of validation episode i. Ends with
    the arrays of the best validation-loss epoch restored; returns that epoch
    and whether patience ran out.
    """
    adam = _Adam(trainable, lr=config.learning_rate)
    best_loss = math.inf
    best = {k: v.copy() for k, v in trainable.items()}
    best_epoch = 0
    bad_epochs = 0
    stopped_early = False
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_eps))
        epoch_losses = []
        for batch in _batches(order, config.batch_size):
            acc = {k: np.zeros_like(v) for k, v in trainable.items()}
            for idx in batch:
                l, g = episode_grad(idx)
                if not math.isfinite(l):
                    raise TrainingDivergedError(f"non-finite {phase} loss at epoch {epoch}, "
                                                f"episode {train_eps[idx].episode_id!r}")
                epoch_losses.append(l)
                for k in acc:
                    acc[k] += g[k]
            for k in acc:
                acc[k] /= len(batch)
            _clip_global_norm(acc, config.clip_norm)
            adam.step(trainable, acc)

        val = [episode_val(i) for i in range(len(val_eps))]
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
                stopped_early = True
                break
    for k, v in trainable.items():
        v[...] = best[k]
    return best_epoch, stopped_early


def catalog_fingerprint(catalog: FeatureCatalog) -> str:
    return hashlib.sha256(json.dumps(list(catalog.ids)).encode()).hexdigest()


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    catalog: FeatureCatalog, stats: FeatureStats) -> None:
    """Single-file JSON checkpoint: weights, config, catalog, and stats."""
    payload = {
        "format": "driftscope-checkpoint-v1",
        "config": asdict(config),
        "catalog": [list(entry) for entry in catalog.entries],
        "catalog_fingerprint": catalog_fingerprint(catalog),
        "stats": stats.to_json(),
        "d": params.d,
        "params": {k: v.tolist() for k, v in params.arrays().items()},
    }
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(tmp_fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path, expected_catalog: FeatureCatalog | None = None):
    """Load a checkpoint; refuses to load against a mismatched catalog.

    Returns (params, config, catalog, stats).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "driftscope-checkpoint-v1":
        raise ValueError(f"not a driftscope checkpoint: {path}")
    catalog = FeatureCatalog(tuple((fid, name) for fid, name in payload["catalog"]))
    if expected_catalog is not None and catalog.ids != expected_catalog.ids:
        raise CatalogMismatchError(
            "checkpoint catalog does not match the provided catalog"
        )
    config = ModelConfig(**payload["config"])
    stats = FeatureStats.from_json(payload["stats"])
    arrs = {k: np.asarray(v, dtype=float) for k, v in payload["params"].items()}
    params = ModelParams(
        w_gates=arrs["w_gates"],
        u_gates=arrs["u_gates"],
        b_gates=arrs["b_gates"],
        w_out=arrs["w_out"],
        b_out=arrs["b_out"],
        w_att=arrs.get("w_att"),
    )
    return params, config, catalog, stats
