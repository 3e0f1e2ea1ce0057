import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import driftscope as ds
from driftscope import model
from driftscope.events import FeatureCatalog, FeatureStat
from driftscope.model import (
    EncodedEpisode,
    EpochStats,
    RiskSeries,
    StepBatch,
    TrainingDivergedError,
    TrainReport,
    _Adam,
    _attention_loss_grad,
    _clip_global_norm,
    _dloss_dlogit,
    _forward_with_masks,
    _risk_gradient_batch,
    _scan,
    _state_at,
    _sweep,
    auroc,
    load_checkpoint,
    save_checkpoint,
)
from conftest import json_values, mutate, random_step_series, step_prefix


def tiny_config(**overrides):
    base = dict(hidden_size=4, seed=1, max_epochs=3, learning_rate=0.01,
                batch_size=4, attention=False)
    base.update(overrides)
    return ds.ModelConfig(**base)


def nonzero_params(config, d, scale=0.5, seed=99):
    """Initialized params with a non-trivial output projection."""
    rng = np.random.default_rng(seed)
    params = ds.model_init(config, d)
    params.w_out[:] = rng.normal(size=config.hidden_size) * scale
    params.b_out[:] = rng.normal() * 0.2
    return params


class TestInit:
    def test_deterministic(self):
        cfg = tiny_config()
        a = ds.model_init(cfg, 5)
        b = ds.model_init(cfg, 5)
        for k, arr in a.arrays().items():
            assert np.array_equal(arr, b.arrays()[k])

    def test_zero_projection_gives_half(self):
        rng = np.random.default_rng(0)
        steps = random_step_series(rng, T=7, d_features=2)
        params = ds.model_init(tiny_config(), steps.d)
        risk, _ = ds.forward(params, steps)
        assert np.all(risk.p == 0.5)
        assert np.all(risk.logits == 0.0)

    def test_seed_changes_params(self):
        a = ds.model_init(tiny_config(seed=1), 5)
        b = ds.model_init(tiny_config(seed=2), 5)
        assert not np.array_equal(a.w_gates, b.w_gates)

    def test_forget_gate_bias(self):
        params = ds.model_init(tiny_config(), 5)
        H = 4
        assert np.all(params.b_gates[H : 2 * H] == 1.0)
        assert np.all(params.b_gates[:H] == 0.0)


class TestForward:
    def test_eval_deterministic(self):
        rng = np.random.default_rng(1)
        steps = random_step_series(rng, T=9, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        r1, _ = ds.forward(params, steps)
        r2, _ = ds.forward(params, steps)
        assert np.array_equal(r1.p, r2.p)

    def test_probabilities_match_logits(self):
        rng = np.random.default_rng(2)
        steps = random_step_series(rng, T=9, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        risk, _ = ds.forward(params, steps)
        np.testing.assert_allclose(risk.p, 1 / (1 + np.exp(-risk.logits)))
        assert np.all((risk.p > 0) & (risk.p < 1))

    def test_causal_prefix(self):
        # Oracle: re-running the prefix alone reproduces its risks bitwise.
        rng = np.random.default_rng(3)
        steps = random_step_series(rng, T=12, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        full, _ = ds.forward(params, steps)
        prefix = step_prefix(steps, 8)
        part, _ = ds.forward(params, prefix)
        assert np.array_equal(full.p[:8], part.p)

    def test_train_mode_needs_rng(self):
        rng = np.random.default_rng(4)
        steps = random_step_series(rng, T=4, d_features=2)
        params = ds.model_init(tiny_config(), steps.d)
        with pytest.raises(ValueError):
            ds.forward(params, steps, mode="train")

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        steps = random_step_series(rng, T=4, d_features=2)
        params = ds.model_init(tiny_config(), steps.d + 2)
        with pytest.raises(ValueError, match="dimension"):
            ds.forward(params, steps)


class TestLoss:
    def _risk(self, p):
        p = np.asarray(p, dtype=float)
        return RiskSeries(p=p, logits=np.log(p / (1 - p)),
                          step_time=np.arange(len(p), dtype=float), p_base=0.5)

    def test_constant_p_no_smoothing_term(self):
        risk = self._risk([0.3, 0.3, 0.3])
        assert ds.loss(risk, 1, eta=5.0) == ds.loss(risk, 1, eta=0.0)

    def test_smoothing_arithmetic(self):
        risk = self._risk([0.2, 0.4])
        assert ds.loss(risk, 1, eta=1.0) - ds.loss(risk, 1, eta=0.0) == pytest.approx(0.04)

    def test_eta_zero_is_mean_cross_entropy(self):
        risk = self._risk([0.2, 0.4, 0.9])
        want = -np.mean(np.log([0.2, 0.4, 0.9]))
        assert ds.loss(risk, 1, eta=0.0) == pytest.approx(want)

    def test_extreme_probabilities_clamped(self):
        risk = RiskSeries(p=np.array([0.0, 1.0]), logits=np.array([-100.0, 100.0]),
                          step_time=np.array([0.0, 1.0]), p_base=0.5)
        assert math.isfinite(ds.loss(risk, 1, eta=0.1))


def finite_diff_params(params, steps, outcome, eta, masks, eps=1e-5):
    def f():
        cache = _forward_with_masks(params, steps.x, *masks)
        risk = RiskSeries(p=cache.p, logits=cache.logits,
                          step_time=steps.step_time, p_base=0.0)
        return ds.loss(risk, outcome, eta)

    out = {}
    for key, arr in params.arrays().items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            fp = f()
            arr[ix] = orig - eps
            fm = f()
            arr[ix] = orig
            g[ix] = (fp - fm) / (2 * eps)
        out[key] = g
    return out


def per_step_reference(params, x, in_mask, out_mask, rec_mask, dlogit):
    """Forward and backward written one step at a time, the form the batched
    core replaces; returns (p, parameter gradients, input gradients)."""
    T, H = x.shape[0], params.hidden_size
    W, U, b = params.w_gates, params.u_gates, params.b_gates
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h, c = np.zeros(H), np.zeros(H)
    tape, h_out = [], np.empty((T, H))
    for t in range(T):
        x_in, h_rec, c_prev = x[t] * in_mask[t], h * rec_mask, c
        z = W @ x_in + U @ h_rec + b
        i, f, g, o = sig(z[:H]), sig(z[H:2 * H]), np.tanh(z[2 * H:3 * H]), sig(z[3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        h_out[t] = h * out_mask[t]
        tape.append((x_in, h_rec, c_prev, i, f, g, o, np.tanh(c)))
    p = sig(h_out @ params.w_out + params.b_out[0])
    grads = {k: np.zeros_like(v) for k, v in params.arrays().items() if k != "w_att"}
    grads["w_out"], grads["b_out"] = dlogit @ h_out, np.array([dlogit.sum()])
    dx = np.zeros_like(x)
    dh_next, dc_next = np.zeros(H), np.zeros(H)
    for t in range(T - 1, -1, -1):
        x_in, h_rec, c_prev, i, f, g, o, tc = tape[t]
        dh = dh_next + dlogit[t] * params.w_out * out_mask[t]
        dc = dc_next + dh * o * (1 - tc ** 2)
        dz = np.concatenate([dc * g * i * (1 - i), dc * c_prev * f * (1 - f),
                             dc * i * (1 - g ** 2), dh * tc * o * (1 - o)])
        grads["w_gates"] += np.outer(dz, x_in)
        grads["u_gates"] += np.outer(dz, h_rec)
        grads["b_gates"] += dz
        dx[t] = (dz @ W) * in_mask[t]
        dh_next, dc_next = (dz @ U) * rec_mask, dc * f
    return p, grads, dx


class TestBackward:
    def test_matches_per_step_reference(self):
        # The core reorders sums (hoisted matrix products), so agreement is to
        # rounding, not bitwise.
        rng = np.random.default_rng(19)
        steps = random_step_series(rng, T=11, d_features=3)
        cfg = tiny_config(hidden_size=5, input_dropout=0.2, output_dropout=0.2,
                          recurrent_dropout=0.2)
        params = nonzero_params(cfg, steps.d)
        risk, cache = ds.forward(params, steps, mode="train", rng=np.random.default_rng(4), config=cfg)
        grads, dx = ds.backward(params, cache, steps, 1, eta=0.01)
        dlogit = _dloss_dlogit(risk.p, 1, 0.01)
        p, ref, ref_dx = per_step_reference(params, steps.x, cache.in_mask, cache.out_mask,
                                            cache.rec_mask, dlogit)
        np.testing.assert_allclose(risk.p, p, rtol=1e-12)
        for key in ref:
            np.testing.assert_allclose(grads[key], ref[key], rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-10, atol=1e-14)

    def _check_config(self, rng):
        dropout = bool(rng.integers(2))
        return ds.ModelConfig(
            hidden_size=int(rng.integers(2, 6)),
            seed=int(rng.integers(1000)),
            input_dropout=0.1 if dropout else 0.0,
            output_dropout=0.1 if dropout else 0.0,
            recurrent_dropout=0.1 if dropout else 0.0,
            attention=False,
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(8):
            cfg = self._check_config(rng)
            steps = random_step_series(rng, T=int(rng.integers(2, 7)),
                                       d_features=int(rng.integers(1, 4)))
            params = nonzero_params(cfg, steps.d, seed=int(rng.integers(1000)))
            outcome = int(rng.integers(2))
            eta = float(rng.choice([0.0, 0.01]))
            risk, cache = ds.forward(params, steps, mode="train",
                                     rng=np.random.default_rng(7), config=cfg)
            grads, dx = ds.backward(params, cache, steps, outcome, eta)
            masks = (cache.in_mask, cache.out_mask, cache.rec_mask)
            fd = finite_diff_params(params, steps, outcome, eta, masks)
            for key in grads:
                denom = np.maximum(np.maximum(np.abs(fd[key]), np.abs(grads[key])), 1e-6)
                worst = max(worst, float(np.max(np.abs(fd[key] - grads[key]) / denom)))
            eps = 1e-5
            for t in range(steps.T):
                for j in range(steps.d):
                    orig = steps.x[t, j]

                    def f():
                        cache2 = _forward_with_masks(params, steps.x, *masks)
                        r = RiskSeries(p=cache2.p, logits=cache2.logits,
                                       step_time=steps.step_time, p_base=0.0)
                        return ds.loss(r, outcome, eta)

                    steps.x[t, j] = orig + eps
                    fp = f()
                    steps.x[t, j] = orig - eps
                    fm = f()
                    steps.x[t, j] = orig
                    fdv = (fp - fm) / (2 * eps)
                    denom = max(abs(fdv), abs(dx[t, j]), 1e-6)
                    worst = max(worst, abs(fdv - dx[t, j]) / denom)
        assert worst < 1e-4

    def test_projection_bias_gradient_hand_value(self):
        # Constant-output model: the bias gradient is mean(p - outcome).
        rng = np.random.default_rng(6)
        steps = random_step_series(rng, T=5, d_features=2)
        cfg = tiny_config(input_dropout=0.0, output_dropout=0.0, recurrent_dropout=0.0)
        params = ds.model_init(cfg, steps.d)  # zero projection, p = 0.5
        for outcome in (0, 1):
            risk, cache = ds.forward(params, steps)
            grads, _ = ds.backward(params, cache, steps, outcome, eta=0.0)
            assert grads["b_out"][0] == pytest.approx(0.5 - outcome, rel=1e-12)

    def test_input_gradients_shape_and_causality(self):
        rng = np.random.default_rng(8)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        risk, cache = ds.forward(params, steps)
        _, dx = ds.backward(params, cache, steps, 1, eta=0.0)
        assert dx.shape == steps.x.shape


def mixed_length_batch(seed, lengths=(3, 7, 12), d_features=3):
    rng = np.random.default_rng(seed)
    return [random_step_series(rng, T=T, d_features=d_features) for T in lengths]


def two_sided_sigmoid(z):
    """The in-place sigmoid as it was, clipping z to [-60, 60]."""
    z = np.array(z, dtype=float)
    np.minimum(z, 60.0, out=z)
    np.maximum(z, -60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    return z


def sigmoid_is_the_two_sided_one(z):
    z = np.asarray(z, dtype=float)
    got = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model._sigmoid_inplace(got)
        want = two_sided_sigmoid(z)
    return got.tobytes() == want.tobytes()


_ULP_60 = [np.nextafter(v, w) for v in (60.0, -60.0) for w in (-math.inf, math.inf)]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=50))
@example([60.0, -60.0, *_ULP_60, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324,
          -5e-324, 2.2e-308, -2.2e-308, 0.0, -0.0])
def test_sigmoid_without_upper_clip_is_bitwise_the_two_sided_one(values):
    # From z = 60 on, exp(-z) <= 8.8e-27 < 2**-53, so 1 + exp(-z) rounds to
    # 1.0 whether or not z is clipped to 60 first.
    assert sigmoid_is_the_two_sided_one(values)


def test_sigmoid_without_upper_clip_on_a_dense_grid():
    grid = np.concatenate((np.linspace(-800.0, 800.0, 200_000), np.arange(709.0, 747.0, 0.25)))
    assert sigmoid_is_the_two_sided_one(grid)


class TestBatch:
    def _dropout_params(self, series):
        cfg = tiny_config(hidden_size=5, input_dropout=0.2, output_dropout=0.2,
                          recurrent_dropout=0.2)
        return cfg, nonzero_params(cfg, series[0].d)

    def test_gradients_are_sum_of_episode_gradients(self):
        series = mixed_length_batch(30)
        outcomes = [1, 0, 1]
        cfg, params = self._dropout_params(series)
        batch = StepBatch(series)
        assert batch.padded().shape == (12, 3, series[0].d) and batch.T == 22
        risks, cache = ds.forward(params, batch, mode="train", rng=np.random.default_rng(6), config=cfg)
        assert cache.in_mask is None  # only a single series' input gradient reads it
        grads, dx = ds.backward(params, cache, batch, outcomes, eta=0.01)
        assert dx is None

        # Per-episode calls draw the same masks from the same stream, in order.
        rng = np.random.default_rng(6)
        want = {k: np.zeros_like(v) for k, v in grads.items()}
        for b, (steps, y) in enumerate(zip(series, outcomes)):
            risk, one = ds.forward(params, steps, mode="train", rng=rng, config=cfg)
            assert np.array_equal(one.x_in, steps.x * one.in_mask)
            assert np.array_equal(cache.x_in[: steps.T, b], one.x_in)
            assert np.all(cache.x_in[steps.T :, b] == 0.0)
            assert np.array_equal(cache.rec_mask[b], one.rec_mask)
            np.testing.assert_allclose(risks[b].p, risk.p, rtol=1e-13)
            g, _ = ds.backward(params, one, steps, y, eta=0.01)
            for k in want:
                want[k] += g[k]
        for k in want:
            assert np.max(np.abs(grads[k] - want[k])) <= 1e-12 * np.max(np.abs(want[k]))

    def test_pad_steps_carry_zero_dz(self):
        series = mixed_length_batch(31)
        cfg, params = self._dropout_params(series)
        batch = StepBatch(series)
        _, cache = ds.forward(params, batch, mode="train", rng=np.random.default_rng(2), config=cfg)
        dlogit = np.zeros(cache.p.shape)
        for b, steps in enumerate(series):
            dlogit[: steps.T, b] = _dloss_dlogit(cache.p[: steps.T, b], b % 2, 0.01)
        dz = _sweep(params, cache.gates.copy(), cache.c, dlogit, cache.out_mask, cache.rec_mask)
        for b, steps in enumerate(series):
            assert np.all(dz[steps.T :, b] == 0.0)
            assert np.any(dz[: steps.T, b] != 0.0)

    def test_train_forward_masks_its_own_padded_inputs_in_place(self):
        # forward builds the padded inputs itself, so each series' input mask
        # is multiplied into that series' own rows: beyond what the cache and
        # the risks hold, it allocates less than half a (T_max, B, d) array,
        # neither a masked copy nor a batch-wide mask.
        series = mixed_length_batch(33, lengths=(80, 64, 80, 50, 72, 80), d_features=10)
        cfg = tiny_config(hidden_size=2, input_dropout=0.2, output_dropout=0.2,
                          recurrent_dropout=0.2)
        params = nonzero_params(cfg, series[0].d)
        batch = StepBatch(series)
        tracemalloc.start()
        try:
            risks, cache = ds.forward(params, batch, mode="train", rng=np.random.default_rng(4),
                                      config=cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < batch.padded().nbytes / 2, (peak, held)
        assert cache.in_mask is None
        rng = np.random.default_rng(4)  # the same draws, series by series
        for b, steps in enumerate(series):
            _, one = ds.forward(params, steps, mode="train", rng=rng, config=cfg)
            assert np.array_equal(cache.x_in[: steps.T, b], one.x_in)

    def test_backward_reuses_the_cell_state_buffer(self):
        # The sweep is the last reader of the cell states, so the hidden
        # states that the parameter gradients read go into their buffer:
        # beyond its gradients, backward allocates less than one (T_max, B, H)
        # array. The episodes are long enough that numpy's broadcasting
        # buffer of 8,192 values is small next to that array.
        series = mixed_length_batch(34, lengths=(320, 240, 320, 160))
        cfg = tiny_config(hidden_size=16, input_dropout=0.2, output_dropout=0.2,
                          recurrent_dropout=0.2)
        params = nonzero_params(cfg, series[0].d)
        batch = StepBatch(series)
        _, cache = ds.forward(params, batch, mode="train", rng=np.random.default_rng(5),
                              config=cfg)
        tracemalloc.start()
        try:
            grads, _ = ds.backward(params, cache, batch, [1, 0, 1, 0], eta=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(g.nbytes for g in grads.values()) < cache.h.nbytes

    def test_eval_hidden_states_match_single_series(self):
        series = mixed_length_batch(32)
        params = nonzero_params(tiny_config(hidden_size=5), series[0].d)
        risks, cache = ds.forward(params, StepBatch(series))
        for b, steps in enumerate(series):
            risk, one = ds.forward(params, steps)
            np.testing.assert_allclose(cache.h[: steps.T, b], one.h, rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(risks[b].p, risk.p, rtol=1e-13)
            assert np.array_equal(risks[b].step_time, steps.step_time)


def per_episode_train(corpus, config):
    """train() as it ran with one forward and backward per episode and the
    attention phase's hidden states kept for the whole corpus: the reference
    the batched loop must match to rounding."""
    train_eps = [e for e in corpus if e.split == "train"]
    val_eps = [e for e in corpus if e.split == "validation"]
    params = ds.model_init(config, corpus[0].steps.d)
    report = TrainReport()
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    def fit(phase, trainable, episode_grad, episode_val):
        adam = _Adam(trainable, lr=config.learning_rate)
        best_loss, best, best_epoch, bad = math.inf, {k: v.copy() for k, v in trainable.items()}, 0, 0
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_rng.permutation(len(train_eps))
            losses = []
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                acc = {k: np.zeros_like(v) for k, v in trainable.items()}
                for i in batch:
                    l, g = episode_grad(i)
                    losses.append(l)
                    for k in acc:
                        acc[k] += g[k]
                for k in acc:
                    acc[k] /= len(batch)
                _clip_global_norm(acc, config.clip_norm)
                adam.step(trainable, acc)
            val = [episode_val(i) for i in range(len(val_eps))]
            val_loss = float(np.mean([v[0] for v in val]))
            report.rows.append(EpochStats(phase, epoch, float(np.mean(losses)), val_loss,
                                          auroc([e.outcome for e in val_eps], [v[1] for v in val])))
            if val_loss < best_loss:
                best_loss, best_epoch, bad = val_loss, epoch, 0
                best = {k: v.copy() for k, v in trainable.items()}
            else:
                bad += 1
                if bad >= config.patience:
                    break
        for k, v in trainable.items():
            v[...] = best[k]
        return best_epoch

    def risk_grad(i):
        ep = train_eps[i]
        risk, cache = ds.forward(params, ep.steps, mode="train", rng=dropout_rng, config=config)
        return ds.loss(risk, ep.outcome, config.eta), ds.backward(params, cache, ep.steps,
                                                                  ep.outcome, config.eta)[0]

    def risk_val(i):
        risk, _ = ds.forward(params, val_eps[i].steps)
        return ds.loss(risk, val_eps[i].outcome, config.eta), float(risk.p[-1])

    trainable = {k: v for k, v in params.arrays().items() if k != "w_att"}
    report.best_epoch = fit("risk", trainable, risk_grad, risk_val)
    h_train = [ds.forward(params, e.steps)[1].h for e in train_eps]
    h_val = [ds.forward(params, e.steps)[1].h for e in val_eps]

    def attention_grad(i):
        bce, grad, _ = _attention_loss_grad(params, h_train[i], train_eps[i].outcome)
        return bce, {"w_att": grad}

    def attention_val(i):
        bce, _, pred = _attention_loss_grad(params, h_val[i], val_eps[i].outcome)
        return bce, pred

    fit("attention", {"w_att": params.w_att}, attention_grad, attention_val)
    return params, report


class TestBatchedTrain:
    def test_matches_per_episode_reference(self):
        rng = np.random.default_rng(33)
        corpus = [EncodedEpisode(f"e{i}", random_step_series(rng, T=int(rng.integers(2, 16)),
                                                             d_features=2),
                                 i % 2, "validation" if i >= 18 else "train")
                  for i in range(24)]
        cfg = tiny_config(attention=True, eta=0.01, batch_size=5, patience=3,
                          input_dropout=0.1, output_dropout=0.1, recurrent_dropout=0.1)
        got, got_report = ds.train(corpus, cfg)
        want, want_report = per_episode_train(corpus, cfg)
        assert got_report.best_epoch == want_report.best_epoch
        assert [(r.phase, r.epoch) for r in got_report.rows] == \
               [(r.phase, r.epoch) for r in want_report.rows]
        for g, w in zip(got_report.rows, want_report.rows):
            for name in ("train_loss", "val_loss", "val_auroc"):
                assert getattr(g, name) == pytest.approx(getattr(w, name), rel=1e-9)
        for k, arr in want.arrays().items():
            assert np.max(np.abs(got.arrays()[k] - arr)) <= 1e-9 * np.max(np.abs(arr))


class TestGradWrtInputs:
    def test_zero_projection_gives_zero_matrix(self):
        rng = np.random.default_rng(9)
        steps = random_step_series(rng, T=5, d_features=2)
        params = ds.model_init(tiny_config(), steps.d)
        a = ds.grad_wrt_inputs(params, steps, 4)
        assert np.all(a.a == 0.0)

    def test_matches_finite_differences_of_forward(self):
        # The window core's gradient on every input channel; grad_wrt_inputs
        # keeps each step's entry at its own feature's value channel.
        rng = np.random.default_rng(10)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        t1 = 5
        g = _risk_gradient_batch(params, [t1], [steps.x[:t1]], [(0.0, 0.0)])[0][:, 0]
        a = ds.grad_wrt_inputs(params, steps, t1)
        assert a.window == (0, t1)
        assert np.array_equal(a.a, g[np.arange(t1), steps.step_feature[:t1]])
        eps = 1e-5
        worst = 0.0
        for t in range(steps.T):  # forward over the dense rows, perturbed in place
            for j in range(steps.d):
                orig = steps.x[t, j]
                steps.x[t, j] = orig + eps
                rp = _forward_with_masks(params, steps.x, None, None, None)
                steps.x[t, j] = orig - eps
                rm = _forward_with_masks(params, steps.x, None, None, None)
                steps.x[t, j] = orig
                fd = (rp.p[t1 - 1] - rm.p[t1 - 1]) / (2 * eps)
                want = g[t, j] if t < t1 else 0.0
                worst = max(worst, abs(fd - want) / max(abs(fd), abs(want), 1e-6))
        assert worst < 1e-4

    def test_unchanged_by_future_steps(self):
        rng = np.random.default_rng(11)
        steps = random_step_series(rng, T=7, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        t1 = 4
        a = ds.grad_wrt_inputs(params, steps, t1)
        steps.step_value[t1:] += 3.0
        b = ds.grad_wrt_inputs(params, steps, t1)
        assert np.array_equal(a.a, b.a)
        assert a.a.shape == (t1,)

    def test_batched_core_matches_singles(self):
        # BLAS reduction order differs across batch shapes, so agreement is
        # to rounding, not bitwise.
        rng = np.random.default_rng(12)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        window = steps.x[2:5]
        rows = [window, window * 0.5, window + 0.1]
        state = _state_at(params, steps, 2)
        g, _ = _risk_gradient_batch(params, [3] * 3, rows, [state] * 3)
        assert g.shape == (3, 3, steps.d)
        for i in range(3):
            gi, _ = _risk_gradient_batch(params, [3], [rows[i]], [state])
            np.testing.assert_allclose(g[:, i], gi[:, 0], rtol=1e-12, atol=1e-15)

    def test_padded_rows_from_own_states_match_singles(self):
        # Rows of lengths 1 to 6, each from its own state (zero for one row);
        # each is seeded at its own last step, and its pad steps get exactly 0.
        rng = np.random.default_rng(13)
        steps = random_step_series(rng, T=12, d_features=2)
        params = nonzero_params(tiny_config(hidden_size=5), steps.d)
        _, c, h = _scan(params, steps.x[:, None])
        starts, lengths = [0, 3, 6, 2, 5], [6, 1, 4, 3, 2]
        states = [(0.0, 0.0) if s == 0 else (h[s - 1, 0], c[s - 1, 0]) for s in starts]
        rows = [steps.x[s : s + n] for s, n in zip(starts, lengths)]
        g, _ = _risk_gradient_batch(params, lengths, rows, states)
        assert g.shape == (6, 5, steps.d)
        for b, (s, n) in enumerate(zip(starts, lengths)):
            one = _risk_gradient_batch(params, [n], [steps.x[s : s + n]],
                                       [_state_at(params, steps, s)])[0][:, 0]
            np.testing.assert_allclose(g[:n, b], one, rtol=1e-12, atol=1e-18)
            assert np.all(g[n:, b] == 0.0)

    def test_padded_inputs_are_freed_before_the_sweep(self, monkeypatch):
        # Only the scan's input projection reads the padded inputs, so the
        # sweep runs without them, which keeps peak memory down.
        rng = np.random.default_rng(15)
        steps = random_step_series(rng, T=8, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        scanned, alive = [], []
        scan, sweep = model._scan, model._sweep

        def scan_spy(params, x, *args, **kwargs):
            scanned.append(weakref.ref(x))
            return scan(params, x, *args, **kwargs)

        def sweep_spy(*args, **kwargs):
            alive.extend(ref() is not None for ref in scanned)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(model, "_scan", scan_spy)
        monkeypatch.setattr(model, "_sweep", sweep_spy)
        _risk_gradient_batch(params, [8, 5], [steps.x, steps.x[:5]], [(0.0, 0.0)] * 2)
        assert alive == [False]

    def test_batch_of_windows_matches_one_window_each(self):
        rng = np.random.default_rng(14)
        series = [random_step_series(rng, T=T, d_features=2) for T in (9, 1, 17, 4)]
        params = nonzero_params(tiny_config(hidden_size=5), series[0].d)
        t1s = [9, 1, 12, 3]
        got = ds.grad_wrt_inputs(params, StepBatch(series), t1s)  # from step 0
        for a, steps, t1 in zip(got, series, t1s):
            want = ds.grad_wrt_inputs(params, steps, t1)
            np.testing.assert_allclose(a.a, want.a, rtol=1e-12, atol=1e-18)
        kept = [ds.KeptStates.of_scan(cache.h, cache.c)
                for cache in (ds.forward(params, steps)[1] for steps in series)]
        t0s = [6, 0, 5, 1]  # 6 and 5 are kept steps (strides 3 and 5), 0 and 1 are not
        got = ds.grad_wrt_inputs(params, StepBatch(series), t1s, t0s, kept)
        for a, steps, t0, t1, states in zip(got, series, t0s, t1s, kept):
            want = ds.grad_wrt_inputs(params, steps, t1, t0, states=states)
            assert a.window == (t0, t1)
            np.testing.assert_allclose(a.a, want.a, rtol=1e-12, atol=1e-18)
        with pytest.raises(ValueError, match="t0 < t1"):
            ds.grad_wrt_inputs(params, StepBatch(series), t1s, [6, 1, 4, 1])

    @pytest.mark.parametrize("t0,t1", [(0, 1), (0, 8), (1, 2), (3, 6), (5, 8), (7, 8)])
    def test_windowed_gradient_matches_full_columns(self, t0, t1):
        rng = np.random.default_rng(21)
        steps = random_step_series(rng, T=8, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        full = ds.grad_wrt_inputs(params, steps, t1)
        a = ds.grad_wrt_inputs(params, steps, t1, t0)
        assert a.window == (t0, t1) and a.a.shape == (t1 - t0,)
        np.testing.assert_allclose(a.a, full.a[t0:t1], rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("t0,t1", [(3, 3), (4, 3), (-1, 2), (0, 9)])
    def test_windowed_gradient_rejects_bad_window(self, t0, t1):
        rng = np.random.default_rng(22)
        steps = random_step_series(rng, T=8, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        with pytest.raises(ValueError, match="t0 < t1"):
            ds.grad_wrt_inputs(params, steps, t1, t0)


class TestScanState:
    @pytest.mark.parametrize("t0", [1, 4, 8])
    def test_scan_from_prefix_state_matches_full_scan(self, t0):
        rng = np.random.default_rng(23)
        x = np.stack([random_step_series(rng, T=9, d_features=2).x for _ in range(3)], axis=1)
        params = nonzero_params(tiny_config(hidden_size=5), x.shape[2])
        gates, c, h = _scan(params, x)
        for b in range(3):
            rest = _scan(params, x[t0:, b : b + 1], state=(h[t0 - 1, b], c[t0 - 1, b]))
            for got, want in zip(rest, (gates, c, h)):
                np.testing.assert_allclose(got[:, 0], want[t0:, b], rtol=1e-13, atol=1e-16)


def _restart_cases():
    for T in (1, 2, 5, 17, 140):
        stride = math.ceil(math.sqrt(T))
        for t0 in sorted({t for t in (0, 1, stride - 1, stride, stride + 1, T - 1) if 0 <= t < T}):
            yield T, t0


class TestKeptStates:
    def _episode(self, T, seed=31):
        rng = np.random.default_rng(seed + T)
        steps = random_step_series(rng, T=T, d_features=3)
        params = nonzero_params(tiny_config(hidden_size=5), steps.d)
        _, cache = ds.forward(params, steps)
        return params, steps, cache

    @pytest.mark.parametrize("T", [1, 2, 5, 16, 17, 140])
    def test_keeps_every_stride_th_state(self, T):
        _, _, cache = self._episode(T)
        kept = ds.KeptStates.of_scan(cache.h, cache.c)
        assert kept.stride == math.ceil(math.sqrt(T))
        assert np.array_equal(kept.h, cache.h[kept.stride - 1 :: kept.stride])
        assert np.array_equal(kept.c, cache.c[kept.stride - 1 :: kept.stride])
        for t0 in range(T + 1):
            s, (h, c) = kept.start(t0)
            assert s <= t0 < s + kept.stride
            if s:
                assert np.array_equal(h, cache.h[s - 1]) and np.array_equal(c, cache.c[s - 1])
            else:
                assert (h, c) == (0.0, 0.0)

    @pytest.mark.parametrize("T,t0", list(_restart_cases()))
    def test_restart_from_kept_state_is_bitwise_equal(self, T, t0):
        params, steps, cache = self._episode(T)
        kept = ds.KeptStates.of_scan(cache.h, cache.c)
        for t1 in sorted({t0 + 1, min(t0 + 4, T), T}):
            want = ds.grad_wrt_inputs(params, steps, t1, t0)
            got = ds.grad_wrt_inputs(params, steps, t1, t0, states=kept)
            assert np.array_equal(got.a, want.a) and got.window == want.window
            want = ds.integrated_gradients(params, steps, t0, t1, m=4)
            got = ds.integrated_gradients(params, steps, t0, t1, m=4, states=kept)
            assert np.array_equal(got.a, want.a) and got.window == want.window


def separable_corpus(n=40, T=8, seed=0):
    """One feature's value sign perfectly predicts the outcome."""
    rng = np.random.default_rng(seed)
    catalog = FeatureCatalog.from_ids(["sig", "noise"])
    episodes = []
    for i in range(n):
        outcome = i % 2
        feats = rng.integers(0, 2, size=T)
        values = np.array([rng.normal() if f == 1 else (1.5 if outcome else -1.5)
                           + 0.1 * rng.normal() for f in feats])
        steps = ds.StepSeries(step_feature=feats, step_value=values,
                              step_log_dt=np.full(T, 0.3), step_time=np.arange(T) * 3600.0,
                              step_raw=values.copy(), d_features=2)
        split = "validation" if i >= n - 10 else "train"
        episodes.append(EncodedEpisode(f"e{i}", steps, outcome, split))
    return episodes


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        corpus = separable_corpus(n=12)
        cfg = tiny_config(learning_rate=0.0, max_epochs=1)
        params, _ = ds.train(corpus, cfg)
        init = ds.model_init(cfg, 5)
        for k, arr in params.arrays().items():
            assert np.array_equal(arr, init.arrays()[k])

    def test_learns_separable_corpus(self):
        corpus = separable_corpus(n=60, seed=3)
        cfg = ds.ModelConfig(hidden_size=8, seed=5, max_epochs=20, learning_rate=0.02,
                             batch_size=8, attention=False)
        params, report = ds.train(corpus, cfg)
        assert max(r.val_auroc for r in report.rows if r.phase == "risk") > 0.95

    def test_smoothing_reduces_first_differences(self):
        corpus = separable_corpus(n=40, seed=2)
        base = dict(hidden_size=8, seed=5, max_epochs=8, learning_rate=0.02,
                    batch_size=8, attention=False)
        p_smooth, _ = ds.train(corpus, ds.ModelConfig(eta=0.05, **base))
        p_plain, _ = ds.train(corpus, ds.ModelConfig(eta=0.0, **base))

        def msfd(params):
            out = []
            for ep in corpus:
                if ep.split != "validation":
                    continue
                risk, _ = ds.forward(params, ep.steps)
                out.append(float(np.mean(np.square(np.diff(risk.p)))))
            return np.mean(out)

        assert msfd(p_smooth) < msfd(p_plain)

    def test_deterministic_trajectory(self):
        corpus = separable_corpus(n=16, seed=1)
        cfg = tiny_config(max_epochs=2)
        a, ra = ds.train(corpus, cfg)
        b, rb = ds.train(corpus, cfg)
        for k, arr in a.arrays().items():
            assert np.array_equal(arr, b.arrays()[k])
        assert ra.rows == rb.rows

    def test_requires_both_splits(self):
        corpus = [e for e in separable_corpus(n=12) if e.split == "train"]
        with pytest.raises(ValueError, match="splits"):
            ds.train(corpus, tiny_config())

    def test_divergence_detected(self):
        corpus = separable_corpus(n=12)
        corpus[0].steps.step_value[0] = np.nan  # poisons the loss
        with pytest.raises(TrainingDivergedError):
            ds.train(corpus, tiny_config())

    def test_max_epochs_zero_returns_init(self):
        corpus = separable_corpus(n=12)
        cfg = tiny_config(max_epochs=0, attention=True)
        params, report = ds.train(corpus, cfg)
        init = ds.model_init(cfg, 5)
        assert report.rows == []
        for k, arr in params.arrays().items():
            assert np.array_equal(arr, init.arrays()[k])


class TestAttention:
    def _params_with_attention(self, steps, seed=17):
        cfg = tiny_config(attention=True, seed=seed)
        params = nonzero_params(cfg, steps.d, seed=seed)
        return params

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(13)
        steps = random_step_series(rng, T=9, d_features=3)
        params = self._params_with_attention(steps)
        _, w, _ = ds.attention_forward(params, ds.forward(params, steps)[1].h)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_single_step_weight_one(self):
        rng = np.random.default_rng(14)
        steps = random_step_series(rng, T=1, d_features=2)
        params = self._params_with_attention(steps)
        _, w, _ = ds.attention_forward(params, ds.forward(params, steps)[1].h)
        np.testing.assert_allclose(w, [1.0])

    def test_identical_states_uniform_weights(self):
        # Constant inputs, zero recurrence, and a slammed-shut forget gate force
        # identical hidden states; equal scores must softmax to uniform.
        rng = np.random.default_rng(15)
        T, d_f = 6, 2
        steps = ds.StepSeries(step_feature=np.zeros(T, dtype=np.int64),
                              step_value=np.full(T, 1.3), step_log_dt=np.zeros(T),
                              step_time=np.arange(T, dtype=float),
                              step_raw=np.full(T, 1.3), d_features=d_f)
        params = self._params_with_attention(steps)
        params.u_gates[:] = 0.0
        params.b_gates[4 : 8] = -60.0  # forget gate ~ 0
        _, w, _ = ds.attention_forward(params, ds.forward(params, steps)[1].h)
        np.testing.assert_allclose(w, np.full(T, 1 / T), atol=1e-12)

    def test_requires_projection(self):
        rng = np.random.default_rng(16)
        steps = random_step_series(rng, T=4, d_features=2)
        params = ds.model_init(tiny_config(attention=False), steps.d)
        with pytest.raises(ValueError, match="attention"):
            ds.attention_forward(params, ds.forward(params, steps)[1].h)

    def test_attention_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        steps = random_step_series(rng, T=6, d_features=2)
        params = self._params_with_attention(steps)
        h = ds.forward(params, steps)[1].h
        _, grad, _ = _attention_loss_grad(params, h, outcome=1)
        eps = 1e-6
        worst = 0.0
        for i in range(params.w_att.shape[0]):
            for j in range(params.w_att.shape[1]):
                orig = params.w_att[i, j]
                params.w_att[i, j] = orig + eps
                lp, _, _ = _attention_loss_grad(params, h, outcome=1)
                params.w_att[i, j] = orig - eps
                lm, _, _ = _attention_loss_grad(params, h, outcome=1)
                params.w_att[i, j] = orig
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6))
        assert worst < 1e-4


class TestCheckpoint:
    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    def test_round_trip_bitwise(self, tmp_path, attention):
        corpus = separable_corpus(n=12)
        cfg = tiny_config(max_epochs=1, attention=attention)
        params, _ = ds.train(corpus, cfg)
        catalog = FeatureCatalog.from_ids(["sig", "noise"])
        stats = ds.FeatureStats({})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg, catalog, stats)
        loaded, cfg2, cat2, stats2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert cat2.ids == catalog.ids
        names = ["w_gates", "u_gates", "b_gates", "w_out", "b_out"] + ["w_att"] * attention
        assert list(params.arrays()) == list(loaded.arrays()) == names
        assert list(json.loads(path.read_text())["params"]) == names
        assert (loaded.w_att is None) == (not attention)
        for k, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[k])
        again = tmp_path / "again.json"
        save_checkpoint(again, loaded, cfg2, cat2, stats2)
        assert again.read_bytes() == path.read_bytes()

    @given(path=st.lists(st.integers(0, 20), max_size=4), value=json_values,
           delete=st.booleans())
    @example(path=[3, 0, 0], value=10**400, delete=False)  # a stats mean too large for a float
    @example(path=[5, 0, 0, 0], value=10**400, delete=False)  # such a weight
    def test_mutated_payload_loads_or_raises_value_error(self, tmp_path_factory, path, value,
                                                         delete):
        cfg = tiny_config()
        catalog = FeatureCatalog.from_ids(["sig", "noise"])
        stats = ds.FeatureStats({"sig": FeatureStat(0.5, 2.0, -1.0, 3.0, degenerate=False)})
        ckpt = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(ckpt, ds.model_init(cfg, 5), cfg, catalog, stats)
        payload = json.loads(ckpt.read_text())
        assert list(payload)[3] == "stats" and list(payload)[5] == "params"
        ckpt.write_text(json.dumps(mutate(payload, path, value, delete)))
        try:
            load_checkpoint(ckpt)
        except ValueError:
            pass

    def test_loads_checkpoint_with_catalog_fingerprint(self, tmp_path):
        # Checkpoints written before the key was dropped still carry it.
        cfg = tiny_config()
        params = ds.model_init(cfg, 5)
        catalog = FeatureCatalog.from_ids(["sig", "noise"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg, catalog, ds.FeatureStats({}))
        payload = json.loads(path.read_text())
        assert "catalog_fingerprint" not in payload
        payload["catalog_fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        loaded, _, cat2, _ = load_checkpoint(path)
        assert cat2.ids == catalog.ids
        for k, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[k])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_ties_average(self):
        assert auroc([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_nan(self):
        assert math.isnan(auroc([1, 1], [0.2, 0.4]))

    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
                              | st.floats(-1e3, 1e3, allow_nan=False)),
                    min_size=1, max_size=60))
    @example([(0, 0.0), (1, -0.0), (1, 0.0), (0, -0.0)])
    @example([(1, 0.5), (1, 0.25)])  # a single class gives nan
    def test_matches_tie_walking_ranks(self, pairs):
        labels, scores = zip(*pairs)
        assert (np.float64(auroc(labels, scores)).tobytes()
                == np.float64(tie_walking_auroc(labels, scores)).tobytes())


def tie_walking_auroc(labels, scores):
    """``auroc`` as it was written before its ranks had a closed form: each
    group of tied scores, walked in sorted order, gets its average rank."""
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
