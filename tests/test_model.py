import math

import numpy as np
import pytest

import driftscope as ds
from driftscope.events import FeatureCatalog
from driftscope.model import (
    CatalogMismatchError,
    EncodedEpisode,
    RiskSeries,
    TrainingDivergedError,
    _attention_loss_grad,
    _dloss_dlogit,
    _forward_with_masks,
    _risk_gradient_batch,
    auroc,
    catalog_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from conftest import random_step_series


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
        from dataclasses import replace
        prefix = replace(
            steps, x=steps.x[:8], step_feature=steps.step_feature[:8],
            step_time=steps.step_time[:8], step_raw=steps.step_raw[:8],
        )
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

    def test_repeat_on_one_cache_is_identical(self):
        # The reverse sweep works in place on a copy; the cache is left intact.
        rng = np.random.default_rng(20)
        steps = random_step_series(rng, T=9, d_features=3)
        cfg = tiny_config(input_dropout=0.2, output_dropout=0.2, recurrent_dropout=0.2)
        params = nonzero_params(cfg, steps.d)
        _, cache = ds.forward(params, steps, mode="train", rng=np.random.default_rng(3), config=cfg)
        g1, dx1 = ds.backward(params, cache, steps, 1, eta=0.01)
        g2, dx2 = ds.backward(params, cache, steps, 1, eta=0.01)
        for key in g1:
            assert np.array_equal(g1[key], g2[key])
        assert np.array_equal(dx1, dx2)

    def test_input_gradients_shape_and_causality(self):
        rng = np.random.default_rng(8)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        risk, cache = ds.forward(params, steps)
        _, dx = ds.backward(params, cache, steps, 1, eta=0.0)
        assert dx.shape == steps.x.shape


class TestGradWrtInputs:
    def test_zero_projection_gives_zero_matrix(self):
        rng = np.random.default_rng(9)
        steps = random_step_series(rng, T=5, d_features=2)
        params = ds.model_init(tiny_config(), steps.d)
        a = ds.grad_wrt_inputs(params, steps, 4)
        assert np.all(a.a == 0.0)

    def test_matches_finite_differences_of_forward(self):
        rng = np.random.default_rng(10)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        t1 = 5
        a = ds.grad_wrt_inputs(params, steps, t1)
        eps = 1e-5
        worst = 0.0
        for t in range(steps.T):
            for j in range(steps.d):
                orig = steps.x[t, j]
                steps.x[t, j] = orig + eps
                rp, _ = ds.forward(params, steps)
                steps.x[t, j] = orig - eps
                rm, _ = ds.forward(params, steps)
                steps.x[t, j] = orig
                fd = (rp.p[t1 - 1] - rm.p[t1 - 1]) / (2 * eps)
                worst = max(worst, abs(fd - a.a[j, t]) / max(abs(fd), abs(a.a[j, t]), 1e-6))
        assert worst < 1e-4

    def test_unchanged_by_future_steps(self):
        rng = np.random.default_rng(11)
        steps = random_step_series(rng, T=7, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        t1 = 4
        a = ds.grad_wrt_inputs(params, steps, t1)
        steps.x[t1:, : steps.d_features] += 3.0
        b = ds.grad_wrt_inputs(params, steps, t1)
        assert np.array_equal(a.a, b.a)
        assert np.all(a.a[:, t1:] == 0.0)

    def test_batched_core_matches_singles(self):
        # BLAS reduction order differs across batch shapes, so agreement is
        # to rounding, not bitwise.
        rng = np.random.default_rng(12)
        steps = random_step_series(rng, T=6, d_features=2)
        params = nonzero_params(tiny_config(), steps.d)
        xs = np.stack([steps.x, steps.x * 0.5, steps.x + 0.1])
        p, g = _risk_gradient_batch(params, xs, 5)
        for i in range(3):
            pi, gi = _risk_gradient_batch(params, xs[i][None], 5)
            np.testing.assert_allclose(g[i], gi[0], rtol=1e-12, atol=1e-15)
            assert p[i] == pytest.approx(pi[0], rel=1e-12)


    def test_batched_core_probability_matches_forward(self):
        rng = np.random.default_rng(21)
        steps = random_step_series(rng, T=8, d_features=3)
        params = nonzero_params(tiny_config(), steps.d)
        risk, _ = ds.forward(params, steps)
        for t1 in (1, 4, 8):
            p, _ = _risk_gradient_batch(params, steps.x[None], t1)
            assert p[0] == pytest.approx(risk.p[t1 - 1], rel=1e-12)


def separable_corpus(n=40, T=8, seed=0):
    """One feature's value sign perfectly predicts the outcome."""
    rng = np.random.default_rng(seed)
    catalog = FeatureCatalog.from_ids(["sig", "noise"])
    episodes = []
    for i in range(n):
        outcome = i % 2
        feats = rng.integers(0, 2, size=T)
        x = np.zeros((T, 5))
        for t in range(T):
            f = feats[t]
            v = rng.normal() if f == 1 else (1.5 if outcome else -1.5) + 0.1 * rng.normal()
            x[t, f] = v
            x[t, 2 + f] = 1.0
            x[t, 4] = 0.3
        steps = ds.StepSeries(x=x, step_feature=feats,
                              step_time=np.arange(T) * 3600.0,
                              step_raw=x[np.arange(T), feats].copy(), d_features=2)
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
        corpus[0].steps.x[0, 0] = np.nan  # poisons the loss
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
        _, w = ds.attention_forward(params, steps)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_single_step_weight_one(self):
        rng = np.random.default_rng(14)
        steps = random_step_series(rng, T=1, d_features=2)
        params = self._params_with_attention(steps)
        _, w = ds.attention_forward(params, steps)
        np.testing.assert_allclose(w, [1.0])

    def test_identical_states_uniform_weights(self):
        # Constant inputs, zero recurrence, and a slammed-shut forget gate force
        # identical hidden states; equal scores must softmax to uniform.
        rng = np.random.default_rng(15)
        T, d_f = 6, 2
        x = np.zeros((T, 2 * d_f + 1))
        x[:, 0] = 1.3
        x[:, d_f] = 1.0
        steps = ds.StepSeries(x=x, step_feature=np.zeros(T, dtype=np.int64),
                              step_time=np.arange(T, dtype=float),
                              step_raw=x[:, 0].copy(), d_features=d_f)
        params = self._params_with_attention(steps)
        params.u_gates[:] = 0.0
        params.b_gates[4 : 8] = -60.0  # forget gate ~ 0
        _, w = ds.attention_forward(params, steps)
        np.testing.assert_allclose(w, np.full(T, 1 / T), atol=1e-12)

    def test_requires_projection(self):
        rng = np.random.default_rng(16)
        steps = random_step_series(rng, T=4, d_features=2)
        params = ds.model_init(tiny_config(attention=False), steps.d)
        with pytest.raises(ValueError, match="attention"):
            ds.attention_forward(params, steps)

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
    def test_round_trip_bitwise(self, tmp_path):
        corpus = separable_corpus(n=12)
        cfg = tiny_config(max_epochs=1, attention=True)
        params, _ = ds.train(corpus, cfg)
        catalog = FeatureCatalog.from_ids(["sig", "noise"])
        stats = ds.FeatureStats({})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg, catalog, stats)
        loaded, cfg2, cat2, _ = load_checkpoint(path, expected_catalog=catalog)
        assert cfg2 == cfg
        assert cat2.ids == catalog.ids
        for k, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[k])

    def test_refuses_mismatched_catalog(self, tmp_path):
        cfg = tiny_config()
        params = ds.model_init(cfg, 5)
        catalog = FeatureCatalog.from_ids(["sig", "noise"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, cfg, catalog, ds.FeatureStats({}))
        other = FeatureCatalog.from_ids(["sig", "other"])
        with pytest.raises(CatalogMismatchError):
            load_checkpoint(path, expected_catalog=other)

    def test_fingerprint_depends_on_catalog(self):
        a = catalog_fingerprint(FeatureCatalog.from_ids(["x", "y"]))
        b = catalog_fingerprint(FeatureCatalog.from_ids(["x", "z"]))
        assert a != b


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_ties_average(self):
        assert auroc([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_nan(self):
        assert math.isnan(auroc([1, 1], [0.2, 0.4]))
