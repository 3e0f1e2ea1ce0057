import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import driftscope as ds
import driftscope.attribution as attribution
import driftscope.model as model
from driftscope.attribution import (
    IG_ROWS,
    IG_TOLERANCE,
    RATIO_METHODS,
    AttributionMatrix,
    adaptive_integrated_gradients,
    build_carry_forward_baseline,
    discrete_time_derivatives,
    integrated_gradients,
    random_guess,
    time_diff,
    time_restrict,
    top_k_explanations,
)
from driftscope.events import EventSequence, FeatureCatalog, StepSeries, encode_steps
from driftscope.linear_system import LDSystem, lds_integrated_gradient, lds_run
from driftscope.model import RiskSeries
from conftest import (events_of, identity_stats, random_step_series, single_feature_steps,
                      step_prefix)


def steps_from_features(features, values=None, times=None, catalog=None):
    ids = sorted(set(features)) if catalog is None else list(catalog.ids)
    catalog = catalog or FeatureCatalog.from_ids(ids)
    values = values if values is not None else [0.0] * len(features)
    times = times if times is not None else [3600.0 * i for i in range(len(features))]
    seq = EventSequence(
        "e", events_of(zip(times, features, values)), 0, "train"
    )
    return encode_steps(seq, catalog, identity_stats(catalog.ids)), catalog


def episode_weights(w, method="gradient") -> AttributionMatrix:
    """Weights over a whole episode of len(w) steps."""
    w = np.asarray(w, dtype=float)
    return AttributionMatrix(w, method, (0, len(w)))


def steps_of(feats, d_features, values=None):
    """A valid step series whose step j carries feature ``feats[j]``."""
    T = len(feats)
    feats = np.asarray(feats, dtype=np.int64).reshape(T)
    values = np.arange(1.0, T + 1) if values is None else np.asarray(values, dtype=float)
    return StepSeries(step_feature=feats, step_value=values, step_log_dt=np.full(T, 0.5),
                      step_time=3600.0 * np.arange(T), step_raw=values.copy(),
                      d_features=d_features)


# The loops the window-local functions replaced, kept as references. Each
# takes and returns weights over the whole episode, zero outside the window.

def reference_top_k(w, steps, k):
    candidates = [(float(w[j]), j + 1, int(steps.step_feature[j]))
                  for j in range(len(w)) if w[j] != 0.0]
    candidates.sort(key=lambda c: (-c[0], -c[1], c[2]))
    items, seen = [], set()
    for weight, step, feature in candidates:
        if feature in seen:
            continue
        seen.add(feature)
        items.append((step, feature, weight))
        if len(items) == k:
            break
    return items


def reference_time_diff(w, method, steps, t0, t1):
    neutral = 1.0 if method in RATIO_METHODS else 0.0
    baseline = {}
    for j in range(t0):
        f = int(steps.step_feature[j])
        baseline[f] = max(baseline[f], w[j]) if f in baseline else w[j]
    out = np.zeros_like(w)
    for j in range(t0, t1):
        out[j] = w[j] - baseline.get(int(steps.step_feature[j]), neutral)
    return out


def reference_carry_forward_x(steps, t0):
    x = steps.x.copy()
    last = {}
    for j in range(t0):
        f = int(steps.step_feature[j])
        last[f] = x[j, f]
    for j in range(t0, steps.T):
        f = int(steps.step_feature[j])
        x[j, f] = last.get(f, 0.0)
    return x


# Weights with ties, both signed zeros and a few arbitrary values.
tie_weights = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0]) | st.floats(-5, 5)


@st.composite
def windowed_episodes(draw, max_T=14):
    """(steps, weights over the episode, t0, t1) with repeated features."""
    T = draw(st.integers(1, max_T))
    d_f = draw(st.integers(1, 4))
    feats = draw(st.lists(st.integers(0, d_f - 1), min_size=T, max_size=T))
    w = np.array(draw(st.lists(tie_weights, min_size=T, max_size=T)))
    t0 = draw(st.integers(0, T))
    t1 = draw(st.integers(t0, T))
    return steps_of(feats, d_f), w, t0, t1


class TestTimeRestrict:
    def test_window_masks_steps(self):
        a = episode_weights([0.5, -0.2, 0.3, 0.1])
        out = time_restrict(a, 2, 4)
        np.testing.assert_array_equal(out.a, [0.3, 0.1])
        assert out.window == (2, 4)

    def test_identity_window(self):
        a = episode_weights([1.0, 2.0, 3.0])
        out = time_restrict(a, 0, 3)
        np.testing.assert_array_equal(out.a, a.a)
        assert out.window == a.window

    def test_empty_window(self):
        a = episode_weights([1.0, 2.0, 3.0])
        out = time_restrict(a, 2, 2)
        assert out.a.shape == (0,) and out.window == (2, 2)

    def test_inverted_window_rejected(self):
        a = episode_weights(np.zeros(3))
        with pytest.raises(ValueError):
            time_restrict(a, 3, 1)

    @pytest.mark.parametrize("t0,t1", [(0, 3), (1, 5), (-1, 2), (0, 5)])
    def test_window_outside_weights_rejected(self, t0, t1):
        a = time_restrict(episode_weights(np.arange(1.0, 5.0)), 1, 4)
        with pytest.raises(ValueError, match="not inside"):
            time_restrict(a, t0, t1)

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
        st.data(),
    )
    def test_idempotent_and_commutes_with_scaling(self, weights, data):
        T = len(weights)
        a = episode_weights(weights)
        t0 = data.draw(st.integers(0, T))
        t1 = data.draw(st.integers(t0, T))
        once = time_restrict(a, t0, t1)
        twice = time_restrict(once, t0, t1)
        assert np.array_equal(once.a, twice.a)
        assert np.array_equal(once.a, np.asarray(weights)[t0:t1])
        s0 = data.draw(st.integers(t0, t1))
        s1 = data.draw(st.integers(s0, t1))
        assert np.array_equal(time_restrict(once, s0, s1).a, np.asarray(weights)[s0:s1])
        scaled = time_restrict(episode_weights(a.a * 3.5), t0, t1)
        np.testing.assert_allclose(scaled.a, once.a * 3.5)

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_weights_must_be_one_per_step(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            AttributionMatrix(np.zeros(shape), "gradient", (0, 2))

    @pytest.mark.parametrize("window", [(0, 2), (1, 5), (-1, 2), (3, 0)])
    def test_weights_must_fill_the_window(self, window):
        with pytest.raises(ValueError, match="3 attribution weights for window"):
            AttributionMatrix(np.zeros(3), "gradient", window)


class TestCarryForwardBaseline:
    def test_single_feature_example(self):
        steps, _ = single_feature_steps([99.0, 100.1, 100.2, 100.9], feature="temp")
        baseline = build_carry_forward_baseline(steps, 2)
        np.testing.assert_allclose(baseline.x[:, 0], [99.0, 100.1, 100.1, 100.1])

    def test_interleaved_pattern(self):
        # temp at steps 1, 4, 6, 7, another feature in between; the temperature
        # track of the baseline is 99, _, _, 100.1, _, 100.1, 100.1 and the
        # other feature carries forward its own last pre-window value.
        features = ["temp", "other", "other", "temp", "other", "temp", "temp"]
        values = [99.0, 7.0, 8.0, 100.1, 9.0, 100.2, 100.9]
        steps, catalog = steps_from_features(features, values)
        ti = catalog.ids.index("temp")
        oi = catalog.ids.index("other")
        baseline = build_carry_forward_baseline(steps, 4)
        temp_steps = [j for j, f in enumerate(features) if f == "temp"]
        np.testing.assert_allclose(baseline.x[temp_steps, ti], [99.0, 100.1, 100.1, 100.1])
        other_steps = [j for j, f in enumerate(features) if f == "other"]
        np.testing.assert_allclose(baseline.x[other_steps, oi], [7.0, 8.0, 8.0])

    def test_never_observed_feature_gets_zero(self):
        features = ["a", "a", "b", "b"]
        values = [1.0, 2.0, 3.0, 4.0]
        steps, catalog = steps_from_features(features, values)
        baseline = build_carry_forward_baseline(steps, 2)
        bi = catalog.ids.index("b")
        np.testing.assert_array_equal(baseline.x[2:, bi], [0.0, 0.0])

    def test_pattern_channels_bitwise_equal(self):
        rng = np.random.default_rng(0)
        steps = random_step_series(rng, T=15, d_features=4)
        baseline = build_carry_forward_baseline(steps, 6)
        d_f = steps.d_features
        assert np.array_equal(baseline.x[:, d_f:], steps.x[:, d_f:])
        # every post-t0 value equals some pre-t0 value of the same feature or 0
        for j in range(6, steps.T):
            f = int(steps.step_feature[j])
            prior = [steps.x[i, f] for i in range(6) if steps.step_feature[i] == f]
            assert baseline.x[j, f] in prior + [0.0]


    @given(windowed_episodes(), st.sampled_from(["start", "end", "any"]))
    def test_matches_reference_loop(self, episode, where):
        steps, _, t0, _ = episode
        t0 = {"start": 0, "end": steps.T, "any": t0}[where]
        baseline = build_carry_forward_baseline(steps, t0)
        assert baseline.x.tobytes() == reference_carry_forward_x(steps, t0).tobytes()
        for name in ("step_feature", "step_time", "step_raw"):
            assert np.array_equal(getattr(baseline, name), getattr(steps, name))


class TestIntegratedGradients:
    def _trained_tiny(self, steps, seed=31):
        rng = np.random.default_rng(seed)
        cfg = ds.ModelConfig(hidden_size=6, seed=seed, attention=False)
        params = ds.model_init(cfg, steps.d)
        params.w_out[:] = rng.normal(size=6) * 0.6
        params.b_out[:] = 0.1
        return params

    def test_zero_when_nothing_changed(self):
        # All post-t0 values repeat the pre-t0 value of their feature.
        features = ["a", "b", "a", "b"]
        values = [1.0, 2.0, 1.0, 2.0]
        steps, _ = steps_from_features(features, values)
        params = self._trained_tiny(steps)
        a = integrated_gradients(params, steps, 2, 4, m=8)
        assert np.all(a.a == 0.0)

    def test_completeness_against_forward_oracle(self):
        rng = np.random.default_rng(1)
        steps = random_step_series(rng, T=12, d_features=3)
        params = self._trained_tiny(steps)
        t0, t1 = 4, 11
        baseline = build_carry_forward_baseline(steps, t0)
        want = (
            ds.forward(params, steps)[0].p[t1 - 1]
            - ds.forward(params, baseline)[0].p[t1 - 1]
        )
        gaps = []
        for m in (2, 4, 8, 16, 64, 256):
            a = integrated_gradients(params, steps, t0, t1, m=m)
            gaps.append(abs(float(a.a.sum()) - want))
        assert gaps[-1] < 1e-6
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_completeness_from_episode_start(self):
        # At t0 = 0 the baseline holds every value channel at 0, and the path
        # scan starts from the zero state.
        rng = np.random.default_rng(3)
        steps = random_step_series(rng, T=10, d_features=3)
        params = self._trained_tiny(steps)
        t1 = 7
        baseline = build_carry_forward_baseline(steps, 0)
        assert np.all(baseline.x[:, : steps.d_features] == 0.0)
        want = (
            ds.forward(params, steps)[0].p[t1 - 1]
            - ds.forward(params, baseline)[0].p[t1 - 1]
        )
        gaps = []
        for m in (8, 32, 128, 512):
            a = integrated_gradients(params, steps, 0, t1, m=m)
            assert a.window == (0, t1) and a.a.shape == (t1,)
            gaps.append(abs(float(a.a.sum()) - want))
        assert gaps[-1] < 1e-6
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_matches_linear_system_closed_form(self):
        # Quadratic risk makes the midpoint rule exact at any m, so the general
        # path-integrated machinery must agree with the closed form exactly.
        rng = np.random.default_rng(5)
        n, d, T = 3, 4, 7
        sys = LDSystem(a=rng.normal(size=(n, n)) * 0.5, b=rng.normal(size=(n, d)),
                       h0=rng.normal(size=n))
        x = rng.normal(size=(T, d))
        b = rng.normal(size=(T, d))
        t1 = 6
        closed = lds_integrated_gradient(sys, b, x, t1)
        for m in (1, 3, 8):
            alphas = attribution._rung_alphas(m, nested=False)
            total = np.zeros((t1, d))
            for row in attribution._path_rows(x[:t1], b[:t1], alphas):
                trace = lds_run(sys, row)
                total += [ds.lds_input_gradient(sys, trace, t, t1) for t in range(1, t1 + 1)]
            got = ((x[:t1] - b[:t1]) * (total / m)).T
            np.testing.assert_allclose(got, closed, rtol=1e-9, atol=1e-9)

    def test_peak_memory_is_the_row_cores(self):
        # The 64 path points are built one at a time as the window-row core
        # copies them into its padded batch: the call holds its rows once.
        rng = np.random.default_rng(8)
        steps = random_step_series(rng, T=60, d_features=8)
        params = self._trained_tiny(steps)
        x, b = steps.x, build_carry_forward_baseline(steps, 0).x
        rows = list(attribution._path_rows(x, b, attribution._rung_alphas(64, nested=False)))
        peaks = []
        for call in (lambda: model._risk_gradient_batch(params, [60] * 64, rows,
                                                        [(0.0, 0.0)] * 64),
                     lambda: integrated_gradients(params, steps, 0, 60, m=64)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.03 * peaks[0]

    def test_window_applied(self):
        rng = np.random.default_rng(2)
        steps = random_step_series(rng, T=10, d_features=3)
        params = self._trained_tiny(steps)
        a = integrated_gradients(params, steps, 3, 8, m=4)
        assert a.window == (3, 8)
        assert a.a.shape == (5,)


def nonlinear_windows(seed=7):
    """A model whose completeness residuals at 8 midpoints straddle
    IG_TOLERANCE, and windows of 4 to 20 steps on four series, each given
    with and without its kept states."""
    rng = np.random.default_rng(seed)
    series = [random_step_series(rng, T=T, d_features=3) for T in (6, 12, 20, 30)]
    params = ds.model_init(ds.ModelConfig(hidden_size=6, seed=31, attention=False), series[0].d)
    params.w_gates *= 4.0
    params.w_out[:] = np.random.default_rng(31).normal(size=6) * 2.0
    windows = []
    for steps in series:
        _, cache = ds.forward(params, steps)
        kept = ds.KeptStates.of_scan(cache.h, cache.c)
        T = steps.T
        for t0, t1 in ((T // 3, T), (0, T // 2 + 1)):
            windows += [(steps, t0, t1, None), (steps, t0, t1, kept)]
    return params, windows


def completeness_gap(params, steps, t0, t1, a):
    baseline = build_carry_forward_baseline(steps, t0)
    want = ds.forward(params, steps)[0].p[t1 - 1] - ds.forward(params, baseline)[0].p[t1 - 1]
    return abs(float(a.sum()) - want)


class TestAdaptiveIntegratedGradients:
    def test_nested_rungs_equal_fresh_midpoint_sums(self):
        # A window that stops at 24 midpoints summed 8 of them at the first
        # rung and 16 new ones at the second: the fresh 24-point sum, to rounding.
        params, windows = nonlinear_windows()
        paths = adaptive_integrated_gradients(params, windows, 64)
        assert {p.points for p in paths} == {8, 24}
        for (steps, t0, t1, kept), p in zip(windows, paths):
            assert p.used == p.points
            want = integrated_gradients(params, steps, t0, t1, m=p.points, states=kept)
            got = integrated_gradients(params, steps, t0, t1, m=64, states=kept, weights=p.weights)
            np.testing.assert_allclose(got.a, want.a, rtol=1e-12, atol=1e-17)
        nested = np.sort(np.concatenate([attribution._rung_alphas(8, nested=False),
                                         attribution._rung_alphas(24, nested=True)]))
        np.testing.assert_allclose(nested, attribution._rung_alphas(24, nested=False), rtol=1e-15)

    def test_early_stop_is_complete_to_the_tolerance(self):
        params, windows = nonlinear_windows()
        for (steps, t0, t1, kept), p in zip(windows, adaptive_integrated_gradients(params, windows, 64)):
            assert p.points < 64 and p.residual < IG_TOLERANCE
            gap = completeness_gap(params, steps, t0, t1, p.weights)
            assert gap == pytest.approx(p.residual, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("m", [9, 24, 64, 100])
    def test_capped_window_is_the_fixed_m_result_bitwise(self, monkeypatch, m):
        # No residual is below a tolerance of 0, so every window climbs the
        # nested rungs below m and ends with the fresh m-point rung.
        monkeypatch.setattr(attribution, "IG_TOLERANCE", 0.0)
        params, windows = nonlinear_windows()
        last_nested = {9: 8, 24: 8, 64: 24, 100: 72}[m]
        for (steps, t0, t1, kept), p in zip(windows, adaptive_integrated_gradients(params, windows, m)):
            assert (p.points, p.used) == (m, last_nested + m)
            want = integrated_gradients(params, steps, t0, t1, m=m, states=kept)
            got = integrated_gradients(params, steps, t0, t1, m=m, states=kept, weights=p.weights)
            assert got.a.tobytes() == want.a.tobytes()
            assert p.residual == pytest.approx(completeness_gap(params, steps, t0, t1, p.weights),
                                               rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 4, 7, 8])
    def test_m_up_to_the_first_rung_is_one_fixed_rung(self, m):
        params, windows = nonlinear_windows()
        for (steps, t0, t1, kept), p in zip(windows, adaptive_integrated_gradients(params, windows, m)):
            assert (p.points, p.used) == (m, m)
            want = integrated_gradients(params, steps, t0, t1, m=m, states=kept)
            got = integrated_gradients(params, steps, t0, t1, m=m, states=kept, weights=p.weights)
            assert got.a.tobytes() == want.a.tobytes()

    def test_no_risk_gradient_call_exceeds_ig_rows(self, monkeypatch):
        rows = []
        core = model._risk_gradient_batch

        def counted(params, lengths, rows_in, states):
            rows.append(len(lengths))
            return core(params, lengths, rows_in, states)

        monkeypatch.setattr(model, "_risk_gradient_batch", counted)
        monkeypatch.setattr(attribution, "_risk_gradient_batch", counted)
        monkeypatch.setattr(attribution, "IG_TOLERANCE", 0.0)
        params, windows = nonlinear_windows()
        adaptive_integrated_gradients(params, windows, 200)
        steps, t0, t1, kept = windows[0]
        integrated_gradients(params, steps, t0, t1, m=200, states=kept)
        # 16 windows: 2 endpoints and 8 points each at the first rung, 16 at
        # the second, 48 at the third, then 200 fresh points each
        assert sum(rows) == 16 * (10 + 16 + 48 + 200) + 200
        assert max(rows) == IG_ROWS
        assert len(rows) < 16 * (3 + 4) + 4  # rungs batch rows across windows

    def test_rejects_bad_input(self):
        params, windows = nonlinear_windows()
        with pytest.raises(ValueError, match="m must be >= 1"):
            adaptive_integrated_gradients(params, windows, 0)
        steps = windows[0][0]
        with pytest.raises(ValueError, match="t0"):
            adaptive_integrated_gradients(params, [(steps, 3, 3, None)], 64)
        assert adaptive_integrated_gradients(params, [], 64) == []


class TestDiscreteTimeDerivatives:
    def test_arithmetic_example(self):
        steps, _ = steps_from_features(["c", "a", "b"])
        risk = RiskSeries(p=np.array([0.1, 0.3, 0.25]), logits=np.zeros(3),
                          step_time=steps.step_time, p_base=0.07)
        a = discrete_time_derivatives(risk, steps)
        assert a.a[1] == pytest.approx(0.2)
        assert a.a[2] == pytest.approx(-0.05)
        restricted = time_restrict(a, 1, 3)
        assert restricted.a.sum() == pytest.approx(0.25 - 0.1)

    def test_constant_risk_zero_columns(self):
        steps, _ = steps_from_features(["f"] * 4)
        risk = RiskSeries(p=np.full(4, 0.4), logits=np.zeros(4),
                          step_time=steps.step_time, p_base=0.1)
        a = discrete_time_derivatives(risk, steps)
        assert np.all(a.a[1:] == 0.0)
        assert a.a[0] == pytest.approx(0.3)

    def test_append_invariance(self):
        rng = np.random.default_rng(3)
        steps = random_step_series(rng, T=9, d_features=2)
        cfg = ds.ModelConfig(hidden_size=4, seed=9, attention=False)
        params = ds.model_init(cfg, steps.d)
        params.w_out[:] = rng.normal(size=4)
        risk, _ = ds.forward(params, steps)
        a_full = discrete_time_derivatives(risk, steps)
        prefix = step_prefix(steps, 6)
        risk_p, _ = ds.forward(params, prefix)
        a_prefix = discrete_time_derivatives(risk_p, prefix)
        assert np.array_equal(a_full.a[:6], a_prefix.a)

    def test_telescoping_property(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = int(rng.integers(2, 30))
            p = rng.random(T)
            steps = random_step_series(rng, T=T, d_features=3)
            risk = RiskSeries(p=p, logits=np.zeros(T), step_time=steps.step_time,
                              p_base=float(rng.random()))
            a = discrete_time_derivatives(risk, steps)
            t0 = int(rng.integers(0, T))
            t1 = int(rng.integers(t0, T)) if t0 < T else T
            window_sum = float(time_restrict(a, t0, t1).a.sum())
            p0 = risk.p_base if t0 == 0 else p[t0 - 1]
            p1 = p0 if t1 == t0 else p[t1 - 1]
            assert abs(window_sum - (p1 - p0)) < 1e-12


class TestTimeDiff:
    def test_max_subtraction_example(self):
        features = ["f", "g", "f", "g"]
        steps, _ = steps_from_features(features)
        weights = np.array([0.2, 0.7, 0.5, 0.7])
        a = episode_weights(weights, "odds_ratio")
        out = time_diff(a, steps, 2, 4)
        assert out.window == (2, 4)
        assert out.a[0] == pytest.approx(0.3)
        assert out.a[1] == pytest.approx(0.0)
        assert out.method == "odds_ratio_diff"

    def test_constant_weights_vanish(self):
        steps, _ = steps_from_features(["f"] * 6)
        a = episode_weights(np.full(6, 2.4), "rothman")
        out = time_diff(a, steps, 3, 6)
        assert np.all(out.a == 0.0)

    def test_neutral_weight_for_new_feature(self):
        features = ["old", "old", "new"]
        steps, _ = steps_from_features(features)
        a = episode_weights([1.0, 1.0, 4.0], "odds_ratio")
        out = time_diff(a, steps, 2, 3)
        assert out.a[0] == pytest.approx(3.0)
        # additive methods difference against 0 instead
        a2 = episode_weights([1.0, 1.0, 4.0], "gradient")
        out2 = time_diff(a2, steps, 2, 3)
        assert out2.a[0] == pytest.approx(4.0)

    def test_rejects_weights_of_another_length(self):
        steps, _ = steps_from_features(["f"] * 3)
        with pytest.raises(ValueError, match=r"weights over \(0, 4\] of 3 steps"):
            time_diff(episode_weights(np.ones(4), "odds_ratio"), steps, 1, 3)

    @pytest.mark.parametrize("window,t0,t1", [((1, 3), 1, 3), ((0, 2), 1, 3), ((0, 3), 2, 1)])
    def test_rejects_window_outside_weights(self, window, t0, t1):
        steps, _ = steps_from_features(["f"] * 3)
        a = AttributionMatrix(np.ones(window[1] - window[0]), "odds_ratio", window)
        with pytest.raises(ValueError, match="cannot difference"):
            time_diff(a, steps, t0, t1)

    def test_latest_variant(self):
        features = ["f", "f", "f"]
        steps, _ = steps_from_features(features)
        a = episode_weights([5.0, 1.0, 4.0], "odds_ratio")
        by_max = time_diff(a, steps, 2, 3)
        assert by_max.a[0] == pytest.approx(-1.0)

    @given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=2, max_size=10))
    def test_repeated_profile_is_zero_inside_window(self, profile):
        # Same per-feature weight before and after t0 diffs to zero.
        T = 2 * len(profile)
        steps, _ = steps_from_features(["f"] * T)
        a = episode_weights(profile + profile, "odds_ratio")
        out = time_diff(a, steps, len(profile), T)
        maxes = np.maximum.accumulate(profile)
        for j, w in enumerate(profile):
            expected = w - maxes[len(profile) - 1]
            assert out.a[j] == pytest.approx(min(expected, 0.0) if expected <= 0 else expected)

    @given(windowed_episodes(), st.sampled_from(["odds_ratio", "rothman", "gradient"]))
    @example((steps_of([0, 1, 0], 2), np.array([1.0, 2.0, -0.0]), 0, 3), "odds_ratio")
    @example((steps_of([0, 1, 0], 3), np.array([-0.0, 0.0, 2.0]), 2, 3), "gradient")
    def test_matches_reference_loop(self, episode, method):
        steps, w, t0, t1 = episode
        out = time_diff(episode_weights(w, method), steps, t0, t1)
        assert out.window == (t0, t1) and out.method == f"{method}_diff"
        assert np.array_equal(out.a, reference_time_diff(w, method, steps, t0, t1)[t0:t1])


class TestRandomGuess:
    def _window(self):
        features = ["a", "a", "b", "c", "d", "e", "b"]
        return steps_from_features(features)

    def test_forced_selection_with_exactly_k_features(self):
        steps, _ = steps_from_features(["a", "b", "c"])
        expl = random_guess(steps, 0, 3, 3, seed=0)
        assert sorted(it.feature for it in expl.items) == [0, 1, 2]
        assert not expl.short

    def test_deterministic_per_seed(self):
        steps, _ = self._window()
        a = random_guess(steps, 0, 7, 3, seed=42)
        b = random_guess(steps, 0, 7, 3, seed=42)
        assert a == b

    def test_short_when_too_few_features(self):
        steps, _ = steps_from_features(["a", "a", "b"])
        expl = random_guess(steps, 0, 3, 3, seed=1)
        assert expl.short
        assert sorted(it.feature for it in expl.items) == [0, 1]

    def test_uniform_over_distinct_feature_subsets(self):
        # Oracle: enumerate distinct-feature k-subsets for exact inclusion
        # probabilities, then compare against sampled frequencies.
        steps, catalog = self._window()
        k = 3
        events = list(range(7))
        feats = steps.step_feature
        valid = [
            c for c in itertools.combinations(events, k)
            if len({int(feats[j]) for j in c}) == k
        ]
        incl = np.zeros(catalog.d_features)
        for c in valid:
            for j in c:
                incl[feats[j]] += 1
        incl /= len(valid)
        n = 10_000
        counts = np.zeros(catalog.d_features)
        for s in range(n):
            for it in random_guess(steps, 0, 7, k, seed=s).items:
                counts[it.feature] += 1
        freq = counts / n
        sigma = np.sqrt(incl * (1 - incl) / n)
        assert np.all(np.abs(freq - incl) <= 3 * sigma + 1e-12)


    def test_bounded_time_on_one_dominant_feature(self):
        # 196 events of one feature plus 4 singletons: a rejection sampler
        # over event subsets needs about C(200, 5) / 196 tries per draw.
        steps, _ = steps_from_features(["a"] * 196 + ["b", "c", "d", "e"])
        start = time.perf_counter()
        for s in range(25):
            expl = random_guess(steps, 0, 200, 5, seed=s)
            assert len({it.feature for it in expl.items}) == 5 and not expl.short
        assert time.perf_counter() - start < 1.0


class TestTopK:
    def test_distinctness_rule(self):
        features = ["x", "x", "A", "B", "A"]
        steps, catalog = steps_from_features(features)
        w = np.array([0.0, 0.0, 0.9, 0.7, 0.8])
        a = time_restrict(episode_weights(w), 0, 5)
        expl = top_k_explanations(a, steps, 2)
        got = [(it.step, catalog.ids[it.feature], it.weight) for it in expl.items]
        assert got == [(3, "A", 0.9), (4, "B", 0.7)]

    def test_all_zero_weights_short(self):
        steps, _ = steps_from_features(["a", "b"])
        a = time_restrict(episode_weights(np.zeros(2)), 0, 2)
        expl = top_k_explanations(a, steps, 2)
        assert expl.short and expl.items == ()

    def test_tie_breaks_to_later_step(self):
        features = ["B", "A", "B", "B", "B", "B"]
        steps, catalog = steps_from_features(features)
        w = np.zeros(6)
        w[1] = 0.5  # feature A at step 2
        w[5] = 0.5  # feature B at step 6
        a = time_restrict(episode_weights(w), 0, 6)
        expl = top_k_explanations(a, steps, 1)
        assert expl.items[0].step == 6
        assert catalog.ids[expl.items[0].feature] == "B"

    def test_rejects_weights_of_another_length(self):
        steps, _ = steps_from_features(["a", "b"])
        a = time_restrict(episode_weights(np.ones(3)), 1, 3)
        with pytest.raises(ValueError, match=r"window \(1, 3\] out of range for T=2"):
            top_k_explanations(a, steps, 1)

    @given(st.data())
    def test_invariants(self, data):
        T = data.draw(st.integers(1, 12))
        d_f = data.draw(st.integers(1, 4))
        feats = [data.draw(st.integers(0, d_f - 1)) for _ in range(T)]
        catalog = FeatureCatalog.from_ids([f"f{i}" for i in range(d_f)])
        steps, _ = steps_from_features([f"f{i}" for i in feats], catalog=catalog)
        w = np.array([data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(T)])
        t0 = data.draw(st.integers(0, T))
        t1 = data.draw(st.integers(t0, T))
        k = data.draw(st.integers(1, 4))
        a = time_restrict(episode_weights(w), t0, t1)
        expl = top_k_explanations(a, steps, k)
        weights = [it.weight for it in expl.items]
        assert all(b <= a_ for a_, b in zip(weights, weights[1:]))
        assert len({it.feature for it in expl.items}) == len(expl.items)
        assert all(t0 < it.step <= t1 for it in expl.items)
        assert len(expl.items) <= k

    @given(windowed_episodes(), st.integers(1, 6))
    @example((steps_of([1, 0, 1, 0], 2), np.array([0.5, 0.5, 0.5, 0.5]), 0, 4), 1)
    @example((steps_of([0, 0, 1], 2), np.array([0.0, -0.0, 1.0]), 0, 3), 3)
    @example((steps_of([0, 1], 2), np.array([1.0, 2.0]), 1, 1), 2)
    def test_matches_reference_loop(self, episode, k):
        steps, w, t0, t1 = episode
        windowed = np.zeros_like(w)
        windowed[t0:t1] = w[t0:t1]
        expl = top_k_explanations(time_restrict(episode_weights(w), t0, t1), steps, k)
        got = [(it.step, it.feature, it.weight) for it in expl.items]
        assert got == reference_top_k(windowed, steps, k)
        assert expl.short == (len(got) < k)
        for it in expl.items:
            assert (it.time, it.raw) == (steps.step_time[it.step - 1], steps.step_raw[it.step - 1])
