import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import driftscope as ds
from driftscope import evaluation
from driftscope.attribution import Explanation, ExplanationItem, random_guess
from driftscope.evaluation import (
    MethodContext,
    Window,
    WindowTruth,
    bootstrap_ci,
    checkpoint_windows,
    explain_window,
    prepare_episodes,
    run_benchmark,
    score_windows,
    window_precision,
    window_truth,
)
from driftscope.events import FeatureCatalog
from test_attribution import steps_from_features


def expl(items, k=3):
    return Explanation(items=tuple(items), k=k, short=len(items) < k)


def item(step, feature, weight=0.0):
    return ExplanationItem(step=step, feature=feature, time=0.0, raw=0.0, weight=weight)


def truth(members):
    return frozenset(members)


CAT = FeatureCatalog.from_ids(["a", "b", "c", "d"])


def precision(e, t, k, catalog=CAT):
    """window_precision of an explanation, as (step, feature id) pairs."""
    return window_precision([(it.step, catalog.ids[it.feature]) for it in e.items], t, k)


class TestPrecision:
    def test_mean_of_two_windows(self):
        e1 = expl([item(1, 0, 0.9), item(2, 1, 0.8), item(3, 2, 0.7)])
        e2 = expl([item(4, 0, 0.9), item(5, 1, 0.8), item(6, 2, 0.7)])
        t1 = truth({(1, "a"), (2, "b"), (9, "d")})
        t2 = truth({(4, "a")})
        per = [precision(e1, t1, 3), precision(e2, t2, 3)]
        assert per == [pytest.approx(2 / 3), pytest.approx(1 / 3)]
        kept = [WindowTruth(Window(ep, 0, 9, 0.0, 9.0, "checkpoint"), t)
                for ep, t in (("e1", t1), ("e2", t2))]
        picks = {(kt.window, "m"): [[(it.step, CAT.ids[it.feature]) for it in e.items]]
                 for kt, e in zip(kept, (e1, e2))}
        (row,) = score_windows(kept, picks, ["m"], 3, resamples=100, seed=0)
        assert row.mean_precision == pytest.approx(0.5) and row.n_windows == 2

    def test_fully_correct(self):
        e = expl([item(1, 0), item(2, 1)], k=2)
        t = truth({(1, "a"), (2, "b")})
        assert precision(e, t, 2) == 1.0

    def test_short_explanation_normalized_by_its_length(self):
        e = expl([item(1, 0, 1.0)], k=3)
        t = truth({(1, "a")})
        assert precision(e, t, 3) == 1.0

    def test_empty_selection_scores_zero(self):
        e = expl([], k=3)
        t = truth({(1, "a")})
        assert precision(e, t, 3) == 0.0

    def test_empty_truth_rejected(self):
        e = expl([item(1, 0)])
        with pytest.raises(ValueError, match="empty truth"):
            precision(e, truth(set()), 3)

    def test_random_guess_matches_enumeration_oracle(self):
        # Oracle: exact expected precision over all distinct-feature k-subsets.
        features = ["a", "a", "b", "c", "d", "b"]
        steps, catalog = steps_from_features(features)
        correct = {(3, "b"), (5, "d")}
        k = 2
        feats = steps.step_feature
        subsets = [
            c for c in itertools.combinations(range(6), k)
            if len({int(feats[j]) for j in c}) == k
        ]
        exact = np.mean([
            sum((j + 1, features[j]) in correct for j in c) / k for c in subsets
        ])
        t = truth(correct)
        draws = []
        for s in range(1000):
            e = random_guess(steps, 0, 6, k, seed=s)
            draws.append(precision(e, t, k, catalog))
        sigma = np.std(draws) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - exact) < 4 * sigma + 1e-9


class TestBootstrap:
    def test_zero_variance(self):
        assert bootstrap_ci([0.5] * 20, resamples=2000, seed=1) == (0.5, 0.5)

    def test_deterministic(self):
        vals = list(np.random.default_rng(0).random(30))
        first = bootstrap_ci(vals, resamples=2000, seed=7)
        assert bootstrap_ci(vals, resamples=2000, seed=7) == first

    def test_single_window_degenerate(self):
        assert bootstrap_ci([0.25], resamples=2000, seed=0) == (0.25, 0.25)

    def test_matches_numpy_quantile(self):
        # The interval ends are np.quantile's (method "linear") of the
        # resampled means, bit for bit, without its import of numpy.ma.
        rng = np.random.default_rng(4)
        for _ in range(40):
            vals = rng.random(int(rng.integers(1, 50))) * (rng.random() < 0.8)
            resamples, seed = int(rng.integers(1, 300)), int(rng.integers(1000))
            idx = np.random.default_rng(seed).integers(0, len(vals), size=(resamples, len(vals)))
            means = vals[idx].mean(axis=1)
            lo_q = (1.0 - 0.95) / 2.0
            want = (float(np.quantile(means, lo_q)), float(np.quantile(means, 1.0 - lo_q)))
            assert bootstrap_ci(vals, resamples=resamples, seed=seed) == want

    @pytest.mark.parametrize("resamples", [0, -1])
    def test_fewer_than_one_resample_rejected(self, resamples):
        with pytest.raises(ValueError, match="resamples must be >= 1"):
            bootstrap_ci([0.25, 0.5], resamples=resamples)

    def test_contains_point_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            vals = rng.random(int(rng.integers(2, 60)))
            lo, hi = bootstrap_ci(vals, resamples=500, seed=int(rng.integers(1000)))
            assert lo <= vals.mean() <= hi

    def test_coverage_of_known_mean(self):
        # Oracle: Monte Carlo coverage of a Bernoulli(0.3) mean at n=200.
        rng = np.random.default_rng(999)
        sims = 400
        covered = 0
        for i in range(sims):
            vals = (rng.random(200) < 0.3).astype(float)
            lo, hi = bootstrap_ci(vals, resamples=500, seed=1000 + i)
            covered += lo <= 0.3 <= hi
        assert 0.92 <= covered / sims <= 0.98


class TestScoreWindows:
    # Two nested windows of one episode: (0, 6] and (3, 6].
    OUTER = WindowTruth(Window("ep", 0, 6, 0.0, 6.0, "alert"), truth({(2, "a"), (5, "b")}))
    INNER = WindowTruth(Window("ep", 3, 6, 3.0, 6.0, "alert"), truth({(5, "b")}))

    def test_windows_of_one_episode_score_on_their_own_picks(self):
        # Scored on both windows' picks, the outer window would hit 2 of k=1.
        picks = {(self.OUTER.window, "m"): [[(2, "a")]], (self.INNER.window, "m"): [[(5, "b")]]}
        (row,) = score_windows([self.OUTER, self.INNER], picks, ["m"], 1, resamples=200, seed=3)
        assert (row.mean_precision, row.ci_lo, row.ci_hi, row.n_windows) == (1.0, 1.0, 1.0, 2)

    def test_a_window_scores_the_mean_of_its_selections(self):
        picks = {(self.OUTER.window, "m"): [[(2, "a")], [(1, "c")]],
                 (self.INNER.window, "m"): [[(5, "b")]],
                 (self.OUTER.window, "n"): [[]], (self.INNER.window, "n"): [[(4, "a")]]}
        rows = score_windows([self.OUTER, self.INNER], picks, ["n", "m"], 1, resamples=200, seed=3)
        assert [(r.method, r.mean_precision) for r in rows] == [("n", 0.0), ("m", 0.75)]
        for r in rows:
            assert 0.0 <= r.ci_lo <= r.mean_precision <= r.ci_hi <= 1.0


class TestWindows:
    def _prepared(self, seed=77, n=30, fraction=0.6):
        config = ds.ScenarioConfig(seed=seed, n_episodes=n, deterioration_fraction=fraction)
        corpus = ds.generate_corpus(config)
        catalog = config.catalog()
        stats = ds.fit_feature_stats(corpus)
        mcfg = ds.ModelConfig(hidden_size=4, seed=1, max_epochs=0, attention=True)
        params = ds.model_init(mcfg, 2 * catalog.d_features + 1)
        return config, corpus, catalog, stats, prepare_episodes(params, stats, catalog, corpus)

    def test_checkpoint_windows_only_for_positives(self):
        config, corpus, _, _, prepared = self._prepared()
        windows = checkpoint_windows(prepared)
        positive_ids = {s.episode_id for s in corpus if s.outcome == 1}
        assert windows
        assert {w.episode_id for w in windows} <= positive_ids

    def test_window_covers_the_checkpoint_interval(self):
        _, corpus, _, _, prepared = self._prepared()
        by_id = {ep.episode_id: ep for ep in prepared}
        for w in checkpoint_windows(prepared):
            ep = by_id[w.episode_id]
            assert 0 <= w.t0 < w.t1 <= ep.steps.T
            assert w.t1_time - w.t0_time <= ep.steps.step_time[-1]
            tr = window_truth(ep, w)
            assert all(w.t0 < s <= w.t1 for s, _ in tr.members)


class TestPrepare:
    def _inputs(self, attention, n_episodes=6):
        config = ds.ScenarioConfig(seed=61, n_episodes=n_episodes, deterioration_fraction=0.5)
        corpus = ds.generate_corpus(config)
        catalog = config.catalog()
        stats = ds.fit_feature_stats(corpus)
        mcfg = ds.ModelConfig(hidden_size=4, seed=2, max_epochs=0, attention=attention)
        params = ds.model_init(mcfg, 2 * catalog.d_features + 1)
        params.w_out[:] = 0.5  # the initial zero projection has zero input gradients
        return params, stats, catalog, corpus

    def test_attention_weights_are_those_of_the_eval_scan(self):
        params, stats, catalog, corpus = self._inputs(attention=True)
        prepared = prepare_episodes(params, stats, catalog, corpus)
        for chunk in evaluation._length_chunks([ep.steps.T for ep in prepared]):
            eps = [prepared[i] for i in chunk]
            h = ds.forward(params, ds.StepBatch([ep.steps for ep in eps]))[1].h
            for b, ep in enumerate(eps):
                want = ds.attention_forward(params, h[: ep.steps.T, b])[1]
                assert np.array_equal(ep.attention, want)

    def _mixed_corpus(self):
        """11 episodes cut to lengths 1 to about 150 (two batches of scans),
        a one-step episode among them, in an order that is not by length."""
        params, stats, catalog, corpus = self._inputs(attention=True, n_episodes=11)
        keep = [1, 150, 7, 2, 90, 33, 150, 5, 64, 3, 120]
        return params, stats, catalog, [
            dataclasses.replace(seq, events=ds.Events(seq.events.time[:n], seq.events.feature[:n],
                                                      seq.events.value[:n]))
            for seq, n in zip(corpus, keep)]

    def test_batched_scans_match_single_series_scans(self):
        params, stats, catalog, corpus = self._mixed_corpus()
        prepared = prepare_episodes(params, stats, catalog, corpus)
        assert [ep.episode_id for ep in prepared] == [seq.episode_id for seq in corpus]
        assert min(ep.steps.T for ep in prepared) == 1
        assert len(prepared) > evaluation.EVAL_BATCH
        for ep in prepared:
            risk, one = ds.forward(params, ep.steps)
            np.testing.assert_allclose(ep.risk.p, risk.p, rtol=1e-13)
            np.testing.assert_allclose(ep.risk.logits, risk.logits, rtol=1e-13, atol=1e-16)
            assert np.array_equal(ep.risk.step_time, ep.steps.step_time)
            kept = ds.KeptStates.of_scan(one.h, one.c)
            assert ep.states.stride == kept.stride
            np.testing.assert_allclose(ep.states.h, kept.h, rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(ep.states.c, kept.c, rtol=1e-13, atol=1e-16)
            np.testing.assert_allclose(ep.attention, ds.attention_forward(params, one.h)[1],
                                       rtol=1e-13)

    def test_model_without_attention_head(self):
        params, stats, catalog, corpus = self._inputs(attention=False)
        prepared = prepare_episodes(params, stats, catalog, corpus)
        assert all(ep.attention is None for ep in prepared)
        ctx = MethodContext(params=params, catalog=catalog)
        w = checkpoint_windows(prepared)[0]
        ep = next(e for e in prepared if e.episode_id == w.episode_id)
        with pytest.raises(ValueError, match="attention"):
            explain_window("attention", ctx, ep, w, 3)
        a = ds.grad_wrt_inputs(params, ep.steps, w.t1, w.t0, states=ep.states)
        assert explain_window("gradient", ctx, ep, w, 3, weights=a.a).items

    def test_kept_arrays_do_not_hold_the_scan_cache(self, monkeypatch):
        params, stats, catalog, corpus = self._inputs(attention=True)
        refs, real = [], evaluation.forward

        def spy(*args, **kwargs):
            risk, cache = real(*args, **kwargs)
            refs.extend(weakref.ref(o) for o in (cache, cache.h, cache.c))
            return risk, cache

        monkeypatch.setattr(evaluation, "forward", spy)
        prepared = prepare_episodes(params, stats, catalog, corpus)
        gc.collect()
        n_scans = math.ceil(len(corpus) / evaluation.EVAL_BATCH)
        assert len(refs) == 3 * n_scans and all(r() is None for r in refs)
        for ep in prepared:
            for a in (ep.states.h, ep.states.c, ep.attention):
                assert a.base is None and a.flags.owndata


class TestWindowGradients:
    def _episodes(self):
        config = ds.ScenarioConfig(seed=62, n_episodes=3, deterioration_fraction=0.5)
        corpus = ds.generate_corpus(config)
        catalog = config.catalog()
        stats = ds.fit_feature_stats(corpus)
        params = ds.model_init(ds.ModelConfig(hidden_size=5, seed=4, max_epochs=0),
                               2 * catalog.d_features + 1)
        params.w_out[:] = 0.5  # the initial zero projection has zero input gradients
        return params, prepare_episodes(params, stats, catalog, corpus)

    def _windows(self, ep):
        """Windows from t0 = 0, windows starting on a kept state and next to
        one, one-step windows and windows of many lengths."""
        T, stride = ep.steps.T, ep.states.stride
        spans = [(0, 1), (0, 2), (0, T), (stride, stride + 1), (stride, stride + 9),
                 (2 * stride, T), (stride - 1, 3 * stride), (stride + 1, stride + 2),
                 (T - 1, T), (T // 2, T // 2 + 1), (T // 3, T // 2), (5, 40)]
        return [evaluation.Window(ep.episode_id, t0, t1, 0.0, 0.0, "checkpoint")
                for t0, t1 in spans]

    def test_batched_gradients_match_per_window_gradients(self):
        params, prepared = self._episodes()
        pairs = [(ep, w) for ep in prepared for w in self._windows(ep)]
        got = evaluation.window_gradients(params, pairs)
        assert len(got) == len(pairs) > evaluation.EVAL_BATCH
        for a, (ep, w) in zip(got, pairs):
            want = ds.grad_wrt_inputs(params, ep.steps, w.t1, w.t0, states=ep.states)
            assert a.method == "gradient" and a.window == (w.t0, w.t1)
            assert a.a.shape == (w.t1 - w.t0,)
            np.testing.assert_allclose(a.a, want.a, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("t0,t1", [(3, 3), (4, 3), (-1, 2)])
    def test_rejects_bad_window(self, t0, t1):
        params, prepared = self._episodes()
        w = evaluation.Window(prepared[0].episode_id, t0, t1, 0.0, 0.0, "checkpoint")
        with pytest.raises(ValueError, match="t0 < t1"):
            evaluation.window_gradients(params, [(prepared[0], w)])


@pytest.fixture(scope="module")
def small_run():
    config = ds.ScenarioConfig(seed=52, n_episodes=40, deterioration_fraction=0.6)
    corpus = ds.generate_corpus(config)
    catalog = config.catalog()
    stats = ds.fit_feature_stats(corpus)
    encoded = [
        ds.EncodedEpisode(s.episode_id, ds.encode_steps(s, catalog, stats),
                          s.outcome, s.split)
        for s in corpus
    ]
    mcfg = ds.ModelConfig(hidden_size=8, seed=3, max_epochs=2, attention=True)
    params, _ = ds.train(encoded, mcfg)
    prepared = prepare_episodes(params, stats, catalog, corpus)
    bins = ds.fit_bins(corpus)
    ctx = MethodContext(params=params, catalog=catalog, bins=bins, m=8, seed=1)
    return prepared, ctx


class TestBenchmark:
    def test_random_only_row(self, small_run):
        prepared, ctx = small_run
        rows, windows = run_benchmark(prepared, ctx, ["random"], k=3,
                                      random_repeats=5, resamples=200, seed=2)
        assert len(rows) == 1
        r = rows[0]
        assert r.method == "random" and r.n_windows == len(windows)
        assert 0.0 <= r.ci_lo <= r.mean_precision <= r.ci_hi <= 1.0

    def test_unknown_method_lists_available(self, small_run):
        prepared, ctx = small_run
        with pytest.raises(ValueError, match="integrated_gradients"):
            run_benchmark(prepared, ctx, ["nope"], k=3, resamples=100)

    def test_all_methods_produce_rows(self, small_run):
        prepared, ctx = small_run
        rows, _ = run_benchmark(prepared, ctx, list(ds.METHODS), k=3,
                                random_repeats=3, resamples=100, seed=2)
        assert [r.method for r in rows] == list(ds.METHODS)
        for r in rows:
            assert 0.0 <= r.mean_precision <= 1.0

    def test_deterministic(self, small_run):
        prepared, ctx = small_run
        a, _ = run_benchmark(prepared, ctx, ["random", "gradient"], k=2,
                             random_repeats=4, resamples=150, seed=9)
        b, _ = run_benchmark(prepared, ctx, ["random", "gradient"], k=2,
                             random_repeats=4, resamples=150, seed=9)
        assert a == b

    def test_alert_mode_is_gone(self, small_run):
        prepared, ctx = small_run
        with pytest.raises(ValueError, match="unknown mode 'alert'"):
            run_benchmark(prepared, ctx, ["random"], k=3, resamples=100, mode="alert")

    def test_stats_methods_need_bins(self, small_run):
        prepared, ctx = small_run
        bare = MethodContext(params=ctx.params, catalog=ctx.catalog, bins=None)
        w = checkpoint_windows(prepared)[0]
        ep = next(e for e in prepared if e.episode_id == w.episode_id)
        with pytest.raises(ValueError, match="bin table"):
            explain_window("odds_ratio", bare, ep, w, 3)


def test_explain_windows_keeps_window_then_method_order(small_run):
    # Gradient weights are computed in batches sorted by window length; the
    # rows still come window by window, methods in the order asked.
    prepared, ctx = small_run
    windows = evaluation.alert_windows(prepared, ds.AlertRule(min_new_events=0,
                                                              first_alert_only=False))
    windows += checkpoint_windows(prepared)
    lengths = [w.t1 - w.t0 for w in windows]
    assert len(windows) > evaluation.EVAL_BATCH and lengths != sorted(lengths)
    methods = ["attention", "gradient", "random", "discrete_derivative"]
    got = list(evaluation.explain_windows(ctx, prepared, windows, methods, k=3))
    assert [(w, m) for w, m, _ in got] == [(w, m) for w in windows for m in methods]
    by_id = {ep.episode_id: ep for ep in prepared}
    for w, m, (e,) in got:
        ep = by_id[w.episode_id]
        weights = (ds.grad_wrt_inputs(ctx.params, ep.steps, w.t1, w.t0, states=ep.states).a
                   if m == "gradient" else None)
        want = explain_window(m, ctx, ep, w, 3, weights=weights)
        assert [(it.step, it.feature) for it in e.items] == [(it.step, it.feature)
                                                             for it in want.items]
        np.testing.assert_allclose([it.weight for it in e.items],
                                   [it.weight for it in want.items], rtol=1e-12)


@pytest.mark.parametrize("method", ["gradient", "integrated_gradients"])
def test_explain_window_without_weights_is_rejected(small_run, method):
    # explain_windows computes both methods' weights in batches;
    # explain_window recomputes neither.
    prepared, ctx = small_run
    w = checkpoint_windows(prepared)[0]
    ep = next(e for e in prepared if e.episode_id == w.episode_id)
    with pytest.raises(ValueError, match="precomputed weights"):
        explain_window(method, ctx, ep, w, 3)
