"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy artifacts (the 260-episode corpus and the two trained models) are
session-scoped fixtures from conftest so criteria 4-6 share them.
"""

import time

import numpy as np

import driftscope as ds
from driftscope.alerts import AlertRule, evaluate_alert_rule
from driftscope.attribution import build_carry_forward_baseline, integrated_gradients
from driftscope.evaluation import (
    MethodContext,
    checkpoint_windows,
    run_benchmark,
    window_truth,
)
from driftscope.linear_system import (
    LDSystem,
    lds_input_gradient,
    lds_integrated_gradient,
    lds_run,
)
from driftscope.model import RiskSeries, _forward_with_masks
from driftscope.cli import main as cli_main
from driftscope.tables import read_csv

from conftest import random_step_series
from test_model import finite_diff_params, nonzero_params


def test_c1_lds_oracle_fidelity():
    """Closed-form gradients vs finite differences (rel < 1e-6) and exact
    path-integral completeness (abs < 1e-9) on 100 random systems."""
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        T = int(rng.integers(1, 21))
        a = rng.normal(size=(n, n))
        rho = max(1e-9, float(np.max(np.abs(np.linalg.eigvals(a)))))
        a *= min(1.0, 0.9 / rho)  # keep risks O(1) so absolute tolerances bind
        sys = LDSystem(a=a, b=rng.normal(size=(n, d)), h0=rng.normal(size=n))
        x = rng.normal(size=(T, d))
        trace = lds_run(sys, x)
        t1 = int(rng.integers(1, T + 1))
        t = int(rng.integers(1, t1 + 1))
        grad = lds_input_gradient(sys, trace, t, t1)
        h = 1e-6
        for j in range(d):
            xp = x.copy(); xp[t - 1, j] += h
            xm = x.copy(); xm[t - 1, j] -= h
            fd = (lds_run(sys, xp).risk[t1 - 1] - lds_run(sys, xm).risk[t1 - 1]) / (2 * h)
            denom = max(abs(fd), abs(grad[j]), 1e-9)
            assert abs(fd - grad[j]) / denom < 1e-6

        baseline = rng.normal(size=(T, d))
        attrib = lds_integrated_gradient(sys, baseline, x, t1)
        gap = attrib.sum() - (trace.risk[t1 - 1] - lds_run(sys, baseline).risk[t1 - 1])
        assert abs(gap) < 1e-9
    assert time.monotonic() - started < 10.0


def test_c2_bptt_gradient_check():
    """Parameter and input gradients of the recurrent model match central
    finite differences to relative error < 1e-4 on 20 random configurations."""
    started = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(20):
        dropout = i % 2 == 1
        cfg = ds.ModelConfig(
            hidden_size=int(rng.integers(2, 6)),
            seed=int(rng.integers(10_000)),
            input_dropout=0.1 if dropout else 0.0,
            output_dropout=0.1 if dropout else 0.0,
            recurrent_dropout=0.1 if dropout else 0.0,
            attention=False,
        )
        steps = random_step_series(rng, T=int(rng.integers(2, 7)),
                                   d_features=int(rng.integers(1, 4)))
        params = nonzero_params(cfg, steps.d, seed=int(rng.integers(10_000)))
        outcome = int(rng.integers(2))
        eta = float(rng.choice([0.0, 0.005]))
        risk, cache = ds.forward(params, steps, mode="train",
                                 rng=np.random.default_rng(i), config=cfg)
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
                    c = _forward_with_masks(params, steps.x, *masks)
                    r = RiskSeries(p=c.p, logits=c.logits,
                                   step_time=steps.step_time, p_base=0.0)
                    return ds.loss(r, outcome, eta)

                steps.x[t, j] = orig + eps
                fp = f()
                steps.x[t, j] = orig - eps
                fm = f()
                steps.x[t, j] = orig
                fdv = (fp - fm) / (2 * eps)
                worst = max(worst, abs(fdv - dx[t, j]) / max(abs(fdv), abs(dx[t, j]), 1e-6))
    assert worst < 1e-4
    assert time.monotonic() - started < 60.0


def test_c3_telescoping_over_synthetic_corpus():
    """Windowed sums of the stepwise risk differences equal p_t1 - p_t0 within
    1e-12 on every episode of a 200-episode corpus."""
    config = ds.ScenarioConfig(seed=31337, n_episodes=200, deterioration_fraction=0.5)
    corpus = ds.generate_corpus(config)
    catalog = config.catalog()
    stats = ds.fit_feature_stats(corpus)
    rng = np.random.default_rng(4)
    cfg = ds.ModelConfig(hidden_size=8, seed=12, attention=False)
    params = nonzero_params(cfg, 2 * catalog.d_features + 1, seed=8)
    for seq in corpus:
        steps = ds.encode_steps(seq, catalog, stats)
        risk, _ = ds.forward(params, steps)
        a = ds.discrete_time_derivatives(risk, steps)
        T = steps.T
        for t0, t1 in ((0, T), (T // 3, (2 * T) // 3), (1, T)):
            window_sum = float(ds.time_restrict(a, t0, t1).a.sum())
            p0 = risk.p_base if t0 == 0 else risk.p[t0 - 1]
            p1 = risk.p[t1 - 1] if t1 > 0 else risk.p_base
            assert abs(window_sum - (p1 - p0)) < 1e-12


def test_c4_integrated_gradient_completeness(bench_bundle, trained_smooth, prepared_smooth):
    """On the trained model: completeness gap < 1e-3 at m=128 and non-increasing
    over m in {8, 32, 128, 512} on 20 fixed windows."""
    params, _ = trained_smooth
    windows = checkpoint_windows(prepared_smooth)[:20]
    assert len(windows) == 20
    by_id = {ep.episode_id: ep for ep in prepared_smooth}
    for w in windows:
        ep = by_id[w.episode_id]
        baseline = build_carry_forward_baseline(ep.steps, w.t0)
        target = (
            ds.forward(params, ep.steps)[0].p[w.t1 - 1]
            - ds.forward(params, baseline)[0].p[w.t1 - 1]
        )
        gaps = []
        for m in (8, 32, 128, 512):
            a = integrated_gradients(params, ep.steps, w.t0, w.t1, m=m)
            gaps.append(abs(float(a.a.sum()) - float(target)))
        assert gaps[2] < 1e-3
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))


def test_c5_smoothing_reduces_risk_jitter(bench_bundle, trained_smooth, trained_plain):
    """Same seed and data: the smoothing penalty strictly reduces the mean
    squared first-difference of validation risk series."""
    _, _, _, _, encoded = bench_bundle
    val = [e for e in encoded if e.split == "validation"]
    assert val

    def mean_sq_first_diff(params):
        out = []
        for ep in val:
            risk, _ = ds.forward(params, ep.steps)
            out.append(float(np.mean(np.square(np.diff(risk.p)))))
        return float(np.mean(out))

    smooth = mean_sq_first_diff(trained_smooth[0])
    plain = mean_sq_first_diff(trained_plain[0])
    assert smooth < plain


def test_c6_synthetic_benchmark(bench_bundle, trained_smooth, prepared_smooth, bench_bins):
    """Random guessing within +-0.05 of its combinatorial expectation; the
    path-integrated method beats it by a factor >= 2 with disjoint 95% CIs,
    on >= 100 positive windows with >= 8 distractor features."""
    config, _, catalog, _, _ = bench_bundle
    params, _ = trained_smooth
    assert catalog.d_features - 2 >= 8  # distractors beyond the two signal features

    ctx = MethodContext(params=params, catalog=catalog, bins=bench_bins, m=64, seed=5)
    rows, windows = run_benchmark(
        prepared_smooth, ctx, ["random", "integrated_gradients"],
        k=1, mode="checkpoint", random_repeats=25, resamples=2000, seed=5,
    )
    by_method = {r.method: r for r in rows}
    rand = by_method["random"]
    ig = by_method["integrated_gradients"]
    assert rand.n_windows >= 100

    # Combinatorial expectation at k=1: correct events over window events.
    by_id = {ep.episode_id: ep for ep in prepared_smooth}
    expect = np.mean([
        len(window_truth(by_id[w.episode_id], w).members) / (w.t1 - w.t0)
        for w in windows
    ])
    assert abs(rand.mean_precision - expect) <= 0.05
    assert ig.mean_precision >= 2.0 * rand.mean_precision
    assert ig.ci_lo > rand.ci_hi


def test_c7_alert_rule_grid():
    """Boundary examples plus monotonicity/antitonicity, exhaustively over
    p0, p1 in {0.01, ..., 0.99}^2."""
    rule = AlertRule()

    def series(p0, p1):
        return RiskSeries(p=np.array([p0, p1]), logits=np.zeros(2),
                          step_time=np.array([12 * 3600.0, 13 * 3600.0]), p_base=0.01)

    def fires(p0, p1, r=rule):
        return evaluate_alert_rule(series(p0, p1), r) is not None

    assert fires(0.10, 0.20)       # both thresholds exactly met
    assert not fires(0.15, 0.21)   # ratio 1.4 < 1.5
    assert not fires(0.05, 0.19)   # floor unmet

    grid = [round(0.01 * i, 2) for i in range(1, 100)]
    stricter_ratio = AlertRule(ratio_threshold=1.8)
    stricter_floor = AlertRule(floor=0.35)
    for p0 in grid:
        threshold = max(rule.floor, rule.ratio_threshold * p0)
        previous = False
        for p1 in grid:
            fired = fires(p0, p1)
            assert fired == (p1 >= threshold)
            assert fired or not previous or p1 < threshold  # monotone in p1
            previous = fired
            if fires(p0, p1, stricter_ratio):
                assert fired
            if fires(p0, p1, stricter_floor):
                assert fired


def test_c8_pipeline_determinism(tmp_path):
    """The full seeded pipeline, repeated, produces byte-identical outputs."""
    outputs = []
    for run_name in ("one", "two"):
        base = tmp_path / run_name
        data = base / "data"
        model = base / "model"
        expl = base / "expl"
        res = base / "res"
        assert cli_main(["gen-data", "--out-dir", str(data), "--n-episodes", "20",
                         "--deterioration-fraction", "0.6", "--seed", "9"]) == 0
        assert cli_main(["train", "--events", str(data / "events.jsonl"),
                         "--out-dir", str(model), "--hidden-size", "8",
                         "--max-epochs", "2", "--seed", "9", "--eta", "0.005"]) == 0
        assert cli_main(["alerts", "--events", str(data / "events.jsonl"),
                         "--checkpoint", str(model / "checkpoint.json"),
                         "--out-dir", str(model), "--min-new-events", "1"]) == 0
        assert cli_main(["explain", "--events", str(data / "events.jsonl"),
                         "--checkpoint", str(model / "checkpoint.json"),
                         "--bins", str(model / "bins.json"),
                         "--out-dir", str(expl), "--k", "2", "--m", "8",
                         "--seed", "9"]) == 0
        assert cli_main(["evaluate", "--events", str(data / "events.jsonl"),
                         "--explanations", str(expl / "explanations.csv"),
                         "--windows", str(expl / "windows.csv"),
                         "--out-dir", str(res), "--k", "2", "--seed", "9"]) == 0
        blob = {}
        for path in sorted(base.rglob("*")):
            if path.is_file():
                blob[str(path.relative_to(base))] = path.read_bytes()
        outputs.append(blob)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    header, rows = read_csv(tmp_path / "one" / "res" / "results.csv")
    assert header[0] == "method" and rows
