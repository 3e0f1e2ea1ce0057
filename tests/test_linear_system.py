import numpy as np
import pytest

from driftscope.linear_system import (
    LDSystem,
    lds_input_gradient,
    lds_integrated_gradient,
    lds_run,
)


def random_system(rng, n=None, d=None, q=False):
    n = n or int(rng.integers(1, 6))
    d = d or int(rng.integers(1, 6))
    a = rng.normal(size=(n, n)) * 0.6
    b = rng.normal(size=(n, d))
    h0 = rng.normal(size=n)
    qm = None
    if q:
        m = rng.normal(size=(n, n))
        qm = m @ m.T  # symmetric PSD
    return LDSystem(a=a, b=b, h0=h0, q=qm)


def finite_difference_gradient(sys, x, t, t1, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.empty(sys.d)
    for j in range(sys.d):
        xp = x.copy(); xp[t - 1, j] += h
        xm = x.copy(); xm[t - 1, j] -= h
        grad[j] = (lds_run(sys, xp).risk[t1 - 1] - lds_run(sys, xm).risk[t1 - 1]) / (2 * h)
    return grad


class TestRun:
    def test_memoryless_identity_inputs(self):
        sys = LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2))
        trace = lds_run(sys, [[1, 0], [0, 2]])
        np.testing.assert_allclose(trace.hidden, [[1, 0], [0, 2]])
        np.testing.assert_allclose(trace.risk, [0.5, 2.0])

    def test_zero_everything(self):
        sys = LDSystem(a=np.eye(3) * 0.5, b=np.ones((3, 2)), h0=np.zeros(3))
        trace = lds_run(sys, np.zeros((5, 2)))
        np.testing.assert_array_equal(trace.risk, np.zeros(5))

    def test_matches_scalar_loop_oracle(self):
        # Oracle: independent elementwise recursion without matrix ops.
        rng = np.random.default_rng(11)
        sys = random_system(rng, n=3, d=3, q=True)
        x = rng.normal(size=(10, 3))
        trace = lds_run(sys, x)
        h = sys.h0.copy()
        for t in range(10):
            h_new = np.zeros(3)
            for i in range(3):
                for j in range(3):
                    h_new[i] += sys.a[i, j] * h[j] + sys.b[i, j] * x[t, j]
            h = h_new
            p = 0.0
            for i in range(3):
                for j in range(3):
                    p += 0.5 * h[i] * sys.q[i, j] * h[j]
            assert trace.risk[t] == pytest.approx(p, rel=1e-12)

    def test_dimension_mismatch(self):
        sys = LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2))
        with pytest.raises(ValueError):
            lds_run(sys, np.zeros((3, 5)))


class TestInputGradient:
    def test_nilpotent_example(self):
        sys = LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2))
        trace = lds_run(sys, [[1, 0], [0, 2]])
        np.testing.assert_allclose(lds_input_gradient(sys, trace, 2, 2), [0.0, 2.0])
        np.testing.assert_allclose(lds_input_gradient(sys, trace, 1, 2), [0.0, 0.0])

    def test_future_input_rejected(self):
        sys = LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2))
        trace = lds_run(sys, [[1, 0], [0, 2]])
        with pytest.raises(ValueError, match="future"):
            lds_input_gradient(sys, trace, 2, 1)

    def test_scaling_factor_per_step_of_lag(self):
        # For A = cI the gradient norm at fixed t1 scales by |c| per unit lag.
        c = 1.7
        rng = np.random.default_rng(5)
        sys = LDSystem(a=c * np.eye(3), b=rng.normal(size=(3, 2)), h0=rng.normal(size=3))
        x = rng.normal(size=(8, 2))
        trace = lds_run(sys, x)
        norms = [np.linalg.norm(lds_input_gradient(sys, trace, t, 8)) for t in range(1, 9)]
        for earlier, later in zip(norms, norms[1:]):
            assert earlier / later == pytest.approx(c, rel=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            sys = random_system(rng, q=bool(rng.integers(2)))
            T = int(rng.integers(2, 10))
            x = rng.normal(size=(T, sys.d))
            trace = lds_run(sys, x)
            t1 = int(rng.integers(1, T + 1))
            t = int(rng.integers(1, t1 + 1))
            got = lds_input_gradient(sys, trace, t, t1)
            want = finite_difference_gradient(sys, x, t, t1)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_independent_of_future_inputs(self):
        rng = np.random.default_rng(7)
        sys = random_system(rng, n=3, d=2)
        x = rng.normal(size=(6, 2))
        trace = lds_run(sys, x)
        g = lds_input_gradient(sys, trace, 2, 4)
        x_long = np.vstack([x, rng.normal(size=(3, 2))])
        trace_long = lds_run(sys, x_long)
        g_long = lds_input_gradient(sys, trace_long, 2, 4)
        assert np.array_equal(g, g_long)

    def test_spectral_radius_controls_decay(self):
        rng = np.random.default_rng(21)
        for rho, growing in ((0.6, False), (1.4, True)):
            a = rng.normal(size=(3, 3))
            a *= rho / max(abs(np.linalg.eigvals(a)))
            sys = LDSystem(a=a, b=rng.normal(size=(3, 2)), h0=rng.normal(size=3))
            x = rng.normal(size=(14, 2))
            trace = lds_run(sys, x)
            norms = np.array([
                np.linalg.norm(lds_input_gradient(sys, trace, t, 14)) for t in range(1, 15)
            ])
            lag = norms[::-1]  # index = t1 - t
            transient = 4
            diffs = np.diff(lag[transient:])
            assert np.all(diffs > 0) if growing else np.all(diffs < 0)


class TestIntegratedGradient:
    def test_zero_path(self):
        rng = np.random.default_rng(2)
        sys = random_system(rng, n=2, d=2)
        x = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(lds_integrated_gradient(sys, x, x, 4), np.zeros((2, 4)))

    def test_completeness_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sys = random_system(rng, q=bool(rng.integers(2)))
            T = int(rng.integers(1, 10))
            b = rng.normal(size=(T, sys.d))
            x = rng.normal(size=(T, sys.d))
            t1 = int(rng.integers(1, T + 1))
            attrib = lds_integrated_gradient(sys, b, x, t1)
            gap = attrib.sum() - (lds_run(sys, x).risk[t1 - 1] - lds_run(sys, b).risk[t1 - 1])
            assert abs(gap) < 1e-9

    def test_matches_trapezoid_quadrature_oracle(self):
        # Oracle: numerically integrate the gradient along the path.
        rng = np.random.default_rng(13)
        sys = random_system(rng, n=3, d=2, q=True)
        T = 6
        b = rng.normal(size=(T, 2))
        x = rng.normal(size=(T, 2))
        t1 = 5
        got = lds_integrated_gradient(sys, b, x, t1)
        alphas = np.linspace(0.0, 1.0, 1001)
        weights = np.full(alphas.size, 1.0 / (alphas.size - 1))
        weights[0] = weights[-1] = 0.5 / (alphas.size - 1)
        acc = np.zeros((2, t1))
        for w, alpha in zip(weights, alphas):
            point = alpha * b + (1 - alpha) * x
            trace = lds_run(sys, point)
            for t in range(1, t1 + 1):
                acc[:, t - 1] += w * lds_input_gradient(sys, trace, t, t1)
        want = acc * (x[:t1] - b[:t1]).T
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_shape_mismatch(self):
        sys = LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            lds_integrated_gradient(sys, np.zeros((3, 2)), np.zeros((4, 2)), 2)


class TestSystemValidation:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2),
                     q=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError, match="semidefinite"):
            LDSystem(a=np.zeros((2, 2)), b=np.eye(2), h0=np.zeros(2),
                     q=np.array([[1.0, 0.0], [0.0, -1.0]]))
