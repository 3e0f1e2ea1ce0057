"""Exact analytic reference for a linear state-space model with quadratic risk.

The system evolves h_t = A h_{t-1} + B x_t from a known h_0 and scores
p_t = 0.5 * h_t' Q h_t (Q defaults to the identity). Because the risk is a
quadratic function of the inputs, every gradient quantity has a closed form,
which makes this module the ground-truth oracle for the gradient-based
attribution methods. Steps are 1-based: inputs x_1..x_T, risks p_1..p_T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LDSystem:
    """State transition A (n x n), input map B (n x d), initial state h0 (n,),
    optional symmetric PSD quadratic form Q (identity when None)."""

    a: np.ndarray
    b: np.ndarray
    h0: np.ndarray
    q: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        h0 = np.asarray(self.h0, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h0", h0)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"A must be square, got {a.shape}")
        if b.ndim != 2 or b.shape[0] != n:
            raise ValueError(f"B must be ({n}, d), got {b.shape}")
        if h0.shape != (n,):
            raise ValueError(f"h0 must be ({n},), got {h0.shape}")
        if self.q is not None:
            q = np.asarray(self.q, dtype=float)
            object.__setattr__(self, "q", q)
            if q.shape != (n, n):
                raise ValueError(f"Q must be ({n}, {n}), got {q.shape}")
            if not np.allclose(q, q.T, atol=1e-12):
                raise ValueError("Q must be symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (q + q.T))) < -1e-10:
                raise ValueError("Q must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.b.shape[1]

    @property
    def q_eff(self) -> np.ndarray:
        return np.eye(self.n) if self.q is None else self.q


@dataclass(frozen=True)
class LDSTrace:
    """States h_1..h_T (rows) and risks p_1..p_T of one run."""

    hidden: np.ndarray
    risk: np.ndarray

    @property
    def T(self) -> int:
        return self.risk.shape[0]


def _as_input_array(sys: LDSystem, x: Sequence) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != sys.d:
        raise ValueError(f"inputs must have shape (T, {sys.d}), got {arr.shape}")
    return arr


def lds_run(sys: LDSystem, x: Sequence) -> LDSTrace:
    """Simulate the recurrence and the quadratic risk over inputs x_1..x_T."""
    arr = _as_input_array(sys, x)
    q = sys.q_eff
    T = arr.shape[0]
    hidden = np.empty((T, sys.n))
    risk = np.empty(T)
    h = sys.h0
    for t in range(T):
        h = sys.a @ h + sys.b @ arr[t]
        hidden[t] = h
        risk[t] = 0.5 * h @ q @ h
    return LDSTrace(hidden=hidden, risk=risk)


def lds_input_gradient(sys: LDSystem, trace: LDSTrace, t: int, t1: int) -> np.ndarray:
    """Closed-form d(p_t1)/d(x_t) = h_t1' Q A^(t1-t) B for 1 <= t <= t1 <= T."""
    if not 1 <= t1 <= trace.T:
        raise ValueError(f"t1 must be in [1, {trace.T}], got {t1}")
    if t > t1:
        raise ValueError(f"gradient of p_{t1} with respect to future input x_{t}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    w = trace.hidden[t1 - 1] @ sys.q_eff
    for _ in range(t1 - t):
        w = w @ sys.a
    return w @ sys.b


def lds_integrated_gradient(
    sys: LDSystem, b: Sequence, x: Sequence, t1: int
) -> np.ndarray:
    """Path-integrated gradient of p_t1 from baseline b to target x, in closed form.

    For quadratic risk the path integral equals the endpoint-averaged gradient:
    column t is ((h_t1[b] + h_t1[x]) / 2)' Q A^(t1-t) B, multiplied elementwise
    by (x_t - b_t). Returns a (d, t1) matrix whose entries sum to
    p_t1[x] - p_t1[b] exactly.
    """
    xb = _as_input_array(sys, b)
    xx = _as_input_array(sys, x)
    if xb.shape != xx.shape:
        raise ValueError(f"baseline shape {xb.shape} != target shape {xx.shape}")
    if not 1 <= t1 <= xx.shape[0]:
        raise ValueError(f"t1 must be in [1, {xx.shape[0]}], got {t1}")
    h_b = lds_run(sys, xb).hidden[t1 - 1]
    h_x = lds_run(sys, xx).hidden[t1 - 1]
    w = (0.5 * (h_b + h_x)) @ sys.q_eff
    out = np.empty((sys.d, t1))
    for t in range(t1, 0, -1):
        out[:, t - 1] = (w @ sys.b) * (xx[t - 1] - xb[t - 1])
        w = w @ sys.a
    return out

