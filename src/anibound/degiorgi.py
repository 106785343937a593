"""Level-set iteration engine and L-infinity certification.

Runs the explicit iteration: shrinking radii rho_h -> R/2, increasing levels
k_h -> d, super-level masses J_h, the geometric recursion that drives them to
zero, and the closed-form choice of the level scale d.  The recursion
constant is existential in the continuum statement; here it is calibrated
empirically once per problem class and the certificate records how much
slack the computed minimizer leaves under the resulting bound.

The super-level sets {u > k_h} within B_{rho_h} are nested, so the masses
are one pass over the ball's cells (`_masses`), and `certify` forms those
cells once for N, both signs and both of its runs.

Results are data: a `Certificate` holding one `IterationTrace` per sign.
The command line writes them as the certificate and trace CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import (
    Exponents,
    IterationConstants,
    choose_d,
    default_c0,
    iteration_constants,
)
from .fields import Ball, GridFunction, _ball_cells, _ball_nodes, lp_norm

__all__ = [
    "sequences",
    "j_sequence",
    "fast_convergence",
    "IterationTrace",
    "calibrate_C",
    "Certificate",
    "certify",
]

DECAY_FLOOR = 1e-30
DECAY_FACTOR = 1e-10
DEFAULT_STEPS = 40


def sequences(R: float, d: float, h: int):
    """Radii and levels of step h: rho_h, k_h and the midpoint radius rho_bar_h."""
    if R <= 0:
        raise ValueError("radius must be positive")
    if d < 2:
        raise ValueError(f"level scale d must be >= 2, got {d}")
    if h < 0:
        raise ValueError("step index must be >= 0")
    rho = (R / 2.0) * (1.0 + 0.5 ** h)
    k = d * (1.0 - 0.5 ** (h + 1))
    rho_bar = (R / 2.0) * (1.0 + 3.0 / (4.0 * 2.0 ** h))
    return rho, k, rho_bar


def _ball_data(u: GridFunction, x0, R: float) -> tuple:
    """u averaged to the cells whose centres lie in B_R(x0) and those centres'
    squared distances from x0, flat in row-major order; only the cells of
    the ball's box are visited (`fields._ball_cells`, which refuses a ball
    that leaves the grid box)."""
    _, uc, dist2 = _ball_cells(u, Ball(x0, R))
    inside = dist2 < R * R
    return uc[inside], dist2[inside]


def _masses(values, dist2, R: float, d: float, qs: float, hn: float, H: int) -> np.ndarray:
    """J_h for h = 0..H from the values and squared distances of cells that
    include every cell of B_R.

    rho_h is non-increasing and k_h non-decreasing in floating point too, so
    the sets {values > k_h} within B_{rho_h} are nested: step h filters only
    the cells that step h - 1 kept. They stay in the order given, so each
    J_h is bitwise the sum a scan of all the cells would give. Once the set
    is empty the remaining J_h are 0.
    """
    if H < 1:
        raise ValueError("need at least one step")
    out = np.zeros(H + 1)
    for h in range(H + 1):
        rho, k, _ = sequences(R, d, h)
        keep = (dist2 < rho * rho) & (values > k)
        if not keep.any():
            break
        values, dist2 = values[keep], dist2[keep]
        out[h] = float(np.sum((values - k) ** qs) * hn)
    return out


def j_sequence(
    u: GridFunction,
    x0,
    R: float,
    d: float,
    e: Exponents,
    H: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Super-level masses J_h = integral over {u > k_h} of (u - k_h)^{qs'}, h = 0..H.

    Only the cells of the box of B_R(x0) are visited, and each step only the
    cells that the step before kept (`_masses`).
    """
    values, dist2 = _ball_data(u, x0, R)
    return _masses(values, dist2, R, d, e.qs_prime, u.grid.h ** u.grid.n, H)


@dataclass(frozen=True)
class FastConvergenceReport:
    applicable: bool
    js: np.ndarray
    bounds: np.ndarray
    decayed: bool

    @property
    def passed(self) -> bool:
        return self.applicable and bool(np.all(self.js <= self.bounds * (1 + 1e-12)))


def fast_convergence(
    J0: float,
    A: float,
    lambda_base: float,
    alpha: float,
    H: int = DEFAULT_STEPS,
) -> FastConvergenceReport:
    """Iterate J_{h+1} = A * lambda^h * J_h^(1+alpha) and compare against the
    geometric envelope lambda^(-h/alpha) * J0.

    Applicable only below the threshold J0 <= A^(-1/alpha) * lambda^(-1/alpha^2).
    """
    if A <= 0 or lambda_base <= 1 or alpha <= 0 or J0 < 0:
        raise ValueError("need A > 0, lambda > 1, alpha > 0, J0 >= 0")
    threshold = A ** (-1.0 / alpha) * lambda_base ** (-1.0 / alpha ** 2)
    hs = np.arange(H + 1)
    bounds = lambda_base ** (-hs / alpha) * J0
    if J0 > threshold * (1 + 1e-12):
        return FastConvergenceReport(False, np.array([J0]), bounds, False)
    js = np.empty(H + 1)
    js[0] = J0
    for h in range(H):
        js[h + 1] = A * lambda_base ** h * js[h] ** (1.0 + alpha)
    decayed = js[H] <= DECAY_FACTOR * max(J0, DECAY_FLOOR)
    return FastConvergenceReport(True, js, bounds, decayed)


@dataclass(frozen=True)
class IterationTrace:
    """Per-step diagnostics of one level-set iteration run."""

    x0: tuple
    R: float
    d: float
    sign: int  # +1 for u, -1 for -u
    N: float  # ||u||_{sigma_bar*}(B_R)
    js: np.ndarray
    rhos: np.ndarray
    ks: np.ndarray
    rhs: np.ndarray  # recursion right side at C = 1, per step
    C_emp: float  # minimal C making the recursion hold across steps


def _trace(x0, R: float, d: float, c: IterationConstants, N: float, sign: int, js) -> IterationTrace:
    """The diagnostics of one run from its masses J_0..J_H.

    A factor of the recursion's right side too large for binary64 is inf, as
    in `choose_d`; a step with J_h = 0 has right side 0 whatever the factor."""
    H = len(js) - 1
    rhos = np.empty(H + 1)
    ks = np.empty(H + 1)
    for h in range(H + 1):
        rhos[h], ks[h], _ = sequences(R, d, h)
    try:
        scale = (1.0 + N) ** c.norm_exponent * d ** (-c.delta1) * R ** (-c.delta2)
    except OverflowError:
        scale = math.inf
    live = js[:-1] > 0
    rhs = np.zeros(H)
    rhs[live] = scale * c.lambda_base ** np.arange(H)[live] * js[:-1][live] ** (1.0 + c.alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, js[1:] / rhs, 0.0)
    C_emp = float(np.max(ratios)) if ratios.size else 0.0
    return IterationTrace(tuple(x0), R, d, sign, N, js, rhos, ks, rhs, C_emp)


def calibrate_C(traces, safety: float = 2.0) -> float:
    """Smallest constant making the recursion hold on every trace, times a
    safety factor.  Falls back to 1 when every trace is identically zero."""
    traces = list(traces)
    if not traces:
        raise ValueError("calibration needs at least one trace")
    worst = max(t.C_emp for t in traces)
    if worst == 0.0:
        return 1.0
    return safety * worst


@dataclass(frozen=True)
class Certificate:
    x0: tuple
    R: float
    d: float
    sup_half_ball: float
    slack: float
    theta1: float
    theta2: float
    valid: bool
    N: float
    traces: tuple


def certify(
    u: GridFunction,
    x0,
    R: float,
    e: Exponents,
    C_cal: float | None = 1.0,
    H: int = DEFAULT_STEPS,
) -> Certificate:
    """Certify local boundedness of u on B_{R/2}(x0).

    Computes the closed-form level scale d from the recursion constant
    C_cal, runs the J-recursion for both signs of u, and reports whether the
    discrete sup over the half ball stays below a finite d while both
    J-sequences decay.  With C_cal=None the constant is calibrated on u
    itself: both J-recursions are run at C = 1 and C_cal is calibrate_C of
    those two traces.  Validity is a reproducibility statement about this
    engine with its calibrated constant, not a restatement of the theorem.

    The cells of B_R are formed once; N, both signs and both runs read them.
    The cell averages of -u are those of u negated, bitwise, so no -u is
    built, and each trace is `_trace` of the masses that `j_sequence` gives
    for u or -u.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {R}")
    grid = u.grid
    uc, dist2 = _ball_data(u, x0, R)
    c = iteration_constants(e)  # raises on inadmissible exponents
    c0 = default_c0(e)
    N = lp_norm(uc, e.sigma_star, grid)
    hn = grid.h ** grid.n
    signed = ((+1, uc), (-1, -uc))

    def run(C):
        d = choose_d(c, C, c0, R, N)  # N is sign-invariant: one d serves u and -u
        return d, tuple(
            _trace(x0, R, d, c, N, sign, _masses(vals, dist2, R, d, e.qs_prime, hn, H))
            for sign, vals in signed
        )

    if C_cal is None:
        C_cal = calibrate_C(run(1.0)[1])
    d, traces = run(C_cal)
    decayed = all(
        t.js[-1] <= DECAY_FACTOR * max(t.js[0], DECAY_FLOOR) for t in traces
    )

    half = _ball_nodes(u, Ball(x0, R / 2.0))
    sup_half = float(np.max(np.abs(half))) if half.size else 0.0

    slack = d - sup_half
    valid = decayed and sup_half <= d and math.isfinite(d)
    return Certificate(
        x0=tuple(x0),
        R=R,
        d=d,
        sup_half_ball=sup_half,
        slack=slack,
        theta1=c.theta1,
        theta2=c.theta2,
        valid=valid,
        N=N,
        traces=traces,
    )

