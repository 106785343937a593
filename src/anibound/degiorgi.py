"""Level-set iteration engine and L-infinity certification.

Runs the explicit iteration on one schedule per ball and level scale
(`sequences`: shrinking radii rho_h -> R/2, increasing levels k_h -> d),
super-level masses J_h, the geometric recursion that drives them to zero,
and the closed-form choice of the level scale d.  The recursion
constant is existential in the continuum statement; here it is C_cal, a
positive number fixed before the run (default 1).  The certificate records
how much slack the computed minimizer leaves under the resulting bound.

The super-level sets {u > k_h} within B_{rho_h} are nested, so the masses
are one pass over the ball's cells (`_masses`), and `certify` gathers those
cells, and the nodes its half-ball sup reads, once for N and both signs.

Results are data: a `Certificate` holding the schedule once and one
`IterationTrace` per sign.
The command line writes them as the certificate and trace CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import Exponents, choose_d
from .fields import Ball, GridFunction, _ball_cells, lp_norm

__all__ = [
    "sequences",
    "j_sequence",
    "fast_convergence",
    "IterationTrace",
    "Certificate",
    "certify",
]

DECAY_FLOOR = 1e-30
DECAY_FACTOR = 1e-10
DEFAULT_STEPS = 40


def sequences(R: float, d: float, H: int) -> tuple:
    """The schedule of steps h = 0..H as two arrays: radii rho_h = (R/2)(1 + 2^-h),
    which never rise, and levels k_h = d(1 - 2^-(h+1)), which never fall; each
    entry is the bits of its scalar formula, as every power of 2 is exact."""
    if R <= 0:
        raise ValueError("radius must be positive")
    if d < 2:
        raise ValueError(f"level scale d must be >= 2, got {d}")
    if H < 1:
        raise ValueError("need at least one step")
    halves = np.ldexp(1.0, -np.arange(H + 1))
    return (R / 2.0) * (1.0 + halves), d * (1.0 - 0.5 * halves)


def _ball_data(u: GridFunction, x0, R: float) -> tuple:
    """u averaged to the cells whose centres lie in B_R(x0) and those centres'
    squared distances from x0, flat in row-major order, then u at the nodes
    of the ball's box and their squared distances from x0; only the ball's
    box is visited (`fields._ball_cells`, which refuses a ball that leaves
    the grid box)."""
    _, uc, dist2, nodes, node_dist2 = _ball_cells(u, Ball(x0, R))
    inside = dist2 < R * R
    return uc[inside], dist2[inside], nodes, node_dist2


def _masses(values, dist2, rhos, ks, qs: float, hn: float) -> np.ndarray:
    """J_h for every step of the schedule `rhos`, `ks` (`sequences`) from the
    values and squared distances of cells that include every cell of B_R.

    The sets {values > k_h} within B_{rho_h} are nested, so step h filters
    only the cells that step h - 1 kept. They stay in the order given, so
    each J_h is bitwise the sum a scan of all the cells would give. Once the
    set is empty the remaining J_h are 0.
    """
    out = np.zeros(len(rhos))
    for h, (rho, k) in enumerate(zip(rhos.tolist(), ks.tolist())):
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
    values, dist2, _, _ = _ball_data(u, x0, R)
    return _masses(values, dist2, *sequences(R, d, H), e.qs_prime, u.grid.h ** u.grid.n)


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
    """Per-step diagnostics of the level-set iteration for one sign of u; the
    schedule, x0, R, d and N it ran on are the `Certificate`'s."""

    sign: int  # +1 for u, -1 for -u
    js: np.ndarray  # J_h, h = 0..H
    rhs: np.ndarray  # recursion right side at C = 1, h = 0..H-1


def _trace(R: float, d: float, e: Exponents, N: float, sign: int, js) -> IterationTrace:
    """The diagnostics of one run from its masses J_0..J_H.

    A factor of the recursion's right side too large for binary64 is inf, as
    in `choose_d`; a step with J_h = 0 has right side 0 whatever the factor."""
    try:
        scale = (1.0 + N) ** e.norm_exponent * d ** (-e.delta1) * R ** (-e.delta2)
    except OverflowError:
        scale = math.inf
    live = js[:-1] > 0
    rhs = np.zeros(live.size)
    rhs[live] = scale * e.lambda_base ** np.arange(live.size)[live] * js[:-1][live] ** (1.0 + e.alpha)
    return IterationTrace(sign, js, rhs)


@dataclass(frozen=True)
class Certificate:
    """The outcome on B_R(x0) at level scale d, with the schedule (`sequences`)
    and N = ||u||_{sigma_bar*}(B_R) that both signs' traces ran on."""

    x0: tuple
    R: float
    d: float
    N: float
    rhos: np.ndarray
    ks: np.ndarray
    sup_half_ball: float
    slack: float
    theta1: float
    theta2: float
    valid: bool
    traces: tuple  # one IterationTrace per sign, +1 then -1


def certify(
    u: GridFunction,
    x0,
    R: float,
    e: Exponents,
    C_cal: float = 1.0,
    H: int = DEFAULT_STEPS,
) -> Certificate:
    """Certify local boundedness of u on B_{R/2}(x0).

    Computes the closed-form level scale d from the recursion constant
    C_cal, runs the J-recursion for both signs of u, and reports whether the
    discrete sup over the half ball stays below a finite d while both
    J-sequences decay.  Validity is a reproducibility statement about this
    engine at the constant C_cal, not a restatement of the theorem.

    The cells and nodes of B_R's box are gathered once; N and both signs
    read the cells, the half-ball sup reads the nodes, and both signs share
    the one schedule of d. The cell averages of -u are those of u negated,
    bitwise, so no -u is built, and each trace is `_trace` of the masses
    that `j_sequence` gives for u or -u.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {R}")
    grid = u.grid
    uc, dist2, nodes, node_dist2 = _ball_data(u, x0, R)
    if not e.admissible:
        raise ValueError(
            "inadmissible exponents: "
            f"cond_i={e.cond_i} cond_ii={e.cond_ii} cond_iii={e.cond_iii}"
        )
    N = lp_norm(uc, e.sigma_star, grid)
    hn = grid.h ** grid.n
    d = choose_d(e, C_cal, R, N)  # N is sign-invariant: one d serves u and -u
    rhos, ks = sequences(R, d, H)
    traces = tuple(
        _trace(R, d, e, N, sign, _masses(vals, dist2, rhos, ks, e.qs_prime, hn))
        for sign, vals in ((+1, uc), (-1, -uc))
    )
    decayed = all(
        t.js[-1] <= DECAY_FACTOR * max(t.js[0], DECAY_FLOOR) for t in traces
    )

    r = R / 2.0  # the box of B_R holds every node of B_r
    half = nodes[node_dist2 < r * r]
    sup_half = float(np.max(np.abs(half))) if half.size else 0.0

    slack = d - sup_half
    valid = decayed and sup_half <= d and math.isfinite(d)
    return Certificate(
        x0=tuple(x0),
        R=R,
        d=d,
        N=N,
        rhos=rhos,
        ks=ks,
        sup_half_ball=sup_half,
        slack=slack,
        theta1=e.theta1,
        theta2=e.theta2,
        valid=valid,
        traces=traces,
    )

