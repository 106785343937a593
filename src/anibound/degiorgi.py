"""Level-set iteration engine and L-infinity certification.

Runs the explicit iteration: shrinking radii rho_h -> R/2, increasing levels
k_h -> d, super-level masses J_h, the geometric recursion that drives them to
zero, and the closed-form choice of the level scale d.  The recursion
constant is existential in the continuum statement; here it is calibrated
empirically once per problem class and the certificate records how much
slack the computed minimizer leaves under the resulting bound.
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
    derive,
    iteration_constants,
)
from .fields import (
    Ball,
    GridFunction,
    _average_to_cells,
    _ball_box,
    _node_box,
    cell_average,
    lp_norm,
)

__all__ = [
    "sequences",
    "j_sequence",
    "hole_filling",
    "fast_convergence",
    "IterationTrace",
    "iteration_trace",
    "calibrate_C",
    "Certificate",
    "certify",
    "certificate_csv_header",
    "certificate_csv_row",
    "trace_csv_header",
    "trace_csv_rows",
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


def j_sequence(
    u: GridFunction,
    x0,
    R: float,
    d: float,
    e: Exponents,
    H: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Super-level masses J_h = integral over {u > k_h} of (u - k_h)^{qs'}, h = 0..H.

    Only the cells of the bounding box of B_R(x0) are visited.
    """
    if H < 1:
        raise ValueError("need at least one step")
    grid = u.grid
    ball = Ball(x0, R)
    if not grid.contains_ball(ball):
        raise ValueError("ball leaves the grid box")
    qs = e.qs_prime
    box, _, dist2 = _ball_box(grid, ball)  # every rho_h is at most R
    uc = _average_to_cells(u.values[_node_box(box)]).ravel()
    hn = grid.h ** grid.n
    out = np.empty(H + 1)
    for h in range(H + 1):
        rho, k, _ = sequences(R, d, h)
        sel = (dist2 < rho * rho) & (uc > k)
        out[h] = float(np.sum((uc[sel] - k) ** qs) * hn) if sel.any() else 0.0
    return out


@dataclass(frozen=True)
class HoleFillingReport:
    hypothesis_ok: bool
    conclusion_ok: bool
    C_theory: float
    C_emp: float
    phi_rho: float
    bound: float


def interpolation_constant(theta: float, alpha: float) -> float:
    """Constant of the absorption argument: min over tau in (theta^(1/alpha), 1)
    of (1 - tau)^-alpha / (1 - theta * tau^-alpha)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    tau_lo = theta ** (1.0 / alpha)
    taus = tau_lo + (1.0 - tau_lo) * (np.arange(1, 1000) / 1000.0)
    cands = (1.0 - taus) ** (-alpha) / (1.0 - theta * taus ** (-alpha))
    return float(np.min(cands))


def hole_filling(
    taus,
    phi,
    theta: float,
    A: float,
    B: float,
    alpha: float,
    rho: float,
    R: float,
) -> HoleFillingReport:
    """Check the absorption lemma on sampled data.

    Hypothesis: phi(s) <= theta*phi(t) + A/(t-s)^alpha + B on all sample pairs
    s < t.  Conclusion: phi(rho) <= C * (A/(R-rho)^alpha + B) with the standard
    interpolation constant C(theta, alpha).
    """
    taus = np.asarray(taus, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if taus.ndim != 1 or taus.shape != phi.shape or taus.size < 2:
        raise ValueError("need matching 1-D sample arrays with >= 2 points")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if not taus[0] <= rho < R <= taus[-1]:
        raise ValueError("need tau0 <= rho < R <= tau1")
    if A < 0 or B < 0:
        raise ValueError("A and B must be nonnegative")

    s = taus[:, None]
    t = taus[None, :]
    lower = np.triu(np.ones((taus.size, taus.size), dtype=bool), k=1)  # pairs s < t
    bound_st = theta * phi[None, :] + A / np.where(lower, t - s, 1.0) ** alpha + B
    hypothesis_ok = bool(
        np.all((phi[:, None] <= bound_st * (1 + 1e-12) + 1e-12) | ~lower)
    )
    C_theory = interpolation_constant(theta, alpha)
    phi_rho = float(np.interp(rho, taus, phi))
    structure = A / (R - rho) ** alpha + B
    bound = C_theory * structure
    if not hypothesis_ok:
        return HoleFillingReport(False, False, C_theory, math.inf, phi_rho, bound)
    C_emp = 0.0 if phi_rho == 0.0 else (math.inf if structure == 0.0 else phi_rho / structure)
    conclusion_ok = phi_rho <= bound * (1 + 1e-12)
    return HoleFillingReport(True, conclusion_ok, C_theory, C_emp, phi_rho, bound)


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


def iteration_trace(
    u: GridFunction,
    x0,
    R: float,
    d: float,
    e: Exponents,
    c: IterationConstants,
    N: float,
    H: int = DEFAULT_STEPS,
    sign: int = 1,
) -> IterationTrace:
    """Run the J-recursion diagnostics for u (sign=+1) or -u (sign=-1)."""
    field = u if sign > 0 else -u
    js = j_sequence(field, x0, R, d, e, H)
    rhos = np.empty(H + 1)
    ks = np.empty(H + 1)
    for h in range(H + 1):
        rhos[h], ks[h], _ = sequences(R, d, h)
    norm_factor = (1.0 + N) ** c.norm_exponent
    scale = norm_factor * d ** (-c.delta1) * R ** (-c.delta2)
    hs = np.arange(H)
    rhs = scale * c.lambda_base ** hs * js[:-1] ** (1.0 + c.alpha)
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
    rhs_bound: float
    valid: bool
    N: float
    traces: tuple


def certify(
    m,
    u: GridFunction,
    x0,
    R: float,
    e: Exponents,
    C_cal: float = 1.0,
    H: int = DEFAULT_STEPS,
    c0: float | None = None,
) -> Certificate:
    """Certify local boundedness of u on B_{R/2}(x0).

    Computes the closed-form level scale d from the calibrated constant,
    runs the J-recursion for both signs of u, and reports whether the
    discrete sup over the half ball stays below a finite d while both
    J-sequences decay.  Validity is a reproducibility statement about this
    engine with its calibrated constant, not a restatement of the theorem.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {R}")
    grid = u.grid
    ball = Ball(x0, R)
    if not grid.contains_ball(ball):
        raise ValueError("ball leaves the grid box")
    d_exp = derive(e)
    c = iteration_constants(d_exp, e)  # raises on inadmissible exponents
    if c0 is None:
        c0 = default_c0(d_exp, e)

    N = lp_norm(cell_average(u), d_exp.sigma_star, grid, ball)
    d = choose_d(c, C_cal, c0, R, N)  # N is sign-invariant: one d serves u and -u

    traces = tuple(
        iteration_trace(u, x0, R, d, e, c, N, H, sign) for sign in (+1, -1)
    )
    decayed = all(
        t.js[-1] <= DECAY_FACTOR * max(t.js[0], DECAY_FLOOR) for t in traces
    )

    half = Ball(x0, R / 2.0)
    nodes, _, dist2 = _ball_box(grid, half, nodes=True)
    values = u.values[nodes]
    inside = (dist2 < half.R * half.R).reshape(values.shape)
    sup_half = float(np.max(np.abs(values[inside]))) if inside.any() else 0.0

    try:
        composite = (C_cal * c0 ** c.alpha * c.lambda_base ** (1.0 / c.alpha)) ** (
            1.0 / c.delta1
        )
        rhs_bound = max(2.0, composite * R ** (-c.theta2) * (1.0 + N) ** c.theta1)
    except OverflowError:
        rhs_bound = math.inf
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
        rhs_bound=rhs_bound,
        valid=valid,
        N=N,
        traces=traces,
    )


def certificate_csv_header() -> str:
    return "x0,R,d,sup_half_ball,slack,theta1,theta2,rhs_bound,valid"


def certificate_csv_row(cert: Certificate) -> str:
    x0 = ";".join(f"{v:.17g}" for v in cert.x0)
    return (
        f"{x0},{cert.R:.17g},{cert.d:.17g},{cert.sup_half_ball:.17g},"
        f"{cert.slack:.17g},{cert.theta1:.17g},{cert.theta2:.17g},"
        f"{cert.rhs_bound:.17g},{int(cert.valid)}"
    )


def trace_csv_header() -> str:
    return "sign,h,rho_h,k_h,J_h,rhs_h"


def trace_csv_rows(cert: Certificate):
    rows = []
    for t in cert.traces:
        for h in range(len(t.js) - 1):
            rows.append(
                f"{t.sign},{h},{t.rhos[h]:.17g},{t.ks[h]:.17g},"
                f"{t.js[h]:.17g},{t.rhs[h]:.17g}"
            )
    return rows
