"""Empirical verification of the supporting inequalities on discrete data.

Each verifier computes the two sides of one inequality and reports the
minimal empirical constant c_emp = lhs / rhs_structure, where rhs_structure
is the bracketed quantity multiplying the unknown constant.  The constants
in the continuum statements are existential, so the falsifiable desk-scale
claims are finiteness, homogeneity invariance, and stability under
refinement; those are asserted by the test suite, not here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import DerivedExponents, conjugate_exponent, derive
from .fields import (
    Ball,
    GridFunction,
    _average_to_cells,
    _ball_box,
    _interior_mask,
    _node_box,
    cell_average,
    cell_mask,
    gradient,
    lp_norm,
    superlevel_measure,
)
from .integrand import ModelIntegrand, energy

__all__ = [
    "InequalityReport",
    "verify_lower_bound",
    "verify_embedding",
    "verify_poincare_sobolev",
    "verify_weight_domination",
    "verify_caccioppoli",
    "higher_integrability_norm",
    "report_csv_header",
    "report_csv_row",
]


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs_structure: float
    c_emp: float
    passed: bool
    context: dict = field(default_factory=dict)


def _make_report(name, lhs, rhs, context, c_bound=None) -> InequalityReport:
    if lhs == 0.0:
        c_emp = 0.0
    elif rhs == 0.0:
        c_emp = math.inf
    else:
        c_emp = lhs / rhs
    if c_bound is None:
        passed = math.isfinite(c_emp) or lhs == 0.0
    else:
        passed = lhs == 0.0 or c_emp <= c_bound
    return InequalityReport(name, lhs, rhs, c_emp, passed, dict(context))


def _box_mask(grid, box):
    """Cell mask of a sub-box given as [(lo, hi), ...]: the cells whose centers
    lie strictly inside it."""
    if len(box) != grid.n:
        raise ValueError(f"sub-box has {len(box)} axes, the grid {grid.n}")
    for i, (lo, hi) in enumerate(box):
        if lo < grid.lo[i] - 1e-12 or hi > grid.hi[i] + 1e-12:
            raise ValueError(f"sub-box axis {i} [{lo}, {hi}] leaves the grid box")
    inside = [(c > lo) & (c < hi) for (lo, hi), c in zip(box, grid.cell_axes())]
    if not all(side.any() for side in inside):
        raise ValueError(f"sub-box {box} holds no cell center")
    return functools.reduce(np.logical_and.outer, inside)


def verify_lower_bound(m: ModelIntegrand, u: GridFunction, subbox) -> InequalityReport:
    """Lower energy bound: directional norms of Du against the energy integral."""
    grid = u.grid
    mask = _box_mask(grid, subbox)
    centers = grid.cell_centers()[mask.ravel()]
    d = derive(m.exponents)
    grads = gradient(u)
    lhs = 0.0
    for i in range(grid.n):
        wnorm = lp_norm(1.0 / m.lambdas[i](centers, grid.h), m.exponents.r[i], grid)
        if wnorm == 0.0:
            continue
        gnorm = lp_norm(grads[i], d.sigma[i], grid, mask)
        lhs += (1.0 / wnorm) * gnorm ** m.exponents.p[i]
    lhs /= grid.n
    rhs = energy(m, u, mask)
    return _make_report(
        "lower_bound", lhs, rhs, {"subbox": subbox}, c_bound=1.0 + 1e-9
    )


def _check_vanishes_near_boundary(u: GridFunction) -> None:
    if np.any(u.values[~_interior_mask(u.grid)] != 0.0):
        raise ValueError("field must vanish on the grid boundary")


def verify_embedding(u: GridFunction, d: DerivedExponents) -> InequalityReport:
    """Anisotropic Sobolev embedding: ||u||_{sigma_bar*} vs geometric mean of
    the directional gradient norms."""
    if d.sigma_star is None:
        raise ValueError("embedding needs sigma_bar < n")
    _check_vanishes_near_boundary(u)
    grid = u.grid
    lhs = lp_norm(cell_average(u), d.sigma_star, grid)
    grads = gradient(u)
    prod = 1.0
    for i in range(grid.n):
        prod *= lp_norm(grads[i], d.sigma[i], grid)
    rhs = prod ** (1.0 / grid.n)
    return _make_report("embedding", lhs, rhs, {})


def verify_poincare_sobolev(
    m: ModelIntegrand, v: GridFunction, d: DerivedExponents, subbox=None
) -> InequalityReport:
    """Weighted Poincare-Sobolev bound with the weight norms on the right."""
    if d.sigma_star is None:
        raise ValueError("needs sigma_bar < n")
    _check_vanishes_near_boundary(v)
    grid = v.grid
    mask = cell_mask(grid, None) if subbox is None else _box_mask(grid, subbox)
    lhs = lp_norm(cell_average(v), d.sigma_star, grid, mask)
    grads = gradient(v)
    centers = grid.cell_centers()
    hn = grid.h ** grid.n
    prod = 1.0
    for i in range(grid.n):
        lam = m.lambdas[i](centers, grid.h).reshape(grid.cell_shape)
        wnorm = lp_norm(1.0 / lam[mask], m.exponents.r[i], grid)
        integral = float(
            np.sum((lam * np.abs(grads[i]) ** m.exponents.p[i])[mask]) * hn
        )
        prod *= (wnorm * integral) ** (1.0 / m.exponents.p[i])
    rhs = prod ** (1.0 / grid.n)
    return _make_report("poincare_sobolev", lhs, rhs, {"subbox": subbox})


def verify_weight_domination(m: ModelIntegrand, grid) -> InequalityReport:
    """Per-direction weights against twice the effective upper weight."""
    centers = grid.cell_centers()
    lam = m.lambda_values(centers, grid.h)
    mu_t = m._mu_tilde(centers, grid.h, lam)
    violation = float(np.max(lam - 2.0 * mu_t))
    lhs = float(np.max(lam))
    rhs = float(np.min(2.0 * mu_t)) if mu_t.size else 0.0
    report = _make_report("weight_domination", lhs, rhs, {"max_violation": violation})
    return InequalityReport(
        report.name, report.lhs, report.rhs_structure, report.c_emp,
        passed=violation <= 1e-12, context=report.context,
    )


def verify_caccioppoli(
    m: ModelIntegrand,
    u: GridFunction,
    k: float,
    rho: float,
    R: float,
    x0,
) -> InequalityReport:
    """Caccioppoli level-set inequality for a quasi-minimizer.

    Every term is computed on the bounding box of the big ball's cells, and
    mu_tilde only at the cells inside that ball, so the cost scales with the
    box, not with the grid.
    """
    if not 0.0 < rho < R:
        raise ValueError(f"need 0 < rho < R, got rho={rho}, R={R}")
    if k < 1.0:
        raise ValueError(f"need k >= 1, got {k}")
    grid = u.grid
    big = Ball(x0, R)
    if not grid.contains_ball(big):
        raise ValueError("ball leaves the grid box")
    e = m.exponents
    s_prime = conjugate_exponent(e.s)

    box, centers, dist2 = _ball_box(grid, big)
    uc = _average_to_cells(u.values[_node_box(box)]).ravel()
    in_ball = dist2 < R * R
    above = uc > k

    in_small = np.zeros(grid.cell_shape, dtype=bool)
    in_small[box] = ((dist2 < rho * rho) & above).reshape(in_small[box].shape)
    lhs = energy(m, u, in_small)

    hn = grid.h ** grid.n
    mu_t = m.mu_tilde(centers[in_ball], grid.h)
    in_big = above[in_ball]
    excess = uc[in_ball][in_big] - k
    term1 = float(np.sum(mu_t[in_big] * (excess ** e.q + k ** e.gamma)) * hn)
    term1 /= (R - rho) ** e.q
    mu_norm = lp_norm(mu_t, e.s, grid)
    level_measure = superlevel_measure(u, k, big)
    term2 = mu_norm * level_measure ** (1.0 / s_prime) if level_measure > 0 else 0.0
    rhs = term1 + term2
    return _make_report(
        "caccioppoli", lhs, rhs, {"k": k, "rho": rho, "R": R, "x0": tuple(x0)}
    )


def higher_integrability_norm(u: GridFunction, e, ball: Ball) -> float:
    """||u||_{L^{qs'}} over a ball; finite by construction, reported for stability checks."""
    s_prime = conjugate_exponent(e.s)
    return lp_norm(cell_average(u), e.q * s_prime, u.grid, ball)


def report_csv_header() -> str:
    return "check,context,lhs,rhs_structure,c_emp,passed"


def report_csv_row(rep: InequalityReport) -> str:
    ctx = ";".join(f"{k}={v}" for k, v in sorted(rep.context.items()))
    return (
        f"{rep.name},{ctx},{rep.lhs:.17g},{rep.rhs_structure:.17g},"
        f"{rep.c_emp:.17g},{int(rep.passed)}"
    )
