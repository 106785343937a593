"""Empirical verification of the supporting inequalities on discrete data.

Each report gives the two sides of one inequality and the minimal empirical
constant c_emp = lhs / rhs_structure, where rhs_structure is the bracketed
quantity multiplying the unknown constant. There are four kinds of row: the
lower growth bound, the anisotropic Sobolev embedding, its weighted
Poincare-Sobolev form and the Caccioppoli inequality on level sets. The
embedding and Poincare-Sobolev rows share their lhs, gradient and weights,
so `verify_sobolev` reports both from one pass over the field; the
Caccioppoli sweep reports every (k, rho, R) from one pass over the largest
ball. Only the lower bound has a bound on c_emp (1 + 1e-9); the other rows
fail only when c_emp is not finite. Their constants in the continuum
statements are existential, so the falsifiable desk-scale claims are
finiteness, homogeneity invariance, and stability under refinement; those
are asserted by the test suite, not here.

Every check returns `InequalityReport`s; the command line writes them as
the inequalities CSV file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Ball,
    GridFunction,
    _average_to_cells,
    _ball_cells,
    _dist2,
    _node_box,
    gradient,
    lp_norm,
)
from .integrand import ModelIntegrand, cell_energy

__all__ = [
    "InequalityReport",
    "verify_lower_bound",
    "verify_sobolev",
    "verify_caccioppoli",
    "caccioppoli_sweep",
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


def _sub_box(grid, box):
    """The cells whose centers lie strictly inside a sub-box given as
    [(lo, hi), ...]: a box of cells, one slice per axis, since the cell
    centers of each axis increase."""
    if len(box) != grid.n:
        raise ValueError(f"sub-box has {len(box)} axes, the grid {grid.n}")
    for i, (lo, hi) in enumerate(box):
        if lo < grid.lo[i] - 1e-12 or hi > grid.hi[i] + 1e-12:
            raise ValueError(f"sub-box axis {i} [{lo}, {hi}] leaves the grid box")
    inside = [np.flatnonzero((c > lo) & (c < hi)) for (lo, hi), c in zip(box, grid.cell_axes())]
    if not all(side.size for side in inside):
        raise ValueError(f"sub-box {box} holds no cell center")
    return tuple(slice(int(side[0]), int(side[-1]) + 1) for side in inside)


def verify_lower_bound(m: ModelIntegrand, u: GridFunction, subbox) -> InequalityReport:
    """Lower energy bound: directional norms of Du against the energy integral.

    The weights, the gradient and the energy density are formed only on the
    sub-box's cells, from one sample of the weights."""
    grid = u.grid
    box = _sub_box(grid, subbox)
    weights = m.on_cells(grid, box)
    lam, _ = weights
    e = m.exponents
    grads = gradient(u, box)
    lhs = 0.0
    for i in range(grid.n):
        wnorm = lp_norm(1.0 / lam[i], e.r[i], grid)
        if wnorm == 0.0:
            continue
        gnorm = lp_norm(grads[i], e.sigma[i], grid)
        lhs += (1.0 / wnorm) * gnorm ** e.p[i]
    lhs /= grid.n
    density = cell_energy(m, grid, u.values[_node_box(box)], weights)
    rhs = float(np.sum(density.ravel()) * grid.h ** grid.n)
    return _make_report(
        "lower_bound", lhs, rhs, {"subbox": subbox}, c_bound=1.0 + 1e-9
    )


def verify_sobolev(m: ModelIntegrand, v: GridFunction) -> tuple:
    """The (embedding, poincare_sobolev) reports of a field v that vanishes
    on the grid boundary, from one cell average, one gradient and one sample
    of the weights. Both share the lhs ||v||_{sigma_bar*}; the embedding's
    rhs is the geometric mean of the directional gradient norms
    ||D_i v||_{sigma_i}, the weighted Poincare-Sobolev rhs that of
    (||1/lambda_i||_{r_i} * int lambda_i |D_i v|^{p_i})^{1/p_i}. The
    exponents are the model's."""
    e = m.exponents
    if e.sigma_star is None:
        raise ValueError("embedding needs sigma_bar < n")
    grid = v.grid
    if any(np.any(np.take(v.values, (0, -1), axis=i) != 0.0) for i in range(grid.n)):
        raise ValueError("field must vanish on the grid boundary")
    lhs = lp_norm(_average_to_cells(v.values), e.sigma_star, grid)
    grads = gradient(v)
    lam, _ = m.on_cells(grid)
    hn = grid.h ** grid.n
    prod_em = prod_ps = 1.0
    for i in range(grid.n):
        prod_em *= lp_norm(grads[i], e.sigma[i], grid)
        wnorm = lp_norm(1.0 / lam[i], e.r[i], grid)
        integral = float(np.sum(lam[i] * np.abs(grads[i]) ** e.p[i]) * hn)
        prod_ps *= (wnorm * integral) ** (1.0 / e.p[i])
    return (
        _make_report("embedding", lhs, prod_em ** (1.0 / grid.n), {}),
        _make_report("poincare_sobolev", lhs, prod_ps ** (1.0 / grid.n), {}),
    )


def verify_caccioppoli(
    m: ModelIntegrand, u: GridFunction, k: float, rho: float, R: float, x0
) -> InequalityReport:
    """Caccioppoli level-set inequality for a quasi-minimizer at one
    (k, rho, R): the one-triple `caccioppoli_sweep`."""
    if not 0.0 < rho < R:
        raise ValueError(f"need 0 < rho < R, got rho={rho}, R={R}")
    return caccioppoli_sweep(m, u, (k,), (rho,), (R,), x0)[0]


def caccioppoli_sweep(m: ModelIntegrand, u: GridFunction, levels, rhos, radii, x0) -> list:
    """Caccioppoli level-set inequality for a quasi-minimizer at every
    (k, rho, R) with rho < R, in the loop order k, rho, R. The cell averages,
    energy density, mu_tilde and distances are formed once, on the box of the
    largest ball's cells, and every term is a masked sum over them; a lhs is
    bitwise `energy` on its region."""
    pairs = [(rho, R) for rho in rhos for R in radii if rho < R]
    if not levels or not pairs:
        return []
    if min(levels) < 1.0 or min(pairs)[0] <= 0.0:
        raise ValueError(f"need k >= 1 and 0 < rho, got k={min(levels)}, rho={min(pairs)[0]}")
    grid = u.grid
    big = Ball(x0, max(R for _, R in pairs))
    e = m.exponents
    hn = grid.h ** grid.n
    inv_s_prime = 1.0 / e.s_prime
    box, uc, dist2 = _ball_cells(u, big)
    nodes = _node_box(box)
    node_values = u.values[nodes]
    lam, mu = m.on_cells(grid, box)
    density = cell_energy(m, grid, node_values, (lam, mu))
    mu_tilde = m._mu_tilde(lam, mu)
    node_dist2 = _dist2(grid.node_axes(), nodes, big.x0)
    balls = {}  # R -> mu_tilde, u and the node values in B_R, ||mu_tilde||_s
    for R in {R for _, R in pairs}:
        in_ball = dist2 < R * R
        mu_t = mu_tilde[in_ball]
        balls[R] = mu_t, uc[in_ball], node_values[node_dist2 < R * R], lp_norm(mu_t, e.s, grid)

    reports = []
    for k in levels:
        above = uc > k
        rhs = {}  # R -> term1 before its 1 / (R - rho)^q, term2
        for R, (mu_t, uc_ball, ball_nodes, mu_norm) in balls.items():
            in_big = uc_ball > k
            excess = uc_ball[in_big] - k
            term1 = float(np.sum(mu_t[in_big] * (excess ** e.q + k ** e.gamma)) * hn)
            level = int(np.count_nonzero(ball_nodes > k)) * hn
            rhs[R] = term1, mu_norm * level ** inv_s_prime if level > 0 else 0.0
        lhs = {rho: float(np.sum(density[(dist2 < rho * rho) & above]) * hn)
               for rho in {rho for rho, _ in pairs}}
        for rho, R in pairs:
            term1, term2 = rhs[R]
            rhs_structure = term1 / (R - rho) ** e.q + term2
            context = {"k": k, "rho": rho, "R": R, "x0": tuple(x0)}
            reports.append(_make_report("caccioppoli", lhs[rho], rhs_structure, context))
    return reports

