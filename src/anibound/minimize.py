"""Discrete energy minimization with fixed Dirichlet boundary data.

The discrete energy is the edge stencil of `fields`: the integrand's axis-i
term is applied to every edge difference along axis i, with per-edge weights
built once per (model, grid) from lambda_i at the cell centres, and the
|u|^gamma term is lumped to the nodes. So the gradient and a Hessian-vector
product cost one difference per axis and its transpose, and at p = 2 the
Hessian is the (2n+1)-point M-matrix stencil, which keeps the discrete
maximum principle in any dimension.

The solver is a matrix-free truncated Newton-CG method on the (optionally
smoothed) discrete energy, so its step count does not grow as h shrinks.

* A Newton step solves H x = -g over the interior nodes by Jacobi-
  preconditioned CG, stopped at the fixed relative forcing
  |r| <= 0.1 |g| (2-norms), at the number of interior nodes, or at a
  non-positive curvature (then the first CG direction is taken). H is a
  model of the Hessian, built once per step from the edge state of the
  iterate; each CG iteration costs one Hessian-vector product. Its diagonal,
  the Jacobi preconditioner, is in closed form: at each node the sum of the
  weights of the edges that end there, plus the node's u-term weight.
* The line search tries t = 1 first and halves a rejected step. A trial
  costs one stencil evaluation and one transpose pass over its kept edge
  state (its gradient). It is accepted on Armijo sufficient decrease
  (constant 1e-4), or when the slope g(u + t x).x <= 1e-4 g(u).x, which
  for a convex energy implies the same decrease and stays accurate below
  the energy's round-off floor. The accepted trial's state and gradient
  become the next iterate's.
* A step below t = 1e-10 stops the solve as stalled, and so do 5 accepted
  steps in a row that take neither the energy nor the residual below the
  lowest value seen so far: below the round-off floor the slope test keeps
  accepting noise steps that change nothing. (The energy alone does not
  tell: p_i < 2 solves still halve the residual in each of several steps
  after the energy has stopped changing.)

When some p_i < 2 the kink of |t|^p at t = 0 is smoothed to
(t^2 + eps^2)^(p/2) - eps^p with eps = h^2. The energy and its gradient are
exact; only the Newton model differs from the true Hessian. On the smoothed
axes it uses the majorizing curvature f'(t)/t = p (t^2 + eps^2)^(p/2 - 1),
since the exact f'' makes full steps overshoot the kink; on the others the
exact f'' (2 for p = 2, p(p-1)|t|^(p-2) for p > 2). The |u|^gamma term uses
gamma(gamma-1)|u|^(gamma-2) for gamma >= 2 and gamma (u^2 + eps^2)^(gamma/2 - 1)
for gamma < 2, where eps = h^2 > 0 because gamma >= p_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    GridFunction,
    _add_adjoint_diff,
    _average_to_cells_transpose,
    _cells_to_edges,
    _tensor_hat,
)
from .integrand import ModelIntegrand, energy

__all__ = [
    "SolveConfig",
    "SolveResult",
    "solve",
    "verify_quasiminimality",
    "random_perturbations",
]


@dataclass(frozen=True)
class SolveConfig:
    """Solver parameters: at most max_iters Newton steps, stopping once the
    residual is at most grad_tol.

    grad_tol is compared against the sup norm of the energy gradient scaled
    by h^-n, i.e. a discrete Euler-Lagrange residual that is stable under
    grid refinement. The forcing 0.1, the Armijo constant 1e-4, the halving
    of a rejected step and the stall tests (t < 1e-10, or 5 accepted steps
    in a row without a new low of the energy or the residual) are fixed.
    """

    max_iters: int = 200
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise ValueError("max_iters and grad_tol must be positive")


@dataclass(frozen=True)
class SolveResult:
    """stop_reason is "converged", "max_iters" or "stalled" (the line search
    found no acceptable step above t = 1e-10, or 5 accepted steps in a row
    took neither the energy nor the residual to a new low)."""

    u: GridFunction
    final_energy: float
    iterations: int
    converged: bool
    residual: float
    stop_reason: str


# The fixed Newton-CG constants: relative CG forcing, sufficient-decrease
# constant, the step below which the line search gives up, and the number of
# accepted steps in a row without a new low of the energy or the residual
# that stops a solve.
_FORCING, _ARMIJO_C, _MIN_STEP, _FLAT_STEPS = 0.1, 1e-4, 1e-10, 5


class _DiscreteEnergy:
    """The edge-stencil energy with its weights built once per (model, grid):

        E(u) = sum_i sum_(edges e along i) w_e f_i(D_e u / h)
               + sum_(nodes x) c_x |u(x)|^gamma,

    where w_e is h^n 2^(1-n) times the sum of lambda_i over the cells that
    share e, c_x is u_coeff h^n 2^(-n) times the sum of mu over the cells at
    x, and f_i(t) is |t|^p_i or its smoothing. `evaluate` returns the energy
    with the state from which `gradient` builds the nodal gradient and
    `curvature` the weights of the Newton model."""

    def __init__(self, m: ModelIntegrand, grid: Grid, eps: float):
        self.grid = grid
        self.eps = eps
        hn = grid.h ** grid.n
        centers = grid.cell_centers()
        cshape = grid.cell_shape
        self.w = [
            hn * _cells_to_edges(lam(centers, grid.h).reshape(cshape), i)
            for i, lam in enumerate(m.lambdas)
        ]
        self.wu = (
            (m.u_coeff * hn)
            * _average_to_cells_transpose(m.mu(centers, grid.h).reshape(cshape))
            if m.u_coeff > 0
            else None
        )
        self.p = m.exponents.p
        self.gamma = m.exponents.gamma
        self._diffs = [np.empty(w.shape) for w in self.w]  # hessian_product's

    def evaluate(self, values):
        """Energy and state: per axis the edge differences D_e u / h and the
        smoothing base t^2 + eps^2 (None if unsmoothed), and `values` itself,
        which must not change while the state is in use."""
        ts, bases = [], []
        total = 0.0
        for i, w in enumerate(self.w):
            t = np.diff(values, axis=i)
            t /= self.grid.h
            p = self.p[i]
            if self.eps > 0 and p < 2:
                base = t * t + self.eps ** 2
                f = base ** (p / 2.0) - self.eps ** p
            else:
                base = None
                f = np.abs(t) ** p
            ts.append(t)
            bases.append(base)
            total += float(np.vdot(w, f))
        if self.wu is not None:
            total += float(np.vdot(self.wu, np.abs(values) ** self.gamma))
        return total, (ts, bases, values)

    def gradient(self, state):
        """Nodal gradient of the energy from a state that `evaluate` returned."""
        ts, bases, u = state
        gout = (
            np.zeros(self.grid.shape)
            if self.wu is None
            else self.wu * self.gamma * np.sign(u) * np.abs(u) ** (self.gamma - 1.0)
        )
        for i, (w, t, base) in enumerate(zip(self.w, ts, bases)):
            p = self.p[i]
            if base is None:
                d = p * np.sign(t) * np.abs(t) ** (p - 1.0)
            else:
                d = p * t * base ** (p / 2.0 - 1.0)
            d *= w
            d /= self.grid.h
            _add_adjoint_diff(gout, d, i)
        return gout

    def curvature(self, state):
        """Edge weights (c_1, ..., c_n) and nodal weights c_u of the Newton
        model H = sum_i D_i^T diag(c_i) D_i + diag(c_u) at a state that
        `evaluate` returned, D_i the plain edge differences along axis i;
        c_u is None without a u term. See the module docstring for the
        curvature of each branch."""
        ts, bases, u = state
        cs = []
        for i, (w, t, base) in enumerate(zip(self.w, ts, bases)):
            p = self.p[i]
            if base is not None:
                k = p * base ** (p / 2.0 - 1.0)
            elif p == 2:
                k = 2.0
            else:
                k = p * (p - 1.0) * np.abs(t) ** (p - 2.0)
            cs.append(w * (k / self.grid.h ** 2))
        cu = None
        if self.wu is not None:
            g = self.gamma
            if g >= 2:
                k = g * (g - 1.0) * np.abs(u) ** (g - 2.0)
            else:
                k = g * (u * u + self.eps ** 2) ** (g / 2.0 - 1.0)
            cu = self.wu * k
        return cs, cu

    def hessian_product(self, curv, v):
        """H v for a nodal array v and weights that `curvature` returned."""
        cs, cu = curv
        out = np.zeros(self.grid.shape) if cu is None else cu * v
        for i, (c, d) in enumerate(zip(cs, self._diffs)):
            lead = (slice(None),) * i
            np.subtract(v[lead + (slice(1, None),)], v[lead + (slice(None, -1),)], out=d)
            d *= c
            _add_adjoint_diff(out, d, i)
        return out

    def hessian_diagonal(self, curv):
        """The diagonal of H in closed form: at each node, the weights of the
        (one or two) edges along each axis that end there, plus c_u."""
        cs, cu = curv
        diag = np.zeros(self.grid.shape) if cu is None else cu.copy()
        for i, c in enumerate(cs):
            lead = (slice(None),) * i
            diag[lead + (slice(None, -1),)] += c
            diag[lead + (slice(1, None),)] += c
        return diag


def _newton_direction(prob, curv, g, inner):
    """Approximate solution of H x = -g on the interior nodes by Jacobi-PCG;
    `g` is the interior block of the gradient and `inner` its index box."""
    buf = np.zeros(prob.grid.shape)  # its boundary stays zero
    diag = prob.hessian_diagonal(curv)[inner]
    minv = np.ones_like(diag)
    np.divide(1.0, diag, out=minv, where=diag > 0)
    x = np.zeros_like(g)
    r = -g
    z = minv * r
    d = z.copy()
    rz = float(np.vdot(r, z))
    stop = (_FORCING * float(np.linalg.norm(g))) ** 2
    for k in range(g.size):
        buf[inner] = d
        hd = prob.hessian_product(curv, buf)[inner]
        dhd = float(np.vdot(d, hd))
        if dhd <= 0:
            return z if k == 0 else x
        alpha = rz / dhd
        x += alpha * d
        r -= alpha * hd
        if float(np.vdot(r, r)) <= stop:
            break
        z = minv * r
        rz_next = float(np.vdot(r, z))
        d = z + (rz_next / rz) * d
        rz = rz_next
    return x


def _line_search(prob, u, e_val, g, x, inner):
    """The accepted trial along x from u, as (values, energy, state, interior
    gradient), or None once the step falls below _MIN_STEP.

    A trial passes on Armijo decrease of the energy, or else on the slope
    test; an accepted trial needs its gradient anyway, so each trial costs
    one stencil evaluation and one transpose pass."""
    slope = float(np.vdot(g, x))
    t = 1.0
    while t >= _MIN_STEP:
        trial = u.copy()
        trial[inner] += t * x
        e_new, state = prob.evaluate(trial)
        g_new = prob.gradient(state)[inner]
        if (
            e_new <= e_val + _ARMIJO_C * t * slope
            or float(np.vdot(g_new, x)) <= _ARMIJO_C * slope
        ):
            return trial, e_new, state, g_new
        t *= 0.5
    return None


def solve(
    m: ModelIntegrand,
    grid: Grid,
    boundary: GridFunction,
    cfg: SolveConfig = SolveConfig(),
) -> SolveResult:
    """Minimize the discrete energy over interior nodes.

    `boundary` supplies the fixed Dirichlet values on boundary nodes; its
    interior values are used as the initial guess.
    """
    if boundary.grid != grid:
        raise ValueError("boundary data lives on a different grid")
    eps = grid.h ** 2 if any(p < 2 for p in m.exponents.p) else 0.0
    prob = _DiscreteEnergy(m, grid, eps)
    inner = (slice(1, -1),) * grid.n
    hn = grid.h ** grid.n

    u = boundary.values.copy()
    e_val, state = prob.evaluate(u)
    g = prob.gradient(state)[inner]
    iterations = 0
    # accepted steps in a row that lowered neither the energy nor the
    # residual below the lowest value seen so far
    flat, e_low, r_low = 0, np.inf, np.inf

    while True:
        residual = float(np.max(np.abs(g), initial=0.0)) / hn
        flat = 0 if e_val < e_low or residual < r_low else flat + 1
        e_low, r_low = min(e_low, e_val), min(r_low, residual)
        if residual <= cfg.grad_tol:
            reason = "converged"
            break
        if iterations >= cfg.max_iters:
            reason = "max_iters"
            break
        if flat >= _FLAT_STEPS:
            reason = "stalled"
            break
        x = _newton_direction(prob, prob.curvature(state), g, inner)
        step = _line_search(prob, u, e_val, g, x, inner)
        if step is None:
            reason = "stalled"
            break
        u, e_val, state, g = step
        iterations += 1

    return SolveResult(
        u=GridFunction(grid, u),
        final_energy=e_val,
        iterations=iterations,
        converged=reason == "converged",
        residual=residual,
        stop_reason=reason,
    )


@dataclass(frozen=True)
class QuasiMinimalityReport:
    margins: tuple  # Q*F(u+phi; supp) + tol - F(u; supp) per perturbation
    empirical_Q: float  # max over perturbations of F(u;supp)/F(u+phi;supp)
    failures: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


def _support_mask(phi: GridFunction) -> np.ndarray:
    """Cells touched by phi: any corner value nonzero (covers forward diffs)."""
    mask = phi.values != 0.0
    for axis in range(mask.ndim):
        lead = (slice(None),) * axis
        mask = mask[lead + (slice(1, None),)] | mask[lead + (slice(None, -1),)]
    return mask


def verify_quasiminimality(
    m: ModelIntegrand,
    u: GridFunction,
    Q: float = 1.0,
    perturbations=(),
    tol: float = 1e-10,
) -> QuasiMinimalityReport:
    """Check F(u; supp phi) <= Q * F(u + phi; supp phi) + tol for each phi."""
    if Q < 1:
        raise ValueError("need Q >= 1")
    margins = []
    emp_q = 0.0
    failures = 0
    for phi in perturbations:
        if phi.grid != u.grid:
            raise ValueError("perturbation lives on a different grid")
        supp = _support_mask(phi)
        if not supp.any():
            margins.append(tol)
            continue
        f_u = energy(m, u, supp)
        f_up = energy(m, GridFunction(u.grid, u.values + phi.values), supp)
        margin = Q * f_up + tol - f_u
        margins.append(margin)
        if margin < 0:
            failures += 1
        if f_up > 0:
            emp_q = max(emp_q, f_u / f_up)
    return QuasiMinimalityReport(tuple(margins), emp_q, failures)


def random_perturbations(grid: Grid, count: int, seed: int = 0, amplitude: float = 0.1):
    """Seeded compactly supported tensor-hat bumps vanishing on the boundary."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        box = []
        for lo, hi in zip(grid.lo, grid.hi):
            a = rng.uniform(lo, hi - 2 * grid.h)
            box.append((a, rng.uniform(a + 2 * grid.h, hi)))
        vals = _tensor_hat(grid, box)
        # force exact zeros on boundary nodes
        for axis in range(grid.n):
            lead = (slice(None),) * axis
            vals[lead + (0,)] = 0.0
            vals[lead + (-1,)] = 0.0
        vals *= amplitude * rng.uniform(-1.0, 1.0)
        out.append(GridFunction(grid, vals))
    return out
