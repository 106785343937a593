"""Discrete energy minimization with fixed Dirichlet boundary data.

The solver is a matrix-free truncated Newton-CG method on the (optionally
smoothed) discrete energy, so its step count does not grow as h shrinks.

* A Newton step solves H x = -g over the interior nodes by Jacobi-
  preconditioned CG, stopped at the fixed relative forcing
  |r| <= 0.1 |g| (2-norms), at the number of interior nodes, or at a
  non-positive curvature (then the first CG direction is taken). H is a
  model of the Hessian, built once per step from the cell state of the
  iterate; each CG iteration costs one Hessian-vector product, i.e. one
  forward stencil pass and one transpose pass.
* The line search tries t = 1 first and halves a rejected step. A trial
  costs one stencil evaluation and one transpose pass over its kept cell
  state (its gradient). It is accepted on Armijo sufficient decrease
  (constant 1e-4), or when the slope g(u + t x).x <= 1e-4 g(u).x, which
  for a convex energy implies the same decrease and stays accurate below
  the energy's round-off floor. The accepted trial's state and gradient
  become the next iterate's. A step below t = 1e-10 stops the solve as
  stalled.

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
    _average_to_cells,
    _average_to_cells_transpose,
    _cell_gradient_transpose,
    _cell_gradients,
    _interior_mask,
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
    of a rejected step and the stall threshold t < 1e-10 are fixed.
    """

    max_iters: int = 50_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise ValueError("max_iters and grad_tol must be positive")


@dataclass(frozen=True)
class SolveResult:
    """stop_reason is "converged", "max_iters" or "stalled" (the line search
    found no acceptable step above t = 1e-10)."""

    u: GridFunction
    final_energy: float
    iterations: int
    converged: bool
    residual: float
    stop_reason: str


# The fixed Newton-CG constants: relative CG forcing, sufficient-decrease
# constant, and the step below which the line search gives up.
_FORCING, _ARMIJO_C, _MIN_STEP = 0.1, 1e-4, 1e-10


class _DiscreteEnergy:
    """Precomputed weights; `evaluate` returns the energy of a nodal array with
    the cell state from which `gradient` builds its nodal gradient and
    `curvature` the weights of the Newton model."""

    def __init__(self, m: ModelIntegrand, grid: Grid, eps: float):
        self.m = m
        self.grid = grid
        self.eps = eps
        self.hn = grid.h ** grid.n
        centers = grid.cell_centers()
        cshape = grid.cell_shape
        self.lam = [
            lam(centers, grid.h).reshape(cshape) for lam in m.lambdas
        ]
        self.mu = (
            m.mu(centers, grid.h).reshape(cshape) if m.u_coeff > 0 else None
        )
        self.p = m.exponents.p
        self.gamma = m.exponents.gamma

    def evaluate(self, values):
        """Energy and state: the cell gradients, per axis the smoothing base
        t^2 + eps^2 (None if unsmoothed), the cell average (None if no u term)."""
        grads = _cell_gradients(values, self.grid.h)
        bases = []
        total = 0.0
        for i, t in enumerate(grads):
            p = self.p[i]
            if self.eps > 0 and p < 2:
                base = t * t + self.eps ** 2
                f = base ** (p / 2.0) - self.eps ** p
            else:
                base = None
                f = np.abs(t) ** p
            bases.append(base)
            total += float(np.sum(self.lam[i] * f))
        uc = None
        if self.mu is not None:
            uc = _average_to_cells(values)
            total += self.m.u_coeff * float(
                np.sum(self.mu * np.abs(uc) ** self.gamma)
            )
        return total * self.hn, (grads, bases, uc)

    def gradient(self, state):
        """Nodal gradient of the energy from a state that `evaluate` returned."""
        grads, bases, uc = state
        gout = np.zeros(self.grid.shape)
        for i, (t, base) in enumerate(zip(grads, bases)):
            p = self.p[i]
            if base is None:
                d = p * np.sign(t) * np.abs(t) ** (p - 1.0)
            else:
                d = p * t * base ** (p / 2.0 - 1.0)
            w = self.lam[i] * d * (self.hn / self.grid.h)
            gout += _cell_gradient_transpose(w, i)
        if uc is not None:
            w = (
                self.m.u_coeff
                * self.mu
                * self.gamma
                * np.sign(uc)
                * np.abs(uc) ** (self.gamma - 1.0)
                * self.hn
            )
            gout += _average_to_cells_transpose(w)
        return gout

    def curvature(self, state):
        """Per-cell weights (c_1/h, ..., c_n/h; c_u) of the Newton model
        H = sum_i C_i^T diag(c_i) C_i + A^T diag(c_u) A at a state that
        `evaluate` returned, C_i the cell-gradient components and A the cell
        average; c_u is None without a u term. See the module docstring for
        the curvature of each branch."""
        grads, bases, uc = state
        scale = self.hn / self.grid.h
        cs = []
        for i, (t, base) in enumerate(zip(grads, bases)):
            p = self.p[i]
            if base is not None:
                k = p * base ** (p / 2.0 - 1.0)
            elif p == 2:
                k = 2.0
            else:
                k = p * (p - 1.0) * np.abs(t) ** (p - 2.0)
            cs.append(self.lam[i] * (k * scale))
        cu = None
        if uc is not None:
            g = self.gamma
            if g >= 2:
                k = g * (g - 1.0) * np.abs(uc) ** (g - 2.0)
            else:
                k = g * (uc * uc + self.eps ** 2) ** (g / 2.0 - 1.0)
            cu = self.mu * (k * (self.m.u_coeff * self.hn))
        return cs, cu

    def hessian_product(self, curv, v):
        """H v for a nodal array v and weights that `curvature` returned."""
        cs, cu = curv
        out = np.zeros(self.grid.shape)
        for i, (c, t) in enumerate(zip(cs, _cell_gradients(v, self.grid.h))):
            out += _cell_gradient_transpose(c * t, i)
        if cu is not None:
            out += _average_to_cells_transpose(cu * _average_to_cells(v))
        return out

    def hessian_diagonal(self, curv):
        """The diagonal of H in closed form: a cell's gradient component has
        the entries +-1/(2^(n-1) h) and its average 1/2^n at its corners, so
        diag H = A^T (2^n/4^(n-1) * sum_i c_i/h^2 + 2^n/4^n * c_u)."""
        cs, cu = curv
        n, h = self.grid.n, self.grid.h
        w = sum(cs) * (2.0 ** n / 4.0 ** (n - 1) / h)
        if cu is not None:
            w = w + cu * (2.0 ** n / 4.0 ** n)
        return _average_to_cells_transpose(w)


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

    while True:
        residual = float(np.max(np.abs(g), initial=0.0)) / hn
        if residual <= cfg.grad_tol:
            reason = "converged"
            break
        if iterations >= cfg.max_iters:
            reason = "max_iters"
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
    return _average_to_cells((phi.values != 0.0).astype(float)) > 0


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
    interior = _interior_mask(grid)
    out = []
    for _ in range(count):
        box = []
        for lo, hi in zip(grid.lo, grid.hi):
            a = rng.uniform(lo, hi - 2 * grid.h)
            box.append((a, rng.uniform(a + 2 * grid.h, hi)))
        # force exact zeros on boundary nodes
        vals = np.where(interior, _tensor_hat(grid, box), 0.0)
        amp = amplitude * rng.uniform(-1.0, 1.0)
        out.append(GridFunction(grid, amp * vals))
    return out
