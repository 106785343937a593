"""Discrete energy minimization with fixed Dirichlet boundary data.

The descent is plain gradient descent on the (optionally smoothed) discrete
energy, with a Barzilai-Borwein trial step and Armijo backtracking so every
iterate decreases the energy.  Convexity of the model family makes this
adequate at desk scale; no second-order machinery.

Each line-search trial costs one stencil evaluation, which keeps the cell
state (cell gradients, cell average, smoothing bases); the accepted trial
becomes the next iterate, and its gradient adds only the adjoint pass over
that kept state.

When some p_i < 2 the kink of |t|^p at t = 0 is smoothed to
(t^2 + eps^2)^(p/2) - eps^p; eps defaults to h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, GridFunction, _average_to_cells, _cell_gradients, _tensor_hat
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
    """Descent parameters.

    grad_tol is compared against the sup norm of the energy gradient scaled
    by h^-n, i.e. a discrete Euler-Lagrange residual that is stable under
    grid refinement.
    """

    max_iters: int = 50_000
    grad_tol: float = 1e-8
    step0: float = 1.0
    shrink: float = 0.5
    armijo_c: float = 1e-4
    smoothing_eps: float | None = None  # None -> h^2 when any p_i < 2, else 0

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0 or self.step0 <= 0:
            raise ValueError("max_iters, grad_tol and step0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("sufficient-decrease constant must lie in (0, 1)")


@dataclass(frozen=True)
class SolveResult:
    u: GridFunction
    final_energy: float
    iterations: int
    converged: bool
    residual: float


def _adjoint_pair_average(a, axis):
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] += 0.5 * a
    out[lead + (slice(1, None),)] += 0.5 * a
    return out


def _adjoint_diff(a, axis):
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] -= a
    out[lead + (slice(1, None),)] += a
    return out


class _DiscreteEnergy:
    """Precomputed weights; `evaluate` returns the energy of a nodal array with
    the cell state from which `gradient` builds its nodal gradient."""

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
            for j in range(self.grid.n):
                if j != i:
                    w = _adjoint_pair_average(w, axis=j)
            gout += _adjoint_diff(w, axis=i)
        if uc is not None:
            w = (
                self.m.u_coeff
                * self.mu
                * self.gamma
                * np.sign(uc)
                * np.abs(uc) ** (self.gamma - 1.0)
                * self.hn
            )
            for axis in range(self.grid.n):
                w = _adjoint_pair_average(w, axis=axis)
            gout += w
        return gout


def _interior_mask(grid: Grid) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.n):
        lead = (slice(None),) * axis
        mask[lead + (0,)] = False
        mask[lead + (-1,)] = False
    return mask


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
    eps = cfg.smoothing_eps
    if eps is None:
        eps = grid.h ** 2 if any(p < 2 for p in m.exponents.p) else 0.0
    prob = _DiscreteEnergy(m, grid, eps)
    interior = _interior_mask(grid)
    hn = grid.h ** grid.n

    u = boundary.values.copy()
    e_val, state = prob.evaluate(u)
    step = cfg.step0
    prev_u = None
    prev_g = None
    iterations = 0

    while True:
        # `state` is the cell state of u, kept from the accepted trial; it is
        # dropped once the gradient is built.
        g = np.where(interior, prob.gradient(state), 0.0)
        del state
        residual = float(np.max(np.abs(g))) / hn
        converged = residual <= cfg.grad_tol
        if converged or iterations >= cfg.max_iters:
            break
        gnorm2 = float(np.sum(g * g))
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = float(np.sum(du * dg))
            if denom > 0:
                step = float(np.sum(du * du)) / denom
            else:
                step = cfg.step0
            step = min(max(step, 1e-14), 1e14)
        t = step
        trial = u - t * g
        e_new, state = prob.evaluate(trial)
        while e_new > e_val - cfg.armijo_c * t * gnorm2 and t > 1e-16:
            t *= cfg.shrink
            trial = u - t * g
            e_new, state = prob.evaluate(trial)
        prev_u, prev_g = u, g
        u, e_val = trial, e_new
        iterations += 1

    return SolveResult(
        u=GridFunction(grid, u),
        final_energy=e_val,
        iterations=iterations,
        converged=converged,
        residual=residual,
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
    nz = phi.values != 0.0
    mask = nz
    for axis in range(phi.grid.n):
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
