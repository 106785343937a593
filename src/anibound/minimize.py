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

* A Newton step solves H x = -g over the interior nodes by preconditioned
  CG, stopped at the fixed relative forcing |r| <= 0.1 |g| (2-norms), at
  the number of interior nodes, or at a non-positive curvature (then the
  first preconditioned direction is taken). H is a model of the Hessian,
  built once per step from the edge state of the iterate; each CG
  iteration costs one product with H, on the V-cycle's finest level
  (`_VCycle.product`).
* The preconditioner is one symmetric multigrid V-cycle, matrix-free, with
  its levels built once per step from H's weights (`_VCycle`). A coarse
  edge takes the two fine edges along its axis in series, a b / (a + b),
  summed across the other axes with node weights 1/2, 1, 1/2 (conductance
  coarsening; Alcouffe, Brandt, Dendy & Painter 1981); the u-term weights
  are restricted with the same weights, and every level applies the same
  edge stencil. At constant lambda and p = 2 a coarse level holds the
  weights of the grid at twice the spacing. Damped Jacobi (0.6) smooths,
  twice before and twice after the coarse correction. Coarsening stops at
  the first level with at most 64 interior nodes (9^2 or 5^3 nodes on a
  power-of-two grid). It is solved densely if Cholesky finds it positive
  definite, and scaled by its inverse diagonal if it is singular (p > 2
  on flat data) or larger: a large grid that cannot be coarsened gets
  Jacobi. On a p = (1.5, 1.8) problem CG takes 2.0, 1.8, 2.6 and 2.9
  iterations per step at h = 1/16 ... 1/128, where Jacobi-PCG took 14 to
  120. The level views, transfer buffers and the coarsest level's edge
  numbering are built at a solve's first Newton step, so a solve that
  starts converged builds no V-cycle.
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
axes it uses the blend k = (f'' + f'(t)/t) / 2 (`_BLEND`), with b = t^2 + eps^2
so that k = p b^(p/2 - 2) (p t^2 + 2 eps^2) / 2. It lies between the exact
f'', which makes full steps overshoot the kink at fine h, and the
majorizer f'/t, which is 1/(p - 1) times too stiff away from the kink and
shortens every step (23, 25, 27 and 28 Newton steps at h = 1/16 ... 1/128
on that p = (1.5, 1.8) problem, against 15, 18, 18 and 19 with the blend).
On the other axes it is the exact f'' (2 for p = 2, p(p-1)|t|^(p-2) for
p > 2). The |u|^gamma term uses
gamma(gamma-1)|u|^(gamma-2) for gamma >= 2 and gamma (u^2 + eps^2)^(gamma/2 - 1)
for gamma < 2, where eps = h^2 > 0 because gamma >= p_i.

The solver thus stops on the residual of the smoothed energy E_eps, while the
energy every later claim is about is E_h, the same sum with f_i = |t|^p_i.
`solve` reports, from its last iterate u and the weights it has built, a
bound on how far u is from minimizing E_h, for every perturbation at once:

* Edge by edge 0 <= |t|^p - f_eps(t) <= eps^p, since
  |t|^p <= (t^2 + eps^2)^(p/2) <= |t|^p + eps^p for p <= 2; the |u|^gamma
  term is not smoothed. E_eps is convex, so with g = grad E_eps(u) on the
  interior nodes, every phi that vanishes on the boundary, with support
  cells S, has
      F(u; S) <= F(u + phi; S) + delta_eps(S) + |<g, phi>|,
  F(.; S) being E_h on the cells S and delta_eps(S) the sum over p_i < 2 of
  eps^p_i h^n times the sum of lambda_i over S. The whole box's delta_eps,
  which bounds every delta_eps(S), is `smoothing_defect`: there the sum of
  h^n lambda_i over the cells is the sum of the edge weights w_e along i.
* Truncating a field at the extremes of the data, and at 0 when there is a
  u term, lowers every term of E_eps, so E_eps has a minimizer in that
  range, and by convexity min E_h >= min E_eps >= E_eps(u) - |g|_1 osc,
  osc the range of u widened the same way. So min E_h lies in
  [`energy_lower`, `energy_h`] = [E_eps(u) - |g|_1 osc, E_h(u)].

When some p_i < 2 this costs one evaluate-and-gradient pass at eps = 0;
otherwise every number is the solver's own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    GridFunction,
    _average_to_cells,
    _average_to_cells_transpose,
    _ends,
    _Prolongation,
    _Restriction,
    _tensor_hat,
)
from .integrand import ModelIntegrand, energy

__all__ = ["SolveConfig", "SolveResult", "solve", "verify_quasiminimality", "random_perturbations"]


@dataclass(frozen=True)
class SolveConfig:
    """Solver parameters: at most max_iters Newton steps (an integer >= 1),
    stopping once the residual is at most grad_tol (finite and > 0).

    grad_tol is compared against the sup norm of the energy gradient scaled
    by h^-n, i.e. a discrete Euler-Lagrange residual that is stable under
    grid refinement. The forcing 0.1, the Armijo constant 1e-4, the halving
    of a rejected step and the stall tests (t < 1e-10, or 5 accepted steps
    in a row without a new low of the energy or the residual) are fixed.
    """

    max_iters: int = 200
    grad_tol: float = 1e-8

    def __post_init__(self):
        # no residual is <= NaN, and every residual is <= inf
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be > 0 and finite, got {self.grad_tol!r}")


@dataclass(frozen=True)
class SolveResult:
    """stop_reason is "converged", "max_iters" or "stalled" (the line search
    found no acceptable step above t = 1e-10, or 5 accepted steps in a row
    took neither the energy nor the residual to a new low).

    final_energy and residual are those of the energy the solver minimizes,
    E_eps (E_h itself when every p_i >= 2): E_eps(u) and sup |g| / h^n, g
    the gradient of E_eps at u on the interior nodes. The rest is about E_h,
    the energy without smoothing (see the module docstring for the bound):
    energy_h is E_h(u) and residual_h its sup |grad E_h(u)| / h^n;
    energy_lower is E_eps(u) - |g|_1 osc, a lower bound of min E_h, osc being
    the range of u widened to hold 0 when there is a u term; and
    smoothing_defect is the whole box's delta_eps, the sum over p_i < 2 of
    eps^p_i times the sum of the edge weights along axis i (0 when every
    p_i >= 2)."""

    u: GridFunction
    final_energy: float
    iterations: int
    converged: bool
    residual: float
    stop_reason: str
    energy_h: float
    energy_lower: float
    smoothing_defect: float
    residual_h: float


# The fixed Newton-CG constants: relative CG forcing, sufficient-decrease
# constant, the step below which the line search gives up, and the number of
# accepted steps in a row without a new low of the energy or the residual
# that stops a solve.
_FORCING, _ARMIJO_C, _MIN_STEP, _FLAT_STEPS = 0.1, 1e-4, 1e-10, 5

# The weight of the exact f'' in the Newton model of a smoothed p_i < 2 axis,
# k = _BLEND f'' + (1 - _BLEND) f'(t)/t (see the module docstring). A weight
# of 0.7 did as well in 2-D but took more steps on a 3-D p = 1.2 problem.
_BLEND = 0.5

# The V-cycle's damped-Jacobi weight, its sweeps before and after the coarse
# correction, and the most interior nodes of its coarsest level, solved
# densely. A Cholesky test and an inverse per Newton step take about 0.12 ms
# at 49 nodes but 2.9 ms at 225, more than the rest of a 2-D step.
_OMEGA, _SWEEPS, _DENSE_MAX = 0.6, 2, 64


class _DiscreteEnergy:
    """The edge-stencil energy with its weights built once per (model, grid):

        E(u) = sum_i sum_(edges e along i) w_e f_i(D_e u / h)
               + sum_(nodes x) c_x |u(x)|^gamma,

    where w_e is h^n 2^(1-n) times the sum of lambda_i over the cells that
    share e, c_x is u_coeff h^n 2^(-n) times the sum of mu over the cells at
    x, and f_i(t) is |t|^p_i or its smoothing. `evaluate` returns the energy
    with the state from which `gradient` builds the nodal gradient and
    `curvature` the weights of the Newton model. The full-grid passes form
    each product in place, with at most two temporaries per axis."""

    def __init__(self, m: ModelIntegrand, grid: Grid, eps: float):
        self.grid = grid
        self.eps = eps
        hn = grid.h ** grid.n
        lam, mu = m.on_cells(grid)
        self.w = [_average_to_cells_transpose(lam_i, skip=i) for i, lam_i in enumerate(lam)]
        del lam
        for w in self.w:
            w *= hn
        self.wu = None
        if mu is not None:
            self.wu = _average_to_cells_transpose(mu)
            self.wu *= m.u_coeff * hn
        self.p = m.exponents.p
        self.gamma = m.exponents.gamma

    def evaluate(self, values, eps=None):
        """Energy and state: per axis the edge differences D_e u / h and the
        smoothing base t^2 + eps^2 (None if unsmoothed), and `values` itself,
        which must not change while the state is in use. eps = 0 evaluates
        E_h; the default is the energy's own eps."""
        eps = self.eps if eps is None else eps
        ts, bases = [], []
        total = 0.0
        for i, w in enumerate(self.w):
            t = np.diff(values, axis=i)
            t /= self.grid.h
            p = self.p[i]
            if eps > 0 and p < 2:
                base = t * t
                base += eps ** 2
                f = base ** (p / 2.0)
                f -= eps ** p
            else:
                base = None
                f = np.abs(t)
                f **= p
            ts.append(t)
            bases.append(base)
            total += float(np.vdot(w, f))
            del f
        if self.wu is not None:
            f = np.abs(values)
            f **= self.gamma
            total += float(np.vdot(self.wu, f))
        return total, (ts, bases, values)

    def gradient(self, state):
        """Nodal gradient of the energy from a state that `evaluate` returned."""
        ts, bases, u = state
        if self.wu is None:
            gout = np.zeros(self.grid.shape)
        else:
            # ((wu gamma) sign(u)) |u|^(gamma-1): the grouping fixes the bits
            gout = self.wu * self.gamma
            gout *= np.sign(u)
            a = np.abs(u)
            a **= self.gamma - 1.0
            gout *= a
            del a
        for i, (w, t, base) in enumerate(zip(self.w, ts, bases)):
            p = self.p[i]
            # (p sign(t)) |t|^(p-1), or (p t) b^(p/2-1) when smoothed
            if base is None:
                d = np.sign(t)
                d *= p
                a = np.abs(t)
                a **= p - 1.0
            else:
                d = t * p
                a = base ** (p / 2.0 - 1.0)
            d *= a
            del a
            d *= w
            d /= self.grid.h
            lo, hi = _ends(gout, i)  # gout += D_i^T d
            lo -= d
            hi += d
            del d
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
                # f'' = p b^(p/2-2) ((p-1) t^2 + eps^2) and f'/t = p b^(p/2-1), b = base
                k = p * base ** (p / 2.0 - 2.0) * ((1.0 - _BLEND * (2.0 - p)) * (t * t) + self.eps ** 2)
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


def _edge_product(cs, cu, v, out, diffs, shifts):
    """out = (sum_i D_i^T diag(c_i) D_i + diag(c_u)) v for a nodal array v,
    edge weights cs and nodal weights cu (or None); `diffs` holds one work
    array per axis, of the shape of c_i, and `shifts` holds per axis i the
    `_ends` of v and of out along i, (v_lo, v_hi, out_lo, out_hi).
    Every level of the V-cycle applies its operator through this one
    stencil."""
    if cu is None:
        out.fill(0.0)
    else:
        np.multiply(cu, v, out=out)
    for c, d, (v_lo, v_hi, out_lo, out_hi) in zip(cs, diffs, shifts):
        np.subtract(v_hi, v_lo, out=d)
        d *= c
        out_lo -= d
        out_hi += d
    return out


def _edge_diagonal(cs, cu):
    """The diagonal of that operator in closed form: at each node, the weights
    of the (one or two) edges along each axis that end there, plus c_u."""
    nodes = (cs[0].shape[0] + 1,) + cs[0].shape[1:]  # one more than edges along axis 0
    diag = np.zeros(nodes) if cu is None else cu.copy()
    for i, c in enumerate(cs):
        lo, hi = _ends(diag, i)
        lo += c
        hi += c
    return diag


def _coarse_edges(c, axis):
    """Weights of the coarse edges along `axis` from the fine ones: each pair
    of fine edges in series, a b / (a + b) (0 where a + b = 0), then summed
    across every other axis with node weights 1/2, 1, 1/2."""
    lead = (slice(None),) * axis
    a, b = c[lead + (slice(None, None, 2),)], c[lead + (slice(1, None, 2),)]
    total = a + b
    out = np.zeros(total.shape)
    np.divide(a * b, total, out=out, where=total > 0)
    return _Restriction(out, [j for j in range(c.ndim) if j != axis])()


def _edge_ends(shape):
    """Per axis, the numbers of the two end nodes of every edge along it, as
    `_dense_inverse` numbers them: interior nodes 0..size-1 in row-major
    order, every boundary node the extra number `size`."""
    inner = (slice(1, -1),) * len(shape)
    size = math.prod(m - 2 for m in shape)
    index = np.full(shape, size)
    index[inner] = np.arange(size).reshape([m - 2 for m in shape])
    return [tuple(end.ravel() for end in _ends(index, i)) for i in range(len(shape))]


def _dense_inverse(cs, diag, ends):
    """The inverse of a level's operator on its interior nodes, formed densely
    from its edge weights, its diagonal and `_edge_ends` of its shape, or
    None if the operator is singular: its Cholesky factorization fails, or
    a pivot falls to the round-off of its largest entry, which is on the
    diagonal."""
    inner = (slice(1, -1),) * diag.ndim
    size = diag[inner].size
    # the extra row and column `size` of the boundary nodes is dropped; an
    # edge joins a distinct pair of nodes, so no kept entry is assigned twice
    a = np.zeros((size + 1, size + 1))
    for c, (lo, hi) in zip(cs, ends):
        a[lo, hi] = a[hi, lo] = -c.ravel()
    a = a[:size, :size]
    a[np.diag_indices(size)] = diag[inner].ravel()
    try:
        pivots = np.diagonal(np.linalg.cholesky(a)) ** 2
    except np.linalg.LinAlgError:
        return None
    # a singular operator may also pass, with a pivot of round-off size
    return np.linalg.inv(a) if pivots.min() > size * np.finfo(float).eps * a.max() else None


class _Level:
    """One grid of the V-cycle: the weights of its operator for the current
    Newton step, its damped-Jacobi scaling `dinv`, and work arrays and views
    built at a solve's first Newton step: x, b and ax, the stencil's views
    of x and ax, the interior views of x, b and dinv and, above the coarsest
    level, the transfers to and from the `coarse` level (ax restricted, and
    the coarse x prolonged into ax, which is free between the residual that
    is restricted and the next sweep). The boundary of x, b and dinv stays
    0. Level 0's x, ax and diffs also serve CG's product with H."""

    def __init__(self, shape, coarse=None):
        inner = (slice(1, -1),) * len(shape)
        self.x = np.zeros(shape)
        self.b = np.zeros(shape)
        self.ax = np.empty(shape)
        self.dinv = np.zeros(shape)
        self.x_in, self.b_in, self.dinv_in = self.x[inner], self.b[inner], self.dinv[inner]
        self.diffs = [np.empty(shape[:i] + (m - 1,) + shape[i + 1:]) for i, m in enumerate(shape)]
        self.shifts = [(*_ends(self.x, i), *_ends(self.ax, i)) for i in range(len(shape))]
        if coarse is not None:
            self.restrict = _Restriction(self.ax, range(len(shape)))
            self.restricted_in, self.coarse_b_in = self.restrict.out[inner], coarse.b_in
            self.prolong = _Prolongation(coarse.x, self.ax)
        self.cs = self.cu = self.inverse = None


class _VCycle:
    """The preconditioner of the Newton-CG solve: one symmetric V-cycle.

    Level 0 is the grid; each further level halves every axis, as long as
    the one before has more than _DENSE_MAX interior nodes and every axis an
    even cell count above 2. Its edge weights are the fine ones coarsened by
    `_coarse_edges`, its nodal weights the fine ones restricted with the
    transpose of linear prolongation along every axis, and its operator is
    the same edge stencil (`_edge_product`). A level above the coarsest
    takes _SWEEPS damped-Jacobi sweeps (weight _OMEGA), the coarse
    correction, and _SWEEPS sweeps again, so the cycle is a symmetric
    operator. The coarsest level, which may be the grid itself, is solved
    densely if it is small and positive definite (`_dense_inverse`), and
    scaled by its inverse diagonal otherwise."""

    def __init__(self, shape):
        shapes = [tuple(shape)]
        while math.prod(m - 2 for m in shapes[-1]) > _DENSE_MAX and all(
            m % 2 == 1 and m > 3 for m in shapes[-1]
        ):
            shapes.append(tuple((m + 1) // 2 for m in shapes[-1]))
        self.levels = [_Level(shapes[-1])]
        for s in reversed(shapes[:-1]):
            self.levels.insert(0, _Level(s, self.levels[0]))
        self.dense = self.levels[-1].x_in.size <= _DENSE_MAX
        self.ends = _edge_ends(shapes[-1]) if self.dense else None

    def update(self, curv):
        """Form every level's weights from the Newton model's (cs, cu), and
        the coarsest level's inverse (None if it is scaled)."""
        fine, last = self.levels[0], self.levels[-1]
        fine.cs, fine.cu = curv
        for lv, coarse in zip(self.levels, self.levels[1:]):
            coarse.cs = [_coarse_edges(c, i) for i, c in enumerate(lv.cs)]
            coarse.cu = None if lv.cu is None else _Restriction(lv.cu.copy(), range(lv.cu.ndim))()
        for lv in self.levels:
            diag = _edge_diagonal(lv.cs, lv.cu)
            diag_in = diag[(slice(1, -1),) * diag.ndim]
            lv.dinv_in.fill(1.0)
            np.divide(1.0, diag_in, out=lv.dinv_in, where=diag_in > 0)
            if lv is not last:
                lv.dinv *= _OMEGA
            elif self.dense:
                lv.inverse = _dense_inverse(lv.cs, diag, self.ends)

    def apply(self, r):
        """One V-cycle from zero on the interior residual r; the result is a
        new interior array."""
        fine = self.levels[0]
        np.copyto(fine.b_in, r)
        self._cycle(0)
        return fine.x_in.copy()

    def product(self, d):
        """H d for an interior array d, on level 0; the result is an interior
        view that the next product or cycle overwrites."""
        fine = self.levels[0]
        np.copyto(fine.x_in, d)
        _edge_product(fine.cs, fine.cu, fine.x, fine.ax, fine.diffs, fine.shifts)
        return fine.ax[(slice(1, -1),) * fine.ax.ndim]

    def _cycle(self, k):
        """One V-cycle on level k for its right-hand side b, from x = 0."""
        lv = self.levels[k]
        # from x = 0, the first sweep or the coarsest level's scaling
        np.multiply(lv.dinv, lv.b, out=lv.x)
        if k == len(self.levels) - 1:
            if lv.inverse is not None:
                lv.x_in[...] = (lv.inverse @ lv.b_in.ravel()).reshape(lv.b_in.shape)
            return
        for _ in range(_SWEEPS - 1):
            self._sweep(lv)
        self._residual(lv)
        lv.restrict()
        np.copyto(lv.coarse_b_in, lv.restricted_in)
        self._cycle(k + 1)
        lv.x += lv.prolong()
        for _ in range(_SWEEPS):
            self._sweep(lv)

    @staticmethod
    def _residual(lv):
        """b - A x into the level's `ax`."""
        _edge_product(lv.cs, lv.cu, lv.x, lv.ax, lv.diffs, lv.shifts)
        return np.subtract(lv.b, lv.ax, out=lv.ax)

    @staticmethod
    def _sweep(lv):
        """x += _OMEGA D^-1 (b - A x); `dinv` holds _OMEGA D^-1, 0 on the boundary."""
        r = _VCycle._residual(lv)
        r *= lv.dinv
        lv.x += r


def _newton_direction(mg, curv, g):
    """Approximate solution of H x = -g on the interior nodes by CG,
    preconditioned with one V-cycle of `mg`, whose levels are built here from
    the same model, and with one `mg.product` per iteration; `g` is the
    interior block of the gradient."""
    mg.update(curv)
    x = np.zeros_like(g)
    r = -g
    z = mg.apply(r)
    d = z.copy()
    rz = float(np.vdot(r, z))
    stop = (_FORCING * float(np.linalg.norm(g))) ** 2
    for k in range(g.size):
        hd = mg.product(d)
        dhd = float(np.vdot(d, hd))
        if dhd <= 0:
            return z if k == 0 else x
        alpha = rz / dhd
        x += alpha * d
        r -= alpha * hd
        if float(np.vdot(r, r)) <= stop:
            break
        z = mg.apply(r)
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


def _smoothing_eps(m: ModelIntegrand, grid: Grid) -> float:
    """The solver's eps: h^2 when some p_i < 2, else 0 (no smoothing)."""
    return grid.h ** 2 if any(p < 2 for p in m.exponents.p) else 0.0


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
    prob = _DiscreteEnergy(m, grid, _smoothing_eps(m, grid))
    mg = None  # built at the first Newton step
    inner = (slice(1, -1),) * grid.n
    hn = grid.h ** grid.n

    u = boundary.values  # read-only; every line-search trial is a copy
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
        if mg is None:
            mg = _VCycle(grid.shape)
        x = _newton_direction(mg, prob.curvature(state), g)
        step = _line_search(prob, u, e_val, g, x, inner)
        if step is None:
            reason = "stalled"
            break
        u, e_val, state, g = step
        iterations += 1

    del state, mg  # freed before the E_h pass, which builds its own state
    lo, hi = float(u.min()), float(u.max())
    if prob.wu is not None:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    energy_lower = e_val - float(np.sum(np.abs(g))) * (hi - lo)
    e_h, residual_h, defect = e_val, residual, 0.0
    if prob.eps > 0:
        e_h, state = prob.evaluate(u, eps=0.0)
        residual_h = float(np.max(np.abs(prob.gradient(state)[inner]), initial=0.0)) / hn
        defect = sum(prob.eps ** p * float(np.sum(w)) for p, w in zip(prob.p, prob.w) if p < 2)

    return SolveResult(
        u=GridFunction(grid, u),
        final_energy=e_val,
        iterations=iterations,
        converged=reason == "converged",
        residual=residual,
        stop_reason=reason,
        energy_h=e_h,
        energy_lower=energy_lower,
        smoothing_defect=defect,
        residual_h=residual_h,
    )


def verify_quasiminimality(m: ModelIntegrand, u: GridFunction, perturbations=()) -> list:
    """The terms of the bound F(u; S) - F(u + phi; S) <= delta_eps(S) +
    |<g, phi>| (module docstring) for each full-grid nodal phi that vanishes
    on the boundary, as (F(u; S) - F(u + phi; S), delta_eps(S), |<g, phi>|):
    S the cells with a nonzero corner of phi, F(.; S) `integrand.energy` over
    them and g the gradient of the solver's energy at u on the interior
    nodes. No command calls it, nor `random_perturbations`."""
    grid = u.grid
    inner = (slice(1, -1),) * grid.n
    prob = _DiscreteEnergy(m, grid, _smoothing_eps(m, grid))
    g = prob.gradient(prob.evaluate(u.values)[1])[inner]
    lam, _ = m.on_cells(grid)
    hn = grid.h ** grid.n
    terms = []
    for phi in perturbations:
        if np.shape(phi) != grid.shape:
            raise ValueError("perturbation lives on a different grid")
        cells = _average_to_cells((phi != 0.0).astype(float)) > 0.0
        lhs = energy(m, u, cells) - energy(m, GridFunction(grid, u.values + phi), cells)
        delta = sum(prob.eps ** p * hn * float(np.sum(lam_i[cells]))
                    for p, lam_i in zip(prob.p, lam) if p < 2)
        terms.append((lhs, delta, abs(float(np.vdot(g, phi[inner])))))
    return terms


def random_perturbations(grid: Grid, count: int, seed: int = 0, amplitude: float = 0.1):
    """Seeded tensor-hat bumps vanishing on the boundary, as full-grid nodal
    arrays yielded one at a time; numpy.random loads at the first draw. The
    draws are a_0, b_0, a_1, b_1, ..., then the scale."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        box = []
        for lo, hi in zip(grid.lo, grid.hi):
            a = rng.uniform(lo, hi - 2 * grid.h)
            box.append((a, rng.uniform(a + 2 * grid.h, hi)))
        vals = _tensor_hat(grid, box)
        vals *= amplitude * rng.uniform(-1.0, 1.0)
        yield vals
