"""Model integrand family with anisotropic p_i,q-growth.

The family is separable:

    f(x, u, xi) = sum_i lambda_i(x) |xi_i|^p_i + u_coeff * mu(x) |u|^gamma

with constant or power-law weights.  It is convex in (u, xi), nonnegative,
and sandwiched between its own lower envelope and
mu_tilde(x) * (|xi|^q + |u|^gamma + 1) with mu_tilde = sum_i lambda_i +
u_coeff * mu, which is the effective upper weight reported to the
certification engine.

`cell_energy` is its one discrete form, a density per cell from the edge
stencil of `fields`: lambda_i at the centre times the mean of |D_e u / h|^p_i
over the cell's edges e along axis i, plus u_coeff mu at the centre times
the mean of |u|^gamma over its corners. By Jensen's inequality this is at
least the integrand of the cell gradient and cell average, so lower bounds
in terms of `gradient` stay valid. A region's energy is h^n times the sum
of the density over its cells. Weights are sampled at cell centres only by
`ModelIntegrand.on_cells`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import Exponents
from .fields import (
    Grid,
    GridFunction,
    _average_to_cells,
    _lattice_points,
    cell_mask,
)

__all__ = [
    "WeightField",
    "ModelIntegrand",
    "cell_energy",
    "energy",
]


@dataclass(frozen=True)
class WeightField:
    """Nonnegative weight: constant c, or power amplitude*|x - center|^exponent."""

    kind: str
    amplitude: float = 1.0
    center: tuple = ()
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not self.amplitude >= 0:
            raise ValueError("weight amplitude must be nonnegative")
        if math.isnan(self.exponent):
            raise ValueError("weight exponent must be a number")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def __call__(self, points: np.ndarray, h: float = 0.0) -> np.ndarray:
        """Evaluate at an (N, n) array of points.

        A sample landing exactly on the power-law center is shifted by h/2
        along axis 0 so negative powers stay finite; the shift preserves the
        integrability class of 1/weight.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(points.shape[0], self.amplitude)
        diff = points - np.asarray(self.center)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = dist == 0.0
        if np.any(hit):
            shifted = points[hit].copy()
            shifted[:, 0] += h / 2.0 if h > 0 else 1e-12
            sdiff = shifted - np.asarray(self.center)
            dist = dist.copy()
            dist[hit] = np.sqrt(np.einsum("ij,ij->i", sdiff, sdiff))
        return self.amplitude * dist ** self.exponent


@dataclass(frozen=True)
class ModelIntegrand:
    """Separable model integrand; see module docstring."""

    exponents: Exponents
    lambdas: tuple
    mu: WeightField
    u_coeff: float = 0.0

    def __post_init__(self):
        e = self.exponents
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        if len(self.lambdas) != e.n:
            raise ValueError("need one lambda weight per axis")
        if not self.u_coeff >= 0:
            raise ValueError("u_coeff must be nonnegative")
        for lam, ri in zip(self.lambdas, e.r):
            if lam.kind == "power" and lam.exponent > 0 and not math.isinf(ri):
                if lam.exponent * ri >= e.n:
                    raise ValueError(
                        f"power weight exponent {lam.exponent} breaks the "
                        f"integrability of 1/lambda in L^{ri} (need a*r < n)"
                    )

    def on_cells(self, grid: Grid, box=None) -> tuple:
        """lambda_i and mu at the centers of a box of cells (one slice per
        axis, None for every cell), sampled with the grid's h: arrays of shape
        (n, *box shape) and (*box shape), mu None without a u term. A constant
        weight is filled in; the lattice of centers is built only for a power
        weight, once."""
        shape = grid.cell_shape if box is None else tuple(s.stop - s.start for s in box)
        sampled = self.lambdas + ((self.mu,) if self.u_coeff > 0 else ())
        power = any(w.kind == "power" for w in sampled)
        centers = _lattice_points(grid.cell_axes(), box) if power else None

        def sample(w, out):
            if w.kind == "constant":
                out.fill(w.amplitude)
            else:
                out[...] = w(centers, grid.h).reshape(shape)
            return out

        lam = np.empty((len(self.lambdas), *shape))
        for out, w in zip(lam, self.lambdas):
            sample(w, out)
        mu = sample(self.mu, np.empty(shape)) if self.u_coeff > 0 else None
        return lam, mu

    def _mu_tilde(self, lam: np.ndarray, mu) -> np.ndarray:
        """The upper weight mu_tilde = sum_i lambda_i + u_coeff * mu from lambda_i
        stacked on the first axis of lam and mu (read only with a u term)."""
        out = lam.sum(axis=0)
        if self.u_coeff > 0:
            out = out + self.u_coeff * mu
        return out


def cell_energy(m: ModelIntegrand, grid: Grid, values: np.ndarray, weights) -> np.ndarray:
    """Edge-stencil density of f(x, u, Du) on a box of cells, in its shape:
    sum_i lambda_i(x_c) times the mean over the cell's 2^(n-1) edges along
    axis i of |D_e u / h|^p_i, plus u_coeff mu(x_c) times the mean over its
    corners of |u|^gamma. values holds u at the nodes of the box
    (`fields._node_box`) and weights is `m.on_cells(grid, box)`. Summed over
    every cell and times h^n, it is the solver's energy without smoothing.
    """
    lam, mu = weights
    f = np.zeros(lam.shape[1:])
    for i, p in enumerate(m.exponents.p):
        t = np.diff(values, axis=i)
        t /= grid.h
        np.abs(t, out=t)
        t **= p
        a = _average_to_cells(t, skip=i)
        del t
        a *= lam[i]
        f += a
        del a
    if m.u_coeff > 0:
        a = np.abs(values)
        a **= m.exponents.gamma
        a = _average_to_cells(a)
        a *= m.u_coeff * mu
        f += a
    return f


def energy(m: ModelIntegrand, u: GridFunction, region=None) -> float:
    """Edge-stencil energy of f(x, u, Du) over the cells of the region (None
    for every cell, a Ball or a cell mask; see `fields.cell_mask`): h^n
    times the sum of `cell_energy` over them, in row-major order. The
    density is formed on the whole grid; a cell's density is the same bits
    on any box that holds it, so the box-local sums of `inequalities` give
    the bits this one gives."""
    g = u.grid
    mask = cell_mask(g, region)
    density = cell_energy(m, g, u.values, m.on_cells(g))
    return float(np.sum(density[mask]) * g.h ** g.n)
