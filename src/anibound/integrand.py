"""Model integrand family with anisotropic p_i,q-growth.

The family is separable:

    f(x, u, xi) = sum_i lambda_i(x) |xi_i|^p_i + u_coeff * mu(x) |u|^gamma

with constant or power-law weights.  It is convex in (u, xi), nonnegative,
and sandwiched between its own lower envelope and
mu_tilde(x) * (|xi|^q + |u|^gamma + 1) with mu_tilde = sum_i lambda_i +
u_coeff * mu, which is the effective upper weight reported to the
certification engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import Exponents
from .fields import (
    GridFunction,
    _average_to_cells,
    _cell_box,
    _cell_gradients,
    _lattice_points,
    _node_box,
    cell_mask,
)

__all__ = [
    "WeightField",
    "ModelIntegrand",
    "eval_integrand",
    "check_growth",
    "check_convexity",
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
        if self.amplitude < 0:
            raise ValueError("weight amplitude must be nonnegative")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def __call__(self, points: np.ndarray, h: float = 0.0) -> np.ndarray:
        """Evaluate at an (N, n) array of points.

        A sample landing exactly on the power-law center is shifted by h/2
        along axis 1 so negative powers stay finite; the shift preserves the
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
    """Separable model integrand; see module docstring.

    mu_tilde_override exists only so tests can break the weight-domination
    property on purpose; leave it None in real use.
    """

    exponents: Exponents
    lambdas: tuple
    mu: WeightField
    u_coeff: float = 0.0
    mu_tilde_override: WeightField | None = field(default=None)

    def __post_init__(self):
        e = self.exponents
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        if len(self.lambdas) != e.n:
            raise ValueError("need one lambda weight per axis")
        if self.u_coeff < 0:
            raise ValueError("u_coeff must be nonnegative")
        for lam, ri in zip(self.lambdas, e.r):
            if lam.kind == "power" and lam.exponent > 0 and not math.isinf(ri):
                if lam.exponent * ri >= e.n:
                    raise ValueError(
                        f"power weight exponent {lam.exponent} breaks the "
                        f"integrability of 1/lambda in L^{ri} (need a*r < n)"
                    )

    def lambda_values(self, points: np.ndarray, h: float = 0.0) -> np.ndarray:
        """Stack of lambda_i at the given points, shape (n, N)."""
        return np.stack([lam(points, h) for lam in self.lambdas], axis=0)

    def mu_tilde(self, points: np.ndarray, h: float = 0.0) -> np.ndarray:
        """Effective upper weight sum_i lambda_i + u_coeff * mu."""
        return self._mu_tilde(points, h, self.lambda_values(points, h))

    def _mu_tilde(self, points: np.ndarray, h: float, lam: np.ndarray) -> np.ndarray:
        """mu_tilde at the points, given lam = lambda_values(points, h)."""
        if self.mu_tilde_override is not None:
            return self.mu_tilde_override(points, h)
        out = lam.sum(axis=0)
        if self.u_coeff > 0:
            out = out + self.u_coeff * self.mu(points, h)
        return out


def eval_integrand(m: ModelIntegrand, x, u, xi, h: float = 0.0) -> np.ndarray:
    """f(x, u, xi) for vectorized inputs: x (N, n), u (N,), xi (n, N).

    h is the grid spacing the weights shift singular samples by (see
    WeightField); pass the grid's h for cell centers of a grid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    lam = m.lambda_values(x, h)
    p = np.asarray(m.exponents.p)[:, None]
    out = np.sum(lam * np.abs(xi) ** p, axis=0)
    if m.u_coeff > 0:
        out = out + m.u_coeff * m.mu(x, h) * np.abs(u) ** m.exponents.gamma
    return out


@dataclass(frozen=True)
class SandwichReport:
    max_lower_violation: float  # max of (lower envelope - f); <= 0 means OK
    max_upper_violation: float  # max of (f - mu_tilde*(|xi|^q+|u|^gamma+1))
    num_samples: int

    @property
    def passed(self) -> bool:
        return self.max_lower_violation <= 1e-12 and self.max_upper_violation <= 1e-12


def check_growth(m: ModelIntegrand, samples) -> SandwichReport:
    """Check the growth sandwich on a finite sample of (x, u, xi) triples."""
    lo_v = -math.inf
    hi_v = -math.inf
    count = 0
    for x, u, xi in samples:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        xi = np.asarray(xi, dtype=float).reshape(m.exponents.n, -1)
        f = eval_integrand(m, x, u, xi)
        lam = m.lambda_values(x)
        p = np.asarray(m.exponents.p)[:, None]
        lower = np.sum(lam * np.abs(xi) ** p, axis=0)
        xi_norm = np.sqrt(np.sum(xi * xi, axis=0))
        upper = m.mu_tilde(x) * (
            xi_norm ** m.exponents.q + np.abs(u) ** m.exponents.gamma + 1.0
        )
        lo_v = max(lo_v, float(np.max(lower - f)))
        hi_v = max(hi_v, float(np.max(f - upper)))
        count += len(u)
    return SandwichReport(lo_v, hi_v, count)


@dataclass(frozen=True)
class ConvexityReport:
    max_violation: float  # max of f(mid) - (f(a)+f(b))/2; <= tol means convex
    num_pairs: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-12


def check_convexity(m: ModelIntegrand, sample_pairs) -> ConvexityReport:
    """Midpoint-convexity check in (u, xi) at common x on sampled state pairs."""
    worst = -math.inf
    count = 0
    for x, (ua, xia), (ub, xib) in sample_pairs:
        xia = np.asarray(xia, dtype=float).reshape(m.exponents.n, -1)
        xib = np.asarray(xib, dtype=float).reshape(m.exponents.n, -1)
        fa = eval_integrand(m, x, ua, xia)
        fb = eval_integrand(m, x, ub, xib)
        fm = eval_integrand(m, x, 0.5 * (np.atleast_1d(ua) + np.atleast_1d(ub)), 0.5 * (xia + xib))
        worst = max(worst, float(np.max(fm - 0.5 * (fa + fb))))
        count += 1
    return ConvexityReport(worst, count)


def energy(m: ModelIntegrand, u: GridFunction, region=None) -> float:
    """Cell-quadrature energy integral of f(x, u, Du) over the region.

    The gradient, the cell average and the weights are evaluated only on the
    bounding box of the region's cells, so beyond building the region's mask
    the cost scales with that box, not with the grid.
    """
    g = u.grid
    mask = cell_mask(g, region)
    if not mask.any():
        return 0.0
    box = _cell_box(g, mask)
    sel = mask[box].ravel()
    values = u.values[_node_box(box)]
    centers = _lattice_points(g.cell_axes(), box)[sel]
    uc = _average_to_cells(values).ravel()[sel]
    xi = np.stack(_cell_gradients(values, g.h), axis=0).reshape(g.n, -1)[:, sel]
    f = eval_integrand(m, centers, uc, xi, g.h)
    return float(np.sum(f) * g.h ** g.n)
