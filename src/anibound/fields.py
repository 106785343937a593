"""Uniform grids on boxes, nodal fields, discrete gradients and norms.

Conventions used throughout the package:

* nodal values live on the tensor lattice of the box, spacing h on every axis;
* the energy uses the edge stencil: a cell's axis-i term applies the
  integrand to each of the 2^(n-1) forward differences along axis i on the
  cell's edges and averages the results, and its u term averages |u|^gamma
  over the cell's corners; no non-constant field has zero energy on every
  edge, so the stencil has no checkerboard or hourglass modes, and affine
  fields are still differentiated exactly;
* `gradient`, used by the inequality verifiers, is the cell gradient: the
  average of those 2^(n-1) differences, one vector per cell;
* level sets are counted on nodes (measure = h^n * node count), integrals are
  cell quadratures with nodal values averaged to cell centers.

The stencil, its transposes and the geometry of regions (a ball's box, its
cells and its nodes) live only here; weights are sampled in `integrand`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "Ball",
    "make_grid",
    "gradient",
    "lp_norm",
    "write_gridfn",
    "read_gridfn",
]


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid: box = prod_i [lo_i, hi_i], spacing h on all axes."""

    n: int
    lo: tuple
    hi: tuple
    h: float
    shape: tuple  # node counts per axis

    @property
    def cell_shape(self) -> tuple:
        return tuple(m - 1 for m in self.shape)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def node_axes(self):
        return [self.lo[i] + self.h * np.arange(self.shape[i]) for i in range(self.n)]

    def cell_axes(self):
        return [
            self.lo[i] + self.h * (np.arange(self.shape[i] - 1) + 0.5)
            for i in range(self.n)
        ]

    def node_points(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, n), row-major order."""
        return _lattice_points(self.node_axes())

    def contains_ball(self, ball: "Ball") -> bool:
        return all(
            self.lo[i] <= ball.x0[i] - ball.R and ball.x0[i] + ball.R <= self.hi[i]
            for i in range(self.n)
        )


@dataclass(frozen=True)
class GridFunction:
    """Real nodal field on a grid; values has shape grid.shape, all finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            vals = vals.reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball B_R(x0)."""

    x0: tuple
    R: float

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.R <= 0:
            raise ValueError(f"ball radius must be positive, got {self.R}")


def make_grid(box, h: float) -> Grid:
    """Build a grid over box = [(lo_1, hi_1), ...]; h must divide every side."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not box:
        raise ValueError("empty box")
    if h <= 0:
        raise ValueError(f"spacing must be positive, got {h}")
    shape = []
    for lo, hi in box:
        if hi <= lo:
            raise ValueError(f"degenerate box side [{lo}, {hi}]")
        side = hi - lo
        m = round(side / h)
        if m < 1 or abs(m * h - side) > 1e-9 * max(side, 1.0):
            raise ValueError(f"spacing {h} does not divide side [{lo}, {hi}]")
        shape.append(m + 1)
    lo = tuple(b[0] for b in box)
    hi = tuple(b[1] for b in box)
    return Grid(n=len(box), lo=lo, hi=hi, h=float(h), shape=tuple(shape))


def _pair_average(a: np.ndarray, axis: int) -> np.ndarray:
    lead = (slice(None),) * axis
    out = a[lead + (slice(1, None),)] + a[lead + (slice(None, -1),)]
    out *= 0.5
    return out


def gradient(u: GridFunction, box=None) -> np.ndarray:
    """Discrete gradient on a box of cells (one slice per axis, None for
    every cell), shape (n, *box shape)."""
    g = u.grid
    if any(m < 2 for m in g.shape):
        raise ValueError("gradient needs at least 2 nodes per axis")
    values = u.values if box is None else u.values[_node_box(box)]
    comps = []
    for i in range(g.n):
        d = np.diff(values, axis=i)
        d /= g.h
        comps.append(_average_to_cells(d, skip=i))
    return np.stack(comps, axis=0)


def _average_to_cells(values: np.ndarray, skip=None) -> np.ndarray:
    """A nodal array averaged to cell centers: the pair average along every
    axis but `skip`. With skip = i, `values` lives on the edges along axis i,
    and a cell gets the mean of its 2^(n-1) edges."""
    for axis in range(values.ndim):
        if axis != skip:
            values = _pair_average(values, axis=axis)
    return values


def _adjoint_pair_average(a: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of `_pair_average`: half of each value added into each of
    its two neighbours along `axis`."""
    half = 0.5 * a
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] += half
    out[lead + (slice(1, None),)] += half
    return out


def _prolong(a: np.ndarray, axis: int) -> np.ndarray:
    """Linear prolongation along `axis`, from M + 1 nodes to 2M + 1: the even
    nodes take the coarse values and each odd node the mean of its two."""
    shape = list(a.shape)
    shape[axis] = 2 * shape[axis] - 1
    out = np.empty(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, None, 2),)] = a
    out[lead + (slice(1, None, 2),)] = _pair_average(a, axis)
    return out


def _restrict(a: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of `_prolong`, from 2M + 1 nodes to M + 1: each even node
    plus half of each of its odd neighbours (weights 1/2, 1, 1/2)."""
    lead = (slice(None),) * axis
    out = _adjoint_pair_average(a[lead + (slice(1, None, 2),)], axis)
    out += a[lead + (slice(None, None, 2),)]
    return out


def _add_adjoint_diff(out: np.ndarray, a: np.ndarray, axis: int) -> None:
    """out += D^T a in place, D the forward difference along `axis`: a is an
    array on the edges along `axis`, out a nodal array."""
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] -= a
    out[lead + (slice(1, None),)] += a


def _average_to_cells_transpose(w: np.ndarray, skip=None) -> np.ndarray:
    """Transpose of `_average_to_cells`: a cell array mapped to a nodal array,
    or with skip = i to the edges along axis i, each edge getting 2^(1-n)
    times the sum over the cells that share it."""
    for axis in range(w.ndim):
        if axis != skip:
            w = _adjoint_pair_average(w, axis=axis)
    return w


def _lattice_points(axes, box=None) -> np.ndarray:
    """Coordinates of the lattice points in `box` (one slice per axis, None for
    all of them), shape (N, n), row-major order."""
    if box is not None:
        axes = [a[s] for a, s in zip(axes, box)]
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)  # views: one copy, in stack
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _cell_box(grid: Grid, mask: np.ndarray) -> tuple:
    """Index slices, one per axis, of the tight box of cells that holds every
    cell of a cell mask (empty slices for an empty mask)."""
    mask = mask.reshape(grid.cell_shape)
    box = []
    for i in range(grid.n):
        hits = np.flatnonzero(mask.any(axis=tuple(j for j in range(grid.n) if j != i)))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0))
    return tuple(box)


def _node_box(box: tuple) -> tuple:
    """The nodes of a box of cells: every corner of every cell in it."""
    return tuple(slice(s.start, s.stop + 1) for s in box)


def _ball_box(grid: Grid, ball: Ball) -> tuple:
    """Index slices, one per axis, of a box of cells that holds every cell
    center inside the ball, clamped to the grid. It keeps one spare index on
    each side, so rounding never cuts off a cell, and its nodes (`_node_box`)
    hold every node inside the ball as well."""
    box = []
    for i, count in enumerate(grid.cell_shape):
        lo = (ball.x0[i] - ball.R - grid.lo[i]) / grid.h - 0.5
        hi = (ball.x0[i] + ball.R - grid.lo[i]) / grid.h - 0.5
        start = min(max(0, math.floor(lo)), count)
        box.append(slice(start, max(start, min(count, math.floor(hi) + 2))))
    return tuple(box)


def _dist2(axes, box: tuple, x0) -> np.ndarray:
    """Squared distances from x0 of the lattice points in `box`, in the box's shape.

    The per-axis squares are broadcast and summed in axis order,
    (d0^2 + d1^2) + d2^2, so no lattice of points is built. Every ball mask,
    and so every certificate and report, depends on these bits.
    """
    squares = [(a[s] - c) ** 2 for a, s, c in zip(axes, box, x0)]
    return sum(np.meshgrid(*squares, indexing="ij", sparse=True))


def _ball_cells(u: GridFunction, ball: Ball) -> tuple:
    """The ball's box of cells (`_ball_box`), u averaged to those cells and
    their centers' squared distances from x0, both in the box's shape; the
    cells inside the ball are those with distance below R^2. A ball that
    leaves the grid box is an error: the cells it would need are not there."""
    if not u.grid.contains_ball(ball):
        raise ValueError("ball leaves the grid box")
    box = _ball_box(u.grid, ball)
    uc = _average_to_cells(u.values[_node_box(box)])
    return box, uc, _dist2(u.grid.cell_axes(), box, ball.x0)


def _ball_nodes(u: GridFunction, ball: Ball) -> np.ndarray:
    """u at the nodes inside the ball, flat in row-major order; only the nodes
    of the ball's box are visited."""
    box = _node_box(_ball_box(u.grid, ball))
    return u.values[box][_dist2(u.grid.node_axes(), box, ball.x0) < ball.R * ball.R]


def cell_mask(grid: Grid, region) -> np.ndarray:
    """Boolean mask over cells; region is None (every cell), a Ball or a
    cell mask. A Ball is tested only on the cells of its box."""
    shape = grid.cell_shape
    if region is None:
        return np.ones(shape, dtype=bool)
    if isinstance(region, np.ndarray):
        return region.reshape(shape)
    if isinstance(region, Ball):
        box = _ball_box(grid, region)
        mask = np.zeros(shape, dtype=bool)
        mask[box] = _dist2(grid.cell_axes(), box, region.x0) < region.R * region.R
        return mask
    raise TypeError(f"region must be None, a Ball or a cell mask, got {type(region).__name__}")


def lp_norm(f, beta: float, grid: Grid) -> float:
    """L^beta norm by midpoint quadrature of f, the values of a set of cells
    of the grid in any shape (select a region's cells before the call); max
    over them at beta = inf, 0 for no cells."""
    if beta < 1:
        raise ValueError(f"need beta >= 1, got {beta}")
    vals = np.abs(np.asarray(f)).ravel()
    if vals.size == 0:
        return 0.0
    if math.isinf(beta):
        return float(vals.max())
    return float((np.sum(vals ** beta) * grid.h ** grid.n) ** (1.0 / beta))


def _hat_box(grid: Grid, box) -> tuple:
    """The product over axes of the hats that peak at the midpoint of
    [a_i, b_i] and vanish outside it, box = [(a_1, b_1), ...] with a_i < b_i,
    formed only on the box of nodes where every axis hat is nonzero: that
    box (one slice per axis) and the product on it. The hats are zeroed on
    the boundary nodes first, so the product vanishes on the grid boundary
    even where a node meant to lie on b_i misses it by rounding
    (0.1 + 12 * 0.05 > 0.7). A hat that is zero on every node gives empty
    slices."""
    support, prod = [], 1.0
    for i, (x, (a, b)) in enumerate(zip(grid.node_axes(), box)):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        hat = np.clip(1.0 - np.abs(x - mid) / half, 0.0, None)
        hat[[0, -1]] = 0.0
        nonzero = np.flatnonzero(hat)
        if nonzero.size == 0:
            return (slice(0, 0),) * grid.n, np.zeros((0,) * grid.n)
        support.append(slice(int(nonzero[0]), int(nonzero[-1]) + 1))
        shape = [1] * grid.n
        shape[i] = -1
        prod = prod * hat[support[-1]].reshape(shape)
    return tuple(support), prod


def _tensor_hat(grid: Grid, box) -> np.ndarray:
    """Nodal values of the tensor hat of `_hat_box` on the whole grid, zero
    off its box."""
    vals = np.zeros(grid.shape)
    support, prod = _hat_box(grid, box)
    vals[support] = prod
    return vals


# ---------------------------------------------------------------------------
# GRIDFN v1 file format
# ---------------------------------------------------------------------------

_MAGIC = "GRIDFN v1"


def write_gridfn(path, u: GridFunction) -> None:
    """Write a grid function in the GRIDFN v1 ASCII format (17 significant digits).

    The values are rendered by one %-format over their Python floats, which
    gives the same bytes as formatting each value on its own.
    """
    g = u.grid
    header = [_MAGIC, f"dim={g.n}"]
    header.append("box=" + ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in zip(g.lo, g.hi)))
    header.append(f"h={g.h:.17g}")
    values = u.values.ravel(order="C").tolist()
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(("%.17g\n" * len(values)) % tuple(values))


def read_gridfn(path) -> GridFunction:
    """Read a GRIDFN v1 file written by write_gridfn.

    Blank lines and whitespace around a line are ignored, as are CR line
    ends; each remaining line after the 4 header lines holds exactly one
    value, converted as Python's float() converts it.
    """
    with open(path) as fh:
        lines = list(filter(None, map(str.strip, fh.read().split("\n"))))
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a GRIDFN v1 file")
    try:
        head = dict(line.split("=", 1) for line in lines[1:4])
        dim = int(head["dim"])
        box = [tuple(float(v) for v in part.split(":")) for part in head["box"].split(",")]
        h = float(head["h"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed GRIDFN header") from exc
    if len(box) != dim:
        raise ValueError(f"{path}: box has {len(box)} axes, expected {dim}")
    grid = make_grid(box, h)
    values = np.fromiter(map(float, lines[4:]), dtype=float, count=len(lines) - 4)
    if values.size != grid.num_nodes:
        raise ValueError(
            f"{path}: expected {grid.num_nodes} values, found {values.size}"
        )
    return GridFunction(grid, values.reshape(grid.shape))
