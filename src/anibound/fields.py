"""Uniform grids on boxes, nodal fields, discrete gradients and norms.

Conventions used throughout the package:

* nodal values live on the tensor lattice of the box, spacing h on every axis;
* gradients and integrands are evaluated on the cell lattice (one cell per
  h-cube); component i of the discrete gradient is the average of the forward
  differences along axis i over the 2^(n-1) edges of the cell, so affine
  fields are differentiated exactly;
* level sets are counted on nodes (measure = h^n * node count), integrals are
  cell quadratures with nodal values averaged to cell centers.

The stencil, its transposes and the lattice geometry of regions live only here.
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
    "cell_average",
    "lp_norm",
    "superlevel_measure",
    "truncate",
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

    def cell_centers(self) -> np.ndarray:
        """All cell-center coordinates, shape (num_cells, n), row-major order."""
        return _lattice_points(self.cell_axes())

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

    def scaled(self, t: float) -> "GridFunction":
        return GridFunction(self.grid, t * self.values)

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict membership |x - x0| < R for an (N, n) array of points."""
        diff = points - np.asarray(self.x0)
        return np.einsum("ij,ij->i", diff, diff) < self.R * self.R


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
    return 0.5 * (a[lead + (slice(1, None),)] + a[lead + (slice(None, -1),)])


def _cell_gradients(values: np.ndarray, h: float) -> list:
    """Components of the discrete gradient of a nodal array, one per axis."""
    comps = []
    for i in range(values.ndim):
        d = np.diff(values, axis=i) / h
        for j in range(values.ndim):
            if j != i:
                d = _pair_average(d, axis=j)
        comps.append(d)
    return comps


def gradient(u: GridFunction) -> np.ndarray:
    """Discrete gradient on the cell lattice, shape (n, *cell_shape)."""
    g = u.grid
    if any(m < 2 for m in g.shape):
        raise ValueError("gradient needs at least 2 nodes per axis")
    return np.stack(_cell_gradients(u.values, g.h), axis=0)


def _average_to_cells(values: np.ndarray) -> np.ndarray:
    """A nodal array averaged to cell centers."""
    for axis in range(values.ndim):
        values = _pair_average(values, axis=axis)
    return values


def _adjoint_pair_average(a: np.ndarray, axis: int) -> np.ndarray:
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] += 0.5 * a
    out[lead + (slice(1, None),)] += 0.5 * a
    return out


def _adjoint_diff(a: np.ndarray, axis: int) -> np.ndarray:
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    out[lead + (slice(None, -1),)] -= a
    out[lead + (slice(1, None),)] += a
    return out


def _cell_gradient_transpose(w: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of h times component `axis` of `_cell_gradients`: a cell array
    mapped to a nodal array (the caller applies the 1/h)."""
    for j in range(w.ndim):
        if j != axis:
            w = _adjoint_pair_average(w, axis=j)
    return _adjoint_diff(w, axis=axis)


def _average_to_cells_transpose(w: np.ndarray) -> np.ndarray:
    """Transpose of `_average_to_cells`: a cell array mapped to a nodal array."""
    for axis in range(w.ndim):
        w = _adjoint_pair_average(w, axis=axis)
    return w


def _interior_mask(grid: Grid) -> np.ndarray:
    """Nodes off the boundary of the grid box."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.n] = True
    return mask


def cell_average(u: GridFunction) -> np.ndarray:
    """Nodal values averaged to cell centers, shape cell_shape."""
    return _average_to_cells(u.values)


def _lattice_points(axes, box=None) -> np.ndarray:
    """Coordinates of the lattice points in `box` (one slice per axis, None for
    all of them), shape (N, n), row-major order."""
    if box is not None:
        axes = [a[s] for a, s in zip(axes, box)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _cell_box(grid: Grid, region) -> tuple:
    """Index slices, one per axis, of a box of cells that holds every cell of a
    cell mask or every cell center inside a Ball, clamped to the grid.

    The box of a mask is tight (empty slices for an empty mask). The box of a
    Ball keeps one spare index on each side, so rounding never cuts off a
    cell, and widened by one node at the upper end it holds every node inside
    the ball as well.
    """
    if isinstance(region, np.ndarray):
        mask = region.reshape(grid.cell_shape)
        box = []
        for i in range(grid.n):
            hits = np.flatnonzero(mask.any(axis=tuple(j for j in range(grid.n) if j != i)))
            box.append(slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0))
        return tuple(box)
    box = []
    for i, count in enumerate(grid.cell_shape):
        lo = (region.x0[i] - region.R - grid.lo[i]) / grid.h - 0.5
        hi = (region.x0[i] + region.R - grid.lo[i]) / grid.h - 0.5
        start = min(max(0, math.floor(lo)), count)
        box.append(slice(start, max(start, min(count, math.floor(hi) + 2))))
    return tuple(box)


def _node_box(box: tuple) -> tuple:
    """The nodes of a box of cells: every corner of every cell in it."""
    return tuple(slice(s.start, s.stop + 1) for s in box)


def _ball_box(grid: Grid, ball: Ball, nodes: bool = False) -> tuple:
    """The box of a Ball's cells (`_cell_box`), or with `nodes` that box's
    nodes, with its lattice points, shape (N, n), and their squared distances
    from x0, shape (N,), both in row-major order."""
    box = _cell_box(grid, ball)
    axes = grid.cell_axes()
    if nodes:
        box = _node_box(box)
        axes = grid.node_axes()
    points = _lattice_points(axes, box)
    diff = points - np.asarray(ball.x0)
    return box, points, np.einsum("ij,ij->i", diff, diff)


def cell_mask(grid: Grid, region) -> np.ndarray:
    """Boolean mask over cells; region is None, a Ball, a mask, or a predicate on centers.

    A Ball is tested only on the cells of its bounding box.
    """
    shape = grid.cell_shape
    if region is None:
        return np.ones(shape, dtype=bool)
    if isinstance(region, np.ndarray):
        return region.reshape(shape)
    if isinstance(region, Ball):
        box, _, dist2 = _ball_box(grid, region)
        mask = np.zeros(shape, dtype=bool)
        mask[box] = (dist2 < region.R * region.R).reshape(mask[box].shape)
        return mask
    return np.asarray(region(grid.cell_centers()), dtype=bool).reshape(shape)


def lp_norm(f: np.ndarray, beta: float, grid: Grid, region=None) -> float:
    """L^beta norm of a cell field by midpoint quadrature; max over cells at beta = inf.

    With region None, f may also be the values of any set of cells, flat.
    """
    if beta < 1:
        raise ValueError(f"need beta >= 1, got {beta}")
    vals = np.abs(np.asarray(f))
    vals = vals.ravel() if region is None else vals[cell_mask(grid, region)]
    if vals.size == 0:
        return 0.0
    if math.isinf(beta):
        return float(vals.max())
    return float((np.sum(vals ** beta) * grid.h ** grid.n) ** (1.0 / beta))


def superlevel_measure(u: GridFunction, k: float, ball: Ball) -> float:
    """h^n times the number of nodes with |x - x0| < R and u(x) > k.

    Only the nodes of the ball's bounding box are visited, so the cost scales
    with that box, not with the grid.
    """
    g = u.grid
    box, _, dist2 = _ball_box(g, ball, nodes=True)
    values = u.values[box]
    inside = (dist2 < ball.R * ball.R).reshape(values.shape)
    count = int(np.count_nonzero(inside & (values > k)))
    return count * g.h ** g.n


def _tensor_hat(grid: Grid, box) -> np.ndarray:
    """Nodal values of the product over axes of the hats that peak at the
    midpoint of [a_i, b_i] and vanish outside it; box = [(a_1, b_1), ...]."""
    vals = np.ones(grid.shape)
    for i, (x, (a, b)) in enumerate(zip(grid.node_axes(), box)):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        hat = np.clip(1.0 - np.abs(x - mid) / half, 0.0, None)
        shape = [1] * grid.n
        shape[i] = len(x)
        vals = vals * hat.reshape(shape)
    return vals


def truncate(u: GridFunction, k: float) -> GridFunction:
    """Nodewise (u - k)_+ = max(u - k, 0)."""
    return GridFunction(u.grid, np.maximum(u.values - k, 0.0))


# ---------------------------------------------------------------------------
# GRIDFN v1 file format
# ---------------------------------------------------------------------------

_MAGIC = "GRIDFN v1"


def write_gridfn(path, u: GridFunction) -> None:
    """Write a grid function in the GRIDFN v1 ASCII format (17 significant digits)."""
    g = u.grid
    lines = [_MAGIC, f"dim={g.n}"]
    lines.append("box=" + ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in zip(g.lo, g.hi)))
    lines.append(f"h={g.h:.17g}")
    lines.extend(f"{v:.17g}" for v in u.values.ravel(order="C"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gridfn(path) -> GridFunction:
    """Read a GRIDFN v1 file written by write_gridfn."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a GRIDFN v1 file")
    try:
        dim = int(lines[1].split("=", 1)[1])
        box = [
            tuple(float(v) for v in part.split(":"))
            for part in lines[2].split("=", 1)[1].split(",")
        ]
        h = float(lines[3].split("=", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed GRIDFN header") from exc
    if len(box) != dim:
        raise ValueError(f"{path}: box has {len(box)} axes, expected {dim}")
    grid = make_grid(box, h)
    values = np.array([float(v) for v in lines[4:]])
    if values.size != grid.num_nodes:
        raise ValueError(
            f"{path}: expected {grid.num_nodes} values, found {values.size}"
        )
    return GridFunction(grid, values.reshape(grid.shape))
