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

The stencil, its transposes and a ball's cells and nodes (`_ball_cells`)
live here; the solver's stencil helpers (`_shifts`, `_edge_product`,
`_edge_diagonal`, `_coarse_edges`, `_edge_ends`, `_zero_boundary`) in
`minimize`, a sub-box's cells (`_sub_box`) in `inequalities`, and the
sampling of weights in `integrand`.
"""

from __future__ import annotations

import math
import warnings
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


class _Prolongation:
    """Linear prolongation, along every axis in turn, of one fixed nodal
    array `a` into `out`, with work arrays and views built once: M + 1 nodes
    along an axis go to 2M + 1, the even nodes take the coarse values and
    each odd node the mean of its two. A call reads `a` as it is then and
    returns `out`."""

    def __init__(self, a: np.ndarray, out: np.ndarray):
        self._steps = []
        for axis in range(a.ndim):
            lead = (slice(None),) * axis
            shape = a.shape[:axis] + (2 * a.shape[axis] - 1,) + a.shape[axis + 1:]
            step = out if axis == a.ndim - 1 else np.empty(shape)
            self._steps.append((
                a,
                a[lead + (slice(1, None),)],
                a[lead + (slice(None, -1),)],
                step[lead + (slice(None, None, 2),)],
                step[lead + (slice(1, None, 2),)],
            ))
            a = step
        self.out = out

    def __call__(self) -> np.ndarray:
        for a, hi, lo, even, odd in self._steps:
            np.copyto(even, a)
            np.add(hi, lo, out=odd)
            odd *= 0.5
        return self.out


class _Restriction:
    """The transpose of that prolongation along each of `axes` in turn, of one
    fixed nodal array `a`, into work arrays and views built once: 2M + 1
    nodes along an axis go to M + 1, each even node plus half of each of
    its odd neighbours (weights 1/2, 1, 1/2). A call reads `a` as it is
    then, halves its odd nodes along the first axis in place, and returns
    the result, a buffer that the next call overwrites (`a` itself for no
    axes)."""

    def __init__(self, a: np.ndarray, axes):
        self._steps = []
        for axis in axes:
            lead = (slice(None),) * axis
            odd, even = a[lead + (slice(1, None, 2),)], a[lead + (slice(None, None, 2),)]
            a = np.empty(even.shape)
            self._steps.append((odd, even, a, a[lead + (slice(None, -1),)], a[lead + (slice(1, None),)]))
        self.out = a

    def __call__(self) -> np.ndarray:
        # as `_adjoint_pair_average` of the odd nodes plus the even ones,
        # with the halved odd nodes kept in place of a work array
        for odd, even, out, lo, hi in self._steps:
            odd *= 0.5
            out.fill(0.0)
            lo += odd
            hi += odd
            out += even
        return self.out


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
    """The ball's box of cells (`_ball_box`); u averaged to those cells and
    their centers' squared distances from x0; u at the box's nodes
    (`_node_box`) and their squared distances from x0. Each array has its
    box's shape, and the cells or nodes inside any ball about x0 of radius
    r <= R are those with distance below r^2. A ball that leaves the grid
    box is an error: the cells it would need are not there."""
    if not u.grid.contains_ball(ball):
        raise ValueError("ball leaves the grid box")
    box = _ball_box(u.grid, ball)
    nodes = _node_box(box)
    values = u.values[nodes]
    return (box, _average_to_cells(values), _dist2(u.grid.cell_axes(), box, ball.x0),
            values, _dist2(u.grid.node_axes(), nodes, ball.x0))


def cell_mask(grid: Grid, region) -> np.ndarray:
    """Boolean mask over cells; region is None (every cell), a Ball (the
    cells whose centres lie inside it) or a cell mask."""
    shape = grid.cell_shape
    if region is None:
        return np.ones(shape, dtype=bool)
    if isinstance(region, np.ndarray):
        return region.reshape(shape)
    if isinstance(region, Ball):
        return _dist2(grid.cell_axes(), (slice(None),) * grid.n, region.x0) < region.R * region.R
    raise TypeError(f"region must be None, a Ball or a cell mask, got {type(region).__name__}")


def lp_norm(f, beta: float, grid: Grid) -> float:
    """L^beta norm by midpoint quadrature of f, the values of a set of cells
    of the grid in any shape (select a region's cells before the call); max
    over them at beta = inf, 0 for no cells. Any beta > 0 is accepted: below
    1 this is the L^beta quasi-norm."""
    if not beta > 0:
        raise ValueError(f"need beta > 0, got {beta}")
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

    Every value is rendered as `f"{v:.17g}"`, through one %-format over
    Python floats.  When at most half of the values are distinct float64 bit
    patterns (a sort of the int64 view counts them), only the distinct ones
    are formatted and their lines are gathered back into C order; otherwise
    every value is formatted directly.  Keying on bits keeps 0.0 and -0.0
    apart, so both paths write the same bytes.
    """
    g = u.grid
    header = [_MAGIC, f"dim={g.n}"]
    header.append("box=" + ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in zip(g.lo, g.hi)))
    header.append(f"h={g.h:.17g}")
    values = u.values.ravel(order="C")
    bits = values.view(np.int64)
    # a sort and a searchsorted, not np.unique(return_inverse=True), whose
    # argsort would cost the all-distinct fallback about 15%
    keys = np.sort(bits)
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    if 2 * keys.size > values.size:
        body = ("%.17g\n" * values.size) % tuple(values.tolist())
    else:
        distinct = ("%.17g\n" * keys.size) % tuple(keys.view(np.float64).tolist())
        lines = np.array(distinct.splitlines(keepends=True), dtype=object)
        body = "".join(lines[np.searchsorted(keys, bits)].tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(body)


def read_gridfn(path) -> GridFunction:
    """Read a GRIDFN v1 file written by write_gridfn.

    Blank lines, spaces and tabs around a line, and CR line ends are
    ignored.  The 4 header lines are parsed here; the lines after them go to
    numpy's C reader (`np.loadtxt` on the path), so each must hold exactly
    one decimal float literal as that reader parses it: an optional sign,
    digits with an optional point and exponent, or inf/nan.  Digit
    underscores and hex floats are errors, and `#` starts no comment.
    """
    lines, skip = [], 0  # the header's non-blank lines, and the lines they span
    with open(path) as fh:
        for line in fh:
            skip += 1
            if line := line.strip():
                lines.append(line)
                if len(lines) == 4:
                    break
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
    with warnings.catch_warnings():
        # a body without values is the count error below, not a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            values = np.loadtxt(path, skiprows=skip, comments=None, ndmin=2, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if values.size and values.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line")
    if values.size != grid.num_nodes:
        raise ValueError(
            f"{path}: expected {grid.num_nodes} values, found {values.size}"
        )
    return GridFunction(grid, values.reshape(grid.shape))
