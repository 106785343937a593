import numpy as np
import pytest

from anibound.exponents import INF, Exponents
from anibound.fields import (
    GridFunction,
    _average_to_cells,
    _lattice_points,
    _tensor_hat,
    make_grid,
)
from anibound.integrand import ModelIntegrand, WeightField


def constant(c):
    return WeightField("constant", amplitude=c)


def simple_model(n, p=2.0, q=None, gamma=None, r=INF, s=INF, u_coeff=0.0):
    """Isotropic model with constant unit weights."""
    q = p if q is None else q
    gamma = q if gamma is None else gamma
    e = Exponents(n, (p,) * n, q, gamma, (r,) * n, s)
    return ModelIntegrand(e, (constant(1.0),) * n, constant(1.0), u_coeff)


def unit_grid(n, h):
    return make_grid([(0.0, 1.0)] * n, h)


def cell_centers(grid):
    """All cell-center coordinates, shape (num_cells, n), row-major order."""
    return _lattice_points(grid.cell_axes())


def coordinate_field(grid, axis=0):
    pts = grid.node_points()
    return GridFunction(grid, pts[:, axis].reshape(grid.shape))


def hat_bump(grid, amplitude=1.0):
    """Tensor-product hat centered in the box, zero on the boundary."""
    return GridFunction(grid, amplitude * _tensor_hat(grid, zip(grid.lo, grid.hi)))


def scaled(u, t):
    """The grid function t * u."""
    return GridFunction(u.grid, t * u.values)


def ball_contains(ball, points):
    """Strict membership |x - x0| < R of an (N, n) array of points."""
    diff = points - np.asarray(ball.x0)
    return np.einsum("ij,ij->i", diff, diff) < ball.R * ball.R


def ref_j_sequence(u, x0, R, d, e, H):
    """J_0..J_H over the whole grid: every cell average, masked per step, on
    the schedule rho_h = (R/2)(1 + 0.5^h), k_h = d(1 - 0.5^(h+1)) formed
    one scalar at a time."""
    grid = u.grid
    centers = cell_centers(grid)
    uc = _average_to_cells(u.values).ravel()
    diff = centers - np.asarray(x0, dtype=float)
    dist2 = np.einsum("ij,ij->i", diff, diff)
    hn = grid.h ** grid.n
    out = np.empty(H + 1)
    for h in range(H + 1):
        rho = (R / 2.0) * (1.0 + 0.5 ** h)
        k = d * (1.0 - 0.5 ** (h + 1))
        sel = (dist2 < rho * rho) & (uc > k)
        out[h] = float(np.sum((uc[sel] - k) ** e.qs_prime) * hn) if sel.any() else 0.0
    return out


def tight_cell_box(grid, mask):
    """Index slices, one per axis, of the tight box of cells that holds every
    cell of a cell mask (empty slices for an empty mask)."""
    mask = mask.reshape(grid.cell_shape)
    box = []
    for i in range(grid.n):
        hits = np.flatnonzero(mask.any(axis=tuple(j for j in range(grid.n) if j != i)))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0))
    return tuple(box)


def lambda_values(m, points, h=0.0):
    """lambda_i at an (N, n) array of points, shape (n, N)."""
    return np.stack([lam(points, h) for lam in m.lambdas])


def mu_tilde(m, points, h=0.0):
    """The effective upper weight sum_i lambda_i + u_coeff * mu at points."""
    return m._mu_tilde(lambda_values(m, points, h), m.mu(points, h))


def eval_integrand(m, x, u, xi, h=0.0):
    """f(x, u, xi) for vectorized inputs: x (N, n), u (N,), xi (n, N); h is
    the spacing by which the weights shift a sample on a singular center."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    p = np.asarray(m.exponents.p)[:, None]
    out = np.sum(lambda_values(m, x, h) * np.abs(xi) ** p, axis=0)
    if m.u_coeff > 0:
        out = out + m.u_coeff * m.mu(x, h) * np.abs(u) ** m.exponents.gamma
    return out


GRIDFN_REJECTS = (
    "non_numeric_value",
    "two_values_on_one_line",
    "one_value_too_few",
    "one_value_too_many",
    "missing_h_line",
    "wrong_dim_key",
    "wrong_box_key",
    "wrong_h_key",
    "empty_file",
    "digit_underscore",
    "comment_line",
    "all_values_on_one_line",
)


def gridfn_reject(text, name):
    """A malformed variant, one of GRIDFN_REJECTS, of a valid GRIDFN v1 text
    with at least two values; read_gridfn must reject it."""
    if name == "empty_file":
        return ""
    lines = text.splitlines()
    head, body = lines[:4], lines[4:]
    variants = {
        "non_numeric_value": head + ["abc"] + body[1:],
        # the token count still matches the grid; only the line count does not
        "two_values_on_one_line": head + [body[0] + " " + body[1]] + body[2:],
        "one_value_too_few": head + body[:-1],
        "one_value_too_many": head + body + [body[-1]],
        "missing_h_line": head[:3] + body,
        # Python's float() reads 1_0 as 10; numpy's C reader refuses it
        "digit_underscore": head + ["1_0"] + body[1:],
        # an extra line: the count would match if '#' started a comment
        "comment_line": head + ["# a comment"] + body,
        # the count matches, but not one value per line
        "all_values_on_one_line": head + [" ".join(body)],
    }
    # a header line whose value is intact but whose key is not dim, box or h
    for i, key in enumerate(("dim", "box", "h"), 1):
        variants[f"wrong_{key}_key"] = (
            head[:i] + ["foo=" + head[i].split("=", 1)[1]] + head[i + 1:] + body
        )
    return "\n".join(variants[name]) + "\n"


def random_exponents(rng):
    """One random exponent tuple; may or may not be admissible."""
    n = int(rng.integers(2, 5))
    p = tuple(rng.uniform(1.1, 3.5, size=n))
    q = max(p) * rng.uniform(1.0, 1.4)
    gamma = q * rng.uniform(1.0, 1.4)
    r = tuple(
        INF if rng.random() < 0.4 else float(rng.uniform(1.0, 20.0)) for _ in range(n)
    )
    s = INF if rng.random() < 0.4 else float(rng.uniform(1.05, 20.0))
    return Exponents(n, p, q, gamma, r, s)


def random_admissible_exponents(rng, count, max_attempts=10_000_000):
    """Generate `count` admissible tuples by rejection sampling."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("admissible-tuple sampling stalled")
        e = random_exponents(rng)
        if e.admissible:
            out.append(e)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
