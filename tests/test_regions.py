"""Region-restricted computations against full-grid reference implementations.

The cells and nodes of a ball (`_ball_cells`), caccioppoli_sweep,
j_sequence and certify's N and half-ball sup work only on the index
bounding box of their region; energy and cell_mask form the whole grid.
The references below evaluate the whole grid and then mask, by their own
code; every result must agree bitwise, and energy must also agree with the
stencil formed on the tight box of the region's cells.
"""

import itertools

import numpy as np
import pytest

from anibound.degiorgi import certify, j_sequence
from anibound.exponents import INF, Exponents, conjugate_exponent
from anibound.fields import (
    Ball,
    GridFunction,
    _average_to_cells,
    _ball_cells,
    _node_box,
    cell_mask,
    gradient,
    lp_norm,
    make_grid,
)
from anibound.inequalities import caccioppoli_sweep, verify_caccioppoli
from anibound.integrand import ModelIntegrand, WeightField, cell_energy, energy
from conftest import (
    ball_contains,
    cell_centers,
    constant,
    lambda_values,
    mu_tilde,
    ref_j_sequence,
    tight_cell_box,
)

# ------------------------------------------------------------- references


def ref_cell_mask(grid, region):
    centers = cell_centers(grid)
    if region is None:
        return np.ones(grid.cell_shape, dtype=bool)
    if isinstance(region, Ball):
        return ball_contains(region, centers).reshape(grid.cell_shape)
    return region.reshape(grid.cell_shape)


def ref_energy(m, u, region=None):
    """The edge-stencil energy over the whole grid, then masked."""
    g = u.grid
    mask = ref_cell_mask(g, region).ravel()
    if not mask.any():
        return 0.0
    centers = cell_centers(g)[mask]
    lam = lambda_values(m, centers, g.h)
    f = 0.0
    for i, p in enumerate(m.exponents.p):
        t = np.diff(u.values, axis=i)
        t /= g.h
        f = f + lam[i] * _average_to_cells(np.abs(t) ** p, skip=i).ravel()[mask]
    if m.u_coeff > 0:
        uc = _average_to_cells(np.abs(u.values) ** m.exponents.gamma)
        f = f + m.u_coeff * m.mu(centers, g.h) * uc.ravel()[mask]
    return float(np.sum(f) * g.h ** g.n)


def box_energy(m, u, region=None):
    """energy() as it was before the density had its own function: the
    stencil on the box of the region's cells, masked term by term."""
    g = u.grid
    mask = cell_mask(g, region)
    if not mask.any():
        return 0.0
    box = tight_cell_box(g, mask)
    sel = mask[box]
    values = u.values[_node_box(box)]
    lam, mu = m.on_cells(g, box)
    f = 0.0
    for i, p in enumerate(m.exponents.p):
        t = np.diff(values, axis=i)
        t /= g.h
        f = f + lam[i][sel] * _average_to_cells(np.abs(t) ** p, skip=i)[sel]
    if m.u_coeff > 0:
        uc = _average_to_cells(np.abs(values) ** m.exponents.gamma)[sel]
        f = f + m.u_coeff * mu[sel] * uc
    return float(np.sum(f) * g.h ** g.n)


def ref_superlevel_measure(u, k, ball):
    g = u.grid
    inside = ball_contains(ball, g.node_points()).reshape(g.shape)
    return int(np.count_nonzero(inside & (u.values > k))) * g.h ** g.n


def ref_caccioppoli_sides(m, u, k, rho, R, x0):
    grid = u.grid
    e = m.exponents
    big = Ball(x0, R)
    centers = cell_centers(grid)
    uc = _average_to_cells(u.values).ravel()
    in_small = ball_contains(Ball(x0, rho), centers) & (uc > k)
    in_big = ball_contains(big, centers) & (uc > k)
    lhs = ref_energy(m, u, in_small.reshape(grid.cell_shape))
    hn = grid.h ** grid.n
    mu_t = mu_tilde(m, centers, grid.h)
    excess = uc[in_big] - k
    term1 = float(np.sum(mu_t[in_big] * (excess ** e.q + k ** e.gamma)) * hn)
    term1 /= (R - rho) ** e.q
    mu_norm = lp_norm(mu_t[ref_cell_mask(grid, big).ravel()], e.s, grid)
    level = ref_superlevel_measure(u, k, big)
    s_prime = conjugate_exponent(e.s)
    term2 = mu_norm * level ** (1.0 / s_prime) if level > 0 else 0.0
    return lhs, term1 + term2


# --------------------------------------------------------------- problems


def plain_model(n):
    e = Exponents(n, (2.0,) * n, 2.0, 2.0, (INF,) * n, INF)
    return ModelIntegrand(e, (constant(1.0),) * n, constant(1.0), 0.0)


def weighted_model(n):
    """Anisotropic p, a power lambda_1, finite r and s, and u_coeff * mu |u|^gamma
    with a power mu."""
    p = (1.6, 2.0, 1.8)[:n]
    e = Exponents(n, p, 2.0, 2.5, (4.0,) * n, 3.0)
    lam1 = WeightField("power", amplitude=1.5, center=(0.3,) * n, exponent=0.4)
    mu = WeightField("power", amplitude=2.0, center=(0.7,) + (0.4,) * (n - 1), exponent=1.5)
    return ModelIntegrand(e, (lam1,) + (constant(0.5),) * (n - 1), mu, 0.8)


GRIDS = {
    2: [([(0.0, 1.0)] * 2, 1 / 16), ([(-0.5, 1.0), (0.25, 1.25)], 1 / 16)],
    3: [([(0.0, 1.0)] * 3, 1 / 8), ([(-0.25, 1.0), (0.0, 1.0), (0.25, 1.25)], 1 / 8)],
}

CASES = [(n, box, h, model) for n in (2, 3) for box, h in GRIDS[n] for model in (plain_model, weighted_model)]


@pytest.fixture(params=CASES, ids=lambda c: f"n{c[0]}-h{round(1 / c[2])}-{c[3].__name__}-lo{c[1][0][0]}")
def problem(request):
    n, box, h, model = request.param
    grid = make_grid(box, h)
    rng = np.random.default_rng(CASES.index(request.param))
    u = GridFunction(grid, rng.uniform(-0.5, 3.0, size=grid.shape))
    return model(n), u, rng


def random_ball(grid, rng, R, inside=True):
    lo = np.asarray(grid.lo)
    hi = np.asarray(grid.hi)
    if inside:
        return Ball(tuple(rng.uniform(lo + R, hi - R)), R)
    return Ball(tuple(rng.uniform(lo - R, hi + R)), R)


def face_masks(grid, rng):
    """One mask per face of the grid box: the cells next to that face, thinned at random."""
    masks = []
    for axis in range(grid.n):
        for end in (0, -1):
            mask = np.zeros(grid.cell_shape, dtype=bool)
            index = (slice(None),) * axis + (end,)
            mask[index] = rng.random(mask[index].shape) < 0.5
            mask[index][(0,) * (grid.n - 1)] = True
            masks.append(mask)
    return masks


def regions(grid, rng):
    """Masks and balls covering the cases the bounding box must get right."""
    shape = grid.cell_shape
    single = np.zeros(shape, dtype=bool)
    single[tuple(rng.integers(0, m) for m in shape)] = True
    corner = np.zeros(shape, dtype=bool)
    corner[(-1,) * grid.n] = True
    sub = np.zeros(shape, dtype=bool)
    sub[tuple(slice(1, m // 2) for m in shape)] = True
    out = [
        None,
        np.ones(shape, dtype=bool),
        np.zeros(shape, dtype=bool),
        single,
        corner,
        rng.random(shape) < 0.3,
        sub & (rng.random(shape) < 0.5),
        *face_masks(grid, rng),
        random_ball(grid, rng, 0.23),
        random_ball(grid, rng, 0.31, inside=False),
        random_ball(grid, rng, 0.07, inside=False),
        Ball(tuple(grid.lo), 0.4),
        Ball(tuple(v + 5.0 for v in grid.hi), 0.3),  # misses the grid
        Ball(tuple(0.5 * (a + b) for a, b in zip(grid.lo, grid.hi)), 10.0),  # covers it
    ]
    return out


def tangent_ball(grid, R):
    """A ball touching the lower face of axis 0 and the upper face of the last
    axis, with x0 off the lattice; contains_ball allows the equality."""
    x0 = [0.5 * (a + b) + 0.0123 for a, b in zip(grid.lo, grid.hi)]
    x0[0] = grid.lo[0] + R
    x0[-1] = grid.hi[-1] - R
    ball = Ball(tuple(x0), R)
    assert grid.contains_ball(ball)
    return ball


# ------------------------------------------------------------------ tests


def test_cell_mask_and_energy_match_the_full_grid(problem):
    m, u, rng = problem
    grid = u.grid
    for region in regions(grid, rng):
        assert np.array_equal(cell_mask(grid, region), ref_cell_mask(grid, region))
        assert energy(m, u, region) == ref_energy(m, u, region)
    with pytest.raises(TypeError, match="region"):
        energy(m, u, lambda pts: pts[:, 0] < 0.5)  # predicates are not regions


def test_energy_is_bitwise_the_box_stencil(problem):
    m, u, rng = problem
    grid = u.grid
    extra = [rng.random(grid.cell_shape) < rng.uniform(0.01, 0.9) for _ in range(10)]
    extra += [random_ball(grid, rng, rng.uniform(0.05, 0.5), inside=False) for _ in range(10)]
    # zero lambdas: the u term alone, so that its last bits reach the sums
    u_only = ModelIntegrand(m.exponents, (constant(0.0),) * grid.n, weighted_model(grid.n).mu, 0.8)
    for region in regions(grid, rng) + extra:
        assert energy(m, u, region) == box_energy(m, u, region)
        assert energy(u_only, u, region) == box_energy(u_only, u, region)


def test_density_on_a_box_is_the_full_density_there(problem):
    """Each cell's density, weights and gradient are the same bits whatever
    box they are formed on, which is what lets one density serve every
    region inside its box."""
    m, u, rng = problem
    grid = u.grid
    lam, mu = m.on_cells(grid)
    full = cell_energy(m, grid, u.values, (lam, mu))
    grads = gradient(u)
    for _ in range(10):
        box = []
        for count in grid.cell_shape:
            a, b = sorted(rng.choice(count + 1, size=2, replace=False))
            box.append(slice(int(a), int(b)))
        box = tuple(box)
        lam_box, mu_box = m.on_cells(grid, box)
        assert lam_box.tobytes() == lam[(slice(None),) + box].tobytes()
        assert (mu_box is None) == (mu is None)
        if mu is not None:
            assert mu_box.tobytes() == mu[box].tobytes()
        got = cell_energy(m, grid, u.values[_node_box(box)], (lam_box, mu_box))
        assert np.array_equal(got, full[box])
        assert gradient(u, box).tobytes() == grads[(slice(None),) + box].tobytes()


def test_superlevel_measure_matches_the_full_grid(problem):
    """The nodes of a ball's box (`_ball_cells`) inside the ball, and inside
    the concentric ball of half the radius, which the certificate's
    half-ball sup reads, are the full grid's in row-major order, and so is
    the level measure h^n #{u > k} they give."""
    _, u, rng = problem
    grid = u.grid
    balls = [r for r in regions(grid, rng) if isinstance(r, Ball) and grid.contains_ball(r)]
    balls.append(tangent_ball(grid, 0.3))
    node = tuple(lo + grid.h for lo in grid.lo)
    balls.append(Ball(node, grid.h / 3))  # holds a node but no cell center
    for ball in balls:
        _, _, _, values, dist2 = _ball_cells(u, ball)
        for inner in (ball, Ball(ball.x0, ball.R / 2.0)):
            nodes = values[dist2 < inner.R * inner.R]
            inside = ball_contains(inner, grid.node_points()).reshape(grid.shape)
            assert nodes.tobytes() == u.values[inside].tobytes()
            for k in (-1.0, 0.5, 1.0, 2.2, 5.0):
                measure = int(np.count_nonzero(nodes > k)) * grid.h ** grid.n
                assert measure == ref_superlevel_measure(u, k, inner)


def test_caccioppoli_matches_the_full_grid(problem):
    m, u, rng = problem
    grid = u.grid
    centres = [tangent_ball(grid, 0.35).x0, random_ball(grid, rng, 0.4).x0]
    for x0 in centres:
        for k in (1.0, 1.7, 2.5):
            for rho, R in ((0.1, 0.25), (0.2, 0.35), (0.05, 0.11)):
                if not grid.contains_ball(Ball(x0, R)):
                    continue
                rep = verify_caccioppoli(m, u, k, rho, R, x0)
                lhs, rhs = ref_caccioppoli_sides(m, u, k, rho, R, x0)
                assert rep.lhs == lhs
                assert rep.rhs_structure == rhs


def test_caccioppoli_sweep_matches_the_full_grid_per_triple(problem):
    m, u, rng = problem
    grid = u.grid
    h = grid.h
    # a cell centre as x0 with radii that are multiples of h puts cell
    # centres and nodes exactly on the spheres, and integer data puts cell
    # averages and node values exactly on the levels
    centre = tuple(lo + h * (count // 2 + 0.5) for lo, count in zip(grid.lo, grid.cell_shape))
    cases = [
        (u, tangent_ball(grid, 0.35).x0, (0.05, 0.1, 0.2, 0.3), (0.11, 0.25, 0.35)),
        (u, random_ball(grid, rng, 0.35).x0, (0.05, 0.1, 0.2, 0.3), (0.11, 0.25, 0.35)),
        (GridFunction(grid, np.floor(u.values)), centre, (h, 2 * h, 3 * h), (2 * h, 3 * h)),
    ]
    levels = (1.0, 1.7, 2.0, 2.5)
    for v, x0, rhos, radii in cases:
        uc = _average_to_cells(v.values)
        reports = caccioppoli_sweep(m, v, levels, rhos, radii, x0)
        # the verify command's loop order, pairs with rho >= R skipped
        triples = [(k, rho, R) for k in levels for rho in rhos for R in radii if rho < R]
        assert [(r.context["k"], r.context["rho"], r.context["R"]) for r in reports] == triples
        for rep, (k, rho, R) in zip(reports, triples):
            lhs, rhs = ref_caccioppoli_sides(m, v, k, rho, R, x0)
            assert rep.lhs == lhs
            assert rep.rhs_structure == rhs
            assert rep.lhs == energy(m, v, cell_mask(grid, Ball(x0, rho)) & (uc > k))
            assert rep == verify_caccioppoli(m, v, k, rho, R, x0)


def test_j_sequence_and_half_ball_sup_match_the_full_grid(problem):
    m, u, rng = problem
    grid = u.grid
    e = m.exponents
    balls = [tangent_ball(grid, 0.4), random_ball(grid, rng, 0.3)]
    for ball in balls:
        for d in (2.0, 3.1):
            got = j_sequence(u, ball.x0, ball.R, d, e, H=12)
            assert np.array_equal(got, ref_j_sequence(u, ball.x0, ball.R, d, e, 12))
    if e.admissible:
        ball = balls[0]
        cert = certify(u, ball.x0, ball.R, e, H=12)
        half = Ball(ball.x0, ball.R / 2)
        inside = ball_contains(half, grid.node_points()).reshape(grid.shape)
        assert cert.sup_half_ball == float(np.max(np.abs(u.values[inside])))


@pytest.mark.parametrize("n,h", [(2, 1 / 16), (3, 1 / 8)])
def test_j_sequence_nested_pass_matches_the_full_grid(n, h):
    """Amplitude-6 radial data centred at 1/2 and balls away from that
    centre, so cells leave the super-level sets both through the rising
    levels and through the shrinking radii; 2 <= d < 2 max|u| gives runs with
    J_h > 0 for several steps and then 0. The shifted field covers -u. The
    second ball is centred on a cell centre with R = 1/2: rho_1 = 3/8 and
    rho_2 = 5/16 are multiples of h, so cell centres lie exactly on those
    spheres."""
    grid = make_grid([(-0.5, 1.5)] * n, h)
    e = weighted_model(n).exponents
    centre = 1.0 - h / 2  # a cell centre
    balls = [((1.0,) + (0.9,) * (n - 1), 0.45), ((centre,) + (centre - h,) * (n - 1), 0.5)]
    H = 12
    radial = 6.0 * np.sum((grid.node_points() - 0.5) ** 2, axis=1).reshape(grid.shape)
    some_then_zero = {1: 0, -1: 0}
    for shift in (0.0, 4.0):
        u = GridFunction(grid, radial - shift)
        top = float(np.max(np.abs(u.values)))
        for (x0, R), d in itertools.product(balls, np.geomspace(2.0, 2.0 * top, 12)[:-1]):
            for sign, field in ((1, u), (-1, -u)):
                got = j_sequence(field, x0, R, d, e, H)
                assert got.tobytes() == ref_j_sequence(field, x0, R, d, e, H).tobytes()
                positive = np.count_nonzero(got)
                assert np.all(got[:positive] > 0)  # a run of masses, then zeros
                some_then_zero[sign] += 2 <= positive <= H
    assert min(some_then_zero.values()) >= 4


def ref_ball_norm(u, beta, ball):
    """lp_norm of the full-grid cell average on the ball's cells."""
    return lp_norm(_average_to_cells(u.values)[ref_cell_mask(u.grid, ball)], beta, u.grid)


def test_ball_norms_match_the_full_grid(problem):
    m, u, rng = problem
    grid = u.grid
    e = m.exponents
    balls = [tangent_ball(grid, 0.4), random_ball(grid, rng, 0.3)]
    qs = e.q * conjugate_exponent(e.s)
    for ball in balls:
        _, uc, dist2, _, _ = _ball_cells(u, ball)
        assert lp_norm(uc[dist2 < ball.R * ball.R], qs, grid) == ref_ball_norm(u, qs, ball)
    if e.admissible:
        for ball in balls:
            cert = certify(u, ball.x0, ball.R, e, H=12)
            assert cert.N == ref_ball_norm(u, e.sigma_star, ball)


@pytest.mark.parametrize("n", [2, 3])
def test_every_ball_gather_rejects_a_ball_that_leaves_the_grid(n):
    """j_sequence, certify and the Caccioppoli sweep gather their ball's
    cells through `fields._ball_cells`, which refuses a ball that leaves the
    grid box, whichever side it leaves by."""
    grid = make_grid([(0.0, 1.0)] * n, 1 / 8)
    m = plain_model(n)
    e = m.exponents
    u = GridFunction(grid, 2.0 + np.arange(grid.num_nodes, dtype=float).reshape(grid.shape) / 100)
    for x0 in ((0.1,) * n, (0.5,) * (n - 1) + (0.75,)):
        ball = Ball(x0, 0.3)
        assert not grid.contains_ball(ball)
        calls = [
            lambda: _ball_cells(u, ball),
            lambda: j_sequence(u, ball.x0, ball.R, 4.0, e, 5),
            lambda: certify(u, ball.x0, ball.R, e, H=5),
            lambda: caccioppoli_sweep(m, u, (1.0,), (0.1,), (ball.R,), ball.x0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="ball leaves the grid box"):
                call()
