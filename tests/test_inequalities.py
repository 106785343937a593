import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anibound.exponents import INF, Exponents
from anibound.fields import GridFunction, _average_to_cells, gradient, lp_norm, make_grid
from anibound.inequalities import (
    _make_report,
    caccioppoli_sweep,
    verify_caccioppoli,
    verify_lower_bound,
    verify_sobolev,
)
from anibound.integrand import ModelIntegrand, WeightField
from anibound.minimize import SolveConfig, solve
from conftest import constant, coordinate_field, hat_bump, scaled, simple_model, unit_grid

SUBBOX_2D = ((0.25, 0.75), (0.25, 0.75))


class TestLowerBound:
    def test_constant_field(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        u = GridFunction(g, np.full(g.shape, 3.0))
        rep = verify_lower_bound(m, u, SUBBOX_2D)
        assert rep.lhs == 0.0
        assert rep.passed

    def test_affine_field(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        u = coordinate_field(g)
        rep = verify_lower_bound(m, u, SUBBOX_2D)
        assert rep.passed
        assert rep.c_emp <= 1.0 + 1e-9

    def test_scaling_invariance(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        rng = np.random.default_rng(11)
        u = GridFunction(g, rng.standard_normal(g.shape))
        base = verify_lower_bound(m, u, SUBBOX_2D)
        for t in (0.5, 3.0, 10.0):
            rep = verify_lower_bound(m, scaled(u, t), SUBBOX_2D)
            assert rep.c_emp == pytest.approx(base.c_emp, rel=1e-10)

    def test_outside_grid(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 8)
        u = coordinate_field(g)
        with pytest.raises(ValueError):
            verify_lower_bound(m, u, ((0.0, 2.0), (0.0, 1.0)))


def embedding(u, e):
    """The embedding report of `verify_sobolev` with exponents e; the weights
    only enter the other row, so constant unit weights do."""
    n = u.grid.n
    return verify_sobolev(ModelIntegrand(e, (constant(1.0),) * n, constant(1.0), 0.0), u)[0]


def ref_embedding(u, e):
    """The embedding row's formulas as a verifier of its own."""
    grid = u.grid
    lhs = lp_norm(_average_to_cells(u.values), e.sigma_star, grid)
    grads = gradient(u)
    prod = 1.0
    for i in range(grid.n):
        prod *= lp_norm(grads[i], e.sigma[i], grid)
    return _make_report("embedding", lhs, prod ** (1.0 / grid.n), {})


def ref_poincare_sobolev(m, v):
    """The Poincare-Sobolev row's formulas as a verifier of its own."""
    grid = v.grid
    lhs = lp_norm(_average_to_cells(v.values), m.exponents.sigma_star, grid)
    grads = gradient(v)
    lam, _ = m.on_cells(grid)
    hn = grid.h ** grid.n
    prod = 1.0
    for i in range(grid.n):
        wnorm = lp_norm(1.0 / lam[i], m.exponents.r[i], grid)
        integral = float(np.sum(lam[i] * np.abs(grads[i]) ** m.exponents.p[i]) * hn)
        prod *= (wnorm * integral) ** (1.0 / m.exponents.p[i])
    return _make_report("poincare_sobolev", lhs, prod ** (1.0 / grid.n), {})


class TestEmbedding:
    def test_zero_field(self):
        g = unit_grid(3, 1 / 8)
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        u = GridFunction(g, np.zeros(g.shape))
        rep = embedding(u, e)
        assert rep.lhs == 0.0 and rep.c_emp == 0.0

    def test_hat_bump_finite(self):
        g = unit_grid(3, 1 / 8)
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        rep = embedding(hat_bump(g), e)
        assert rep.lhs > 0.0
        assert math.isfinite(rep.c_emp)

    def test_scaling_invariance(self):
        g = unit_grid(3, 1 / 8)
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        base = embedding(hat_bump(g), e)
        for t in (0.5, 3.0, 10.0):
            rep = embedding(hat_bump(g, amplitude=t), e)
            assert rep.c_emp == pytest.approx(base.c_emp, rel=1e-10)

    def test_requires_sigma_below_n(self):
        g = unit_grid(2, 1 / 8)
        e = Exponents(2, (2, 2), 2, 2, (INF,) * 2, INF)
        with pytest.raises(ValueError):
            embedding(hat_bump(g), e)

    def test_requires_vanishing_boundary(self):
        g = unit_grid(3, 1 / 4)
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        with pytest.raises(ValueError):
            embedding(coordinate_field(g), e)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_boundary_node_is_checked(self, n):
        # one nonzero node on a face (low or high end of each axis) is
        # refused; the same value one node inside is not
        g = make_grid([(0.1, 0.7)] * n, 0.1)
        e = simple_model(n, p=1.5).exponents
        middle = [m // 2 for m in g.shape]
        for axis, end in itertools.product(range(n), (0, -1)):
            for index, refused in ((end, True), (1 if end == 0 else -2, False)):
                values = np.zeros(g.shape)
                values[tuple(middle[:axis] + [index] + middle[axis + 1:])] = 1.0
                if refused:
                    with pytest.raises(ValueError, match="vanish on the grid boundary"):
                        embedding(GridFunction(g, values), e)
                else:
                    assert embedding(GridFunction(g, values), e).lhs > 0.0


class TestPoincareSobolev:
    def test_zero_field(self):
        g = unit_grid(3, 1 / 8)
        m = simple_model(3)
        u = GridFunction(g, np.zeros(g.shape))
        _, rep = verify_sobolev(m, u)
        assert rep.lhs == 0.0

    def test_collapse_to_embedding(self):
        # lambda_i = 1, r_i = inf: the weighted bound coincides with the embedding
        g = unit_grid(3, 1 / 8)
        m = simple_model(3)
        rep_e, rep_p = verify_sobolev(m, hat_bump(g))
        assert rep_p.c_emp == pytest.approx(rep_e.c_emp, rel=1e-10)

    def test_scaling_invariance(self):
        g = unit_grid(3, 1 / 8)
        m = simple_model(3, p=2.0, q=2.5, gamma=2.5, r=6.0, s=6.0)
        _, base = verify_sobolev(m, hat_bump(g))
        for t in (0.5, 3.0, 10.0):
            _, rep = verify_sobolev(m, hat_bump(g, amplitude=t))
            assert rep.c_emp == pytest.approx(base.c_emp, rel=1e-10)


def power_weight(center, exponent):
    return WeightField("power", amplitude=1.0, center=center, exponent=exponent)


@pytest.mark.parametrize(
    "m, box, h",
    [
        # p_i < 2, a singular power weight on a box whose far nodes miss
        # 0.7 by rounding
        (ModelIntegrand(
            Exponents(2, (1.5, 1.8), 1.8, 1.8, (4.0, INF), INF),
            (power_weight((0.3, 0.45), 0.4), constant(2.0)), constant(1.0), 0.0,
        ), [(0.1, 0.7)] * 2, 0.05),
        (ModelIntegrand(
            Exponents(3, (2.0, 2.0, 2.0), 2.0, 3.0, (4.0, 4.0, 4.0), INF),
            (power_weight((0.25, 0.25, 0.25), 0.4), constant(1.0), constant(3.0)),
            power_weight((0.75, 0.5, 0.5), 1.5), 1.0,
        ), [(0.0, 1.0)] * 3, 1 / 8),
    ],
    ids=["weighted2d", "weighted3d"],
)
def test_sobolev_rows_match_the_separate_formulas_bitwise(m, box, h):
    grid = make_grid(box, h)
    rng = np.random.default_rng(grid.n)
    noisy = rng.uniform(0.5, 1.5, size=grid.shape) * hat_bump(grid, 3.0).values
    for v in (hat_bump(grid), GridFunction(grid, noisy)):
        rep_e, rep_p = verify_sobolev(m, v)
        assert rep_e == ref_embedding(v, m.exponents)
        assert rep_p == ref_poincare_sobolev(m, v)
        assert rep_e.lhs > 0.0 and rep_p.rhs_structure > 0.0


@pytest.fixture(scope="module")
def minimizer():
    m = simple_model(2)
    g = unit_grid(2, 1 / 32)
    init = scaled(coordinate_field(g), 3.0)
    res = solve(m, g, init, SolveConfig())
    return m, res.u


class TestCaccioppoli:

    def test_empty_level_sets(self, minimizer):
        m, u = minimizer
        rep = verify_caccioppoli(m, u, 10.0, 0.2, 0.4, (0.5, 0.5))
        assert rep.lhs == 0.0 and rep.rhs_structure == 0.0
        assert rep.passed

    def test_finite_constant(self, minimizer):
        m, u = minimizer
        rep = verify_caccioppoli(m, u, 1.0, 0.2, 0.4, (0.5, 0.5))
        assert rep.lhs > 0.0
        assert math.isfinite(rep.c_emp)

    def test_lhs_monotone_in_level(self, minimizer):
        m, u = minimizer
        reps = [
            verify_caccioppoli(m, u, k, 0.2, 0.4, (0.5, 0.5)) for k in (1.0, 1.5, 2.0)
        ]
        assert all(a.lhs >= b.lhs for a, b in zip(reps, reps[1:]))

    def test_geometry_guards(self, minimizer):
        m, u = minimizer
        with pytest.raises(ValueError):
            verify_caccioppoli(m, u, 1.0, 0.4, 0.2, (0.5, 0.5))
        with pytest.raises(ValueError):
            verify_caccioppoli(m, u, 0.5, 0.2, 0.4, (0.5, 0.5))
        with pytest.raises(ValueError):
            verify_caccioppoli(m, u, 1.0, 0.2, 0.9, (0.5, 0.5))

    def test_sweep_guards(self, minimizer):
        m, u = minimizer
        x0 = (0.5, 0.5)
        with pytest.raises(ValueError, match="k >= 1"):
            caccioppoli_sweep(m, u, (1.0, 0.5), (0.2,), (0.4,), x0)
        with pytest.raises(ValueError, match="0 < rho"):
            caccioppoli_sweep(m, u, (1.0,), (0.2, 0.0), (0.4,), x0)
        with pytest.raises(ValueError, match="0 < rho"):
            caccioppoli_sweep(m, u, (1.0,), (-0.1,), (0.4,), x0)
        with pytest.raises(ValueError, match="leaves the grid"):
            caccioppoli_sweep(m, u, (1.0,), (0.2,), (0.4, 0.6), x0)

    def test_sweep_skips_rho_at_least_R(self, minimizer):
        m, u = minimizer
        x0 = (0.5, 0.5)
        reps = caccioppoli_sweep(m, u, (1.0, 1.5), (0.2, 0.3, 0.4), (0.25, 0.3), x0)
        assert [(r.context["k"], r.context["rho"], r.context["R"]) for r in reps] == [
            (1.0, 0.2, 0.25), (1.0, 0.2, 0.3), (1.5, 0.2, 0.25), (1.5, 0.2, 0.3)
        ]
        # only skipped pairs: nothing is checked, as the verify command never
        # checked a triple it skipped
        assert caccioppoli_sweep(m, u, (0.5,), (0.4,), (0.2, 0.4), x0) == []
        assert caccioppoli_sweep(m, u, (), (0.2,), (0.4,), x0) == []


# ------------------------------------------------ properties (ROADMAP item 7)

GRID_STEP = 1 / 8
# power-weight centres on a lattice of side h/8: a centre is a cell centre
# (and the sample is shifted) or at least h/8 from every one, so 1/lambda
# never overflows its norm
CENTRE = st.integers(0, 64).map(lambda j: j / 64)


@st.composite
def random_problems(draw):
    """A model with constant or power lambda_i, r_i finite or inf, s finite
    or inf, with or without a u term, and nodal data an affine field plus
    noise, on the unit square or cube at h = 1/8."""
    n = draw(st.sampled_from((2, 3)))
    grid = unit_grid(n, GRID_STEP)
    p = tuple(draw(st.floats(1.05, 3.0)) for _ in range(n))
    q = max(p)
    # every r_i that Exponents accepts, so sigma_i may fall below 1, where
    # the lower bound's norm of D_i u is the L^{sigma_i} quasi-norm
    r = tuple(draw(st.one_of(st.just(INF), st.floats(1.0, 11.0))) for _ in p)
    s = draw(st.one_of(st.just(INF), st.floats(1.1, 10.0)))
    e = Exponents(n, p, q, draw(st.floats(q, q + 2.0)), r, s)

    def weight(r_i):
        amplitude = draw(st.floats(0.1, 10.0))
        if draw(st.booleans()):
            return constant(amplitude)
        top = 1.0 if math.isinf(r_i) else min(1.0, 0.9 * n / r_i)  # 1/lambda in L^{r_i}
        centre = tuple(draw(CENTRE) for _ in range(n))
        return WeightField("power", amplitude, centre, draw(st.floats(-1.0, top)))

    lambdas = tuple(weight(r_i) for r_i in r)
    u_coeff = draw(st.sampled_from((0.0, 0.5, 3.0)))
    m = ModelIntegrand(e, lambdas, weight(INF), u_coeff)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = rng.uniform(-4.0, 4.0, size=n)
    noise = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    values = draw(st.floats(-1.0, 3.0)) + grid.node_points() @ slope
    values += noise * rng.standard_normal(grid.num_nodes)
    return m, GridFunction(grid, values.reshape(grid.shape))


@settings(deadline=None)
@given(random_problems(), st.data())
def test_lower_bound_is_at_most_one_over_n(problem, data):
    """Hoelder puts ||D_i u||_{sigma_i}^{p_i} below ||1/lambda_i||_{r_i} times
    the integral of lambda_i |D_i u|^{p_i}, and Jensen puts the cell gradient's
    power below the edge-stencil mean, so each axis's term is at most its
    share of the energy and the row, which divides their sum by n, has
    c_emp <= 1/n for every u: the row cannot fail."""
    m, u = problem
    n = u.grid.n
    subbox = []
    for _ in range(n):
        lo = data.draw(st.floats(0.0, 0.7))
        subbox.append((lo, data.draw(st.floats(lo + 0.2, 1.0))))  # wider than h: a centre
    rep = verify_lower_bound(m, u, tuple(subbox))
    assert rep.c_emp <= (1.0 / n) * (1.0 + 1e-12)
    assert rep.passed


@settings(deadline=None)
@given(random_problems(), st.data())
def test_caccioppoli_rows_have_a_positive_finite_rhs(problem, data):
    """A row with lhs > 0 has a cell of B_rho, so of B_R, above k; there the
    first term is at least mu_tilde k^gamma h^n > 0, since lambda_i > 0 and
    k >= 1. So every row has 0 < rhs_structure < inf or lhs = 0, and no row
    can fail short of an overflow."""
    m, u = problem
    R = data.draw(st.floats(0.2, 0.45))
    x0 = tuple(data.draw(st.floats(R, 1.0 - R)) for _ in range(u.grid.n))
    levels = data.draw(st.lists(st.floats(1.0, 3.0), min_size=1, max_size=3))
    rhos = data.draw(st.lists(st.floats(GRID_STEP, 0.95 * R), min_size=1, max_size=3))
    radii = (R, data.draw(st.floats(0.5 * R, R)))
    reports = caccioppoli_sweep(m, u, levels, rhos, radii, x0)
    assert reports
    for rep in reports:
        if rep.lhs > 0.0:
            assert 0.0 < rep.rhs_structure < math.inf
        assert rep.passed
