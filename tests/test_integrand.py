import numpy as np
import pytest

from anibound.exponents import INF, Exponents
from anibound.fields import GridFunction
from anibound.integrand import ModelIntegrand, WeightField, cell_energy, energy
from anibound.minimize import _DiscreteEnergy
from conftest import (
    cell_centers,
    constant,
    coordinate_field,
    eval_integrand,
    lambda_values,
    mu_tilde,
    simple_model,
    unit_grid,
)


def growth_violations(m, x, u, xi):
    """Largest excess of the lower envelope sum_i lambda_i |xi_i|^p_i over f,
    and of f over mu_tilde (|xi|^q + |u|^gamma + 1), on the samples; the
    certificate's upper weight is valid when both are <= 0."""
    e = m.exponents
    f = eval_integrand(m, x, u, xi)
    lower = np.sum(lambda_values(m, x) * np.abs(xi) ** np.asarray(e.p)[:, None], axis=0)
    upper = mu_tilde(m, x) * (
        np.linalg.norm(xi, axis=0) ** e.q + np.abs(u) ** e.gamma + 1.0
    )
    return float(np.max(lower - f)), float(np.max(f - upper))


def midpoint_convexity_gap(m, x, a, b):
    """Largest f(mid) - (f(a) + f(b)) / 2 over states a = (u, xi), b at common x."""
    mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    fa, fb, fm = (eval_integrand(m, x, *state) for state in (a, b, mid))
    return float(np.max(fm - 0.5 * (fa + fb)))


class TestEvalIntegrand:
    def test_reference_value(self):
        m = simple_model(2, u_coeff=1.0)
        val = eval_integrand(m, [(0.3, 0.4)], [1.0], [[1.0], [1.0]])
        assert val[0] == pytest.approx(3.0)

    def test_zero_state(self):
        m = simple_model(2, u_coeff=1.0)
        assert eval_integrand(m, [(0.3, 0.4)], [0.0], [[0.0], [0.0]])[0] == 0.0

    def test_quadratic_homogeneity(self):
        m = simple_model(2)
        v1 = eval_integrand(m, [(0.1, 0.9)], [0.0], [[1.0], [2.0]])[0]
        v2 = eval_integrand(m, [(0.1, 0.9)], [0.0], [[2.0], [4.0]])[0]
        assert v2 == pytest.approx(4.0 * v1)

    def test_nonnegative_random(self, rng):
        m = simple_model(3, p=1.5, q=2.0, gamma=3.0, u_coeff=0.7)
        x = rng.uniform(0, 1, size=(100, 3))
        u = rng.standard_normal(100)
        xi = rng.standard_normal((3, 100))
        assert np.all(eval_integrand(m, x, u, xi) >= 0.0)


class TestWeights:
    def test_power_weight(self):
        w = WeightField("power", amplitude=2.0, center=(0.0, 0.0), exponent=2.0)
        vals = w(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert vals == pytest.approx([2.0, 8.0])

    def test_singularity_shift(self):
        w = WeightField("power", amplitude=1.0, center=(0.5, 0.5), exponent=-0.5)
        vals = w(np.array([[0.5, 0.5]]), h=0.25)
        assert np.isfinite(vals[0])
        assert vals[0] == pytest.approx(0.125 ** -0.5)

    def test_integrability_guard(self):
        e = Exponents(2, (2, 2), 2, 2, (4, 4), 4)
        bad = WeightField("power", amplitude=1.0, center=(0.5, 0.5), exponent=0.6)
        with pytest.raises(ValueError):
            ModelIntegrand(e, (bad, WeightField("constant")), WeightField("constant"), 0.0)


class TestGrowth:
    def test_lower_equality_without_u_term(self, rng):
        m = simple_model(2)
        lower, upper = growth_violations(
            m, rng.uniform(0, 1, size=(50, 2)), rng.standard_normal(50), rng.standard_normal((2, 50))
        )
        assert lower == 0.0
        assert upper <= 1e-12

    def test_random_sandwich(self, rng):
        m = simple_model(3, p=1.5, q=2.5, gamma=3.0, u_coeff=0.5)
        lower, upper = growth_violations(
            m,
            rng.uniform(0, 1, size=(1000, 3)),
            3.0 * rng.standard_normal(1000),
            3.0 * rng.standard_normal((3, 1000)),
        )
        assert lower <= 1e-12 and upper <= 1e-12

    def test_small_gradient(self, rng):
        m = simple_model(2, u_coeff=1.0)
        lower, upper = growth_violations(
            m,
            rng.uniform(0, 1, size=(200, 2)),
            rng.standard_normal(200),
            rng.uniform(-1, 1, size=(2, 200)),
        )
        assert lower <= 1e-12 and upper <= 1e-12


class TestConvexity:
    def test_equal_states(self, rng):
        m = simple_model(2, u_coeff=1.0)
        x = rng.uniform(0, 1, size=(10, 2))
        a = (rng.standard_normal(10), rng.standard_normal((2, 10)))
        assert midpoint_convexity_gap(m, x, a, a) <= 1e-15

    def test_even_symmetry(self):
        m = simple_model(2, u_coeff=1.0)
        x = np.array([[0.3, 0.7]])
        u = np.array([1.5])
        xi = np.array([[0.7], [-0.2]])
        f0 = eval_integrand(m, x, [0.0], [[0.0], [0.0]])[0]
        fa = eval_integrand(m, x, u, xi)[0]
        assert f0 <= fa

    def test_random_pairs(self, rng):
        m = simple_model(3, p=1.7, q=2.2, gamma=2.8, u_coeff=0.4)
        for _ in range(100):
            x = rng.uniform(0, 1, size=(10, 3))
            a = (rng.standard_normal(10), rng.standard_normal((3, 10)))
            b = (rng.standard_normal(10), rng.standard_normal((3, 10)))
            assert midpoint_convexity_gap(m, x, a, b) <= 1e-12


class TestEnergy:
    def test_affine_dirichlet_energy(self):
        m = simple_model(2)
        g = unit_grid(2, 0.0625)
        u = coordinate_field(g, axis=0)
        assert energy(m, u) == pytest.approx(1.0, rel=1e-12)

    def test_zero_field(self):
        m = simple_model(2, u_coeff=1.0)
        g = unit_grid(2, 0.125)
        u = GridFunction(g, np.zeros(g.shape))
        assert energy(m, u) == 0.0

    def test_1d_affine(self):
        m = simple_model(1)
        g = unit_grid(1, 1 / 256)
        u = coordinate_field(g)
        assert energy(m, u) == pytest.approx(1.0, rel=1e-12)

    def test_additive_over_disjoint_regions(self, rng):
        m = simple_model(2, u_coeff=1.0, gamma=2.0)
        g = unit_grid(2, 0.125)
        u = GridFunction(g, rng.standard_normal(g.shape))
        centers = cell_centers(g)
        left = (centers[:, 0] < 0.5).reshape(g.cell_shape)
        total = energy(m, u)
        assert energy(m, u, left) + energy(m, u, ~left) == pytest.approx(total, rel=1e-12)

    def test_nodal_midpoint_convexity(self, rng):
        m = simple_model(2, p=1.8, q=2.0, gamma=2.5, u_coeff=0.6)
        g = unit_grid(2, 0.25)
        for _ in range(25):
            a = GridFunction(g, rng.standard_normal(g.shape))
            b = GridFunction(g, rng.standard_normal(g.shape))
            mid = GridFunction(g, 0.5 * (a.values + b.values))
            assert energy(m, mid) <= 0.5 * (energy(m, a) + energy(m, b)) + 1e-12


class TestEnergyMatchesSolver:
    """energy() and the solver's discrete energy shift a sample on a weight's
    singular center by the same h/2, so they agree whether or not a cell
    center hits it."""

    @pytest.mark.parametrize("center", [(0.5625, 0.5625), (0.5, 0.5)], ids=["hit", "no-hit"])
    def test_singular_weights(self, center, rng):
        e = Exponents(2, (2.0, 2.0), 2.0, 3.0, (INF, INF), INF)
        lam1 = WeightField("power", amplitude=1.0, center=center, exponent=-0.5)
        mu = WeightField("power", amplitude=2.0, center=center, exponent=-0.4)
        g = unit_grid(2, 1 / 8)
        u = GridFunction(g, rng.standard_normal(g.shape))
        for u_coeff in (0.0, 1.0):
            m = ModelIntegrand(e, (lam1, WeightField("constant")), mu, u_coeff)
            solver_energy, _ = _DiscreteEnergy(m, g, 0.0).evaluate(u.values)
            assert energy(m, u) == pytest.approx(solver_energy, rel=1e-12, abs=0.0)


class TestCellEnergy:
    """The per-cell density summed over every cell is the solver's energy
    without smoothing: one stencil, read per cell or per edge."""

    @pytest.mark.parametrize("u_coeff", [0.0, 0.8], ids=["no-u-term", "u-term"])
    @pytest.mark.parametrize("n,h", [(2, 1 / 16), (3, 1 / 8)])
    def test_sum_is_the_solver_energy(self, n, h, u_coeff, rng):
        e = Exponents(n, (1.6, 2.0, 2.5)[:n], 2.5, 3.0, (INF,) * n, INF)
        lam1 = WeightField("power", amplitude=1.5, center=(0.3,) * n, exponent=0.4)
        mu = WeightField("power", amplitude=2.0, center=(0.7,) * n, exponent=1.5)
        m = ModelIntegrand(e, (lam1,) + (constant(0.5),) * (n - 1), mu, u_coeff)
        g = unit_grid(n, h)
        values = rng.uniform(-2.0, 2.0, size=g.shape)
        density = cell_energy(m, g, values, m.on_cells(g))
        assert density.shape == g.cell_shape
        assert np.all(density >= 0.0)
        solver_energy, _ = _DiscreteEnergy(m, g, 0.0).evaluate(values)
        total = float(np.sum(density)) * g.h ** g.n
        assert total == pytest.approx(solver_energy, rel=1e-13, abs=0.0)
        assert energy(m, GridFunction(g, values)) == float(np.sum(density) * g.h ** g.n)
