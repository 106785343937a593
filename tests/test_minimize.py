import hashlib

import numpy as np
import pytest

from anibound.config import BoundarySpec
from anibound.exponents import INF, Exponents
from anibound.fields import GridFunction, make_grid
from anibound.integrand import ModelIntegrand, WeightField
from anibound.minimize import (
    SolveConfig,
    _DiscreteEnergy,
    random_perturbations,
    solve,
    verify_quasiminimality,
)
from conftest import constant, coordinate_field, simple_model, unit_grid


def weighted_1d_model():
    e = Exponents(1, (2.0,), 2.0, 2.0, (INF,), INF)
    lam = WeightField("power", amplitude=1.0, center=(0.0,), exponent=0.5)
    return ModelIntegrand(e, (lam,), WeightField("constant"), 0.0)


def aniso2d_model():
    """p = (1.5, 1.8), q = gamma = 1.8, unit weights, no u term."""
    e = Exponents(2, (1.5, 1.8), 1.8, 1.8, (INF, INF), INF)
    return ModelIntegrand(e, (constant(1.0),) * 2, constant(1.0), 0.0)


def weighted_u_term_model():
    """p = 2 with a power-law lambda_1 and the u_coeff * mu * |u|^3 term."""
    e = Exponents(2, (2.0, 2.0), 2.0, 3.0, (INF, INF), INF)
    lam1 = WeightField("power", amplitude=1.0, center=(0.3, 0.3), exponent=0.5)
    mu = WeightField("power", amplitude=2.0, center=(0.7, 0.4), exponent=1.0)
    return ModelIntegrand(e, (lam1, constant(1.0)), mu, 1.0)


def radial_data(grid, amplitude=3.0):
    """Nodal amplitude * |x - c|^2 with c the centre of the unit box."""
    bnd = BoundarySpec("radial", center=(0.5,) * grid.n, amplitude=amplitude, exponent=2.0)
    return GridFunction(grid, bnd(grid.node_points()).reshape(grid.shape))


# (model, eps) for the three branches of the discrete energy: |t|^p smoothed
# at eps = h^2 for p_i < 2, plain |t|^2, and the weighted |u|^gamma term.
H_SMALL = 1 / 4
BRANCHES = {
    "smoothed_p_lt_2": (aniso2d_model, H_SMALL ** 2),
    "p_2": (lambda: simple_model(2), 0.0),
    "u_term_power_lambda": (weighted_u_term_model, 0.0),
}


class TestDiscreteEnergy:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_gradient_matches_central_differences(self, branch):
        make_model, eps = BRANCHES[branch]
        g = unit_grid(2, H_SMALL)
        prob = _DiscreteEnergy(make_model(), g, eps)
        u = np.random.default_rng(5).uniform(-1.0, 1.0, g.shape)
        grad = prob.gradient(prob.evaluate(u)[1])
        delta = 1e-6
        fd = np.empty(g.shape)
        for idx in np.ndindex(*g.shape):
            up, um = u.copy(), u.copy()
            up[idx] += delta
            um[idx] -= delta
            fd[idx] = (prob.evaluate(up)[0] - prob.evaluate(um)[0]) / (2 * delta)
        assert np.max(np.abs(grad)) > 1e-3
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_kept_trial_state_gives_the_fresh_gradient_bitwise(self, branch):
        make_model, eps = BRANCHES[branch]
        g = unit_grid(2, H_SMALL)
        prob = _DiscreteEnergy(make_model(), g, eps)
        u = radial_data(g).values.copy()
        u[1:-1, 1:-1] += np.random.default_rng(6).uniform(-0.5, 0.5, (3, 3))
        step = prob.gradient(prob.evaluate(u)[1])
        accepted = u - 0.25 * step
        e_kept, kept = prob.evaluate(accepted)
        prob.evaluate(u - 0.5 * step)  # a later trial must not disturb the kept state
        e_fresh, fresh = prob.evaluate(accepted.copy())
        assert e_kept == e_fresh
        assert np.array_equal(prob.gradient(kept), prob.gradient(fresh))


class TestSolve:
    def test_1d_affine(self):
        m = simple_model(1)
        g = unit_grid(1, 1 / 256)
        res = solve(m, g, coordinate_field(g), SolveConfig())
        assert res.converged
        x = g.node_points()[:, 0]
        assert np.max(np.abs(res.u.values - x)) <= 1e-8

    def test_1d_weighted_sqrt(self):
        m = weighted_1d_model()
        g = unit_grid(1, 1 / 256)
        res = solve(m, g, coordinate_field(g), SolveConfig(max_iters=30_000, grad_tol=1e-5))
        assert res.converged
        x = g.node_points()[:, 0]
        assert np.max(np.abs(res.u.values - np.sqrt(x))) <= 5.0 * g.h

    def test_2d_harmonic_affine(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        res = solve(m, g, coordinate_field(g), SolveConfig())
        assert res.converged
        x = g.node_points()[:, 0].reshape(g.shape)
        assert np.max(np.abs(res.u.values - x)) <= 1e-8

    def test_energy_decreases(self):
        m = simple_model(2, u_coeff=1.0)
        g = unit_grid(2, 1 / 8)
        rng = np.random.default_rng(7)
        init = GridFunction(g, rng.standard_normal(g.shape))
        res = solve(m, g, init, SolveConfig(max_iters=50))
        from anibound.integrand import energy

        assert res.final_energy <= energy(m, init) + 1e-12

    def test_non_convergence_flag(self):
        m = weighted_1d_model()
        g = unit_grid(1, 1 / 64)
        cfg = SolveConfig(max_iters=1, grad_tol=1e-14)
        res = solve(m, g, coordinate_field(g), cfg)
        assert not res.converged

    def test_deterministic(self):
        m = simple_model(2, u_coeff=1.0, gamma=3.0)
        g = unit_grid(2, 1 / 8)
        init = coordinate_field(g)
        r1 = solve(m, g, init, SolveConfig(max_iters=200))
        r2 = solve(m, g, init, SolveConfig(max_iters=200))
        assert np.array_equal(r1.u.values, r2.u.values)
        assert r1.final_energy == r2.final_energy


class TestQuasiMinimality:
    def test_minimizer_passes(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        res = solve(m, g, coordinate_field(g), SolveConfig())
        phis = random_perturbations(g, 100, seed=1)
        rep = verify_quasiminimality(m, res.u, 1.0, phis)
        assert rep.all_pass
        assert rep.empirical_Q <= 1.0 + 1e-9

    def test_zero_perturbation(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 8)
        u = coordinate_field(g)
        phi = GridFunction(g, np.zeros(g.shape))
        rep = verify_quasiminimality(m, u, 1.0, [phi])
        assert rep.all_pass

    def test_non_minimizer_fails(self):
        m = simple_model(2)
        g = unit_grid(2, 1 / 16)
        res = solve(m, g, coordinate_field(g), SolveConfig())
        bump = random_perturbations(g, 1, seed=2, amplitude=0.5)[0]
        bad = GridFunction(g, res.u.values + bump.values)
        correction = GridFunction(g, res.u.values - bad.values)
        rep = verify_quasiminimality(m, bad, 1.0, [correction])
        assert not rep.all_pass

    def test_perturbations_seeded(self):
        g = unit_grid(2, 1 / 8)
        a = random_perturbations(g, 5, seed=3)
        b = random_perturbations(g, 5, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)

    @pytest.mark.parametrize(
        "box,h,digest",
        [
            ([(0.0, 1.0)] * 3, 1 / 8, "4b6116dcd0d5dc3f2765bc4a4da063f664063e36"),
            ([(-0.5, 1.0), (0.0, 2.0)], 1 / 16, "fc0e96abd6796082b6902ebea6b429c2956e7fae"),
        ],
    )
    def test_perturbations_pinned(self, box, h, digest):
        # the 32 bumps cmd_minimize draws: rng order a_0, b_0, a_1, b_1, ..., amp
        sha = hashlib.sha1()
        for phi in random_perturbations(make_grid(box, h), 32, seed=0):
            sha.update(phi.values.tobytes())
        assert sha.hexdigest() == digest


class TestTrajectoryPins:
    """Solver trajectories pinned exactly: iteration count, final energy,
    residual and the bytes of the minimizer.  Any change to the arithmetic of
    the energy, its gradient or the line search, or to its order, shows here."""

    CFG = SolveConfig(max_iters=20_000, grad_tol=1e-6)

    @staticmethod
    def sha1(res):
        return hashlib.sha1(res.u.values.tobytes()).hexdigest()

    def test_aniso2d_radial_h16(self):
        g = unit_grid(2, 1 / 16)
        res = solve(aniso2d_model(), g, radial_data(g), self.CFG)
        assert res.converged
        assert res.iterations == 836
        assert res.final_energy == 0.8744924178567419
        assert res.residual == 7.22900609595456e-07
        assert self.sha1(res) == "27078cd6b9b1978dd1a11d3ae283ea482ec62460"

    def test_gamma3_u_term_radial3d_h8(self):
        g = unit_grid(3, 1 / 8)
        m = simple_model(3, gamma=3.0, u_coeff=1.0)
        res = solve(m, g, radial_data(g), self.CFG)
        assert res.converged
        assert res.iterations == 142
        assert res.final_energy == 3.8685710327426035
        assert res.residual == 7.625073257244708e-07
        assert self.sha1(res) == "69c028d9a9fd0fdf3390e388b18cc027965b589d"
