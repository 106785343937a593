import functools
import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anibound.config import BoundarySpec, load_config
from anibound.exponents import INF, Exponents
from anibound.fields import (
    GridFunction,
    _average_to_cells,
    _average_to_cells_transpose,
    _ends,
    _tensor_hat,
    make_grid,
)
from anibound import minimize
from anibound.integrand import ModelIntegrand, WeightField, cell_energy, energy
from anibound.minimize import (
    SolveConfig,
    _DiscreteEnergy,
    random_perturbations,
    solve,
    verify_quasiminimality,
)
from conftest import (
    constant,
    coordinate_field,
    simple_model,
    unit_grid,
)


def weighted_1d_model():
    e = Exponents(1, (2.0,), 2.0, 2.0, (INF,), INF)
    lam = WeightField("power", amplitude=1.0, center=(0.0,), exponent=0.5)
    return ModelIntegrand(e, (lam,), WeightField("constant"), 0.0)


def aniso2d_model():
    """p = (1.5, 1.8), q = gamma = 1.8, unit weights, no u term."""
    e = Exponents(2, (1.5, 1.8), 1.8, 1.8, (INF, INF), INF)
    return ModelIntegrand(e, (constant(1.0),) * 2, constant(1.0), 0.0)


def p_near_1_model():
    """p = (1.1, 1.3), q = gamma = 1.3, unit weights, no u term."""
    e = Exponents(2, (1.1, 1.3), 1.3, 1.3, (INF, INF), INF)
    return ModelIntegrand(e, (constant(1.0),) * 2, constant(1.0), 0.0)


def weighted_u_term_model(n=2):
    """p = 2 with a power-law lambda_1 and the u_coeff * mu * |u|^3 term."""
    e = Exponents(n, (2.0,) * n, 2.0, 3.0, (INF,) * n, INF)
    lam1 = WeightField("power", amplitude=1.0, center=(0.3,) * n, exponent=0.5)
    mu = WeightField("power", amplitude=2.0, center=(0.7,) + (0.4,) * (n - 1), exponent=1.0)
    return ModelIntegrand(e, (lam1,) + (constant(1.0),) * (n - 1), mu, 1.0)


def radial_data(grid, amplitude=3.0):
    """Nodal amplitude * |x - c|^2 with c the centre of the unit box."""
    bnd = BoundarySpec("radial", center=(0.5,) * grid.n, amplitude=amplitude, exponent=2.0)
    return GridFunction(grid, bnd(grid.node_points()).reshape(grid.shape))


def weighted_u_term_3d_model():
    """p = (1.6, 2, 1.8), a power-law lambda_1 and the u_coeff * mu * |u|^2.5
    term with a power-law mu."""
    e = Exponents(3, (1.6, 2.0, 1.8), 2.0, 2.5, (INF,) * 3, INF)
    lam1 = WeightField("power", amplitude=1.5, center=(0.3,) * 3, exponent=0.4)
    mu = WeightField("power", amplitude=2.0, center=(0.7, 0.4, 0.4), exponent=1.5)
    return ModelIntegrand(e, (lam1, constant(0.5), constant(0.5)), mu, 0.8)


def p_gt_2_model():
    """p = (2.5, 3), q = gamma = 3, a power-law lambda_1, no u term."""
    e = Exponents(2, (2.5, 3.0), 3.0, 3.0, (INF, INF), INF)
    lam1 = WeightField("power", amplitude=1.0, center=(0.3, 0.3), exponent=0.5)
    return ModelIntegrand(e, (lam1, constant(1.0)), constant(1.0), 0.0)


def gamma_lt_2_model(lam=1.0):
    """p = (1.5, 1.6), q = gamma = 1.8, constant lambda_i = lam, and the
    u_coeff * mu * |u|^gamma term with a power-law mu."""
    e = Exponents(2, (1.5, 1.6), 1.8, 1.8, (INF, INF), INF)
    mu = WeightField("power", amplitude=2.0, center=(0.7, 0.4), exponent=1.0)
    return ModelIntegrand(e, (constant(lam),) * 2, mu, 1.0)


# (model, eps) for the three branches of the discrete energy: |t|^p smoothed
# at eps = h^2 for p_i < 2, plain |t|^2, and the weighted |u|^gamma term.
H_SMALL = 1 / 4
BRANCHES = {
    "smoothed_p_lt_2": (aniso2d_model, H_SMALL ** 2),
    "p_2": (lambda: simple_model(2), 0.0),
    "u_term_power_lambda": (weighted_u_term_model, 0.0),
}

# Branches on which the Newton model is the exact Hessian: p = 2, p > 2 and
# the |u|^gamma term with gamma >= 2 (gamma = 3, and gamma = 2 next to p > 2).
EXACT_CURVATURE = {
    "p_2": lambda: simple_model(2),
    "p_gt_2": p_gt_2_model,
    "u_term_gamma_3": weighted_u_term_model,
    "u_term_gamma_2_p_gt_2": lambda: simple_model(2, p=2.5, gamma=2.5, u_coeff=1.0),
}
# Branches on which it majorizes the Hessian: smoothed p_i < 2, and gamma < 2
# with lambda_i = 0, so the u term alone.
MAJORIZED = {
    "smoothed_p_lt_2": aniso2d_model,
    "u_term_gamma_lt_2": lambda: gamma_lt_2_model(lam=0.0),
}


def hessian_fd(prob, u, v, delta=1e-6):
    """Central difference of the gradient along v."""
    gp = prob.gradient(prob.evaluate(u + delta * v)[1])
    gm = prob.gradient(prob.evaluate(u - delta * v)[1])
    return (gp - gm) / (2 * delta)


def hessian_product(curv, v):
    """H v on the full grid for weights that `curvature` returned, with fresh
    work arrays: the stencil that `_VCycle.product` applies on level 0."""
    cs, cu = curv
    out = np.empty(v.shape)
    shifts = [(*_ends(v, i), *_ends(out, i)) for i in range(v.ndim)]
    return minimize._edge_product(cs, cu, v, out, [np.empty(c.shape) for c in cs], shifts)


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


def signed_zero_field(rng, shape):
    """Nodal values dense in +0.0, -0.0 and subnormals of both signs, a
    quarter of them uniform in [-1, 1]: their differences hold -0.0
    (-0.0 - 0.0) and subnormals, and so do the values themselves."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5e-308, -2.5e-308])
    values = rng.choice(pool, size=shape)
    normal = rng.random(shape) < 0.25
    values[normal] = rng.uniform(-1.0, 1.0, int(normal.sum()))
    return values


def reference_energy_and_gradient(m, grid, eps, values):
    """`_DiscreteEnergy`'s energy and gradient at `values` as the expressions
    that the in-place passes replaced: each product formed as a new array."""
    hn = grid.h ** grid.n
    lam, mu = m.on_cells(grid)
    w = [hn * _average_to_cells_transpose(lam_i, skip=i) for i, lam_i in enumerate(lam)]
    wu = None if mu is None else (m.u_coeff * hn) * _average_to_cells_transpose(mu)
    gamma = m.exponents.gamma
    total = 0.0
    gout = (
        np.zeros(grid.shape)
        if wu is None
        else wu * gamma * np.sign(values) * np.abs(values) ** (gamma - 1.0)
    )
    for i, (w_i, p) in enumerate(zip(w, m.exponents.p)):
        t = np.diff(values, axis=i)
        t /= grid.h
        if eps > 0 and p < 2:
            base = t * t + eps ** 2
            f = base ** (p / 2.0) - eps ** p
            d = p * t * base ** (p / 2.0 - 1.0)
        else:
            f = np.abs(t) ** p
            d = p * np.sign(t) * np.abs(t) ** (p - 1.0)
        total += float(np.vdot(w_i, f))
        d *= w_i
        d /= grid.h
        lead = (slice(None),) * i
        gout[lead + (slice(None, -1),)] -= d
        gout[lead + (slice(1, None),)] += d
    if wu is not None:
        total += float(np.vdot(wu, np.abs(values) ** gamma))
    return (w, wu), total, gout


def reference_cell_energy(m, grid, values, weights):
    """`cell_energy` as the expression that the in-place pass replaced."""
    lam, mu = weights
    f = 0.0
    for i, p in enumerate(m.exponents.p):
        t = np.diff(values, axis=i)
        t /= grid.h
        f = f + lam[i] * _average_to_cells(np.abs(t) ** p, skip=i)
    if m.u_coeff > 0:
        f = f + m.u_coeff * mu * _average_to_cells(np.abs(values) ** m.exponents.gamma)
    return f


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestInPlacePasses:
    """The full-grid passes of the energy, its gradient and `cell_energy`
    form each product in place, keeping its operand pair: the bits of the
    expressions they replaced, also where a sign of zero could flip
    (np.sign(-0.0) is +0.0, so p sign(t) |t|^(p-1) is not p t there)."""

    EXPONENTS = {"p_2": (2.0, 2.0, 2.0), "p_3": (3.0, 3.0, 3.0), "smoothed_p_lt_2": (1.5, 1.8, 1.6)}

    # A flipped zero reaches the gradient only at a node whose u term is -0.0
    # (|u|^(gamma-1) of a negative subnormal u underflows, gamma > 2) next to
    # an edge where t = -0.0. At h < 1 a -0.0 difference needs two zero ends,
    # so the grids at h = 2, where a subnormal difference divided by h rounds
    # to -0.0, are the ones that see it.
    @pytest.mark.parametrize("n,cells", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("h", ["unit box", 2.0])
    @pytest.mark.parametrize("u_coeff", [0.0, 0.7])
    @pytest.mark.parametrize("branch", sorted(EXPONENTS))
    def test_bits_match_the_reference_expressions(self, branch, u_coeff, h, n, cells):
        h = 1.0 / cells if h == "unit box" else h
        side = cells * h
        p = self.EXPONENTS[branch][:n]
        e = Exponents(n, p, max(p), max(p) + 1.0, (INF,) * n, INF)
        lam1 = WeightField("power", amplitude=1.5, center=(0.3 * side,) * n, exponent=0.5)
        mu = WeightField("power", amplitude=2.0, center=(0.7 * side,) * n, exponent=1.0)
        m = ModelIntegrand(e, (lam1,) + (constant(0.5),) * (n - 1), mu, u_coeff)
        g = make_grid([(0.0, side)] * n, h)
        eps = h ** 2 if max(p) < 2 else 0.0
        prob = _DiscreteEnergy(m, g, eps)
        weights = m.on_cells(g)
        rng = np.random.default_rng(11)
        for _ in range(16):
            values = signed_zero_field(rng, g.shape)
            (w, wu), total, grad = reference_energy_and_gradient(m, g, eps, values)
            assert [bits(a) for a in prob.w] == [bits(a) for a in w]
            assert (prob.wu is None) == (wu is None)
            assert wu is None or bits(prob.wu) == bits(wu)
            e_val, state = prob.evaluate(values)
            assert bits(e_val) == bits(total)
            assert bits(prob.gradient(state)) == bits(grad)
            assert bits(cell_energy(m, g, values, weights)) == bits(
                reference_cell_energy(m, g, values, weights)
            )


class TestNewtonModel:
    @pytest.mark.parametrize("branch", sorted(EXACT_CURVATURE))
    def test_hessian_product_matches_central_differences(self, branch):
        g = unit_grid(2, H_SMALL)
        prob = _DiscreteEnergy(EXACT_CURVATURE[branch](), g, 0.0)
        rng = np.random.default_rng(8)
        u = rng.uniform(-1.0, 1.0, g.shape)
        curv = prob.curvature(prob.evaluate(u)[1])
        for _ in range(3):
            v = rng.uniform(-1.0, 1.0, g.shape)
            hv = hessian_product(curv, v)
            fd = hessian_fd(prob, u, v)
            assert np.max(np.abs(hv)) > 1e-3
            assert np.max(np.abs(hv - fd)) <= 1e-6 * np.max(np.abs(hv))

    @pytest.mark.parametrize("branch", sorted(MAJORIZED))
    def test_model_majorizes_the_hessian(self, branch):
        g = unit_grid(2, H_SMALL)
        prob = _DiscreteEnergy(MAJORIZED[branch](), g, H_SMALL ** 2)
        rng = np.random.default_rng(9)
        # cell averages stay in [0.5, 1.5], well away from the kink of |u|^gamma
        u = 1.0 + rng.uniform(-0.5, 0.5, g.shape)
        curv = prob.curvature(prob.evaluate(u)[1])
        gaps = []
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, g.shape)
            model = float(np.sum(v * hessian_product(curv, v)))
            exact = float(np.sum(v * hessian_fd(prob, u, v)))
            assert model >= exact - 1e-7 * abs(exact)
            gaps.append(model / exact)
        assert max(gaps) > 1.01  # a strict majorant, not the exact Hessian

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_is_the_diagonal_of_the_product(self, n):
        # every curvature branch at once: p < 2 smoothed, p = 2, p > 2, u term
        p = {1: (2.5,), 2: (1.5, 3.0), 3: (1.5, 2.0, 3.0)}[n]
        e = Exponents(n, p, 3.0, 3.5, (INF,) * n, INF)
        lam1 = WeightField("power", amplitude=1.0, center=(0.3,) * n, exponent=0.5)
        mu = WeightField("power", amplitude=2.0, center=(0.6,) * n, exponent=1.0)
        m = ModelIntegrand(e, (lam1,) + (constant(1.0),) * (n - 1), mu, 1.0)
        g = make_grid([(0.0, 1.0)] + [(0.0, 0.75)] * (n - 1), H_SMALL)
        prob = _DiscreteEnergy(m, g, H_SMALL ** 2)
        u = np.random.default_rng(n).uniform(-1.0, 1.0, g.shape)
        curv = prob.curvature(prob.evaluate(u)[1])
        diag = minimize._edge_diagonal(*curv)
        for idx in np.ndindex(*g.shape):
            e_k = np.zeros(g.shape)
            e_k[idx] = 1.0
            exact = hessian_product(curv, e_k)[idx]
            assert abs(diag[idx] - exact) <= 1e-12 * abs(exact)


def vcycle(prob, u):
    """The V-cycle preconditioner built from the Newton model at u."""
    mg = minimize._VCycle(prob.grid.shape)
    mg.update(prob.curvature(prob.evaluate(u)[1]))
    return mg


def aniso3d_model():
    """p = (1.5, 2, 2), q = 2, gamma = 2.5, unit weights, no u term."""
    e = Exponents(3, (1.5, 2.0, 2.0), 2.0, 2.5, (INF,) * 3, INF)
    return ModelIntegrand(e, (constant(1.0),) * 3, constant(1.0), 0.0)


def box(n, h):
    """[0, 1] x [0, 1/2]^(n-1), with 1/h and 1/(2h) cells per axis."""
    return make_grid([(0.0, 1.0)] + [(0.0, 0.5)] * (n - 1), h)


def dense_matrix(prob, curv):
    """The Newton model on the interior nodes as a dense matrix, column by
    column from the Hessian-vector product."""
    inner = (slice(1, -1),) * prob.grid.n
    size = np.zeros(prob.grid.shape)[inner].size
    cols = []
    for k in range(size):
        e_k = np.zeros(prob.grid.shape)
        e_k[inner].flat[k] = 1.0
        cols.append(hessian_product(curv, e_k)[inner].flatten())
    return np.array(cols).T


def inverse_diagonal(cs, cu):
    """r / diag(H) on the interior nodes, with 1 in place of a zero diagonal."""
    diag = minimize._edge_diagonal(cs, cu)[(slice(1, -1),) * cs[0].ndim]
    minv = np.ones_like(diag)
    np.divide(1.0, diag, out=minv, where=diag > 0)
    return minv


class TestVCycle:
    @pytest.mark.parametrize(
        "shape,levels",
        [
            ((17, 17), [17, 9]),
            ((33, 33), [33, 17, 9]),
            ((65, 65), [65, 33, 17, 9]),
            ((33, 33, 33), [33, 17, 9, 5]),
            ((65, 65, 65), [65, 33, 17, 9, 5]),
        ],
    )
    def test_coarsening_stops_at_the_dense_cap(self, shape, levels):
        # 9^2 and 5^3 nodes are the first levels with at most _DENSE_MAX
        # (64) interior nodes: 49 and 27
        mg = minimize._VCycle(shape)
        assert [lv.x.shape for lv in mg.levels] == [(m,) * len(shape) for m in levels]
        interior = [lv.x_in.size for lv in mg.levels]
        assert interior[-1] <= minimize._DENSE_MAX < min(interior[:-1])
        assert mg.dense

    @pytest.mark.parametrize("u_coeff", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coarse_weights_are_the_weights_at_2h(self, n, u_coeff):
        # constant lambda at p = 2 (and gamma = 2): level k holds the weights
        # that _DiscreteEnergy builds at spacing 2^k h, boundary nodes included
        m = simple_model(n, gamma=2.0, u_coeff=u_coeff)
        h = {1: 1 / 256, 2: 1 / 32, 3: 1 / 32}[n]
        g = box(n, h)
        u = np.random.default_rng(n).uniform(-1.0, 1.0, g.shape)
        mg = vcycle(_DiscreteEnergy(m, g, 0.0), u)
        # down to 63, 7 x 3 and 7 x 3 x 3 interior nodes, at most _DENSE_MAX
        assert len(mg.levels) == 3
        for k, lv in enumerate(mg.levels[1:], start=1):
            coarse = _DiscreteEnergy(m, box(n, h * 2 ** k), 0.0)
            cs, cu = coarse.curvature(coarse.evaluate(np.zeros(coarse.grid.shape))[1])
            for got, want in zip(lv.cs, cs):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            if u_coeff:
                np.testing.assert_allclose(lv.cu, cu, rtol=1e-13, atol=0)
            else:
                assert lv.cu is None

    @pytest.mark.parametrize(
        "case",
        ["smoothed_u_term", "dense_12_cells", "p_gt_2_flat", "coarsest_scaled"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_and_positive(self, n, case):
        rng = np.random.default_rng(30 + n)
        if case == "p_gt_2_flat":
            # data flat on most of the box: the p > 2 curvature |t|^(p-2) is 0
            # on every edge there, so whole coarse rows vanish, the coarsest
            # operator (63, 49 and 27 interior nodes) is singular and scaled
            m = simple_model(n, p=3.0)
            g = unit_grid(n, 1 / {1: 128, 2: 16, 3: 8}[n])
            u = np.zeros(g.shape)
            u[(slice(0, 3),) * n] = rng.uniform(0.0, 1.0, (3,) * n)
        else:
            p = {1: (1.5,), 2: (1.5, 2.5), 3: (1.5, 2.0, 2.5)}[n]
            e = Exponents(n, p, 2.5, 3.0, (INF,) * n, INF)
            lam1 = WeightField("power", amplitude=1.0, center=(0.3,) * n, exponent=0.5)
            m = ModelIntegrand(e, (lam1,) + (constant(1.0),) * (n - 1), constant(1.0), 1.0)
            # 128, 16 and 8 cells coarsen to 63, 49 and 27 interior nodes and
            # 12 cells to 6 and 3 cells (the 1-D grid itself), all solved
            # densely; 134, 22 and 14 cells to a 67-, 11- and 7-cell level
            # with more than _DENSE_MAX interior nodes, only scaled
            cells = {
                "smoothed_u_term": {1: 128, 2: 16, 3: 8},
                "dense_12_cells": {1: 12, 2: 12, 3: 12},
                "coarsest_scaled": {1: 134, 2: 22, 3: 14},
            }[case][n]
            g = unit_grid(n, 1 / cells)
            u = rng.uniform(-1.0, 1.0, g.shape)
        mg = vcycle(_DiscreteEnergy(m, g, g.h ** 2), u)
        assert len(mg.levels) > 1 or (case, n) == ("dense_12_cells", 1)
        assert mg.dense == (case != "coarsest_scaled")
        assert (mg.levels[-1].inverse is not None) == (case in ("smoothed_u_term", "dense_12_cells"))
        inner = (slice(1, -1),) * n
        vecs = [rng.standard_normal(u[inner].shape) for _ in range(6)]
        images = [mg.apply(v) for v in vecs]
        for a, ba in zip(vecs, images):
            assert float(np.vdot(a, ba)) > 0
            for b, bb in zip(vecs, images):
                lhs, rhs = float(np.vdot(b, ba)), float(np.vdot(a, bb))
                assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(bb)

    @pytest.mark.parametrize(
        "n,model,h",
        [(1, weighted_1d_model, 1 / 64), (2, weighted_u_term_model, 1 / 9), (3, aniso3d_model, 1 / 4)],
    )
    def test_small_grid_is_solved_exactly(self, n, model, h):
        # 63, 64 (= _DENSE_MAX) and 27 interior nodes: the grid is the
        # coarsest level, and a positive-definite model is inverted
        g = unit_grid(n, h)
        prob = _DiscreteEnergy(model(), g, h ** 2)
        u = radial_data(g).values
        curv = prob.curvature(prob.evaluate(u)[1])
        mg = minimize._VCycle(g.shape)
        mg.update(curv)
        assert len(mg.levels) == 1 and mg.levels[0].inverse is not None
        r = np.random.default_rng(n).standard_normal(u[(slice(1, -1),) * n].shape)
        want = np.linalg.solve(dense_matrix(prob, curv), r.ravel()).reshape(r.shape)
        np.testing.assert_allclose(mg.apply(r), want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("case", ["zero_rows", "floating_path"])
    def test_singular_coarsest_level_is_scaled(self, case):
        # at most _DENSE_MAX interior nodes but a singular operator: the cycle
        # is r / diag(H), with 1 in place of a zero diagonal, bit for bit
        if case == "zero_rows":
            # p > 2 on data flat off one corner: 49 interior nodes, most rows 0
            g = unit_grid(2, 1 / 8)
            u = np.zeros(g.shape)
            u[:3, :3] = 1.0
            prob = _DiscreteEnergy(simple_model(2, p=3.0), g, 0.0)
            cs, cu = prob.curvature(prob.evaluate(u)[1])
            shape = g.shape
        else:
            # 8 interior nodes joined to each other but not to the boundary:
            # a singular path whose Cholesky factorization passes with a
            # last pivot of round-off size
            c = np.random.default_rng(0).uniform(0.5, 2.0, 9)
            c[0] = c[-1] = 0.0
            cs, cu, shape = [c], None, (10,)
            a = np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)
            assert np.linalg.cholesky(a)[-1, -1] ** 2 < 1e-14
        mg = minimize._VCycle(shape)
        mg.update((cs, cu))
        assert len(mg.levels) == 1 and mg.dense and mg.levels[0].inverse is None
        minv = inverse_diagonal(cs, cu)
        r = np.random.default_rng(1).standard_normal(minv.shape)
        assert mg.apply(r).tobytes() == (minv * r).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_level_is_jacobi(self, n):
        # an odd cell count cannot be coarsened: with more than _DENSE_MAX
        # interior nodes (66, 100, 512) the cycle is r / diag(H), with 1 in
        # place of a zero diagonal, bit for bit
        g = unit_grid(n, 1 / {1: 67, 2: 11, 3: 9}[n])
        m = simple_model(n, p=3.0, u_coeff=1.0, gamma=3.0)
        u = np.zeros(g.shape)
        u[(slice(0, 3),) * n] = 1.0
        prob = _DiscreteEnergy(m, g, 0.0)
        curv = prob.curvature(prob.evaluate(u)[1])
        mg = minimize._VCycle(g.shape)
        mg.update(curv)
        minv = inverse_diagonal(*curv)
        assert len(mg.levels) == 1 and not mg.dense and np.any(minv == 1.0)
        r = np.random.default_rng(n).standard_normal(minv.shape)
        assert mg.apply(r).tobytes() == (minv * r).tobytes()

    @pytest.mark.parametrize(
        "grid,digest",
        [
            (box(1, 1 / 256), "6d4afecf9b61c496b5f46e03bed35b79c7d8f93c"),
            (box(2, 1 / 32), "2e70e2bc92286e69b26e17bf4dc4eb032f0dcb49"),
            (box(3, 1 / 32), "19de01524339c67de834f89922d45a857826473c"),
            (unit_grid(2, 1 / 44), "8be8d8ecc9e63eff3b6fc8dd492fc49be5b6ba21"),
        ],
        ids=["1d_dense", "2d_dense", "3d_dense", "2d_scaled"],
    )
    def test_output_pinned(self, grid, digest):
        # the bytes of four cycles on a p = 2 model with a u term, over 3
        # levels down to a dense coarsest level (63, 21 and 63 interior
        # nodes) or to a scaled one (100 nodes); any change to the
        # arithmetic of the cycle or to its order shows here
        n = grid.n
        rng = np.random.default_rng(40 + n)
        mg = vcycle(_DiscreteEnergy(weighted_u_term_model(n), grid, 0.0), rng.uniform(-1.0, 1.0, grid.shape))
        sha = hashlib.sha1()
        for _ in range(4):
            sha.update(mg.apply(rng.standard_normal(tuple(m - 2 for m in grid.shape))).tobytes())
        assert sha.hexdigest() == digest

    @staticmethod
    def product_case(n, u_coeff):
        """Newton weights on a 2-level box with p < 2, p = 2 and p > 2 axes,
        a power-law lambda_1 and, if u_coeff > 0, the |u|^3 term."""
        p = {1: (1.5,), 2: (1.5, 2.5), 3: (1.5, 2.0, 2.5)}[n]
        e = Exponents(n, p, 2.5, 3.0, (INF,) * n, INF)
        lam1 = WeightField("power", amplitude=1.0, center=(0.3,) * n, exponent=0.5)
        m = ModelIntegrand(e, (lam1,) + (constant(1.0),) * (n - 1), constant(1.0), u_coeff)
        g = box(n, {1: 1 / 128, 2: 1 / 16, 3: 1 / 16}[n])
        prob = _DiscreteEnergy(m, g, g.h ** 2)
        u = np.random.default_rng(50 + n).uniform(-1.0, 1.0, g.shape)
        return g, prob.curvature(prob.evaluate(u)[1])

    @pytest.mark.parametrize("u_coeff", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_is_the_full_grid_product(self, n, u_coeff):
        # level 0's product is the stencil on the zero-padded direction,
        # bit for bit, also after a cycle has used the same work arrays
        g, curv = self.product_case(n, u_coeff)
        mg = minimize._VCycle(g.shape)
        mg.update(curv)
        assert len(mg.levels) == 2 and (mg.levels[0].cu is None) == (u_coeff == 0)
        inner = (slice(1, -1),) * n
        rng = np.random.default_rng(n)
        for _ in range(3):
            d = rng.standard_normal(mg.levels[0].x_in.shape)
            padded = np.zeros(g.shape)
            padded[inner] = d
            assert mg.product(d).tobytes() == hessian_product(curv, padded)[inner].tobytes()
            mg.apply(d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_and_cycle_share_work_arrays(self, n):
        # apply, product, apply, product on one V-cycle give the bytes of
        # each call made on a fresh one: neither reads what the other wrote
        g, curv = self.product_case(n, 1.0)
        rng = np.random.default_rng(60 + n)
        calls = [(name, rng.standard_normal(tuple(m - 2 for m in g.shape)))
                 for name in ("apply", "product", "apply", "product")]

        def fresh():
            mg = minimize._VCycle(g.shape)
            mg.update(curv)
            return mg

        shared = fresh()
        for name, v in calls:
            got = getattr(shared, name)(v).tobytes()
            assert got == getattr(fresh(), name)(v).tobytes(), name


class TestMultigridSolve:
    @pytest.fixture
    def products(self, monkeypatch):
        """Counts the CG loop's Hessian products: one per CG iteration."""
        count = [0]
        real = minimize._VCycle.product

        def counted(self, *args):
            count[0] += 1
            return real(self, *args)

        monkeypatch.setattr(minimize._VCycle, "product", counted)
        return count

    @pytest.mark.parametrize(
        "model,n,h",
        [(aniso2d_model, 2, 1 / 16), (aniso2d_model, 2, 1 / 32), (aniso2d_model, 2, 1 / 64), (aniso3d_model, 3, 1 / 16)],
        ids=["aniso2d_h16", "aniso2d_h32", "aniso2d_h64", "aniso3d_h16"],
    )
    def test_cg_iterations_per_step_stay_bounded(self, products, model, n, h):
        # Jacobi-PCG took 13.8, 29.4, 59.3 and 11.0 per step here
        g = unit_grid(n, h)
        res = solve(model(), g, radial_data(g), SolveConfig(grad_tol=1e-6))
        assert res.converged
        assert products[0] <= 4 * res.iterations, (products[0], res.iterations)

    def test_grid_that_cannot_coarsen_keeps_the_jacobi_trajectory(self):
        # 45 cells: one level, so CG is Jacobi-preconditioned; the final
        # energy is the one the Jacobi-PCG solver reached with the
        # majorizing Newton model in 25 steps
        g = unit_grid(2, 1 / 45)
        res = solve(aniso2d_model(), g, radial_data(g), SolveConfig(20_000, 1e-6))
        assert res.converged
        assert res.iterations == 18
        assert res.final_energy == 0.8832727962922606
        assert res.residual == 5.558244535529104e-07

    @pytest.mark.parametrize(
        "grid",
        [unit_grid(2, 1 / 24), make_grid([(0.0, 2.0), (0.0, 1.0)], 1 / 16)],
        ids=["24_cells", "box_2x1"],
    )
    def test_converges_on_other_hierarchies(self, products, grid):
        # 24 cells stop at a 6-cell level; 32 x 16 cells at 8 x 4
        res = solve(aniso2d_model(), grid, radial_data(grid), SolveConfig(grad_tol=1e-6))
        assert res.converged and res.stop_reason == "converged"
        assert products[0] <= 4 * res.iterations


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
        assert res.stop_reason == "max_iters"
        assert res.iterations == 1

    def test_stalled_line_search(self, monkeypatch):
        # along an ascent direction no step passes either acceptance test
        real = minimize._newton_direction
        monkeypatch.setattr(minimize, "_newton_direction", lambda *a: -real(*a))
        m = aniso2d_model()
        g = unit_grid(2, 1 / 8)
        init = radial_data(g)
        res = solve(m, g, init, SolveConfig(max_iters=100, grad_tol=1e-6))
        assert not res.converged
        assert res.stop_reason == "stalled"
        assert res.iterations == 0
        assert np.array_equal(res.u.values, init.values)

    @pytest.mark.parametrize("grad_tol", [1e-6, 1e-8])
    def test_mesh_independent_step_count(self, grad_tol):
        # at 1e-8 and h = 1/64 the predicted decrease falls below the energy's
        # round-off, and only the slope test of the line search accepts steps
        steps = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = unit_grid(2, h)
            res = solve(aniso2d_model(), g, radial_data(g), SolveConfig(200, grad_tol))
            assert res.converged and res.stop_reason == "converged"
            steps.append(res.iterations)
        assert all(b <= 2 * a for a, b in zip(steps, steps[1:])), steps

    def test_p_lt_2_steps_grow_slowly_under_refinement(self):
        # the blended Newton model: 18, 18 and 19 steps at h = 1/32, 1/64
        # and 1/128 (the majorizer took 25, 27 and 28)
        steps = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = unit_grid(2, h)
            res = solve(aniso2d_model(), g, radial_data(g), SolveConfig(200, 1e-6))
            assert res.converged
            steps.append(res.iterations)
        assert all(b <= a + 2 for a, b in zip(steps, steps[1:])), steps

    def test_p_near_1_converges(self):
        # 68 steps with the blended Newton model, 111 with the majorizer
        g = unit_grid(2, 1 / 16)
        res = solve(p_near_1_model(), g, radial_data(g), SolveConfig(200, 1e-6))
        assert res.converged and res.stop_reason == "converged"
        assert res.iterations <= 80, res.iterations

    def test_noise_steps_below_the_round_off_floor_stall(self):
        # grad_tol = 1e-300 is out of reach: once the energy and the residual
        # stop reaching new lows, the solve stops instead of running to max_iters
        g = unit_grid(2, 1 / 16)
        res = solve(aniso2d_model(), g, radial_data(g), SolveConfig(300, 1e-300))
        assert res.stop_reason == "stalled"
        assert res.iterations <= 60
        assert res.residual <= 1e-11

    @pytest.mark.parametrize("seed", range(10))
    def test_3d_maximum_principle(self, seed):
        # random {0, 1} data: the edge stencil's p = 2 Hessian is an M-matrix,
        # so the discrete minimizer stays within the range of its data
        g = unit_grid(3, 1 / 8)
        data = np.random.default_rng(seed).integers(0, 2, size=g.shape).astype(float)
        res = solve(simple_model(3), g, GridFunction(g, data), SolveConfig())
        assert res.converged
        interior = res.u.values[1:-1, 1:-1, 1:-1]
        assert 0.0 <= interior.min() and interior.max() <= 1.0

    def test_energy_converges_at_second_order(self):
        energies = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = unit_grid(2, h)
            res = solve(aniso2d_model(), g, radial_data(g), SolveConfig(grad_tol=1e-6))
            assert res.converged
            energies.append(res.final_energy)
        ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])
        assert 3.0 <= ratio <= 5.0, energies

    def test_gamma_lt_2_u_term_with_data_crossing_zero(self):
        g = unit_grid(2, 1 / 16)
        x = g.node_points()[:, 0].reshape(g.shape)
        res = solve(gamma_lt_2_model(), g, GridFunction(g, 3.0 * (x - 0.4)), SolveConfig(grad_tol=1e-6))
        assert res.converged
        assert res.u.values.min() < 0 < res.u.values.max()

    def test_p_gt_2(self):
        g = unit_grid(2, 1 / 16)
        res = solve(p_gt_2_model(), g, radial_data(g), SolveConfig(grad_tol=1e-6))
        assert res.converged

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": float("nan")},  # no residual is <= NaN: a solve ran to max_iters
            {"grad_tol": float("inf")},
            {"grad_tol": 0.0},
            {"max_iters": 2.5},
            {"max_iters": float("inf")},
            {"max_iters": 0},
        ],
        ids=repr,
    )
    def test_config_refuses_values_that_cannot_work(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_deterministic(self):
        m = simple_model(2, u_coeff=1.0, gamma=3.0)
        g = unit_grid(2, 1 / 8)
        init = coordinate_field(g)
        r1 = solve(m, g, init, SolveConfig(max_iters=200))
        r2 = solve(m, g, init, SolveConfig(max_iters=200))
        assert np.array_equal(r1.u.values, r2.u.values)
        assert r1.final_energy == r2.final_energy

    def test_energy_converges_at_second_order(self):
        # the closed-form minimizer u* = sum_i c_i |x_i - a_i|^p_i' / p_i' of
        # sum_i int |d_i u|^p_i on the unit square: the Euler-Lagrange
        # equation sum_i p_i sign(c_i) |c_i|^(p_i - 1) = 0 fixes c_2 from
        # c_1 = 1. Solved from u* on the boundary and 0 inside, the discrete
        # minimizer's energy tends to E(u*) at O(h^2) (README)
        m = aniso2d_model()
        p, a = m.exponents.p, (0.3, 0.6)
        conj = [pi / (pi - 1.0) for pi in p]
        c = (1.0, -(p[0] / p[1]) ** (1.0 / (p[1] - 1.0)))
        exact = sum(
            abs(ci) ** pi * (ai ** (q + 1.0) + (1.0 - ai) ** (q + 1.0)) / (q + 1.0)
            for ci, pi, ai, q in zip(c, p, a, conj)
        )
        errors = []
        for k in (16, 32, 64, 128):
            g = unit_grid(2, 1 / k)
            x = g.node_points()
            u = sum(ci * np.abs(x[:, i] - ai) ** q / q
                    for i, (ci, ai, q) in enumerate(zip(c, a, conj))).reshape(g.shape)
            u[1:-1, 1:-1] = 0.0
            res = solve(m, g, GridFunction(g, u), SolveConfig(grad_tol=1e-9))
            assert res.converged
            errors.append(abs(energy(m, res.u) - exact))
        # 3.04e-4, 7.64e-5, 1.91e-5, 4.78e-6: ratios 3.98, 4.00, 4.00
        assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:]))


def affine_iso3d(h):
    """The benchmark's post65 problem at spacing h: p = gamma = 2, unit
    weights, no u term, and the affine data 3 x_1, the exact discrete
    minimizer, so a solve starts converged."""
    g = unit_grid(3, h)
    bnd = BoundarySpec("affine", coeffs=(3.0, 0.0, 0.0))
    return simple_model(3), g, GridFunction(g, bnd(g.node_points()).reshape(g.shape))


class TestZeroStepSolve:
    """A solve whose initial iterate meets grad_tol evaluates the energy and
    its gradient once, and builds nothing that only a Newton step uses."""

    CFG = SolveConfig(max_iters=20_000, grad_tol=1e-6)

    def test_builds_no_vcycle(self, monkeypatch):
        def refuse(shape):
            raise AssertionError("a solve that starts converged built a V-cycle")

        monkeypatch.setattr(minimize, "_VCycle", refuse)
        res = solve(*affine_iso3d(1 / 16), self.CFG)
        assert res.converged and res.iterations == 0

    def test_allocates_no_hessian_work_arrays(self, monkeypatch):
        made = []

        class Recorded(_DiscreteEnergy):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(minimize, "_DiscreteEnergy", Recorded)
        res = solve(*affine_iso3d(1 / 16), self.CFG)
        assert res.iterations == 0 and len(made) == 1
        # the weights alone: the Hessian's work arrays are the V-cycle's
        assert set(vars(made[0])) == {"grid", "eps", "w", "wu", "p", "gamma"}

    def test_peak_memory(self):
        # the weights w_i (3 edge arrays), the iterate's edge differences
        # (3), the gradient and the two temporaries of one axis: about 9.6
        # nodal arrays at 17^3 nodes, against 25.8 with a V-cycle and the
        # Hessian work arrays allocated up front; the iterate is the
        # boundary data's own read-only array, not a copy
        model, g, init = affine_iso3d(1 / 16)
        solve(model, g, init, self.CFG)  # the first call imports and caches
        tracemalloc.start()
        try:
            res = solve(model, g, init, self.CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 0
        assert peak <= 10 * np.zeros(g.shape).nbytes


DATA = Path(__file__).parent / "data"


@functools.cache
def data_solve(name, refine):
    """The model of tests/data/<name>.cfg and the solve of its problem at the
    config's spacing divided by refine, with the config's solver settings."""
    cfg = load_config(DATA / f"{name}.cfg")
    grid = make_grid(list(zip(cfg.grid.lo, cfg.grid.hi)), cfg.grid.h / refine)
    cfg = replace(cfg, grid=grid)
    return cfg.model, solve(cfg.model, grid, cfg.initial_field(), cfg.solver)


def truncations(u):
    """De Giorgi truncations -t eta (u - k)_+ of a nodal field u: eta the
    tensor hat of the box, which vanishes on the boundary, k each quartile of
    u's interior values and t = 1/2 and 1."""
    grid = u.grid
    eta = _tensor_hat(grid, zip(grid.lo, grid.hi))
    inner = u.values[(slice(1, -1),) * grid.n]
    for k in np.quantile(inner, (0.25, 0.5, 0.75)):
        for t in (0.5, 1.0):
            yield -t * eta * np.maximum(u.values - k, 0.0)


def smoothing_eps(m, grid):
    return grid.h ** 2 if any(p < 2 for p in m.exponents.p) else 0.0


def smoothing_defect(m, grid, cells=None):
    """delta_eps over a cell mask (None for every cell) in its cell form: the
    sum over p_i < 2 of eps^p_i h^n times the sum of lambda_i over the cells."""
    eps = smoothing_eps(m, grid)
    lam, _ = m.on_cells(grid)
    sel = slice(None) if cells is None else cells
    return sum(
        eps ** p * grid.h ** grid.n * float(np.sum(lam_i[sel]))
        for p, lam_i in zip(m.exponents.p, lam) if p < 2
    )


def bound_terms(m, u, phi):
    """(F(u; S) - F(u + phi; S), delta_eps(S), |<g, phi>|) for a nodal phi
    that vanishes on the boundary: S the cells with a nonzero corner of phi,
    F(.; S) `integrand.energy` over them (the paper's f, no smoothing) and g
    the gradient of the solver's energy at u on the interior nodes."""
    grid = u.grid
    inner = (slice(1, -1),) * grid.n
    cells = _average_to_cells((phi != 0.0).astype(float)) > 0.0
    lhs = energy(m, u, cells) - energy(m, GridFunction(grid, u.values + phi), cells)
    prob = _DiscreteEnergy(m, grid, smoothing_eps(m, grid))
    g = prob.gradient(prob.evaluate(u.values)[1])[inner]
    return lhs, smoothing_defect(m, grid, cells), abs(float(np.vdot(g, phi[inner])))


# The configs of tests/data that CI runs with some p_i < 2 (smoke, p11,
# offbox) and with p = 2 (smoke3d), each at three spacings.
BOUND_CASES = [(name, refine) for name in ("smoke", "p11", "offbox", "smoke3d") for refine in (1, 2, 4)]


class TestQuasiMinimalityBound:
    """What `solve` reports about E_h, the energy without smoothing: for every
    phi that vanishes on the boundary, F(u; S) <= F(u + phi; S) + delta_eps(S)
    + |<g, phi>|, and min E_h lies in [energy_lower, energy_h]. The
    perturbations are the reference sampler's bumps, the 32 that the sampled
    check of `minimize` once drew, and De Giorgi truncations."""

    @pytest.mark.parametrize("name,refine", BOUND_CASES, ids=[f"{n}-h/{r}" for n, r in BOUND_CASES])
    def test_bound_holds_for_bumps_and_truncations(self, name, refine):
        m, res = data_solve(name, refine)
        u = res.u
        whole = smoothing_defect(m, u.grid)
        assert res.smoothing_defect == pytest.approx(whole, rel=1e-12, abs=0.0)
        assert (res.smoothing_defect > 0) == any(p < 2 for p in m.exponents.p)
        for phi in [*random_perturbations(u.grid, 32, seed=0), *truncations(u)]:
            lhs, delta, slope = bound_terms(m, u, phi)
            assert lhs <= delta + slope, (lhs, delta, slope)
            assert delta <= res.smoothing_defect * (1.0 + 1e-12)

    @pytest.mark.parametrize("name,refine", BOUND_CASES, ids=[f"{n}-h/{r}" for n, r in BOUND_CASES])
    def test_reports_the_unsmoothed_energy(self, name, refine):
        m, res = data_solve(name, refine)
        grid = res.u.grid
        inner = (slice(1, -1),) * grid.n
        prob = _DiscreteEnergy(m, grid, 0.0)
        e_h, state = prob.evaluate(res.u.values)
        assert res.energy_h == e_h
        assert res.residual_h == np.max(np.abs(prob.gradient(state)[inner])) / grid.h ** grid.n
        assert res.energy_h == pytest.approx(energy(m, res.u), rel=1e-12, abs=0.0)
        # 0 <= E_h - E_eps <= delta_eps
        assert res.final_energy <= res.energy_h <= res.final_energy + res.smoothing_defect
        # E_eps(u) - |g|_1 osc, osc the range of u widened to hold 0 with a u term
        smoothed = _DiscreteEnergy(m, grid, smoothing_eps(m, grid))
        g = smoothed.gradient(smoothed.evaluate(res.u.values)[1])[inner]
        levels = [res.u.values.min(), res.u.values.max()] + [0.0] * (m.u_coeff > 0)
        osc = float(max(levels)) - float(min(levels))
        assert res.energy_lower == res.final_energy - float(np.sum(np.abs(g))) * osc
        if res.smoothing_defect == 0:
            assert (res.energy_h, res.residual_h) == (res.final_energy, res.residual)

    def test_smoothing_defect_is_needed_on_p11(self):
        # at p = (1.1, 1.3) and h = 1/16 one bump lowers F by more than
        # |<g, phi>|: u minimizes E_eps, not E_h (the sampled check's Q = 1
        # failure, an empirical Q of 1.0000002868933751)
        m, res = data_solve("p11", 1)
        gaps = [lhs - slope for lhs, _, slope in
                (bound_terms(m, res.u, phi) for phi in random_perturbations(res.u.grid, 32, seed=0))]
        assert max(gaps) > 0

    @pytest.mark.parametrize("name", ("p11", "smoke3d"))
    def test_verify_quasiminimality_gives_the_reference_terms(self, name):
        m, res = data_solve(name, 1)
        phis = [*random_perturbations(res.u.grid, 32, seed=0), *truncations(res.u)]
        assert verify_quasiminimality(m, res.u, phis) == [bound_terms(m, res.u, phi) for phi in phis]
        with pytest.raises(ValueError, match="different grid"):
            verify_quasiminimality(m, res.u, [phis[0][1:]])

    @pytest.mark.parametrize("refine", (1, 2, 4))
    def test_bracket_holds_a_tighter_solve(self, monkeypatch, refine):
        # the same problem smoothed at eps = h^4 in place of h^2, started from
        # the solution: its E_h lies in the first solve's bracket
        class Tighter(_DiscreteEnergy):
            def __init__(self, m, grid, eps):
                super().__init__(m, grid, eps * eps)

        m, res = data_solve("smoke", refine)
        monkeypatch.setattr(minimize, "_DiscreteEnergy", Tighter)
        tight = solve(m, res.u.grid, res.u, load_config(DATA / "smoke.cfg").solver)
        assert tight.converged
        assert tight.smoothing_defect < res.smoothing_defect
        assert res.energy_lower <= tight.energy_h <= res.energy_h

    @pytest.mark.parametrize(
        "box,h,digest",
        [
            ([(0.0, 1.0)] * 3, 1 / 8, "4b6116dcd0d5dc3f2765bc4a4da063f664063e36"),
            ([(-0.5, 1.0), (0.0, 2.0)], 1 / 16, "fc0e96abd6796082b6902ebea6b429c2956e7fae"),
        ],
    )
    def test_perturbations_pinned(self, box, h, digest):
        # the reference sampler draws the 32 bumps the sampled check of
        # `minimize` drew: rng order a_0, b_0, a_1, b_1, ..., amp
        sha = hashlib.sha1()
        for phi in random_perturbations(make_grid(box, h), 32, seed=0):
            sha.update(phi.tobytes())
        assert sha.hexdigest() == digest


class TestTrajectoryPins:
    """Solver trajectories pinned exactly: Newton step count, final energy,
    residual and the bytes of the minimizer.  Any change to the arithmetic of
    the energy, its gradient, the Newton model, the CG solve, its V-cycle
    preconditioner or the line search, or to its order, shows here.  The
    final energies also match those of the same solves run to the round-off
    floor, where they stop as stalled, and those pinned for the Jacobi-
    preconditioned solver, to 1e-13 relative: the pinned iterate is the
    minimizer."""

    CFG = SolveConfig(max_iters=20_000, grad_tol=1e-6)
    FLOOR = SolveConfig(max_iters=200, grad_tol=1e-300)

    @staticmethod
    def sha1(res):
        return hashlib.sha1(res.u.values.tobytes()).hexdigest()

    def test_aniso2d_radial_h16(self):
        g = unit_grid(2, 1 / 16)
        res = solve(aniso2d_model(), g, radial_data(g), self.CFG)
        assert res.converged
        assert res.iterations == 15
        assert res.final_energy == 0.904824007847629
        assert res.residual == 9.351962031445282e-07
        assert self.sha1(res) == "709d56e1091782af5587d0867a7976a8da5d4a0c"
        # the Jacobi-PCG solver's pinned energy
        assert res.final_energy == pytest.approx(0.9048240078476288, rel=1e-13, abs=0)
        floor = solve(aniso2d_model(), g, radial_data(g), self.FLOOR)
        assert floor.stop_reason == "stalled"
        assert res.final_energy == pytest.approx(floor.final_energy, rel=1e-13, abs=0)

    def test_gamma3_u_term_radial3d_h8(self):
        g = unit_grid(3, 1 / 8)
        m = simple_model(3, gamma=3.0, u_coeff=1.0)
        res = solve(m, g, radial_data(g), self.CFG)
        assert res.converged
        assert res.iterations == 5
        assert res.final_energy == 4.349210703939757
        assert res.residual == 1.0734768940423578e-07
        assert self.sha1(res) == "b412512db846e522332a759cf143e0c641af6515"
        # the Jacobi-PCG solver's pinned energy
        assert res.final_energy == pytest.approx(4.349210703939757, rel=1e-13, abs=0)
        floor = solve(m, g, radial_data(g), self.FLOOR)
        assert floor.stop_reason == "stalled"
        assert res.final_energy == pytest.approx(floor.final_energy, rel=1e-13, abs=0)
