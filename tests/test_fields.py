import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anibound.fields import (
    Ball,
    GridFunction,
    _average_to_cells,
    _average_to_cells_transpose,
    _cell_gradient_transpose,
    _cell_gradients,
    gradient,
    lp_norm,
    make_grid,
    read_gridfn,
    superlevel_measure,
    truncate,
    write_gridfn,
)
from conftest import coordinate_field, hat_bump, unit_grid


class TestMakeGrid:
    def test_2d_counts(self):
        g = make_grid([(0, 1), (0, 1)], 0.5)
        assert g.shape == (3, 3)

    def test_1d_counts(self):
        g = make_grid([(0, 1)], 0.25)
        assert g.shape == (5,)

    def test_non_divisible(self):
        with pytest.raises(ValueError):
            make_grid([(0, 1)], 0.3)

    def test_empty_box(self):
        with pytest.raises(ValueError):
            make_grid([], 0.5)


class TestGradient:
    def test_affine_exact(self):
        g = unit_grid(2, 0.125)
        u = coordinate_field(g, axis=0)
        grads = gradient(u)
        assert np.allclose(grads[0], 1.0, atol=1e-14)
        assert np.allclose(grads[1], 0.0, atol=1e-14)

    def test_constant_zero(self):
        g = unit_grid(3, 0.25)
        u = GridFunction(g, np.full(g.shape, 7.0))
        assert np.all(gradient(u) == 0.0)

    def test_quadratic_1d(self):
        g = make_grid([(0, 1)], 0.5)
        x = g.node_points()[:, 0]
        u = GridFunction(g, x ** 2)
        grads = gradient(u)
        assert grads[0] == pytest.approx([0.5, 1.5])

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_affine_exact_random(self, a, b, c):
        g = unit_grid(2, 0.25)
        pts = g.node_points()
        u = GridFunction(g, a * pts[:, 0] + b * pts[:, 1] + c)
        grads = gradient(u)
        assert np.allclose(grads[0], a, atol=1e-9)
        assert np.allclose(grads[1], b, atol=1e-9)


# unequal node counts per axis and a spacing that is not a power of two
ADJOINT_GRIDS = [
    make_grid([(0.0, 0.7)], 0.1),
    make_grid([(0.0, 0.5), (0.0, 0.8)], 0.1),
    make_grid([(0.0, 0.4), (0.0, 0.6), (0.0, 0.3)], 0.1),
]


class TestTransposes:
    """<A u, w> = <u, A^T w> for the cell gradient and the cell average."""

    @pytest.mark.parametrize("grid", ADJOINT_GRIDS, ids=lambda g: f"n{g.n}")
    def test_cell_gradient(self, grid):
        rng = np.random.default_rng(grid.n)
        u = rng.standard_normal(grid.shape)
        for axis in range(grid.n):
            w = rng.standard_normal(grid.cell_shape)
            lhs = np.sum(_cell_gradients(u, grid.h)[axis] * w)
            rhs = np.sum(u * _cell_gradient_transpose(w, axis)) / grid.h
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("grid", ADJOINT_GRIDS, ids=lambda g: f"n{g.n}")
    def test_cell_average(self, grid):
        rng = np.random.default_rng(10 + grid.n)
        u = rng.standard_normal(grid.shape)
        w = rng.standard_normal(grid.cell_shape)
        lhs = np.sum(_average_to_cells(u) * w)
        rhs = np.sum(u * _average_to_cells_transpose(w))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestLpNorm:
    def test_unit_measure(self):
        g = unit_grid(2, 0.125)
        ones = np.ones(g.cell_shape)
        for beta in (1.0, 2.0, 3.5):
            assert lp_norm(ones, beta, g) == pytest.approx(1.0, rel=1e-12)

    def test_linear_profile(self):
        g = make_grid([(0, 1)], 1 / 256)
        x = g.cell_axes()[0]
        val = lp_norm(x, 2.0, g)
        assert abs(val - math.sqrt(1.0 / 3.0)) <= 3.0 * g.h

    def test_sup_norm(self):
        g = unit_grid(2, 0.25)
        f = np.full(g.cell_shape, 2.0)
        assert lp_norm(f, math.inf, g) == 2.0

    def test_empty_region(self):
        g = unit_grid(2, 0.25)
        f = np.ones(g.cell_shape)
        assert lp_norm(f, 2.0, g, np.zeros(g.cell_shape, dtype=bool)) == 0.0

    @given(st.floats(min_value=-10, max_value=10))
    def test_homogeneity(self, t):
        g = unit_grid(2, 0.25)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.cell_shape)
        for beta in (1.0, 2.0, math.inf):
            assert lp_norm(t * f, beta, g) == pytest.approx(
                abs(t) * lp_norm(f, beta, g), rel=1e-10, abs=1e-12
            )


class TestSuperlevel:
    def test_empty_above_max(self):
        g = unit_grid(2, 0.25)
        u = hat_bump(g)
        ball = Ball((0.5, 0.5), 0.4)
        assert superlevel_measure(u, 2.0, ball) == 0.0

    def test_1d_count(self):
        g = make_grid([(0, 1)], 0.25)
        u = coordinate_field(g)
        ball = Ball((0.5,), 10.0)  # whole domain
        # nodes 0.75 and 1.0 exceed 0.5
        assert superlevel_measure(u, 0.5, ball) == pytest.approx(0.5)

    def test_monotone_in_level(self):
        g = unit_grid(2, 0.125)
        rng = np.random.default_rng(3)
        u = GridFunction(g, rng.standard_normal(g.shape))
        ball = Ball((0.5, 0.5), 0.45)
        meas = [superlevel_measure(u, k, ball) for k in np.linspace(-2, 2, 9)]
        assert all(a >= b for a, b in zip(meas, meas[1:]))

    def test_monotone_in_radius(self):
        g = unit_grid(2, 0.125)
        rng = np.random.default_rng(4)
        u = GridFunction(g, rng.standard_normal(g.shape))
        meas = [
            superlevel_measure(u, 0.0, Ball((0.5, 0.5), R)) for R in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(a <= b for a, b in zip(meas, meas[1:]))


class TestTruncate:
    def test_values(self):
        g = make_grid([(0, 1)], 0.5)
        u = GridFunction(g, [3.0, 0.5, 2.0])
        t = truncate(u, 1.0)
        assert list(t.values) == [2.0, 0.0, 1.0]

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    def test_monotone_in_level(self, k1, k2):
        g = unit_grid(1, 0.25)
        rng = np.random.default_rng(5)
        u = GridFunction(g, rng.standard_normal(g.shape))
        lo, hi = min(k1, k2), max(k1, k2)
        assert np.all(truncate(u, hi).values <= truncate(u, lo).values)


class TestGridFnFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        g = unit_grid(2, 0.125)
        rng = np.random.default_rng(6)
        u = GridFunction(g, rng.standard_normal(g.shape))
        path = tmp_path / "u.gridfn"
        write_gridfn(path, u)
        v = read_gridfn(path)
        assert v.grid == g
        assert np.array_equal(v.values, u.values)

    def test_round_trip_1d_awkward_values(self, tmp_path):
        g = make_grid([(0, 1)], 1 / 3 / 85)  # h = 1/255
        vals = np.linspace(-1, 1, g.num_nodes) * math.pi
        u = GridFunction(g, vals.reshape(g.shape))
        path = tmp_path / "u.gridfn"
        write_gridfn(path, u)
        assert np.array_equal(read_gridfn(path).values, u.values)

    def test_write_is_deterministic(self, tmp_path):
        g = unit_grid(2, 0.25)
        u = hat_bump(g)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_gridfn(p1, u)
        write_gridfn(p2, u)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.gridfn"
        path.write_text("not a field\n")
        with pytest.raises(ValueError):
            read_gridfn(path)
