import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anibound.fields import (
    GridFunction,
    _average_to_cells,
    _average_to_cells_transpose,
    _Prolongation,
    _Restriction,
    _tensor_hat,
    gradient,
    lp_norm,
    make_grid,
    read_gridfn,
    write_gridfn,
)
from conftest import GRIDFN_REJECTS, coordinate_field, gridfn_reject, hat_bump, unit_grid


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
    """<A u, w> = <u, A^T w> for the cell gradient, the cell average and
    linear prolongation."""

    @pytest.mark.parametrize("grid", ADJOINT_GRIDS, ids=lambda g: f"n{g.n}")
    def test_cell_gradient(self, grid):
        # the cell gradient is the edge difference averaged to cells, so its
        # transpose is the edge-difference transpose after the skip-axis
        # `_average_to_cells_transpose`
        rng = np.random.default_rng(grid.n)
        u = rng.standard_normal(grid.shape)
        grads = gradient(GridFunction(grid, u))
        for axis in range(grid.n):
            w = rng.standard_normal(grid.cell_shape)
            lhs = np.sum(grads[axis] * w)
            a = _average_to_cells_transpose(w, skip=axis)
            lead = (slice(None),) * axis
            transpose = np.zeros(grid.shape)
            transpose[lead + (slice(None, -1),)] -= a
            transpose[lead + (slice(1, None),)] += a
            rhs = np.sum(u * transpose) / grid.h
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("grid", ADJOINT_GRIDS, ids=lambda g: f"n{g.n}")
    def test_cell_average(self, grid):
        # the nodal form (every axis averaged) and, per axis i, the edge form
        # (every axis but i averaged)
        rng = np.random.default_rng(10 + grid.n)
        w = rng.standard_normal(grid.cell_shape)
        for skip in (None, *range(grid.n)):
            shape = tuple(c + (i != skip) for i, c in enumerate(grid.cell_shape))
            u = rng.standard_normal(shape)
            transpose = _average_to_cells_transpose(w, skip=skip)
            assert transpose.shape == shape
            lhs = np.sum(_average_to_cells(u, skip=skip) * w)
            rhs = np.sum(u * transpose)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("shape", [(9,), (5, 7), (3, 5, 9)], ids=len)
    def test_restriction_is_the_transpose_of_prolongation(self, shape):
        # <P a, b> = <a, P^T b> along every axis at once and along each one;
        # P copies the even nodes and averages into the odd ones, so P of a
        # constant is that constant; each call reads its fixed input anew
        rng = np.random.default_rng(20 + len(shape))
        coarse = tuple((m + 1) // 2 for m in shape)
        a, b = np.empty(coarse), np.empty(shape)
        prolong, restrict = _Prolongation(a, np.empty(shape)), _Restriction(b, range(len(shape)))
        for _ in range(2):
            a[...], b[...] = rng.standard_normal(coarse), rng.standard_normal(shape)
            lhs = np.sum(prolong() * b)
            rhs = np.sum(a * restrict())
            assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(a)) * np.max(np.abs(b))
        a.fill(1.0)
        assert prolong().tobytes() == np.ones(shape).tobytes()
        for axis in range(len(shape)):
            # along one axis: P^T b against the sums it stands for
            b = rng.standard_normal(shape)
            lead = (slice(None),) * axis
            want = b[lead + (slice(None, None, 2),)].copy()
            want[lead + (slice(None, -1),)] += 0.5 * b[lead + (slice(1, None, 2),)]
            want[lead + (slice(1, None),)] += 0.5 * b[lead + (slice(1, None, 2),)]
            np.testing.assert_allclose(_Restriction(b, (axis,))(), want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("shape", [(9,), (4, 7), (3, 5, 4)], ids=len)
    def test_adjoint_passes_bitwise_equal_zeroed_accumulation(self, shape):
        # reference: per axis, accumulate half of each value into a zeroed
        # array, one slice at a time; the inputs are dense in signed zeros
        # and include subnormals. The gradient's D^T accumulation is pinned
        # bit for bit by test_minimize's TestInPlacePasses.
        def pair_average_ref(a, axis):
            out = np.zeros(a.shape[:axis] + (a.shape[axis] + 1,) + a.shape[axis + 1 :])
            lead = (slice(None),) * axis
            out[lead + (slice(None, -1),)] += 0.5 * a
            out[lead + (slice(1, None),)] += 0.5 * a
            return out

        rng = np.random.default_rng(len(shape))
        pool = np.array([0.0, -0.0, 1.5, -2.25, 5e-324, -5e-324, 1e-310, 0.1])
        for _ in range(50):
            a = rng.choice(pool, size=shape)
            for skip in (None, *range(len(shape))):
                ref = a
                for axis in range(len(shape)):
                    if axis != skip:
                        ref = pair_average_ref(ref, axis)
                got = _average_to_cells_transpose(a, skip=skip)
                assert got.tobytes() == ref.tobytes()


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
        assert lp_norm(f[np.zeros(g.cell_shape, dtype=bool)], 2.0, g) == 0.0

    def test_quasi_norm_below_one(self):
        # f = 1 on half the unit square's cells and 9 on the other half:
        # ||f||_{1/2} = ((sqrt(1) + sqrt(9)) / 2)^2 = 4, which exceeds
        # ||1_A||_{1/2} + ||9 * 1_B||_{1/2} = 1/4 + 9/4: no triangle inequality
        g = unit_grid(2, 0.25)
        f = np.ones(g.cell_shape)
        f[2:] = 9.0
        assert lp_norm(f, 0.5, g) == pytest.approx(4.0, rel=1e-15)
        assert lp_norm(f[:2], 0.5, g) + lp_norm(f[2:], 0.5, g) == pytest.approx(2.5, rel=1e-15)
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="need beta > 0"):
                lp_norm(f, beta, g)

    @given(st.floats(min_value=-10, max_value=10))
    def test_homogeneity(self, t):
        g = unit_grid(2, 0.25)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.cell_shape)
        for beta in (1.0, 2.0, math.inf):
            assert lp_norm(t * f, beta, g) == pytest.approx(
                abs(t) * lp_norm(f, beta, g), rel=1e-10, abs=1e-12
            )


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

    # signed zeros, subnormal and largest magnitudes, non-terminating binary
    # fractions and integer-valued floats; the rest of a field is spread over
    # 1e-300 .. 1e300 by exact ldexp arithmetic
    AWKWARD = (
        0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        1 / 3, -1 / 3, 1.0, -7.0, 2.0 ** 53, 1e22, 0.1,
    )

    @classmethod
    def awkward_field(cls, box, h):
        g = make_grid(box, h)
        vals = list(cls.AWKWARD)
        for k in range(len(vals), g.num_nodes):
            frac = (k * 2654435761 % 2 ** 52) / 2 ** 52
            vals.append((-1) ** k * math.ldexp(1.0 + frac, k * 97 % 1995 - 997))
        return GridFunction(g, np.array(vals).reshape(g.shape))

    @pytest.mark.parametrize(
        "box,h,digest",
        [
            ([(0.0, 1.0)], 1 / 40, "735949005747aac6c5059b493376eb0a3d17e076"),
            ([(-0.5, 1.0), (0.0, 2.0)], 1 / 8, "99b430c1e883d72f2eda57fa24523ba86cc2060f"),
            ([(0.0, 1.0)] * 3, 1 / 4, "947bfa9cbd94b6a677e4d7d49783b003643a576a"),
        ],
    )
    def test_write_bytes_pinned(self, tmp_path, box, h, digest):
        u = self.awkward_field(box, h)
        g = u.grid
        path = tmp_path / "u.gridfn"
        write_gridfn(path, u)
        data = path.read_bytes()
        ref = ["GRIDFN v1", f"dim={g.n}"]
        ref.append("box=" + ",".join(f"{lo:.17g}:{hi:.17g}" for lo, hi in zip(g.lo, g.hi)))
        ref.append(f"h={g.h:.17g}")
        ref.extend(f"{v:.17g}" for v in u.values.ravel())
        assert data == ("\n".join(ref) + "\n").encode()
        assert hashlib.sha1(data).hexdigest() == digest
        back = read_gridfn(path)
        assert back.grid == g
        assert back.values.tobytes() == u.values.tobytes()

    # values a field repeats: both signed zeros, which a dedup on float values
    # rather than bits would merge, both signs of the smallest subnormal, a
    # non-terminating binary fraction and integer-valued floats
    REPEATED = (0.0, -0.0, 5e-324, -5e-324, 1 / 3, 1.0, -7.0, 2.0 ** 53)

    @pytest.mark.parametrize(
        "box,h,distinct",
        [
            ([(-0.5, 1.0), (0.0, 2.0)], 1 / 8, 20),
            ([(0.0, 1.0)] * 3, 1 / 4, 13),
            ([(0.0, 1.0), (0.0, 3.0)], 1 / 3, 20),
            ([(0.0, 1.0), (0.0, 3.0)], 1 / 3, 21),
        ],
        ids=["2d", "3d", "half-distinct", "above-half-distinct"],
    )
    def test_repeated_values_bytes(self, tmp_path, box, h, distinct):
        # at most half distinct, each distinct value is formatted once; the
        # last field, with one value more, is formatted value by value
        g = make_grid(box, h)
        pool = list(self.REPEATED)
        pool += [(-1) ** j * (j + 0.5) / 7 for j in range(distinct - len(pool))]
        order = np.random.default_rng(distinct).permutation(g.num_nodes)
        u = GridFunction(g, np.array(pool)[order % distinct].reshape(g.shape))
        assert np.unique(u.values.view(np.int64)).size == distinct
        path = tmp_path / "u.gridfn"
        write_gridfn(path, u)
        body = path.read_bytes().split(b"\n", 4)[4]
        assert body == "".join(f"{v:.17g}\n" for v in u.values.ravel()).encode()
        assert read_gridfn(path).values.tobytes() == u.values.tobytes()

    @staticmethod
    def small_text(tmp_path):
        path = tmp_path / "ok.gridfn"
        write_gridfn(path, coordinate_field(unit_grid(2, 0.25)))
        return path.read_text()

    @pytest.mark.parametrize("name", GRIDFN_REJECTS)
    def test_rejects(self, tmp_path, name):
        path = tmp_path / "bad.gridfn"
        path.write_text(gridfn_reject(self.small_text(tmp_path), name))
        with pytest.raises(ValueError):
            read_gridfn(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: "".join(f" \t{ln}  \n" for ln in text.splitlines()),
            lambda text: "\n" + text.replace("\n", "\n\n", 6) + "\n \n",
        ],
        ids=["crlf", "spaces_around_values", "blank_lines"],
    )
    def test_accepts(self, tmp_path, edit):
        text = self.small_text(tmp_path)
        path = tmp_path / "edited.gridfn"
        path.write_bytes(edit(text).encode())
        ref = read_gridfn(tmp_path / "ok.gridfn")
        got = read_gridfn(path)
        assert got.grid == ref.grid
        assert got.values.tobytes() == ref.values.tobytes()


class TestTensorHat:
    """The oracle is the full-grid product of the per-axis hats, each with its
    boundary nodes zeroed, formed one axis at a time from ones."""

    @staticmethod
    def full_grid_hat(grid, box):
        vals = np.ones(grid.shape)
        for i, (x, (a, b)) in enumerate(zip(grid.node_axes(), box)):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            hat = np.clip(1.0 - np.abs(x - mid) / half, 0.0, None)
            hat[[0, -1]] = 0.0
            shape = [1] * grid.n
            shape[i] = len(x)
            vals = vals * hat.reshape(shape)
        return vals

    def check(self, grid, box):
        got = _tensor_hat(grid, box)
        assert got.shape == grid.shape
        assert got.tobytes() == self.full_grid_hat(grid, box).tobytes()
        return got

    @pytest.mark.parametrize("n,h", [(1, 1 / 64), (2, 1 / 16), (3, 1 / 8)])
    def test_random_boxes(self, n, h):
        rng = np.random.default_rng(11 + n)
        grid = make_grid([(-0.5, 1.0)] * n, h)
        nonzero = 0
        for _ in range(20):
            a = rng.uniform(-0.5, 0.9, size=n)
            b = a + rng.uniform(2 * h, 1.0, size=n)
            # a box whose only node on some axis is a boundary node is zero
            nonzero += self.check(grid, list(zip(a, b))).any()
        assert nonzero >= 15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_past_the_grid(self, n):
        grid = unit_grid(n, 1 / 8)
        self.check(grid, [(-0.3, 0.6)] + [(0.4, 1.7)] * (n - 1))
        self.check(grid, [(-2.0, 3.0)] * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_interior_drops_the_boundary_nodes(self, n):
        # boxes reaching past the grid: the nonzero nodes stop one node short
        # of each face and fill the box of nodes they span
        grid = unit_grid(n, 1 / 8)
        for box in ([(-0.3, 0.6)] + [(0.4, 1.7)] * (n - 1), [(-2.0, 3.0)] * n):
            hat = self.check(grid, box)
            nonzero = np.nonzero(hat)
            nodes = tuple(slice(k.min(), k.max() + 1) for k in nonzero)
            assert all(0 < s.start and s.stop < m for s, m in zip(nodes, grid.shape))
            assert np.all(hat[nodes] != 0.0)
            assert np.count_nonzero(hat) == hat[nodes].size

    def test_vanishes_on_a_boundary_missed_by_rounding(self):
        # 0.1 + 12 * 0.05 > 0.7: the last node misses b, where the unzeroed
        # hat is 2.2e-16
        grid = make_grid([(0.1, 0.7)] * 2, 0.05)
        hat = _tensor_hat(grid, zip(grid.lo, grid.hi))
        assert not hat[[0, -1], :].any() and not hat[:, [0, -1]].any()
        assert hat.any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_node_on_some_axis(self, n):
        grid = unit_grid(n, 1 / 8)
        # (0.26, 0.37) holds no node; (1.5, 2.5) lies outside the grid
        for axis_box in [(0.26, 0.37), (1.5, 2.5)]:
            box = [(0.1, 0.9)] * (n - 1) + [axis_box]
            assert not self.check(grid, box).any()
