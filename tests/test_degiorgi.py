import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anibound import degiorgi
from anibound.degiorgi import (
    IterationTrace,
    certify,
    fast_convergence,
    j_sequence,
    sequences,
)
from anibound.exponents import INF, Exponents
from anibound.fields import GridFunction, make_grid
from anibound.minimize import SolveConfig, solve
from conftest import (
    coordinate_field,
    random_admissible_exponents,
    ref_j_sequence,
    scaled,
    simple_model,
    unit_grid,
)


class TestSequences:
    def test_step_zero(self):
        rhos, ks = sequences(1.0, 4.0, 1)
        assert rhos[0] == 1.0
        assert ks[0] == 2.0

    def test_limits(self):
        rhos, ks = sequences(1.0, 4.0, 60)
        assert rhos[60] == pytest.approx(0.5, rel=1e-15)
        assert ks[60] == pytest.approx(4.0, rel=1e-15)

    def test_ordering(self):
        # radii decrease and levels increase
        rhos, ks = sequences(0.4, 3.0, 10)
        assert np.all(rhos[1:] < rhos[:-1])
        assert np.all(ks[:-1] < ks[1:])

    @given(st.floats(1e-3, 1.0), st.floats(2.0, 1e12), st.integers(1, 1100))
    def test_is_the_scalar_formula_bitwise(self, R, d, H):
        # one array per schedule, each entry the bits of the formula for its
        # h, also once 0.5^h is below an ulp of 1 and once it underflows
        rhos, ks = sequences(R, d, H)
        want_rhos = np.array([(R / 2.0) * (1.0 + 0.5 ** h) for h in range(H + 1)])
        want_ks = np.array([d * (1.0 - 0.5 ** (h + 1)) for h in range(H + 1)])
        assert rhos.tobytes() == want_rhos.tobytes()
        assert ks.tobytes() == want_ks.tobytes()

    @given(st.floats(1e-3, 1.0), st.floats(2.0, 1e12))
    def test_monotone_in_floating_point(self, R, d):
        # rho_h never rises and k_h never falls, also once 0.5^h is below an
        # ulp: the super-level sets that j_sequence filters in one pass nest
        rhos, ks = sequences(R, d, 79)
        assert np.all(rhos[1:] <= rhos[:-1]) and np.all(ks[1:] >= ks[:-1])

    def test_guards(self):
        with pytest.raises(ValueError):
            sequences(0.0, 4.0, 1)
        with pytest.raises(ValueError):
            sequences(1.0, 1.5, 1)
        with pytest.raises(ValueError):
            sequences(1.0, 4.0, -1)
        with pytest.raises(ValueError):
            sequences(1.0, 4.0, 0)


class TestJSequence:
    def test_zero_below_first_level(self):
        g = unit_grid(2, 1 / 16)
        e = simple_model(2).exponents
        u = GridFunction(g, np.full(g.shape, 1.9))
        js = j_sequence(u, (0.5, 0.5), 0.4, 4.0, e, H=10)
        assert np.all(js == 0.0)

    def test_monotone_nonincreasing(self):
        g = unit_grid(2, 1 / 16)
        e = simple_model(2).exponents
        u = scaled(coordinate_field(g), 6.0)
        js = j_sequence(u, (0.5, 0.5), 0.4, 4.0, e, H=10)
        assert js[0] > 0.0
        assert np.all(np.diff(js) <= 0.0)

    def test_ball_guard(self):
        g = unit_grid(2, 1 / 16)
        e = simple_model(2).exponents
        u = coordinate_field(g)
        with pytest.raises(ValueError):
            j_sequence(u, (0.5, 0.5), 0.6, 4.0, e)


class TestFastConvergence:
    def test_exact_geometric_case(self):
        # A=1, lambda=2, alpha=1, J0=0.5: threshold is exactly 0.5 and the
        # iterates collapse to J_h = 2^-h * J0, meeting the envelope exactly.
        rep = fast_convergence(0.5, 1.0, 2.0, 1.0, H=30)
        assert rep.applicable
        expect = 0.5 * 2.0 ** (-np.arange(31, dtype=float))
        assert rep.js == pytest.approx(expect, rel=1e-12)
        assert rep.passed

    def test_below_threshold_decays(self):
        rep = fast_convergence(0.1, 1.0, 2.0, 1.0, H=40)
        assert rep.applicable and rep.decayed and rep.passed

    def test_above_threshold_not_applicable(self):
        rep = fast_convergence(0.6, 1.0, 2.0, 1.0)
        assert not rep.applicable
        assert not rep.passed

    def test_zero_start(self):
        rep = fast_convergence(0.0, 1.0, 2.0, 1.0)
        assert rep.applicable
        assert np.all(rep.js == 0.0)
        assert rep.decayed

    def test_guards(self):
        with pytest.raises(ValueError):
            fast_convergence(0.1, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            fast_convergence(0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fast_convergence(-0.1, 1.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def harmonic_3d():
    m = simple_model(3)
    g = unit_grid(3, 1 / 16)
    init = coordinate_field(g)
    res = solve(m, g, init, SolveConfig())
    assert res.converged
    return m, res.u

X0 = (0.5, 0.5, 0.5)


class TestCertify:
    def test_zero_field_certifies(self):
        g = unit_grid(3, 1 / 8)
        e = simple_model(3).exponents
        u = GridFunction(g, np.zeros(g.shape))
        cert = certify(u, X0, 0.4, e)
        assert cert.valid
        assert cert.sup_half_ball == 0.0
        assert cert.slack == cert.d
        assert cert.d >= 2.0

    def test_harmonic_minimizer_certifies(self, harmonic_3d):
        m, u = harmonic_3d
        cert = certify(u, X0, 0.4, m.exponents)
        assert cert.valid
        assert cert.sup_half_ball <= 0.7 + 1e-9
        assert cert.sup_half_ball < cert.d

    def test_sign_symmetry(self, harmonic_3d):
        m, u = harmonic_3d
        cp = certify(u, X0, 0.4, m.exponents)
        cm = certify(GridFunction(u.grid, -u.values), X0, 0.4, m.exponents)
        assert cp.d == cm.d
        assert cp.sup_half_ball == cm.sup_half_ball
        assert cp.valid == cm.valid

    def test_two_traces_recorded(self, harmonic_3d):
        m, u = harmonic_3d
        cert = certify(u, X0, 0.4, m.exponents, H=12)
        assert len(cert.traces) == 2
        assert {t.sign for t in cert.traces} == {1, -1}
        assert all(len(t.js) == 13 for t in cert.traces)

    @pytest.mark.parametrize("C_cal", [1e-6, 1.0])
    def test_traces_are_the_iteration_traces(self, C_cal):
        # amplitude-6 radial data shifted by -4, on a ball away from its
        # centre: at C_cal = 1e-6, d = 2 and both signs have J_h > 0; at
        # C_cal = 1 every J_h is 0. The J_h are bitwise the full-grid
        # masses of u and of -u, every other field is `_trace` of them, and
        # the certificate holds the one schedule both signs ran on
        g = make_grid([(-0.5, 1.5)] * 3, 1 / 8)
        u = GridFunction(g, 6.0 * np.sum((g.node_points() - 0.5) ** 2, axis=1) - 4.0)
        e = simple_model(3).exponents
        x0, R = (1.0, 0.9, 0.9), 0.45
        cert = certify(u, x0, R, e, C_cal=C_cal, H=12)
        assert [t.sign for t in cert.traces] == [1, -1]
        rhos, ks = sequences(R, cert.d, 12)
        assert cert.rhos.tobytes() == rhos.tobytes() and cert.ks.tobytes() == ks.tobytes()
        for t, field in zip(cert.traces, (u, GridFunction(g, -u.values))):
            js = ref_j_sequence(field, x0, R, cert.d, e, 12)
            assert t.js.tobytes() == js.tobytes()
            ref = degiorgi._trace(R, cert.d, e, cert.N, t.sign, js)
            for f in fields(IterationTrace):
                got, want = getattr(t, f.name), getattr(ref, f.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
        if C_cal < 1.0:
            assert cert.d == 2.0
            assert all(np.count_nonzero(t.js) >= 2 for t in cert.traces)
        else:
            assert not any(np.any(t.js) for t in cert.traces)

    def test_one_level_scale_per_call(self, harmonic_3d, monkeypatch):
        # one d, at the given constant, serves both signs and the one schedule
        m, u = harmonic_3d
        calls = []
        choose_d = degiorgi.choose_d
        monkeypatch.setattr(degiorgi, "choose_d", lambda *args: calls.append(args) or choose_d(*args))
        cert = certify(u, X0, 0.4, m.exponents, C_cal=2.5, H=12)
        assert calls == [(m.exponents, 2.5, 0.4, cert.N)]
        assert cert.d == choose_d(m.exponents, 2.5, 0.4, cert.N)

    def test_radius_guard(self, harmonic_3d):
        m, u = harmonic_3d
        with pytest.raises(ValueError):
            certify(u, X0, 1.5, m.exponents)
        with pytest.raises(ValueError):
            certify(u, X0, 0.6, m.exponents)

    def test_inadmissible_guard(self, harmonic_3d):
        m, u = harmonic_3d
        bad = Exponents(3, (2, 2, 2), 2, 7, (INF,) * 3, INF)
        with pytest.raises(ValueError, match="^inadmissible exponents: cond_i=True cond_ii=True "
                                             "cond_iii=False$"):
            certify(u, X0, 0.4, bad)

    def test_d_equals_closed_form_bound(self):
        # d is choose_d's closed form in delta1, delta2 and the norm exponent;
        # the exponents' theta1 = E / delta1 and theta2 = delta2 / delta1
        # must give the same d when it is written through them
        rng = np.random.default_rng(7)
        finite = 0
        for e in random_admissible_exponents(rng, 40):
            # binary64 scalars, as a config file gives them
            e = replace(e, q=float(e.q), gamma=float(e.gamma), s=float(e.s))
            g = unit_grid(e.n, 1 / 4)
            R = float(rng.uniform(0.1, 0.5))
            C_cal = float(10.0 ** rng.uniform(-2, 2))
            cert = certify(coordinate_field(g), (0.5,) * e.n, R, e, C_cal=C_cal, H=4)
            if math.isinf(cert.d):
                assert not cert.valid
                continue
            finite += 1
            core = (C_cal * e.c0 ** e.alpha * e.lambda_base ** (1.0 / e.alpha)) ** (
                1.0 / e.delta1
            )
            closed = max(2.0, core * R ** (-e.theta2) * (1.0 + cert.N) ** e.theta1)
            assert abs(cert.d - closed) <= 1e-9 * cert.d
        assert finite >= 20
