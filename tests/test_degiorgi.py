import math
from dataclasses import replace

import numpy as np
import pytest

from anibound.degiorgi import (
    calibrate_C,
    certify,
    fast_convergence,
    hole_filling,
    interpolation_constant,
    iteration_trace,
    j_sequence,
    sequences,
)
from anibound.exponents import INF, Exponents, derive, iteration_constants
from anibound.fields import GridFunction
from anibound.minimize import SolveConfig, solve
from anibound.integrand import ModelIntegrand
from conftest import (
    constant,
    coordinate_field,
    random_admissible_exponents,
    simple_model,
    unit_grid,
)


class TestSequences:
    def test_step_zero(self):
        rho, k, rho_bar = sequences(1.0, 4.0, 0)
        assert rho == 1.0
        assert k == 2.0
        assert rho_bar == 0.875

    def test_limits(self):
        rho, k, rho_bar = sequences(1.0, 4.0, 60)
        assert rho == pytest.approx(0.5, rel=1e-15)
        assert k == pytest.approx(4.0, rel=1e-15)
        assert rho_bar == pytest.approx(0.5, rel=1e-15)

    def test_ordering(self):
        # rho_{h+1} < rho_bar_h < rho_h, and levels increase
        for h in range(10):
            rho, k, rho_bar = sequences(0.4, 3.0, h)
            rho_next, k_next, _ = sequences(0.4, 3.0, h + 1)
            assert rho_next < rho_bar < rho
            assert k < k_next

    def test_guards(self):
        with pytest.raises(ValueError):
            sequences(0.0, 4.0, 0)
        with pytest.raises(ValueError):
            sequences(1.0, 1.5, 0)
        with pytest.raises(ValueError):
            sequences(1.0, 4.0, -1)


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
        u = coordinate_field(g).scaled(6.0)
        js = j_sequence(u, (0.5, 0.5), 0.4, 4.0, e, H=10)
        assert js[0] > 0.0
        assert np.all(np.diff(js) <= 0.0)

    def test_ball_guard(self):
        g = unit_grid(2, 1 / 16)
        e = simple_model(2).exponents
        u = coordinate_field(g)
        with pytest.raises(ValueError):
            j_sequence(u, (0.5, 0.5), 0.6, 4.0, e)


class TestHoleFilling:
    def test_interpolation_constant_grows_with_theta(self):
        cs = [interpolation_constant(t, 1.0) for t in (0.5, 0.9, 0.99)]
        assert cs[0] < cs[1] < cs[2]
        assert all(c > 1.0 for c in cs)

    def test_constant_phi(self):
        taus = np.linspace(0.2, 0.4, 21)
        phi = np.full_like(taus, 3.0)
        # phi(s) = 3 <= 0.5 * 3 + B with B = 1.5: hypothesis holds with A = 0
        rep = hole_filling(taus, phi, 0.5, 0.0, 1.5, 1.0, 0.25, 0.4)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok
        assert rep.C_emp <= rep.C_theory

    def test_power_phi(self):
        # phi(s) = A0 / (0.5 - s), a shape the lemma is built for
        taus = np.linspace(0.2, 0.4, 41)
        phi = 0.01 / (0.5 - taus)
        rep = hole_filling(taus, phi, 0.5, 0.2, 0.0, 1.0, 0.25, 0.4)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok

    def test_hypothesis_violation_detected(self):
        taus = np.linspace(0.2, 0.4, 11)
        phi = np.linspace(10.0, 0.0, 11)  # decreasing: phi(s) > theta*phi(t) + small
        rep = hole_filling(taus, phi, 0.5, 0.01, 0.0, 1.0, 0.25, 0.4)
        assert not rep.hypothesis_ok
        assert not rep.conclusion_ok

    def test_guards(self):
        taus = np.linspace(0.2, 0.4, 11)
        phi = np.full_like(taus, 1.0)
        with pytest.raises(ValueError):
            hole_filling(taus[::-1], phi, 0.5, 1.0, 0.0, 1.0, 0.25, 0.4)
        with pytest.raises(ValueError):
            hole_filling(taus, phi, 0.5, 1.0, 0.0, 1.0, 0.1, 0.4)
        with pytest.raises(ValueError):
            interpolation_constant(1.0, 1.0)


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


class TestCalibration:
    def test_empty_error(self):
        with pytest.raises(ValueError):
            calibrate_C([])

    def test_zero_traces_fall_back_to_one(self):
        g = unit_grid(3, 1 / 8)
        e = simple_model(3).exponents
        c = iteration_constants(derive(e), e)
        u = GridFunction(g, np.zeros(g.shape))
        t = iteration_trace(u, X0, 0.4, 4.0, e, c, 0.0, H=10)
        assert calibrate_C([t]) == 1.0

    def test_safety_factor(self, harmonic_3d):
        m, u = harmonic_3d
        e = m.exponents
        c = iteration_constants(derive(e), e)
        t = iteration_trace(u.scaled(8.0), X0, 0.4, 2.0, e, c, 1.0, H=10)
        if t.C_emp > 0.0:
            assert calibrate_C([t]) == pytest.approx(2.0 * t.C_emp)
            assert calibrate_C([t], safety=3.0) == pytest.approx(3.0 * t.C_emp)


class TestCertify:
    def test_zero_field_certifies(self):
        g = unit_grid(3, 1 / 8)
        e = simple_model(3).exponents
        u = GridFunction(g, np.zeros(g.shape))
        cert = certify(simple_model(3), u, X0, 0.4, e)
        assert cert.valid
        assert cert.sup_half_ball == 0.0
        assert cert.slack == cert.d
        assert cert.d >= 2.0

    def test_harmonic_minimizer_certifies(self, harmonic_3d):
        m, u = harmonic_3d
        cert = certify(m, u, X0, 0.4, m.exponents)
        assert cert.valid
        assert cert.sup_half_ball <= 0.7 + 1e-9
        assert cert.sup_half_ball < cert.d
        assert cert.d <= cert.rhs_bound * (1.0 + 1e-6)

    def test_sign_symmetry(self, harmonic_3d):
        m, u = harmonic_3d
        cp = certify(m, u, X0, 0.4, m.exponents)
        cm = certify(m, -u, X0, 0.4, m.exponents)
        assert cp.d == cm.d
        assert cp.sup_half_ball == cm.sup_half_ball
        assert cp.valid == cm.valid

    def test_two_traces_recorded(self, harmonic_3d):
        m, u = harmonic_3d
        cert = certify(m, u, X0, 0.4, m.exponents, H=12)
        assert len(cert.traces) == 2
        assert {t.sign for t in cert.traces} == {1, -1}
        assert all(len(t.js) == 13 for t in cert.traces)

    def test_radius_guard(self, harmonic_3d):
        m, u = harmonic_3d
        with pytest.raises(ValueError):
            certify(m, u, X0, 1.5, m.exponents)
        with pytest.raises(ValueError):
            certify(m, u, X0, 0.6, m.exponents)

    def test_inadmissible_guard(self, harmonic_3d):
        m, u = harmonic_3d
        bad = Exponents(3, (2, 2, 2), 2, 7, (INF,) * 3, INF)
        with pytest.raises(ValueError):
            certify(m, u, X0, 0.4, bad)

    def test_d_equals_closed_form_bound(self):
        # choose_d and rhs_bound are the same closed form, so validity does not
        # test d against rhs_bound; this pins the identity instead
        rng = np.random.default_rng(7)
        finite = 0
        for e in random_admissible_exponents(rng, 40):
            # binary64 scalars, as a config file gives them
            e = replace(e, q=float(e.q), gamma=float(e.gamma), s=float(e.s))
            g = unit_grid(e.n, 1 / 4)
            m = ModelIntegrand(e, (constant(1.0),) * e.n, constant(1.0))
            R = float(rng.uniform(0.1, 0.5))
            C_cal = float(10.0 ** rng.uniform(-2, 2))
            cert = certify(m, coordinate_field(g), (0.5,) * e.n, R, e, C_cal=C_cal, H=4)
            if math.isinf(cert.d):
                assert not cert.valid
                continue
            finite += 1
            assert abs(cert.d - cert.rhs_bound) <= 1e-9 * cert.d
        assert finite >= 20
