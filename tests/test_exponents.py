import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anibound.exponents import (
    INF,
    Exponents,
    choose_d,
    conjugate_exponent,
    harmonic_mean,
    sobolev_star,
    unit_ball_volume,
)
from conftest import random_admissible_exponents, random_exponents


class TestConjugate:
    def test_self_conjugate(self):
        assert conjugate_exponent(2.0) == 2.0

    def test_infinity(self):
        assert conjugate_exponent(INF) == 1.0
        assert conjugate_exponent(1.0) == INF

    def test_four(self):
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            conjugate_exponent(0.5)

    @given(st.floats(min_value=1.0001, max_value=1e6))
    def test_involution(self, beta):
        assert conjugate_exponent(conjugate_exponent(beta)) == pytest.approx(beta, rel=1e-9)


class TestHarmonicMean:
    def test_all_equal(self):
        assert harmonic_mean((2.0, 2.0, 2.0)) == 2.0

    def test_infinity_convention(self):
        assert harmonic_mean((1.0, INF)) == 2.0
        assert harmonic_mean((INF, INF)) == INF

    def test_mixed(self):
        assert harmonic_mean((2.0, 4.0)) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean(())

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=6))
    def test_symmetric_and_bounded(self, betas):
        hm = harmonic_mean(betas)
        assert harmonic_mean(list(reversed(betas))) == pytest.approx(hm, rel=1e-12)
        assert min(betas) - 1e-12 <= hm <= max(betas) + 1e-12


class TestSobolevStar:
    def test_values(self):
        assert sobolev_star(2.0, 3) == 6.0
        assert sobolev_star(2.0, 4) == 4.0

    def test_boundary(self):
        with pytest.raises(ValueError):
            sobolev_star(3.0, 3)


class TestDerive:
    def test_all_infinite(self):
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        assert e.sigma == (2.0, 2.0, 2.0)
        assert e.sigma_bar == 2.0
        assert e.sigma_star == 6.0
        assert e.p_bar == 2.0
        assert e.s_prime == 1.0

    def test_finite_r(self):
        e = Exponents(3, (2, 2, 2), 2, 2.5, (4, 4, 4), 4)
        assert e.sigma == pytest.approx((1.6,) * 3)
        assert e.sigma_bar == pytest.approx(1.6)
        assert e.sigma_star == pytest.approx(24.0 / 7.0)
        assert e.p_bar == pytest.approx(2.0)
        assert e.s_prime == pytest.approx(4.0 / 3.0)

    def test_r_equal_one(self):
        e = Exponents(3, (2, 2, 2), 2, 2, (1, 1, 1), 2)
        assert e.sigma == pytest.approx((1.0,) * 3)
        assert e.sigma_bar == pytest.approx(1.0)
        assert e.sigma_star == pytest.approx(1.5)

    def test_sigma_capped_by_p(self, rng):
        for _ in range(200):
            e = random_exponents(rng)
            for si, pi, ri in zip(e.sigma, e.p, e.r):
                assert si <= pi + 1e-12
                assert (si == pi) == math.isinf(ri)

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            Exponents(2, (1.0, 2.0), 2, 2, (INF, INF), INF)  # p_i = 1
        with pytest.raises(ValueError):
            Exponents(2, (2.0, 2.0), 2, 1.5, (INF, INF), INF)  # gamma < q
        with pytest.raises(ValueError):
            Exponents(2, (2.0, 2.0), 2, 2, (INF, INF), 1.0)  # s = 1


class TestAdmissibility:
    def test_isotropic_gamma4(self):
        e = Exponents(3, (2, 2, 2), 2, 4, (INF,) * 3, INF)
        assert e.admissible
        assert e.gamma_bound == pytest.approx(6.0)

    def test_finite_rs(self):
        e = Exponents(3, (2, 2, 2), 2, 2.5, (4, 4, 4), 4)
        assert e.admissible
        assert e.gamma_bound == pytest.approx(18.0 / 7.0)

    def test_gamma_too_large(self):
        e = Exponents(3, (2, 2, 2), 2, 3, (4, 4, 4), 4)
        assert e.cond_i and e.cond_ii and not e.cond_iii
        assert not e.admissible

    def test_gamma_bound_above_q_whenever_cond_ii(self, rng):
        for _ in range(500):
            e = random_exponents(rng)
            if e.cond_ii:
                assert e.gamma_bound > e.q


class TestThetaExponents:
    def test_isotropic_gamma4(self):
        e = Exponents(3, (2, 2, 2), 2, 4, (INF,) * 3, INF)
        t1, t2 = e.theta1, e.theta2
        assert t1 == pytest.approx(5.0, rel=1e-14)
        assert t2 == pytest.approx(3.0, rel=1e-14)

    def test_gamma_equals_q_reduction(self, rng):
        # at gamma = q the formulas collapse to the specialized closed forms
        for _ in range(100):
            e = random_exponents(rng)
            e = Exponents(e.n, e.p, e.q, e.q, e.r, e.s)
            if not e.admissible:
                continue
            t1, t2 = e.theta1, e.theta2
            sp, ss, pb, q = e.s_prime, e.sigma_star, e.p_bar, e.q
            assert t1 == pytest.approx(q * (ss - sp * pb) / (pb * (ss - q * sp)), rel=1e-12)
            assert t2 == pytest.approx(q * ss / (pb * (ss - q * sp)), rel=1e-12)

    def test_isotropic_gamma_q(self):
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        t1, t2 = e.theta1, e.theta2
        assert t1 == pytest.approx(1.0, rel=1e-14)
        assert t2 == pytest.approx(1.5, rel=1e-14)

    def test_inadmissible_rejected(self):
        # sigma_bar = 2 = n fails cond_i: no Sobolev exponent, so no constant
        # of the recursion; reading one is a ValueError, not arithmetic on
        # None (certify refuses every inadmissible tuple, test_degiorgi)
        e = Exponents(2, (2, 2), 2, 2, (INF,) * 2, INF)
        assert e.sigma_star is None and not (e.cond_i or e.cond_ii or e.cond_iii)
        assert e.gamma_bound is None
        for name in ("delta1", "delta2", "alpha", "lambda_base", "theta1", "theta2",
                     "norm_exponent", "c0"):
            with pytest.raises(ValueError, match="sigma_star undefined"):
                getattr(e, name)


class TestRecursionConstants:
    def test_isotropic_closed_forms(self):
        e = Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)
        assert e.delta1 == pytest.approx(4.0 / 3.0, rel=1e-14)  # p^2/n
        assert e.alpha == pytest.approx(2.0 / 3.0, rel=1e-14)  # p/n
        assert e.delta2 == pytest.approx(2.0, rel=1e-14)
        assert e.lambda_base == pytest.approx(64.0, rel=1e-14)

    def test_theta2_identity(self, rng):
        for e in random_admissible_exponents(rng, 200):
            assert e.theta2 == pytest.approx(e.delta2 / e.delta1, rel=1e-12)

    def test_theta1_identity(self, rng):
        for e in random_admissible_exponents(rng, 200):
            assert e.theta1 == pytest.approx(e.norm_exponent / e.delta1, rel=1e-12)

    def test_delta1_sign_matches_cond_iii(self, rng):
        for _ in range(500):
            e = random_exponents(rng)
            if not (e.cond_i and e.cond_ii):
                continue
            assert (e.delta1 > 0) == e.cond_iii

    def test_alpha_positive_when_delta1_positive(self, rng):
        for _ in range(500):
            e = random_exponents(rng)
            if not (e.cond_i and e.cond_ii):
                continue
            if e.delta1 > 0:
                assert e.alpha > 0


class TestChooseD:
    def _iso_exponents(self):
        return Exponents(3, (2, 2, 2), 2, 2, (INF,) * 3, INF)

    def test_reference_value(self):
        e = self._iso_exponents()
        # lambda^(1/alpha) = 64^(3/2) = 512; delta1 = 4/3 -> (c0^alpha 512)^(3/4)
        assert choose_d(e, 1.0, 1.0, 0.0) == pytest.approx((e.c0 ** e.alpha * 512.0) ** 0.75,
                                                           rel=1e-12)

    def test_floor_at_two(self):
        e = self._iso_exponents()
        # C c0^alpha 512 is about 1e-9
        assert choose_d(e, 1e-12, 1.0, 0.0) == 2.0

    def test_monotone_in_norm(self):
        e = self._iso_exponents()
        prev = 0.0
        for N in (0.0, 0.5, 1.0, 5.0, 100.0):
            d = choose_d(e, 1.0, 0.5, N)
            assert d >= prev
            prev = d

    def test_monotone_in_radius(self):
        e = self._iso_exponents()
        assert choose_d(e, 1.0, 0.3, 1.0) >= choose_d(e, 1.0, 0.6, 1.0)

    def test_radius_domain(self):
        e = self._iso_exponents()
        with pytest.raises(ValueError):
            choose_d(e, 1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            choose_d(e, 1.0, 0.0, 0.0)

    def test_numpy_scalars_overflow_like_config_floats(self):
        # delta1 is about 0.0023, so d = core^(1/delta1) overflows binary64;
        # numpy scalars would give inf with an overflow RuntimeWarning instead
        # of the OverflowError that choose_d maps to inf
        args = (3, (1.071, 1.765, 1.846), 1.954, 2.647, (INF,) * 3, INF)
        as_numpy = (
            3,
            tuple(np.float64(v) for v in args[1]),
            np.float64(args[2]),
            np.float64(args[3]),
            tuple(np.float64(v) for v in args[4]),
            np.float64(args[5]),
        )
        ds = []
        for e in (Exponents(*args), Exponents(*as_numpy)):
            assert all(type(v) is float for v in (e.q, e.gamma, e.s, *e.p, *e.r))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ds.append(choose_d(e, 1.0, 0.4, 1.0))
        assert ds == [math.inf, math.inf]


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
