"""Exponent calculus for anisotropic p_i,q-growth energies.

Everything here is closed-form arithmetic on the raw exponent tuple
(p_1..p_n, q, gamma, r_1..r_n, s), held by one object, `Exponents`. The
exponents the proof derives from the tuple are its read-only properties:
sigma_i = p_i r_i/(r_i+1), their harmonic average sigma_bar, its Sobolev
exponent sigma_star, the harmonic average p_bar, the Hoelder conjugate s'
and q*s'. On top of them sit the three admissibility conditions, the
L-infinity bound exponents theta1/theta2, and the iteration constants
delta1, delta2, alpha, lambda that drive the level-set recursion.

Infinite exponents are represented by math.inf, but every convention
(1/inf = 0, r/(r+1) = 1 at r = inf, conjugate of inf is 1) is implemented
by explicit branches, never by floating-point arithmetic on inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

__all__ = [
    "INF",
    "Exponents",
    "AdmissibilityReport",
    "IterationConstants",
    "conjugate_exponent",
    "harmonic_mean",
    "sobolev_star",
    "check_admissibility",
    "iteration_constants",
    "unit_ball_volume",
    "default_c0",
    "choose_d",
]


def conjugate_exponent(beta: float) -> float:
    """Hoelder conjugate beta/(beta-1), with conjugate(1) = inf, conjugate(inf) = 1."""
    if beta < 1:
        raise ValueError(f"conjugate exponent undefined for beta = {beta} < 1")
    if beta == 1:
        return INF
    if math.isinf(beta):
        return 1.0
    return beta / (beta - 1.0)


def harmonic_mean(betas) -> float:
    """n / sum(1/beta_i) with the convention 1/inf = 0; inf iff all entries are inf."""
    betas = list(betas)
    if not betas:
        raise ValueError("harmonic mean of an empty tuple")
    for b in betas:
        if b <= 0:
            raise ValueError(f"exponent {b} <= 0")
    recip = sum(0.0 if math.isinf(b) else 1.0 / b for b in betas)
    if recip == 0.0:
        return INF
    return len(betas) / recip


def sobolev_star(beta_bar: float, n: int) -> float:
    """Sobolev exponent n*beta/(n-beta), defined for 0 < beta < n."""
    if not 0 < beta_bar < n:
        raise ValueError(f"Sobolev exponent needs 0 < beta < n, got beta={beta_bar}, n={n}")
    return n * beta_bar / (n - beta_bar)


@dataclass(frozen=True)
class Exponents:
    """Raw exponent tuple of the growth conditions.

    n   spatial dimension (n = 1 is tolerated so 1-D solver oracles can reuse
        the model machinery; admissibility can never hold there)
    p   n lower growth exponents, each > 1
    q   upper gradient exponent, q >= max p_i
    gamma  zero-order exponent, gamma >= q
    r   n integrability exponents of 1/lambda_i, each in [1, inf]
    s   integrability exponent of mu, in (1, inf]

    Derived, read-only properties:

    sigma       sigma_i = p_i r_i/(r_i+1), with r/(r+1) = 1 at r = inf
    sigma_bar   harmonic average of the sigma_i
    sigma_star  Sobolev exponent of sigma_bar; None when sigma_bar >= n (the
                exponent is undefined and admissibility condition (i) fails)
    p_bar       harmonic average of the p_i
    s_prime     Hoelder conjugate s' of s
    qs_prime    q * s'
    """

    n: int
    p: tuple
    q: float
    gamma: float
    r: tuple
    s: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension n = {self.n} < 1")
        # Python floats throughout, so an overflow raises OverflowError (which
        # choose_d maps to inf) for numpy scalars as for values from a config
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        for name in ("q", "gamma", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if len(self.p) != self.n or len(self.r) != self.n:
            raise ValueError("p and r must have length n")
        for pi in self.p:
            if not 1.0 < pi <= self.q:
                raise ValueError(f"need 1 < p_i <= q, got p_i={pi}, q={self.q}")
        if not self.q <= self.gamma:
            raise ValueError(f"need q <= gamma, got q={self.q}, gamma={self.gamma}")
        for ri in self.r:
            if ri < 1:
                raise ValueError(f"need r_i >= 1, got {ri}")
        if not self.s > 1:
            raise ValueError(f"need s > 1, got {self.s}")

    @property
    def sigma(self) -> tuple:
        return tuple(
            pi if math.isinf(ri) else pi * ri / (ri + 1.0) for pi, ri in zip(self.p, self.r)
        )

    @property
    def sigma_bar(self) -> float:
        return harmonic_mean(self.sigma)

    @property
    def sigma_star(self) -> float | None:
        sigma_bar = self.sigma_bar
        return sobolev_star(sigma_bar, self.n) if sigma_bar < self.n else None

    @property
    def p_bar(self) -> float:
        return harmonic_mean(self.p)

    @property
    def s_prime(self) -> float:
        return conjugate_exponent(self.s)

    @property
    def qs_prime(self) -> float:
        return self.q * self.s_prime


@dataclass(frozen=True)
class AdmissibilityReport:
    """Three strict admissibility conditions plus the derived gamma bound.

    cond_i    sigma_bar < n
    cond_ii   q < sigma_star / s'
    cond_iii  gamma < (sigma_star/s') * (p_bar/q) + q - p_bar
    gamma_bound  the right-hand side of cond_iii (None when cond_i fails)
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    gamma_bound: float | None

    @property
    def admissible(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def check_admissibility(e: Exponents) -> AdmissibilityReport:
    if e.sigma_star is None:  # sigma_bar >= n: condition (i) fails
        return AdmissibilityReport(False, False, False, None)
    ratio = e.sigma_star / e.s_prime
    cond_ii = e.q < ratio
    gamma_bound = ratio * e.p_bar / e.q + e.q - e.p_bar
    cond_iii = e.gamma < gamma_bound
    return AdmissibilityReport(True, cond_ii, cond_iii, gamma_bound)


def _require_admissible(e: Exponents) -> None:
    rep = check_admissibility(e)
    if not rep.admissible:
        raise ValueError(
            "inadmissible exponents: "
            f"cond_i={rep.cond_i} cond_ii={rep.cond_ii} cond_iii={rep.cond_iii}"
        )


def _denominator(e: Exponents) -> float:
    """Common factor p_bar*sigma_star - qs'(gamma - q + p_bar) shared by
    delta1 and the thetas; factoring it out keeps the ratio identities
    theta2 = delta2/delta1 and theta1 = norm_exponent/delta1 accurate even
    when the factor is tiny near the admissibility boundary."""
    return e.p_bar * e.sigma_star - e.qs_prime * (e.gamma - e.q + e.p_bar)


@dataclass(frozen=True)
class IterationConstants:
    """Constants of the level-set recursion J_{h+1} <= C*B*(d^delta1 R^delta2)^-1 lam^h J_h^(1+alpha).

    norm_exponent is the power of (1 + ||u||) in the closed-form choice of the
    level scale d; it equals theta1 * delta1.
    """

    delta1: float
    delta2: float
    alpha: float
    lambda_base: float
    theta1: float
    theta2: float
    norm_exponent: float


def iteration_constants(e: Exponents, check: bool = True) -> IterationConstants:
    """Constants of the recursion.

    With check=False the closed forms are evaluated even for inadmissible
    tuples (the signs of delta1 and alpha are then informative, the thetas
    are not); callers on the certification path must keep the gate on.
    """
    if check:
        _require_admissible(e)
    sp, ss, pb = e.s_prime, e.sigma_star, e.p_bar
    q, g, qs = e.q, e.gamma, e.qs_prime
    delta2 = q * qs / pb
    D = _denominator(e)
    delta1 = qs * D / (pb * ss)
    alpha = (q / pb) * (1.0 + (q - pb) * sp / ss - g * sp / ss)
    try:
        lambda_base = 8.0 ** delta2
    except OverflowError:  # too large for binary64, as in choose_d
        lambda_base = math.inf
    M = ss * g - qs * pb
    norm_exponent = qs * M / (pb * ss)
    theta1 = M / D
    theta2 = q * ss / D
    return IterationConstants(
        delta1=delta1,
        delta2=delta2,
        alpha=alpha,
        lambda_base=lambda_base,
        theta1=theta1,
        theta2=theta2,
        norm_exponent=norm_exponent,
    )


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def default_c0(e: Exponents) -> float:
    """Default embedding constant |B_1|^(1 - qs'/sigma_star) from the Hoelder step."""
    if e.sigma_star is None:
        raise ValueError("sigma_star undefined")
    return unit_ball_volume(e.n) ** (1.0 - e.qs_prime / e.sigma_star)


def choose_d(
    c: IterationConstants,
    C_cal: float,
    c0: float,
    R: float,
    N: float,
) -> float:
    """Closed-form level scale d = max(2, {C c0^alpha lam^(1/alpha) R^-delta2 (1+N)^E}^(1/delta1)).

    A d too large for binary64 is returned as inf.
    """
    if not 0.0 < R <= 1.0:
        raise ValueError(f"radius R must lie in (0, 1], got {R}")
    if N < 0 or C_cal <= 0 or c0 <= 0:
        raise ValueError("need N >= 0 and C_cal, c0 > 0")
    try:
        core = (
            C_cal
            * c0 ** c.alpha
            * c.lambda_base ** (1.0 / c.alpha)
            * R ** (-c.delta2)
            * (1.0 + N) ** c.norm_exponent
        )
        return max(2.0, core ** (1.0 / c.delta1))
    except OverflowError:
        return math.inf
