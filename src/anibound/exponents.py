"""Exponent calculus for anisotropic p_i,q-growth energies.

Everything here is closed-form arithmetic on the raw exponent tuple
(p_1..p_n, q, gamma, r_1..r_n, s), held by one object, `Exponents`. What the
proof derives from the tuple are its read-only properties: the exponents
sigma, sigma_bar, sigma_star, p_bar, s_prime and qs_prime; admissibility
(cond_i, cond_ii, cond_iii, gamma_bound, admissible); the constants of the
level-set recursion (delta1, delta2, alpha, lambda_base, theta1, theta2,
norm_exponent); and the embedding constant c0. `choose_d` turns them into
the level scale d of one ball.

Infinite exponents are represented by math.inf, but every convention
(1/inf = 0, r/(r+1) = 1 at r = inf, conjugate of inf is 1) is implemented
by explicit branches, never by floating-point arithmetic on inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

INF = math.inf

__all__ = [
    "INF",
    "Exponents",
    "conjugate_exponent",
    "harmonic_mean",
    "sobolev_star",
    "unit_ball_volume",
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


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


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

    Derived, read-only properties (sigma_star, p_bar and s_prime, which the
    rest read, are computed once per tuple):

    sigma       sigma_i = p_i r_i/(r_i+1), with r/(r+1) = 1 at r = inf
    sigma_bar   harmonic average of the sigma_i
    sigma_star  Sobolev exponent of sigma_bar; None when sigma_bar >= n (the
                exponent is undefined and admissibility condition (i) fails)
    p_bar       harmonic average of the p_i
    s_prime     Hoelder conjugate s' of s
    qs_prime    q * s'
    cond_i      sigma_bar < n; cond_ii, cond_iii and admissible are False
                and gamma_bound is None when it fails
    cond_ii     q < sigma_star / s'
    cond_iii    gamma < gamma_bound = (sigma_star/s') * (p_bar/q) + q - p_bar
    admissible  cond_i and cond_ii and cond_iii

    The constants of the level-set recursion
    J_{h+1} <= C*B*(d^delta1 R^delta2)^-1 lam^h J_h^(1+alpha): delta1,
    delta2, alpha, lambda_base = 8^delta2 (inf beyond binary64), the
    L-infinity bound exponents theta1 and theta2, and norm_exponent =
    theta1 * delta1, the power of (1 + ||u||) in `choose_d`; and c0 =
    |B_1|^(1 - qs'/sigma_star), the embedding constant of the Hoelder step.
    Reading one raises ValueError when sigma_bar >= n. On an inadmissible
    tuple the signs of delta1 and alpha are informative, the thetas are not.
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

    @cached_property
    def sigma_star(self) -> float | None:
        sigma_bar = self.sigma_bar
        return sobolev_star(sigma_bar, self.n) if sigma_bar < self.n else None

    @cached_property
    def p_bar(self) -> float:
        return harmonic_mean(self.p)

    @cached_property
    def s_prime(self) -> float:
        return conjugate_exponent(self.s)

    @property
    def qs_prime(self) -> float:
        return self.q * self.s_prime

    @property
    def cond_i(self) -> bool:
        return self.sigma_star is not None

    @property
    def cond_ii(self) -> bool:
        return self.cond_i and self.q < self.sigma_star / self.s_prime

    @property
    def gamma_bound(self) -> float | None:
        if not self.cond_i:
            return None
        return self.sigma_star / self.s_prime * self.p_bar / self.q + self.q - self.p_bar

    @property
    def cond_iii(self) -> bool:
        return self.cond_i and self.gamma < self.gamma_bound

    @property
    def admissible(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    @property
    def _star(self) -> float:
        """sigma_star, which every constant below reads."""
        star = self.sigma_star
        if star is None:
            raise ValueError("sigma_star undefined")
        return star

    @property
    def _denominator(self) -> float:
        """Common factor p_bar*sigma_star - qs'(gamma - q + p_bar) shared by
        delta1 and the thetas; factoring it out keeps the ratio identities
        theta2 = delta2/delta1 and theta1 = norm_exponent/delta1 accurate even
        when the factor is tiny near the admissibility boundary."""
        return self.p_bar * self._star - self.qs_prime * (self.gamma - self.q + self.p_bar)

    @property
    def _numerator(self) -> float:
        """sigma_star*gamma - qs'*p_bar, shared by norm_exponent and theta1."""
        return self._star * self.gamma - self.qs_prime * self.p_bar

    @property
    def delta1(self) -> float:
        return self.qs_prime * self._denominator / (self.p_bar * self._star)

    @property
    def delta2(self) -> float:
        self._star  # raises with the other constants when sigma_bar >= n
        return self.q * self.qs_prime / self.p_bar

    @property
    def alpha(self) -> float:
        sp, ss, pb, q = self.s_prime, self._star, self.p_bar, self.q
        return (q / pb) * (1.0 + (q - pb) * sp / ss - self.gamma * sp / ss)

    @property
    def lambda_base(self) -> float:
        try:
            return 8.0 ** self.delta2
        except OverflowError:  # too large for binary64, as in choose_d
            return math.inf

    @property
    def norm_exponent(self) -> float:
        return self.qs_prime * self._numerator / (self.p_bar * self._star)

    @property
    def theta1(self) -> float:
        return self._numerator / self._denominator

    @property
    def theta2(self) -> float:
        return self.q * self._star / self._denominator

    @property
    def c0(self) -> float:
        return unit_ball_volume(self.n) ** (1.0 - self.qs_prime / self._star)


def choose_d(e: Exponents, C_cal: float, R: float, N: float) -> float:
    """Closed-form level scale d = max(2, {C c0^alpha lam^(1/alpha) R^-delta2 (1+N)^E}^(1/delta1))
    with c0 = `e.c0`; a d too large for binary64 is returned as inf."""
    if not 0.0 < R <= 1.0:
        raise ValueError(f"radius R must lie in (0, 1], got {R}")
    if N < 0 or C_cal <= 0:
        raise ValueError("need N >= 0 and C_cal > 0")
    try:
        core = (
            C_cal
            * e.c0 ** e.alpha
            * e.lambda_base ** (1.0 / e.alpha)
            * R ** (-e.delta2)
            * (1.0 + N) ** e.norm_exponent
        )
        return max(2.0, core ** (1.0 / e.delta1))
    except OverflowError:
        return math.inf
