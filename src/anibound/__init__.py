"""anibound: discrete quasi-minimizers of anisotropic, non-uniformly elliptic
energies and certification of their local boundedness by explicit level-set
iteration."""

from .exponents import (
    INF,
    Exponents,
    conjugate_exponent,
    harmonic_mean,
    sobolev_star,
    choose_d,
)
from .fields import Grid, GridFunction, Ball, make_grid, gradient, lp_norm
from .integrand import WeightField, ModelIntegrand, energy
from .minimize import SolveConfig, SolveResult, solve
from .degiorgi import certify, fast_convergence, j_sequence, sequences

__version__ = "0.1.0"
