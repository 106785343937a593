"""anibound: discrete quasi-minimizers of anisotropic, non-uniformly elliptic
energies and certification of their local boundedness by explicit level-set
iteration."""

__version__ = "0.1.0"
