"""Run-configuration files: flat key-value text with bracketed sections.

Numbers are decimal binary64, "inf" is the infinity literal, nan is an error,
and n, max_iters and H must be whole numbers.  Errors raise ConfigError,
naming the section and key.  A section or key outside the schema is an
error too, so a misspelt name never falls back to its default.  The full
schema, with defaults and checks in the comments::

    [problem]
    name = iso2d                 # default run
    [grid]
    box = 0:1,0:1                # lo:hi per axis; h must divide every side
    h = 0.0625
    [exponents]
    n = 2                        # the grid dimension
    p = 2,2                      # n values; checks as in exponents.Exponents
    q = 2
    gamma = 2
    r = inf,inf                  # n values
    s = inf
    [weights]
    lambda1.kind = constant      # or power (center (n), exponent); default constant
    lambda1.amplitude = 1        # > 0 for lambda<i>; >= 0 for mu
    mu.kind = constant           # as lambda<i>
    u_coeff = 0                  # >= 0
    [boundary]
    kind = affine                # affine: coeffs (n), offset
    coeffs = 1,0                 # radial: center (n), exponent, amplitude, offset
    offset = 0                   # product: factor<i> = a,b, amplitude, offset
    [solver]                     # optional
    max_iters = 200              # >= 1; counts Newton steps
    grad_tol = 1e-8              # > 0
    [certify]                    # optional
    x0 = 0.5,0.5                 # n coordinates
    R = 0.4
    H = 40                       # >= 1, checked when certify runs; default 40
    C_cal = calibrate            # or a number; default 1
    [verify]                     # optional; defaults shown
    x0 = 0.5,0.5                 # n coordinates; default the box centre
    levels = 1,1.5,2             # not empty; each >= 1, checked when verify runs
    rhos = 0.1,0.15,0.2          # not empty; some rho below some radius
    radii = 0.25,0.3,0.35        # not empty; balls must lie in the grid box
    subbox = 0.1:0.9,0.1:0.9     # n sides lo:hi, lo < hi, in the grid box;
                                 # default the box less a tenth of each side
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .degiorgi import DEFAULT_STEPS
from .exponents import Exponents
from .fields import Grid, GridFunction, make_grid
from .integrand import ModelIntegrand, WeightField
from .minimize import SolveConfig

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed run configuration; message carries section/key context."""


def _num(text: str) -> float:
    text = text.strip()
    val = math.inf if text.lower() == "inf" else float(text)
    if math.isnan(val):
        raise ValueError("nan is not a number")
    return val


def _num_list(text: str):
    return [_num(part) for part in text.split(",") if part.strip()]


class _Section:
    """One section of the file, entered in `opened` by name; it records the
    keys it reads, so that `load_config` can reject the others."""

    def __init__(self, parser, name, opened):
        self.name = name
        try:
            self.raw = parser[name]
        except KeyError:
            raise ConfigError(f"missing section [{name}]") from None
        self.read = set()
        opened[name] = self

    def get(self, key, default=None, required=False):
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if required:
            raise ConfigError(f"[{self.name}] missing required field {key!r}")
        return default

    def num(self, key, default=None, required=False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return _num(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] field {key!r}: not a number: {raw!r}") from None

    def nums(self, key, default=None, required=False, count=None):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            values = _num_list(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] field {key!r}: not a number list: {raw!r}") from None
        if count is not None and len(values) != count:
            raise ConfigError(f"[{self.name}] field {key!r}: expected {count} entries")
        return values

    def box(self, key, default=None, required=False):
        """Sides lo:hi separated by commas, each with lo < hi."""
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            box = tuple(tuple(_num(v) for v in part.split(":")) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"[{self.name}] field {key!r}: malformed {raw!r}") from None
        if not all(len(side) == 2 and side[0] < side[1] for side in box):
            raise ConfigError(f"[{self.name}] field {key!r}: need sides lo:hi with lo < hi")
        return box

    def integer(self, key, default=None, required=False):
        val = self.num(key, required=required)
        if val is None:
            return default
        if not val.is_integer():
            raise ConfigError(f"[{self.name}] field {key!r}: not an integer: {self.raw[key]!r}")
        return int(val)


def _parse_weight(sec: _Section, prefix: str, n: int) -> WeightField:
    kind = sec.get(f"{prefix}.kind", default="constant").strip()
    amp = sec.num(f"{prefix}.amplitude", default=1.0)
    if prefix != "mu" and amp <= 0:  # 1/lambda_i must lie in L^{r_i}
        raise ConfigError(f"[{sec.name}] field '{prefix}.amplitude': must be > 0, got {amp!r}")
    if amp < 0:
        raise ConfigError(f"[{sec.name}] field '{prefix}.amplitude': must be >= 0, got {amp!r}")
    if kind == "constant":
        for key in (f"{prefix}.center", f"{prefix}.exponent"):
            if key in sec.raw:
                raise ConfigError(f"[{sec.name}] field {key}: needs {prefix}.kind = power")
        return WeightField("constant", amplitude=amp)
    if kind == "power":
        center = sec.nums(f"{prefix}.center", required=True, count=n)
        expo = sec.num(f"{prefix}.exponent", required=True)
        return WeightField("power", amplitude=amp, center=tuple(center), exponent=expo)
    raise ConfigError(f"[{sec.name}] field {prefix}.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class BoundarySpec:
    """Closed-form Dirichlet data: affine, radial, or product form."""

    kind: str
    coeffs: tuple = ()
    offset: float = 0.0
    center: tuple = ()
    amplitude: float = 1.0
    exponent: float = 1.0
    factors: tuple = ()  # product form: ((a_i, b_i), ...) -> prod (a_i x + b_i)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "affine":
            return points @ np.asarray(self.coeffs) + self.offset
        if self.kind == "radial":
            diff = points - np.asarray(self.center)
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            return self.amplitude * dist ** self.exponent + self.offset
        if self.kind == "product":
            out = np.ones(points.shape[0])
            for i, (a, b) in enumerate(self.factors):
                out *= a * points[:, i] + b
            return self.offset + self.amplitude * out
        raise ConfigError(f"unknown boundary kind {self.kind!r}")


def _parse_boundary(sec: _Section, n: int) -> BoundarySpec:
    kind = sec.get("kind", required=True).strip()
    if kind == "affine":
        coeffs = sec.nums("coeffs", required=True, count=n)
        return BoundarySpec("affine", coeffs=tuple(coeffs), offset=sec.num("offset", 0.0))
    if kind == "radial":
        center = sec.nums("center", required=True, count=n)
        return BoundarySpec(
            "radial",
            center=tuple(center),
            amplitude=sec.num("amplitude", 1.0),
            exponent=sec.num("exponent", required=True),
            offset=sec.num("offset", 0.0),
        )
    if kind == "product":
        factors = []
        for i in range(n):
            pair = sec.nums(f"factor{i + 1}", required=True)
            if len(pair) != 2:
                raise ConfigError(f"[{sec.name}] field 'factor{i + 1}': expected 'a,b'")
            factors.append(tuple(pair))
        return BoundarySpec(
            "product",
            factors=tuple(factors),
            amplitude=sec.num("amplitude", 1.0),
            offset=sec.num("offset", 0.0),
        )
    raise ConfigError(f"[{sec.name}] field 'kind': unknown boundary kind {kind!r}")


@dataclass(frozen=True)
class CertifySpec:
    x0: tuple
    R: float
    H: int
    C_cal: float | None  # None means "calibrate"


@dataclass(frozen=True)
class VerifySpec:
    levels: tuple
    rhos: tuple
    radii: tuple
    x0: tuple
    subbox: tuple  # ((lo, hi), ...): the cells of the lower-bound row


@dataclass(frozen=True)
class RunConfig:
    name: str
    grid: Grid
    model: ModelIntegrand
    boundary: BoundarySpec
    solver: SolveConfig
    certify: CertifySpec | None
    verify: VerifySpec | None

    def initial_field(self) -> GridFunction:
        values = self.boundary(self.grid.node_points()).reshape(self.grid.shape)
        return GridFunction(self.grid, values)


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # the parser's message spans lines
        raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    opened = {}
    name = _Section(parser, "problem", opened).get("name", default="run")

    gsec = _Section(parser, "grid", opened)
    h = gsec.num("h", required=True)
    box = gsec.box("box", required=True)
    try:
        grid = make_grid(box, h)
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None

    esec = _Section(parser, "exponents", opened)
    n = esec.integer("n", required=True)
    if n != grid.n:
        raise ConfigError(f"[exponents] field 'n': {n} does not match grid dimension {grid.n}")
    parsed = dict(
        n=n,
        p=tuple(esec.nums("p", required=True)),
        q=esec.num("q", required=True),
        gamma=esec.num("gamma", required=True),
        r=tuple(esec.nums("r", required=True)),
        s=esec.num("s", required=True),
    )
    try:
        exps = Exponents(**parsed)
    except ValueError as exc:
        raise ConfigError(f"[exponents]: {exc}") from None

    wsec = _Section(parser, "weights", opened)
    lambdas = tuple(_parse_weight(wsec, f"lambda{i + 1}", n) for i in range(n))
    u_coeff = wsec.num("u_coeff", default=0.0)
    mu = _parse_weight(wsec, "mu", n)
    try:
        model = ModelIntegrand(exponents=exps, lambdas=lambdas, mu=mu, u_coeff=u_coeff)
    except ValueError as exc:
        raise ConfigError(f"[weights]: {exc}") from None

    boundary = _parse_boundary(_Section(parser, "boundary", opened), n)

    solver = SolveConfig()
    if parser.has_section("solver"):
        ssec = _Section(parser, "solver", opened)
        max_iters = ssec.integer("max_iters", solver.max_iters)
        grad_tol = ssec.num("grad_tol", solver.grad_tol)
        try:
            solver = SolveConfig(max_iters=max_iters, grad_tol=grad_tol)
        except ValueError as exc:
            raise ConfigError(f"[solver]: {exc}") from None

    certify = None
    if parser.has_section("certify"):
        csec = _Section(parser, "certify", opened)
        x0 = tuple(csec.nums("x0", required=True, count=n))
        c_raw = csec.get("c_cal", default="1")
        C_cal = None if c_raw.strip().lower() == "calibrate" else csec.num("c_cal", 1.0)
        certify = CertifySpec(
            x0=x0,
            R=csec.num("r", required=True),
            H=csec.integer("h", default=DEFAULT_STEPS),
            C_cal=C_cal,
        )

    verify = None
    if parser.has_section("verify"):
        vsec = _Section(parser, "verify", opened)
        centre = [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)]
        x0 = tuple(vsec.nums("x0", default=centre, count=n))
        default_sub = tuple(
            (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
            for lo, hi in zip(grid.lo, grid.hi)
        )
        subbox = vsec.box("subbox", default=default_sub)
        if len(subbox) != n:
            raise ConfigError(f"[verify] field 'subbox': expected {n} sides")
        levels = tuple(vsec.nums("levels", default=[1.0, 1.5, 2.0]))
        rhos = tuple(vsec.nums("rhos", default=[0.1, 0.15, 0.2]))
        radii = tuple(vsec.nums("radii", default=[0.25, 0.3, 0.35]))
        for key, values in (("levels", levels), ("rhos", rhos), ("radii", radii)):
            if not values:
                raise ConfigError(f"[verify] field {key!r}: needs at least one value")
        if min(rhos) >= max(radii):
            raise ConfigError("[verify] field 'rhos': no rho is below any of the radii")
        verify = VerifySpec(levels=levels, rhos=rhos, radii=radii, x0=x0, subbox=subbox)

    # a section or key that nothing above read is an error: a misspelt name
    # would otherwise fall back silently to its default
    for title in parser.sections():
        if title not in opened:
            raise ConfigError(f"unknown section [{title}]")
        unknown = sorted(set(opened[title].raw) - opened[title].read)
        if unknown:
            raise ConfigError(f"[{title}] unknown field(s): {', '.join(unknown)}")
    return RunConfig(
        name=name,
        grid=grid,
        model=model,
        boundary=boundary,
        solver=solver,
        certify=certify,
        verify=verify,
    )
