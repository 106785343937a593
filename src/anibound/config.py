"""Run-configuration files: flat key-value text with bracketed sections.

Numbers are decimal binary64 and must be finite, except the entries of r
and s, where inf means a bounded weight; nan is always an error.  n,
max_iters and H must be whole numbers, and the boundary data must be finite
on every node.  Errors raise ConfigError, naming the section and key.  A
section or key outside the schema is an error too, so a misspelt name never
falls back to its default.  The full schema, with defaults and checks in the
comments::

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
    r = inf,inf                  # n values; the only numbers that may be inf,
    s = inf                      # with s
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
    R = 0.4                      # in (0, 1]; B_R(x0) must lie in the grid box,
                                 # hold a cell centre, and B_R/2(x0) a node
    H = 40                       # an integer in [1, 53]; default 40 (from
                                 # h = 53 on, rho_h and k_h round to R/2, d)
    C_cal = 1                    # > 0; default 1 (see below)
    [verify]                     # optional; defaults shown
    x0 = 0.5,0.5                 # n coordinates; default the box centre
    levels = 1,1.5,2             # not empty; each >= 1
    rhos = 0.1,0.15,0.2          # not empty; each > 0; some rho below some radius
    radii = 0.25,0.3,0.35        # not empty; each > min(rhos); the largest ball
                                 # about x0 in the grid box
    subbox = 0.1:0.9,0.1:0.9     # n sides lo:hi, lo < hi, in the grid box, with a
                                 # cell centre inside; default the box less a
                                 # tenth of each side

Each check in the comments above is made when the file loads, so a bad
value is a ConfigError naming its key whichever command reads the file.
`C_cal = calibrate`, the spelling of an in-sample calibration of C that gave
1 on every config, reads as 1 without a message; once the benchmark's
configs stop writing it, it is to become a `[certify] field 'c_cal'` error.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .degiorgi import DEFAULT_STEPS
from .exponents import Exponents
from .fields import Ball, Grid, GridFunction, make_grid
from .inequalities import _sub_box
from .integrand import ModelIntegrand, WeightField
from .minimize import SolveConfig

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed run configuration; message carries section/key context."""


def _number(text: str, inf_ok: bool = False) -> float:
    """A finite number; with inf_ok, inf too (an r or s entry)."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan  # so that "x" and "nan" get one message
    if math.isnan(val):
        raise ValueError(f"not a number: {text!r}")
    if math.isinf(val) and not inf_ok:
        raise ValueError(f"not finite: {text!r}")
    return val


def _numbers(text: str, count=None, inf_ok: bool = False) -> tuple:
    """Numbers separated by commas, empty entries skipped; `count` of them
    if given."""
    values = tuple(_number(part, inf_ok) for part in text.split(",") if part.strip())
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} entries")
    return values


def _integer(text: str) -> int:
    val = _number(text)
    if not val.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(val)


def _checked(parse, ok, need: str):
    """A parse function: `parse`, then ValueError(need.format(value)) unless ok(value)."""
    def checked(text):
        if ok(value := parse(text)):
            return value
        raise ValueError(need.format(value))
    return checked


_positive = _checked(_number, lambda v: v > 0, "must be > 0, got {!r}")
_non_negative = _checked(_number, lambda v: v >= 0, "must be >= 0, got {!r}")


def _c_cal(text: str) -> float:
    """A number > 0; "calibrate" reads as 1 (see the module docstring)."""
    return 1.0 if text.strip().lower() == "calibrate" else _positive(text)


def _box(text: str) -> tuple:
    """Sides lo:hi separated by commas, each with lo < hi."""
    sides = tuple(tuple(_number(v) for v in part.split(":")) for part in text.split(","))
    if not all(len(side) == 2 and side[0] < side[1] for side in sides):
        raise ValueError("need sides lo:hi with lo < hi")
    return sides


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

    def get(self, key, parse=str, default=None, required=False):
        """`parse` of the key's text, or `default` if the key is absent; a
        ValueError from `parse` becomes a ConfigError naming the key."""
        self.read.add(key)
        if key not in self.raw:
            if required:
                raise ConfigError(f"[{self.name}] missing required field {key!r}")
            return default
        try:
            return parse(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] field {key!r}: {exc}") from None


def _parse_weight(sec: _Section, prefix: str, n: int) -> WeightField:
    kind = sec.get(f"{prefix}.kind", default="constant").strip()
    # > 0 for lambda_i, since 1/lambda_i must lie in L^{r_i}
    amp = sec.get(f"{prefix}.amplitude", _non_negative if prefix == "mu" else _positive, 1.0)
    if kind == "constant":
        for key in (f"{prefix}.center", f"{prefix}.exponent"):
            if key in sec.raw:
                raise ConfigError(f"[{sec.name}] field {key}: needs {prefix}.kind = power")
        return WeightField("constant", amplitude=amp)
    if kind == "power":
        center = sec.get(f"{prefix}.center", partial(_numbers, count=n), required=True)
        expo = sec.get(f"{prefix}.exponent", _number, required=True)
        return WeightField("power", amplitude=amp, center=center, exponent=expo)
    raise ConfigError(f"[{sec.name}] field {prefix}.kind: unknown kind {kind!r}")


def _check_weights(model: ModelIntegrand, grid: Grid) -> None:
    """Each power weight in use (every lambda_i, mu only with a u term) must
    be finite on every cell, and lambda_i positive; constant weights are
    checked by their amplitude alone, and not sampled."""
    in_use = {f"lambda{i + 1}": w for i, w in enumerate(model.lambdas)}
    if model.u_coeff > 0:
        in_use["mu"] = model.mu
    if all(w.kind == "constant" for w in in_use.values()):
        return
    with np.errstate(all="ignore"):
        lam, mu = model.on_cells(grid)
    for (name, w), values in zip(in_use.items(), (*lam, mu)):
        if w.kind == "power" and not np.all(np.isfinite(values)):
            raise ConfigError(f"[weights]: {name} is not finite on every cell")
        if w.kind == "power" and name != "mu" and not np.all(values > 0):
            raise ConfigError(f"[weights]: {name} is not positive on every cell")


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
        coeffs = sec.get("coeffs", partial(_numbers, count=n), required=True)
        return BoundarySpec("affine", coeffs=coeffs, offset=sec.get("offset", _number, 0.0))
    if kind == "radial":
        return BoundarySpec(
            "radial",
            center=sec.get("center", partial(_numbers, count=n), required=True),
            amplitude=sec.get("amplitude", _number, 1.0),
            exponent=sec.get("exponent", _number, required=True),
            offset=sec.get("offset", _number, 0.0),
        )
    if kind == "product":
        factors = []
        for i in range(n):
            pair = sec.get(f"factor{i + 1}", _numbers, required=True)
            if len(pair) != 2:
                raise ConfigError(f"[{sec.name}] field 'factor{i + 1}': expected 'a,b'")
            factors.append(pair)
        return BoundarySpec(
            "product",
            factors=tuple(factors),
            amplitude=sec.get("amplitude", _number, 1.0),
            offset=sec.get("offset", _number, 0.0),
        )
    raise ConfigError(f"[{sec.name}] field 'kind': unknown boundary kind {kind!r}")


@dataclass(frozen=True)
class CertifySpec:
    x0: tuple
    R: float
    H: int
    C_cal: float


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
        """The boundary data on every node, which must be finite there."""
        with np.errstate(all="ignore"):
            values = self.boundary(self.grid.node_points()).reshape(self.grid.shape)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"[boundary]: {self.boundary.kind} data is not finite on every node")
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
    h = gsec.get("h", _number, required=True)
    box = gsec.get("box", _box, required=True)
    try:
        grid = make_grid(box, h)
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None

    esec = _Section(parser, "exponents", opened)
    n = esec.get("n", _integer, required=True)
    if n != grid.n:
        raise ConfigError(f"[exponents] field 'n': {n} does not match grid dimension {grid.n}")
    parsed = dict(
        n=n,
        p=esec.get("p", _numbers, required=True),
        q=esec.get("q", _number, required=True),
        gamma=esec.get("gamma", _number, required=True),
        r=esec.get("r", partial(_numbers, inf_ok=True), required=True),
        s=esec.get("s", partial(_number, inf_ok=True), required=True),
    )
    try:
        exps = Exponents(**parsed)
    except ValueError as exc:
        raise ConfigError(f"[exponents]: {exc}") from None

    wsec = _Section(parser, "weights", opened)
    lambdas = tuple(_parse_weight(wsec, f"lambda{i + 1}", n) for i in range(n))
    u_coeff = wsec.get("u_coeff", _number, 0.0)
    mu = _parse_weight(wsec, "mu", n)
    try:
        model = ModelIntegrand(exponents=exps, lambdas=lambdas, mu=mu, u_coeff=u_coeff)
    except ValueError as exc:
        raise ConfigError(f"[weights]: {exc}") from None
    _check_weights(model, grid)

    boundary = _parse_boundary(_Section(parser, "boundary", opened), n)

    solver = SolveConfig()
    if parser.has_section("solver"):
        ssec = _Section(parser, "solver", opened)
        max_iters = ssec.get("max_iters", _integer, solver.max_iters)
        grad_tol = ssec.get("grad_tol", _number, solver.grad_tol)
        try:
            solver = SolveConfig(max_iters=max_iters, grad_tol=grad_tol)
        except ValueError as exc:
            raise ConfigError(f"[solver]: {exc}") from None

    certify = None
    if parser.has_section("certify"):
        csec = _Section(parser, "certify", opened)
        certify = CertifySpec(
            x0=csec.get("x0", partial(_numbers, count=n), required=True),
            R=csec.get("r", _checked(_number, lambda R: 0 < R <= 1, "must lie in (0, 1], got {!r}"),
                       required=True),
            H=csec.get("h", _checked(_integer, lambda H: 1 <= H <= 53,
                                     "must be an integer in [1, 53], got {!r}"), DEFAULT_STEPS),
            C_cal=csec.get("c_cal", _c_cal, 1.0),
        )
        if not grid.contains_ball(Ball(certify.x0, certify.R)):
            raise ConfigError(f"[certify] field 'r': the ball of radius {certify.R} "
                              "about x0 leaves the grid box")
        # an empty ball would certify nothing; the nearest point per axis, its
        # squares summed as `fields._dist2` sums them, gives certify's masks
        for axes, radius, what in ((grid.cell_axes(), certify.R, "cell centre lies in B_R"),
                                   (grid.node_axes(), certify.R / 2.0, "node lies in B_R/2")):
            nearest = sum(float(np.min((a - c) ** 2)) for a, c in zip(axes, certify.x0))
            if nearest >= radius * radius:
                raise ConfigError(f"[certify] field 'r': no {what}(x0), radius {radius}")

    verify = None
    if parser.has_section("verify"):
        vsec = _Section(parser, "verify", opened)
        centre = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi))
        x0 = vsec.get("x0", partial(_numbers, count=n), centre)
        default_sub = tuple(
            (lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
            for lo, hi in zip(grid.lo, grid.hi)
        )
        subbox = vsec.get("subbox", _box, default_sub)
        try:
            _sub_box(grid, subbox)
        except ValueError as exc:
            raise ConfigError(f"[verify] field 'subbox': {exc}") from None
        levels = vsec.get("levels", _checked(_numbers, lambda ks: all(k >= 1 for k in ks),
                                             "each must be >= 1"), (1.0, 1.5, 2.0))
        rhos = vsec.get("rhos", _checked(_numbers, lambda rs: all(r > 0 for r in rs),
                                         "each must be > 0"), (0.1, 0.15, 0.2))
        radii = vsec.get("radii", _numbers, (0.25, 0.3, 0.35))
        for key, values in (("levels", levels), ("rhos", rhos), ("radii", radii)):
            if not values:
                raise ConfigError(f"[verify] field {key!r}: needs at least one value")
        if min(rhos) >= max(radii):
            raise ConfigError("[verify] field 'rhos': no rho is below any of the radii")
        if min(radii) <= min(rhos):  # no rho < R: that radius gives no row
            raise ConfigError(f"[verify] field 'radii': {min(radii)} gives no row; "
                              f"each must exceed min(rhos) = {min(rhos)}")
        if not grid.contains_ball(Ball(x0, max(radii))):  # the largest ball of the sweep
            raise ConfigError(f"[verify] field 'radii': the ball of radius {max(radii)} "
                              "about x0 leaves the grid box")
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
