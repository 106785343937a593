"""Batch command-line front end.

Commands
    admissible  --config <path>
    minimize    --config <path> [--out <dir>]
    certify     --config <path> --solution <file> [--out <dir>]
    verify      --config <path> --solution <file> [--out <dir>]
    sweep       --config <path> --axis "param=lo:hi:steps" [--out <dir>]

Exit codes: 0 ok, 1 usage/config error or a path the system cannot read or
write, 2 inadmissible, 3 non-convergence, 4 verification/certification
failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import degiorgi, inequalities
from .config import ConfigError, RunConfig, _integer, _number, load_config
from .exponents import Exponents
from .fields import GridFunction, _tensor_hat, read_gridfn, write_gridfn
from .minimize import solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_FAILED = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(v) -> str:
    """One CSV cell: a flag as 0/1, a float with `_fmt`, a coordinate tuple
    joined by `;`, anything else with `str`."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, tuple):
        return ";".join(map(_cell, v))
    return str(v)


def _csv_text(header, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _write_csv(path, header, rows) -> None:
    """The one writer of every CSV file the commands produce."""
    with open(path, "w") as fh:
        fh.write(_csv_text(header, rows))


def _admissibility_lines(e: Exponents):
    lines = [
        f"sigma_bar={_fmt(e.sigma_bar)}",
        f"sigma_star={_fmt(e.sigma_star) if e.sigma_star is not None else 'undefined'}",
        f"p_bar={_fmt(e.p_bar)}",
        f"s_prime={_fmt(e.s_prime)}",
        f"cond_i={e.cond_i}",
        f"cond_ii={e.cond_ii}",
        f"cond_iii={e.cond_iii}",
        f"gamma_bound={_fmt(e.gamma_bound) if e.gamma_bound is not None else 'undefined'}",
    ]
    if e.admissible:
        lines += [
            f"{name}={_fmt(getattr(e, name))}"
            for name in ("theta1", "theta2", "delta1", "delta2", "alpha", "lambda_base")
        ]
    return lines, e.admissible


def cmd_admissible(args) -> int:
    cfg = load_config(args.config)
    lines, admissible = _admissibility_lines(cfg.model.exponents)
    print("\n".join(lines))
    return EXIT_OK if admissible else EXIT_INADMISSIBLE


def _out_path(args, filename: str) -> str:
    directory = args.out or "."
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename)


def cmd_minimize(args) -> int:
    cfg = load_config(args.config)
    init = cfg.initial_field()
    sol_path = _out_path(args, f"{cfg.name}_solution.gridfn")
    csv_path = _out_path(args, f"{cfg.name}_minimize.csv")
    result = solve(cfg.model, cfg.grid, init, cfg.solver)
    write_gridfn(sol_path, result.u)
    _write_csv(
        csv_path,
        ("energy", "iterations", "residual", "converged", "energy_lower", "smoothing_defect",
         "residual_h"),
        [(result.energy_h, result.iterations, result.residual, result.converged,
          result.energy_lower, result.smoothing_defect, result.residual_h)],
    )
    print(f"solution: {sol_path}")
    print(f"summary: {csv_path}")
    if not result.converged:
        print(
            f"solver stopped: {result.stop_reason} after {result.iterations} Newton steps, "
            f"residual {_fmt(result.residual)}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _load_solution(cfg: RunConfig, path) -> GridFunction:
    u = read_gridfn(path)
    if u.grid != cfg.grid:
        raise ConfigError(f"solution grid in {path} does not match the config grid")
    return u


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    if cfg.certify is None:
        raise ConfigError("missing section [certify]")
    e = cfg.model.exponents
    if not e.admissible:
        print("exponents are not admissible; nothing to certify", file=sys.stderr)
        return EXIT_INADMISSIBLE
    u = _load_solution(cfg, args.solution)
    spec = cfg.certify
    cert = degiorgi.certify(u, spec.x0, spec.R, e, C_cal=spec.C_cal, H=spec.H)
    cert_path = _out_path(args, f"{cfg.name}_certificate.csv")
    _write_csv(
        cert_path,
        ("x0", "R", "d", "sup_half_ball", "slack", "theta1", "theta2", "valid"),
        [(cert.x0, cert.R, cert.d, cert.sup_half_ball, cert.slack, cert.theta1, cert.theta2,
          cert.valid)],
    )
    trace_path = _out_path(args, f"{cfg.name}_trace.csv")
    _write_csv(
        trace_path,
        ("sign", "h", "rho_h", "k_h", "J_h", "rhs_h"),
        [(t.sign, h, cert.rhos[h], cert.ks[h], t.js[h], t.rhs[h])
         for t in cert.traces for h in range(len(t.rhs))],
    )
    print(f"certificate: {cert_path}")
    print(f"trace: {trace_path}")
    print(f"d={_fmt(cert.d)} sup_half_ball={_fmt(cert.sup_half_ball)} valid={cert.valid}")
    return EXIT_OK if cert.valid else EXIT_FAILED


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if cfg.verify is None:
        raise ConfigError("missing section [verify]")
    u = _load_solution(cfg, args.solution)
    spec = cfg.verify
    reports = [inequalities.verify_lower_bound(cfg.model, u, spec.subbox)]
    if cfg.model.exponents.sigma_star is not None:
        hat = _tensor_hat(cfg.grid, zip(cfg.grid.lo, cfg.grid.hi))
        reports += inequalities.verify_sobolev(cfg.model, GridFunction(cfg.grid, hat))
    reports += inequalities.caccioppoli_sweep(
        cfg.model, u, spec.levels, spec.rhos, spec.radii, spec.x0
    )

    csv_path = _out_path(args, f"{cfg.name}_inequalities.csv")
    _write_csv(
        csv_path,
        ("check", "context", "lhs", "rhs_structure", "c_emp", "passed"),
        [(rep.name, ";".join(f"{k}={_cell(v) if isinstance(v, tuple) else v}"
                             for k, v in sorted(rep.context.items())),
          rep.lhs, rep.rhs_structure, rep.c_emp, rep.passed) for rep in reports],
    )
    print(f"report: {csv_path}")
    all_ok = all(rep.passed for rep in reports)
    return EXIT_OK if all_ok else EXIT_FAILED


# The fields of Exponents that one swept value v sets, per axis; q raises
# gamma, and p raises q and gamma, so that p_i <= q <= gamma keeps holding.
_SWEEP_AXES = {
    "gamma": lambda e, v: {"gamma": v},
    "q": lambda e, v: {"q": v, "gamma": max(e.gamma, v)},
    "s": lambda e, v: {"s": v},
    "r": lambda e, v: {"r": (v,) * e.n},
    "p": lambda e, v: {"p": (v,) * e.n, "q": max(e.q, v), "gamma": max(e.gamma, e.q, v)},
}


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        axis, rng = args.axis.split("=", 1)
        lo_s, hi_s, steps_s = rng.split(":")
        lo, hi, steps = _number(lo_s), _number(hi_s), _integer(steps_s)
    except ValueError as exc:
        raise ValueError(f"malformed axis spec {args.axis!r} ({exc}); expected param=lo:hi:steps "
                         "with finite lo and hi") from None
    axis = axis.strip()
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {', '.join(_SWEEP_AXES)}")
    if not 1 <= steps <= 10_000:  # every row is built before the first is printed
        raise ValueError(f"steps must be an integer in [1, 10000], got {steps}")
    values = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]

    header = ("axis", "value", "cond_i", "cond_ii", "cond_iii", "theta1", "theta2", "delta1", "alpha")
    rows = []
    e = cfg.model.exponents
    for v in values:
        conds, consts = (False,) * 3, (np.nan,) * 4
        try:
            exps = replace(e, **_SWEEP_AXES[axis](e, v))
        except ValueError:  # v gives no valid exponents
            pass
        else:
            conds = (exps.cond_i, exps.cond_ii, exps.cond_iii)
            if exps.admissible:
                consts = (exps.theta1, exps.theta2, exps.delta1, exps.alpha)
        rows.append((axis, v, *conds, *consts))
    print(_csv_text(header, rows), end="")
    if args.out:
        _write_csv(_out_path(args, f"{cfg.name}_sweep.csv"), header, rows)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="anibound",
        description="Quasi-minimizers of anisotropic energies and their L-infinity certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, solution=False, axis=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if solution:
            p.add_argument("--solution", required=True)
        if axis:
            p.add_argument("--axis", required=True)
        p.set_defaults(func=func)

    add("admissible", cmd_admissible)
    add("minimize", cmd_minimize)
    add("certify", cmd_certify, solution=True)
    add("verify", cmd_verify, solution=True)
    add("sweep", cmd_sweep, axis=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of inadmissible
        # exponents, and 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
