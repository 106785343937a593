"""Checks on the files each anibound command writes.

Each check returns a list of problems; an empty list means the outputs are
correct. The checks read the files with their own parsers, so a defect in
anibound's readers cannot hide a defect in its writers.

Exit codes are part of the outputs: minimize may exit 3 only when its summary
says it did not converge (a reported non-convergence is a correct result of a
failed solve), certify and verify must exit 0.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from workloads import GRAD_TOL

EXACT_TOL = 1e-9  # relative round-off allowed where the data is the exact minimizer


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_gridfn(path):
    """(dim, h, values) of a GRIDFN v1 file, values in file (C) order."""
    with open(path) as fh:
        header = [fh.readline().strip() for _ in range(4)]
        values = np.loadtxt(fh, dtype=float, ndmin=1)
    if header[0] != "GRIDFN v1":
        raise ValueError("not a GRIDFN v1 file")
    return int(header[1].split("=", 1)[1]), float(header[3].split("=", 1)[1]), values


def _boundary_mask(shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        lead = (slice(None),) * axis
        mask[lead + (0,)] = True
        mask[lead + (-1,)] = True
    return mask


def check_minimize(problem, out_dir: str, rc) -> tuple:
    """(problems, summary) for one minimize; summary holds iterations and converged."""
    sol = os.path.join(out_dir, f"{problem.name}_solution.gridfn")
    summary_path = os.path.join(out_dir, f"{problem.name}_minimize.csv")
    try:
        (row,) = _read_csv(summary_path)
        summary = {
            "iterations": int(row["iterations"]),
            "converged": row["converged"] == "1",
            "residual": float(row["residual"]),
        }
        dim, h, values = _read_gridfn(sol)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable minimize output: {exc!r}"], None
    out = []
    if summary["converged"] and not summary["residual"] <= GRAD_TOL:
        out.append(f"converged = 1 but residual {summary['residual']} > grad_tol")
    if rc != (0 if summary["converged"] else 3):
        out.append(f"exit code {rc} with converged = {int(summary['converged'])}")
    data = problem.dirichlet()
    if dim != problem.n or h != problem.h or values.size != data.size:
        return out + [f"solution grid (dim {dim}, h {h}, {values.size} nodes) is not the config's"], summary
    values = values.reshape(data.shape)
    if not np.all(np.isfinite(values)):
        out.append("solution has non-finite values")
    mask = _boundary_mask(data.shape)
    if not np.array_equal(values[mask], data[mask]):
        bad = int(np.count_nonzero(values[mask] != data[mask]))
        out.append(f"{bad} boundary nodes differ from the Dirichlet data")
    if problem.exact_minimizer:
        err = float(np.max(np.abs(values - data)))
        if not err <= EXACT_TOL * float(np.max(np.abs(data))):
            out.append(f"solution is {err:.3g} away from the exact affine minimizer")
    return out, summary


def check_certify(problem, out_dir: str, rc) -> list:
    path = os.path.join(out_dir, f"{problem.name}_certificate.csv")
    try:
        cert = _read_csv(path)[0]
        valid, d, sup = cert["valid"], float(cert["d"]), float(cert["sup_half_ball"])
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    out = []
    if valid != "1":
        out.append(f"certificate valid = {valid}")
    if not (math.isfinite(sup) and sup <= d):
        out.append(f"sup_half_ball {sup} > d {d}")
    if rc != 0:
        out.append(f"certify exit code {rc}")
    return out


def check_verify(problem, out_dir: str, rc) -> list:
    # The context column holds unquoted tuples with commas, so each row is
    # read as check name first and the passed flag last.
    path = os.path.join(out_dir, f"{problem.name}_inequalities.csv")
    try:
        with open(path) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
    except OSError as exc:
        return [f"unreadable inequality report: {exc}"]
    out = [f"{row[0]} passed = {row[-1]}" for row in rows if row[-1] != "1"]
    if not rows:
        out.append("inequality report has no rows")
    if rc != 0:
        out.append(f"verify exit code {rc}")
    return out
