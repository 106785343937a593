"""End-to-end acceptance gate.

Each numbered test exercises one contract of the library at fixed tolerances
and prints a single pass/fail line.  The level-set sweep values are pinned as
regression baselines in tests/data/caccioppoli_baselines.json, and criterion
6 fails without that file.  After an intentional numerical change, re-pin
them by running this file as a script from the repository root::

    python tests/test_acceptance.py
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from anibound.cli import main as cli_main
from anibound.config import BoundarySpec
from anibound.degiorgi import certify, fast_convergence
from anibound.exponents import INF, Exponents
from anibound.fields import GridFunction, make_grid, read_gridfn, write_gridfn
from anibound.inequalities import (
    caccioppoli_sweep,
    verify_lower_bound,
    verify_sobolev,
)
from anibound.integrand import ModelIntegrand, WeightField
from anibound.minimize import SolveConfig, solve
from conftest import (
    hat_bump,
    random_admissible_exponents,
    random_exponents,
    scaled,
    simple_model,
    unit_grid,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
BASELINE_PATH = os.path.join(DATA_DIR, "caccioppoli_baselines.json")


def report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def const(c=1.0):
    return WeightField("constant", amplitude=c)


# ---------------------------------------------------------------- problems

class Problem:
    def __init__(self, name, model, box, h, boundary, x0, R, solver=None):
        self.name = name
        self.model = model
        self.box = box
        self.h = h
        self.boundary = boundary
        self.x0 = x0
        self.R = R
        self.solver = solver or SolveConfig()

    def solve(self, h=None):
        grid = make_grid(self.box, self.h if h is None else h)
        init = GridFunction(
            grid, self.boundary(grid.node_points()).reshape(grid.shape)
        )
        res = solve(self.model, grid, init, self.solver)
        assert res.converged, f"{self.name}: solver did not converge"
        return res.u


def _problems():
    unit2 = [(0.0, 1.0)] * 2
    unit3 = [(0.0, 1.0)] * 3
    probs = []

    e1 = Exponents(2, (1.5, 1.8), 1.8, 1.8, (INF, INF), INF)
    m1 = ModelIntegrand(e1, (const(), const()), const(), 0.0)
    probs.append(Problem(
        "aniso2d", m1, unit2, 1 / 32,
        BoundarySpec("affine", coeffs=(3.0, 0.0)), (0.5, 0.5), 0.4,
    ))

    m2 = simple_model(3)
    probs.append(Problem(
        "iso3d", m2, unit3, 1 / 32,
        BoundarySpec("affine", coeffs=(3.0, 0.0, 0.0)), (0.5, 0.5, 0.5), 0.4,
    ))

    e3 = Exponents(3, (1.5, 2.0, 2.0), 2.0, 2.5, (INF,) * 3, INF)
    m3 = ModelIntegrand(e3, (const(),) * 3, const(), 0.0)
    probs.append(Problem(
        "aniso3d", m3, unit3, 1 / 32,
        BoundarySpec("affine", coeffs=(3.0, 0.0, 0.0)), (0.5, 0.5, 0.5), 0.4,
    ))

    e4 = Exponents(2, (2.0, 2.0), 2.0, 2.0, (4.0, 4.0), 4.0)
    lam1 = WeightField("power", amplitude=1.0, center=(0.25, 0.25), exponent=0.4)
    m4 = ModelIntegrand(e4, (lam1, const()), const(), 0.0)
    probs.append(Problem(
        "weighted2d", m4, unit2, 1 / 32,
        BoundarySpec("affine", coeffs=(3.0, 0.0)), (0.5, 0.5), 0.4,
        solver=SolveConfig(max_iters=100000, grad_tol=1e-6),
    ))

    # p < 2 with non-affine data, whose minimizer the solve has to find; at
    # amplitude 6 it exceeds every sweep level near x0 (at 3 it stays below 1)
    probs.append(Problem(
        "aniso2d_radial", m1, unit2, 1 / 32,
        BoundarySpec("radial", center=(0.5, 0.5), amplitude=6.0, exponent=2.0),
        (0.5, 0.5), 0.4,
    ))

    e5 = Exponents(3, (2.0, 2.0, 2.0), 2.0, 3.0, (INF,) * 3, INF)
    m5 = ModelIntegrand(e5, (const(),) * 3, const(), 1.0)
    probs.append(Problem(
        "radial3d", m5, unit3, 1 / 16,
        BoundarySpec("radial", center=(0.5, 0.5, 0.5), amplitude=3.0, exponent=2.0),
        (0.5, 0.5, 0.5), 0.4,
        solver=SolveConfig(max_iters=20000, grad_tol=1e-6),
    ))

    # radial3d's minimizer stays below the lowest sweep level k = 1 in every
    # ball, so its sweep entries are all 0; at amplitude 6 the same model's
    # minimizer exceeds every sweep level near x0
    probs.append(Problem(
        "radial3d_amp6", m5, unit3, 1 / 16,
        BoundarySpec("radial", center=(0.5, 0.5, 0.5), amplitude=6.0, exponent=2.0),
        (0.5, 0.5, 0.5), 0.4,
        solver=SolveConfig(max_iters=20000, grad_tol=1e-6),
    ))
    return probs


@pytest.fixture(scope="module")
def solved_problems():
    out = []
    for prob in _problems():
        t0 = time.perf_counter()
        u = prob.solve()
        out.append((prob, u, time.perf_counter() - t0))
    return out


# --------------------------------------------------- 1. exponent closed forms

def test_criterion_1_exponent_closed_forms(rng):
    t0 = time.perf_counter()
    ok = True
    for e in random_admissible_exponents(rng, 10_000):
        ok &= abs(e.theta2 - e.delta2 / e.delta1) <= 1e-12 * abs(e.theta2)
        ok &= abs(e.theta1 - e.norm_exponent / e.delta1) <= 1e-12 * max(abs(e.theta1), 1.0)
    for n in (3, 4, 5):
        for p in (1.5, 2.0, 2.5):
            if p >= n:
                continue
            # gamma above q stresses the general theta formulas
            for gamma_fac in (1.0, 1.2):
                gamma = p * gamma_fac
                e = Exponents(n, (p,) * n, p, gamma, (INF,) * n, INF)
                if not e.admissible:
                    continue
                p_star = n * p / (n - p)
                ok &= abs(e.theta1 - (p_star * gamma - p * p) / (p * (p_star - gamma))) <= 1e-12
                ok &= abs(e.theta2 - p_star / (p_star - gamma)) <= 1e-12
                if gamma == p:
                    ok &= abs(e.delta1 - p * p / n) <= 1e-12
                    ok &= abs(e.alpha - p / n) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(1, f"exponent closed forms ({elapsed:.2f}s)", ok and elapsed < 5.0)


# ------------------------------------------------ 2. admissibility equivalence

def test_criterion_2_admissibility_equivalence(rng):
    t0 = time.perf_counter()
    mismatches = 0
    good = 0
    while good < 10_000:
        e = random_exponents(rng)
        if not (e.cond_i and e.cond_ii):
            continue
        good += 1
        if (e.delta1 > 0) != e.cond_iii:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        f"delta1 sign matches admissibility, {mismatches} mismatches ({elapsed:.2f}s)",
        mismatches == 0 and elapsed < 5.0,
    )


# ----------------------------------------------------- 3. decay lemma oracle

def test_criterion_3_decay_oracle(rng):
    t0 = time.perf_counter()
    rep = fast_convergence(0.5, 1.0, 2.0, 1.0, H=30)
    expect = 0.5 * 2.0 ** (-np.arange(31, dtype=float))
    ok = rep.applicable and np.array_equal(rep.js, expect)
    for _ in range(100):
        A = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(2.0, 8.0))
        alpha = float(rng.uniform(0.2, 1.0))
        threshold = A ** (-1.0 / alpha) * lam ** (-1.0 / alpha ** 2)
        j0 = threshold * (1.0 - 1e-9)
        r = fast_convergence(j0, A, lam, alpha, H=40)
        ok &= r.applicable and r.passed
        ok &= r.js[40] <= 1e-10 * j0
    elapsed = time.perf_counter() - t0
    report(3, f"fast convergence oracle ({elapsed:.2f}s)", ok and elapsed < 5.0)


# --------------------------------------------------------- 4. solver oracles

def test_criterion_4_solver_oracles():
    results = []

    t0 = time.perf_counter()
    e = Exponents(1, (2.0,), 2.0, 2.0, (INF,), INF)
    lam = WeightField("power", amplitude=1.0, center=(0.0,), exponent=0.5)
    m = ModelIntegrand(e, (lam,), const(), 0.0)
    grid = make_grid([(0.0, 1.0)], 1 / 256)
    x = grid.node_points()[:, 0]
    init = GridFunction(grid, x.copy())
    res = solve(m, grid, init, SolveConfig(max_iters=30000, grad_tol=1e-5))
    err = float(np.max(np.abs(res.u.values - np.sqrt(x))))
    t_weighted = time.perf_counter() - t0
    results.append(res.converged and err <= 5 * grid.h and t_weighted < 10.0)

    t0 = time.perf_counter()
    for n in (1, 2):
        mn = simple_model(n)
        g = unit_grid(n, 1 / 32)
        pts = g.node_points()
        exact = pts[:, 0].reshape(g.shape)
        # perturbed interior start so the solve is non-trivial
        bumped = exact.copy()
        interior = tuple(slice(1, -1) for _ in range(n))
        bumped[interior] += 0.01
        r = solve(mn, g, GridFunction(g, bumped), SolveConfig())
        err_aff = float(np.max(np.abs(r.u.values - exact)))
        results.append(r.converged and err_aff <= 1e-8)
    t_affine = time.perf_counter() - t0
    results.append(t_affine < 10.0)

    report(
        4,
        f"solver oracles, weighted sup-err {err:.3e} ({t_weighted:.2f}s + {t_affine:.2f}s)",
        all(results),
    )


# --------------------------------------------------- 5. certificate soundness

def test_criterion_5_certificates(solved_problems):
    ok = True
    details = []
    for prob, u, t_solve in solved_problems:
        t0 = time.perf_counter()
        cert = certify(u, prob.x0, prob.R, prob.model.exponents)
        elapsed = t_solve + (time.perf_counter() - t0)
        decay_ok = all(
            t.js[-1] <= 1e-10 * max(t.js[0], 1e-30) for t in cert.traces
        )
        good = cert.valid and cert.sup_half_ball <= cert.d and decay_ok and elapsed < 60.0
        ok &= good
        details.append(f"{prob.name}:{'ok' if good else 'BAD'}({elapsed:.1f}s)")
    report(5, "certificates " + " ".join(details), ok)


# ------------------------------------------------- 6. level-set sweep stability

SWEEP_KS = (1.0, 1.3, 1.6)
SWEEP_RHOS = (0.2, 0.25, 0.3)
SWEEP_RS = (0.35, 0.4, 0.45)


def _sweep(model, u, x0):
    reports = caccioppoli_sweep(model, u, SWEEP_KS, SWEEP_RHOS, SWEEP_RS, x0)
    return {f"{r.context['k']},{r.context['rho']},{r.context['R']}": r.c_emp for r in reports}


def test_criterion_6_caccioppoli_stability(solved_problems):
    t0 = time.perf_counter()
    ok = True
    coarse_all = {}
    for prob, u, _ in solved_problems:
        coarse = _sweep(prob.model, u, prob.x0)
        fine_u = prob.solve(h=prob.h / 2)
        fine = _sweep(prob.model, fine_u, prob.x0)
        coarse_all[prob.name] = coarse
        for key, a in coarse.items():
            b = fine[key]
            ok &= math.isfinite(a) and math.isfinite(b)
            scale = max(abs(a), abs(b))
            if scale > 0:
                ok &= abs(a - b) / scale < 0.2

    if os.path.exists(BASELINE_PATH):
        baselines = json.loads(Path(BASELINE_PATH).read_text())
        for name, coarse in coarse_all.items():
            for key, a in coarse.items():
                pinned = baselines[name][key]
                ok &= abs(a - pinned) <= 1e-9 * max(abs(pinned), 1.0)
        # the 3-D problem with the u term pins a sweep that is not vacuous
        ok &= any(v != 0 for v in baselines["radial3d_amp6"].values())
        note = "checked against pinned baselines"
    else:
        ok = False
        note = f"{BASELINE_PATH} is missing; re-pin with `python tests/test_acceptance.py`"
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"level-set sweep stability, {note} ({elapsed:.1f}s)",
        ok and elapsed < 120.0,
    )


# --------------------------------------------------- 7. homogeneity invariance

def test_criterion_7_homogeneity(solved_problems):
    t0 = time.perf_counter()
    ok = True
    targets = [(p, u) for p, u, _ in solved_problems if p.name in ("iso3d", "weighted2d")]
    assert targets
    for prob, u in targets:
        grid = u.grid
        bump = hat_bump(grid)
        subbox = tuple((lo + 0.1, hi - 0.1) for lo, hi in prob.box)
        base_lb = verify_lower_bound(prob.model, u, subbox).c_emp
        base_em, base_ps = (rep.c_emp for rep in verify_sobolev(prob.model, bump))
        for t in (0.5, 3.0, 10.0):
            lb = verify_lower_bound(prob.model, scaled(u, t), subbox).c_emp
            em, ps = (rep.c_emp for rep in verify_sobolev(prob.model, scaled(bump, t)))
            ok &= abs(lb - base_lb) <= 1e-10 * abs(base_lb)
            ok &= abs(em - base_em) <= 1e-10 * abs(base_em)
            ok &= abs(ps - base_ps) <= 1e-10 * abs(base_ps)
    elapsed = time.perf_counter() - t0
    report(7, f"homogeneity invariance ({elapsed:.2f}s)", ok and elapsed < 10.0)


# ------------------------------------------------- 8. determinism and formats

CLI_CONFIG = """\
[problem]
name = detrun

[grid]
box = 0:1,0:1,0:1
h = 0.0625

[exponents]
n = 3
p = 2,2,2
q = 2
gamma = 2
r = inf,inf,inf
s = inf

[weights]
u_coeff = 0

[boundary]
kind = radial
center = 0.5,0.5,0.5
amplitude = 3
exponent = 2

[solver]
grad_tol = 1e-6

[certify]
x0 = 0.5,0.5,0.5
R = 0.4
C_cal = calibrate

[verify]
x0 = 0.5,0.5,0.5
levels = 1,1.5,2
rhos = 0.1,0.15,0.2
radii = 0.25,0.3,0.35
"""


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_CONFIG)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli_main(["minimize", "--config", str(cfg), "--out", out]) == 0
        sol = os.path.join(out, "detrun_solution.gridfn")
        assert cli_main(
            ["certify", "--config", str(cfg), "--solution", sol, "--out", out]
        ) == 0
        assert cli_main(
            ["verify", "--config", str(cfg), "--solution", sol, "--out", out]
        ) == 0
        outs.append(out)
    ok = True
    for name in (
        "detrun_solution.gridfn",
        "detrun_minimize.csv",
        "detrun_certificate.csv",
        "detrun_trace.csv",
        "detrun_inequalities.csv",
    ):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        ok &= a == b
    u = read_gridfn(os.path.join(outs[0], "detrun_solution.gridfn"))
    copy = tmp_path / "rt.gridfn"
    write_gridfn(copy, u)
    ok &= bool((read_gridfn(copy).values == u.values).all())
    elapsed = time.perf_counter() - t0
    report(8, f"determinism and formats ({elapsed:.1f}s)", ok and elapsed < 30.0)


if __name__ == "__main__":
    # re-pin criterion 6's baselines from the coarse solve of every problem
    pins = {prob.name: _sweep(prob.model, prob.solve(), prob.x0) for prob in _problems()}
    with open(BASELINE_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
    print(f"wrote {BASELINE_PATH}")
