import csv
import hashlib
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from anibound import degiorgi, inequalities
from anibound.cli import main
from anibound.config import load_config
from anibound.fields import GridFunction, read_gridfn, write_gridfn
from conftest import GRIDFN_REJECTS, gridfn_reject

ISO3D = """\
[problem]
name = iso3d

[grid]
box = 0:1,0:1,0:1
h = 0.125

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
kind = affine
coeffs = 1,0,0
offset = 0

[certify]
x0 = 0.5,0.5,0.5
R = 0.4
H = 40
C_cal = calibrate

[verify]
levels = 1,1.5
rhos = 0.15,0.2
radii = 0.3,0.35
"""

ISO2D_INADMISSIBLE = """\
[problem]
name = iso2d

[grid]
box = 0:1,0:1
h = 0.125

[exponents]
n = 2
p = 2,2
q = 2
gamma = 2
r = inf,inf
s = inf

[weights]
u_coeff = 0

[boundary]
kind = affine
coeffs = 1,0
offset = 0

[certify]
x0 = 0.5,0.5
R = 0.4
"""


SMOKE = str(Path(__file__).parent / "data" / "smoke.cfg")
SMOKE3D = str(Path(__file__).parent / "data" / "smoke3d.cfg")
OFFBOX = str(Path(__file__).parent / "data" / "offbox.cfg")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def patch(text, old, new):
    assert old in text
    return text.replace(old, new)


class TestAdmissible:
    def test_admissible_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D)
        assert main(["admissible", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "cond_iii=True" in out
        assert "theta1=" in out

    def test_inadmissible_exit_two(self, tmp_path, capsys):
        # sigma_bar = n in two dimensions, so condition (i) fails
        cfg = write_config(tmp_path, ISO2D_INADMISSIBLE)
        assert main(["admissible", "--config", cfg]) == 2
        assert "cond_i=False" in capsys.readouterr().out

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["admissible", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_malformed_config_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, "[problem]\nname = x\n")
        assert main(["admissible", "--config", cfg]) == 1

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        # no interpolation: a '%' is a character like any other
        cfg = write_config(tmp_path, patch(ISO3D, "name = iso3d", "name = iso3d%"))
        assert load_config(cfg).name == "iso3d%"
        assert main(["admissible", "--config", cfg]) == 0

    @pytest.mark.parametrize(
        "config, digest",
        [
            (SMOKE, "353fab8d92fefc210e1645b38d111b6b4bab24e2"),
            (SMOKE3D, "6a7dcbd97b3095146eaa1df7c58b7cffcc0bc895"),
        ],
        ids=["smoke", "smoke3d"],
    )
    def test_stdout_bytes(self, capsys, config, digest):
        assert main(["admissible", "--config", config]) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Run minimize once on the 3-D config and share the outputs."""
    root = tmp_path_factory.mktemp("solved")
    cfg = write_config(root, ISO3D)
    out = str(root / "out")
    code = main(["minimize", "--config", cfg, "--out", out])
    assert code == 0
    return cfg, out


class TestMinimize:
    def test_outputs_exist(self, solved):
        cfg, out = solved
        assert os.path.exists(os.path.join(out, "iso3d_solution.gridfn"))
        summary = Path(out, "iso3d_minimize.csv").read_text().splitlines()
        assert summary[0] == "energy,iterations,residual,converged,empirical_Q"
        fields = summary[1].split(",")
        assert fields[3] == "1"

    def test_rerun_byte_identical(self, solved, tmp_path):
        cfg, out = solved
        out2 = str(tmp_path / "again")
        assert main(["minimize", "--config", cfg, "--out", out2]) == 0
        for name in ("iso3d_solution.gridfn", "iso3d_minimize.csv"):
            a = Path(out, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b

    def test_solution_round_trips(self, solved, tmp_path):
        _, out = solved
        u = read_gridfn(os.path.join(out, "iso3d_solution.gridfn"))
        copy = tmp_path / "copy.gridfn"
        write_gridfn(copy, u)
        v = read_gridfn(copy)
        assert (u.values == v.values).all()

    def test_non_convergence_exit_three(self, tmp_path, capsys):
        text = patch(
            ISO3D,
            "kind = affine\ncoeffs = 1,0,0\noffset = 0",
            "kind = radial\ncenter = 0.5,0.5,0.5\nexponent = 2\noffset = 0",
        )
        text += "\n[solver]\nmax_iters = 1\ngrad_tol = 1e-14\n"
        cfg = write_config(tmp_path, text)
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert "solver stopped: max_iters after 1 Newton steps" in captured.err
        assert "solver stopped" not in captured.out


class TestCertify:
    def test_certifies(self, solved, tmp_path, capsys):
        cfg, out = solved
        sol = os.path.join(out, "iso3d_solution.gridfn")
        code = main(["certify", "--config", cfg, "--solution", sol,
                     "--out", str(tmp_path / "c")])
        assert code == 0
        assert "valid=True" in capsys.readouterr().out
        cert = (tmp_path / "c" / "iso3d_certificate.csv").read_text().splitlines()
        assert cert[0].startswith("x0,R,d,")
        assert cert[1].endswith(",1")
        trace = (tmp_path / "c" / "iso3d_trace.csv").read_text().splitlines()
        assert trace[0] == "sign,h,rho_h,k_h,J_h,rhs_h"
        assert len(trace) == 2 * 40 + 1

    @pytest.mark.parametrize("c_cal, passed", [("calibrate", 1.0), ("2.5", 2.5)])
    def test_one_certify_call(self, solved, tmp_path, monkeypatch, c_cal, passed):
        calls = []
        certify = degiorgi.certify

        def counted(*args, **kwargs):
            calls.append(kwargs["C_cal"])
            return certify(*args, **kwargs)

        monkeypatch.setattr(degiorgi, "certify", counted)
        cfg = write_config(tmp_path, patch(ISO3D, "C_cal = calibrate", f"C_cal = {c_cal}"))
        sol = os.path.join(solved[1], "iso3d_solution.gridfn")
        assert main(["certify", "--config", cfg, "--solution", sol,
                     "--out", str(tmp_path / "c")]) == 0
        assert calls == [passed]

    def test_bad_radius_exit_one(self, solved, tmp_path):
        cfg_text = patch(ISO3D, "R = 0.4", "R = 1.5")
        cfg = write_config(tmp_path, cfg_text)
        _, out = solved
        sol = os.path.join(out, "iso3d_solution.gridfn")
        assert main(["certify", "--config", cfg, "--solution", sol]) == 1

    def test_grid_mismatch_exit_one(self, solved, tmp_path):
        cfg_text = patch(ISO3D, "h = 0.125", "h = 0.25")
        cfg = write_config(tmp_path, cfg_text)
        _, out = solved
        sol = os.path.join(out, "iso3d_solution.gridfn")
        assert main(["certify", "--config", cfg, "--solution", sol]) == 1

    def test_inadmissible_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, ISO2D_INADMISSIBLE)
        out = str(tmp_path / "o")
        assert main(["minimize", "--config", cfg, "--out", out]) == 0
        sol = os.path.join(out, "iso2d_solution.gridfn")
        assert main(["certify", "--config", cfg, "--solution", sol]) == 2


class TestVerify:
    def test_passes(self, solved, tmp_path):
        cfg, out = solved
        sol = os.path.join(out, "iso3d_solution.gridfn")
        code = main(["verify", "--config", cfg, "--solution", sol,
                     "--out", str(tmp_path / "v")])
        assert code == 0
        rows = (tmp_path / "v" / "iso3d_inequalities.csv").read_text().splitlines()
        assert rows[0] == "check,context,lhs,rhs_structure,c_emp,passed"
        assert all(row.endswith(",1") for row in rows[1:])
        names = {row.split(",")[0] for row in rows[1:]}
        with open(tmp_path / "v" / "iso3d_inequalities.csv", newline="") as fh:
            # tuples in the context cell are joined by ';', not ','
            assert {len(row) for row in csv.reader(fh)} == {6}
        assert names == {"lower_bound", "embedding", "poincare_sobolev", "caccioppoli"}

    def test_failing_row_exits_four(self, solved, tmp_path, monkeypatch):
        lower_bound = inequalities.verify_lower_bound

        def failing(*args):
            return replace(lower_bound(*args), c_emp=2.0, passed=False)

        monkeypatch.setattr(inequalities, "verify_lower_bound", failing)
        cfg, out = solved
        sol = os.path.join(out, "iso3d_solution.gridfn")
        code = main(["verify", "--config", cfg, "--solution", sol,
                     "--out", str(tmp_path / "v")])
        assert code == 4
        with open(tmp_path / "v" / "iso3d_inequalities.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[-1] for row in rows if row[0] == "lower_bound"] == ["0"]
        assert all(row[-1] == "1" for row in rows if row[0] != "lower_bound")

    @pytest.mark.parametrize(
        "box, h", [("0.1:0.7", "0.05"), ("0.3:0.9", "0.1"), ("0.2:1.4", "0.1")]
    )
    def test_box_whose_far_nodes_miss_its_sides(self, tmp_path, box, h):
        # the last node lands past hi by rounding (0.1 + 12 * 0.05 > 0.7), where
        # a hat over the whole box is 2.2e-16 instead of 0; verify once refused
        # its own bump there with "field must vanish on the grid boundary"
        text = patch(Path(SMOKE).read_text(), "box = 0:1,0:1", f"box = {box},{box}")
        text = patch(text, "h = 0.125", f"h = {h}")
        text = patch(text, "[verify]\nx0 = 0.5,0.5", "[verify]\nrhos = 0.1,0.15\nradii = 0.2,0.25")
        cfg = write_config(tmp_path, text)
        sol = tmp_path / "smoke.gridfn"
        write_gridfn(sol, load_config(cfg).initial_field())
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 0
        rows = (out / "smoke_inequalities.csv").read_text().splitlines()
        passed = {row.split(",")[0]: row.endswith(",1") for row in rows[1:]}
        assert passed["embedding"] and passed["poincare_sobolev"]


class TestMalformedSolution:
    @pytest.mark.parametrize("command", ["certify", "verify"])
    @pytest.mark.parametrize("name", GRIDFN_REJECTS)
    def test_exit_one(self, tmp_path, capsys, command, name):
        cfg = write_config(tmp_path, ISO3D)
        sol = tmp_path / "iso3d.gridfn"
        write_gridfn(sol, load_config(cfg).initial_field())
        sol.write_text(gridfn_reject(sol.read_text(), name))
        out = str(tmp_path / "o")
        assert main([command, "--config", cfg, "--solution", str(sol), "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestPathErrors:
    """A path the system refuses is a usage error (exit 1), not a traceback."""

    def test_solution_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D)
        out = tmp_path / "v"
        argv = ["verify", "--config", cfg, "--solution", str(tmp_path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_out_is_an_existing_file(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the solve, so the solve never runs
        def no_solve(*args):
            raise AssertionError("solve ran before the output path was checked")

        monkeypatch.setattr("anibound.cli.solve", no_solve)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["minimize", "--config", SMOKE, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "kept\n"


PIN3D = """\
[problem]
name = pin3d

[grid]
box = 0:1,0:1,0:1
h = 0.0625

[exponents]
n = 3
p = 2,2,2
q = 2
gamma = 3
r = 4,4,4
s = inf

[weights]
lambda1.kind = power
lambda1.center = 0.25,0.25,0.25
lambda1.exponent = 0.4
u_coeff = 1
mu.kind = power
mu.center = 0.75,0.5,0.5
mu.exponent = 1.5

[boundary]
kind = radial
center = 0.2,0.3,0.4
amplitude = 8
exponent = 2

[verify]
x0 = 0.5,0.5,0.5
levels = 1,1.5,2
rhos = 0.1,0.15,0.2
radii = 0.25,0.3,0.35
"""


class TestVerifyPin:
    def test_report_bytes(self, tmp_path):
        # the boundary data itself, written at every node, is the verified
        # field, so the pin does not depend on the solver
        cfg = write_config(tmp_path, PIN3D)
        sol = tmp_path / "pin3d.gridfn"
        write_gridfn(sol, load_config(cfg).initial_field())
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 0
        data = (out / "pin3d_inequalities.csv").read_bytes()
        assert hashlib.sha1(data).hexdigest() == "45a4739032c7e1e2e7b3f9b0cffc034d6dcbe1e8"


def sha1_of(path) -> str:
    return hashlib.sha1(Path(path).read_bytes()).hexdigest()


class TestCsvPins:
    """The bytes of every other CSV the commands write, on inputs that need
    no solve, so a change to how a file is formatted shows here."""

    @pytest.mark.parametrize(
        "c_cal, code, certificate, trace",
        [
            # every J_h of both signs is nonzero, and the half-ball sup is above d
            ("1e-5", 4, "61ea01289149fbc9bac569d37779dddd305c27af",
             "3646fa01f08281d99392b6a789f718a43ac144ac"),
            # every J_h is 0 at C = 1; "calibrate" reads as C_cal = 1
            ("calibrate", 0, "faccdcae14f4ebfc932c21372c25edc07c12815c",
             "ed0fd69a90db893f2193a5878f56bdfd405c3a0d"),
        ],
        ids=["1e-5", "calibrate"],  # a re-pin keeps the test's name
    )
    def test_certify_bytes(self, tmp_path, c_cal, code, certificate, trace):
        # a closed-form polynomial field on the grid of tests/data/smoke.cfg,
        # written as GRIDFN; no transcendental function enters the values
        text = patch(Path(SMOKE).read_text(), "R = 0.4", f"R = 0.4\nC_cal = {c_cal}")
        cfg = write_config(tmp_path, text)
        grid = load_config(cfg).grid
        x, y = np.meshgrid(*grid.node_axes(), indexing="ij")
        sol = tmp_path / "field.gridfn"
        write_gridfn(sol, GridFunction(grid, 32.0 * (x - 0.5) * (1.0 + y) * x + 0.25))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == code
        assert sha1_of(out / "smoke_certificate.csv") == certificate
        assert sha1_of(out / "smoke_trace.csv") == trace

    @pytest.mark.parametrize(
        "axis, digest",
        [
            ("gamma=1.8:3:4", "28498a38dfafdc9a2a601f9a942739f813661af4"),
            # gamma = 0.5 < q is no Exponents, 9.125 and 12 fail condition (iii)
            ("gamma=0.5:12:5", "db20a3b52d6085dfd9122023714bb13a2d0dad35"),
            # q = 1.5 < p_2 is no Exponents, 12 fails condition (ii); q raises gamma
            ("q=1.5:12:4", "7b59cd1b854a77a76e955de24a394bf579a4128f"),
            # s = 1 is no Exponents; at s = 1.25, sigma_star/s' is q in exact
            # arithmetic and rounds just below it, so condition (ii) fails
            ("s=1:2:5", "f467437c9b3796fa8f45327c8c92aaad0eba12f8"),
            # r = 0.5 is no Exponents, r = 1 fails condition (ii)
            ("r=0.5:4.5:9", "c8a1c7bfc9fca2dd48073e15f31a9f1719b6376a"),
            # p = 1 is no Exponents, 2 and 2.5 fail condition (i); p raises q and gamma
            ("p=1:2.5:4", "4ae952287d20ccb3de1b51c55d5ed45a9df57ac8"),
        ],
    )
    def test_sweep_bytes(self, tmp_path, capsys, axis, digest):
        out = tmp_path / "out"
        assert main(["sweep", "--config", SMOKE, "--axis", axis, "--out", str(out)]) == 0
        assert sha1_of(out / "smoke_sweep.csv") == digest
        assert capsys.readouterr().out == (out / "smoke_sweep.csv").read_text()

    def test_minimize_bytes(self, tmp_path):
        # affine data with constant weights at p = 2 is the exact discrete
        # minimizer, so the solver takes no Newton step
        cfg = write_config(tmp_path, ISO3D)
        out = tmp_path / "out"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "iso3d_minimize.csv").read_text().splitlines()[1].split(",")[1] == "0"
        assert sha1_of(out / "iso3d_minimize.csv") == "9ddd765e530c8fa78d6d5d5ab38ba3714bbd5495"


class TestSweep:
    def test_gamma_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D)
        code = main(["sweep", "--config", cfg, "--axis", "gamma=2:6:9"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0].startswith("axis,value,")
        assert len(rows) == 10
        # gamma bound for this model is 6: admissible strictly below, not at 6
        for row in rows[1:]:
            parts = row.split(",")
            value = float(parts[1])
            admissible = parts[2:5] == ["1", "1", "1"]
            assert admissible == (value < 6.0)

    def test_single_step_matches_admissible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D)
        assert main(["sweep", "--config", cfg, "--axis", "gamma=2:2:1"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[2:5] == ["1", "1", "1"]

    def test_unknown_axis_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, ISO3D)
        assert main(["sweep", "--config", cfg, "--axis", "bogus=1:2:3"]) == 1

    def test_malformed_axis_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, ISO3D)
        assert main(["sweep", "--config", cfg, "--axis", "gamma=1:2"]) == 1

    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D)
        out = str(tmp_path / "s")
        assert main(["sweep", "--config", cfg, "--axis", "q=2:3:3", "--out", out]) == 0
        printed = capsys.readouterr().out
        on_disk = Path(out, "iso3d_sweep.csv").read_text()
        assert printed.strip() == on_disk.strip()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "text",
        [
            ISO3D.replace("[problem]\n", ""),  # no section header
            ISO3D + "\n[grid]\nh = 0.25\n",  # a duplicate section
            patch(ISO3D, "q = 2\n", "q = 2\nq = 3\n"),  # a duplicate key
            patch(ISO3D, "u_coeff = 0\n", "u_coeff = 0\nu_coeff\n"),  # a line without '='
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-key", "no-equals"],
    )
    def test_unparsable_file(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config file {cfg}: ")
        assert err.count("\n") == 1

    def test_dimension_mismatch(self, tmp_path):
        text = patch(ISO3D, "n = 3", "n = 2")
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 1

    def test_bad_number(self, tmp_path):
        text = patch(ISO3D, "gamma = 2", "gamma = two")
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 1

    def test_missing_gamma(self, tmp_path):
        text = patch(ISO3D, "gamma = 2\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "section, key, message",
        [
            *[("solver", key, f"[solver] unknown field(s): {key}")
              for key in ("step0", "shrink", "armijo", "smoothing_eps")],
            ("boundary", "ofset", "[boundary] unknown field(s): ofset"),
            ("weights", "lambda1.amplitdue", "[weights] unknown field(s): lambda1.amplitdue"),
            ("certify", "c_call", "[certify] unknown field(s): c_call"),
            ("verify", "level", "[verify] unknown field(s): level"),
            ("solvr", "grad_tol", "unknown section [solvr]"),
            ("output", "dir", "unknown section [output]"),
        ],
        ids=["step0", "shrink", "armijo", "smoothing_eps", "boundary", "weights", "certify",
             "verify", "unknown-section", "output-section"],
    )
    def test_unknown_solver_key(self, tmp_path, capsys, section, key, message):
        # a misspelt key or section once fell back silently to the default
        head, line = f"[{section}]\n", f"{key} = 0.5\n"
        if head in ISO3D:
            text = patch(ISO3D, head, head + line)
        else:
            text = ISO3D + "\n" + head + line
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("u_coeff = 0", "u_coeff = 0\nlambda1.kind = constant\nlambda1.amplitude = nan",
             "[weights] field 'lambda1.amplitude'"),
            ("u_coeff = 0", "u_coeff = 0\nlambda1.amplitude = nan",
             "[weights] field 'lambda1.amplitude'"),
            # 1/lambda_1 lies in no L^r: verify once divided by it
            ("u_coeff = 0", "u_coeff = 0\nlambda1.amplitude = 0",
             "[weights] field 'lambda1.amplitude': must be > 0"),
            ("u_coeff = 0", "u_coeff = 0\nmu.amplitude = -1",
             "[weights] field 'mu.amplitude': must be >= 0, got -1.0"),
            ("u_coeff = 0", "u_coeff = nan", "[weights] field 'u_coeff'"),
            ("r = inf,inf,inf", "r = inf,nan,inf", "[exponents] field 'r'"),
            ("R = 0.4", "R = NaN", "[certify] field 'r'"),
            ("C_cal = calibrate", "C_cal = nan", "[certify] field 'c_cal'"),
            # inf is an r or s entry only: elsewhere it once reached round()
            # in make_grid, a nan energy or residual, or d = inf
            ("box = 0:1,0:1,0:1", "box = 0:inf,0:1,0:1", "[grid] field 'box'"),
            ("u_coeff = 0", "u_coeff = 0\nlambda1.amplitude = inf",
             "[weights] field 'lambda1.amplitude'"),
            ("u_coeff = 0", "u_coeff = inf", "[weights] field 'u_coeff'"),
            ("u_coeff = 0", "u_coeff = 1\nmu.amplitude = inf", "[weights] field 'mu.amplitude'"),
            ("kind = affine\ncoeffs = 1,0,0",
             "kind = radial\ncenter = 0.5,0.5,0.5\nexponent = 2\namplitude = inf",
             "[boundary] field 'amplitude'"),
            ("C_cal = calibrate", "C_cal = inf", "[certify] field 'c_cal'"),
            # each below once passed the config reader and failed only when
            # certify or verify ran, with a message that named no key
            ("C_cal = calibrate", "C_cal = -1", "[certify] field 'c_cal': must be > 0, got -1.0"),
            ("C_cal = calibrate", "C_cal = 0", "[certify] field 'c_cal': must be > 0, got 0.0"),
            ("R = 0.4", "R = 2", "[certify] field 'r': must lie in (0, 1], got 2.0"),
            ("H = 40", "H = 0", "[certify] field 'h': must be >= 1, got 0"),
            ("levels = 1,1.5", "levels = 0.5", "[verify] field 'levels': each must be >= 1"),
            ("rhos = 0.15,0.2", "rhos = 0,0.1", "[verify] field 'rhos': each must be > 0"),
            ("radii = 0.3,0.35", "radii = 0.6",
             "[verify] field 'radii': the ball of radius 0.6 about x0 leaves the grid box"),
            # lo < hi, but no cell centre (h = 1/8) lies between 0.5 and 0.52
            ("radii = 0.3,0.35", "radii = 0.3,0.35\nsubbox = 0.1:0.9,0.5:0.52,0.1:0.9",
             "[verify] field 'subbox': sub-box ((0.1, 0.9), (0.5, 0.52), (0.1, 0.9)) "
             "holds no cell center"),
        ],
        ids=["lambda1.amplitude", "lambda1.amplitude-no-kind", "lambda1.amplitude-zero",
             "mu.amplitude-negative", "u_coeff",
             "r", "R", "C_cal", "box-inf", "lambda1.amplitude-inf", "u_coeff-inf",
             "mu.amplitude-inf", "boundary-amplitude-inf", "C_cal-inf", "C_cal-negative",
             "C_cal-zero", "R-above-one", "H-zero", "levels-below-one", "rho-zero",
             "radii-leave-box", "subbox-no-cell"],
    )
    def test_nan_exit_one(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, patch(ISO3D, old, new))
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

    def test_boundary_data_not_finite(self, tmp_path, capsys):
        # finite inputs, but |x - c|^-1 is inf at the centre c, a node
        cfg = write_config(tmp_path, patch(Path(SMOKE).read_text(), "exponent = 2", "exponent = -1"))
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [boundary]") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exponent, fault", [("-2000", "finite"), ("2000", "positive")])
    def test_power_weight_not_finite_or_not_positive(self, tmp_path, capsys, exponent, fault):
        # finite inputs, but |x - c|^-2000 overflows to inf on the cells near
        # c, and |x - c|^2000 underflows to 0 on every cell
        weight = f"u_coeff = 0\nlambda1.kind = power\nlambda1.center = 0.5,0.5\n" \
                 f"lambda1.exponent = {exponent}"
        cfg = write_config(tmp_path, patch(Path(SMOKE).read_text(), "u_coeff = 0", weight))
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [weights]: lambda1 is not {fault} on every cell\n"
        assert not (tmp_path / "o").exists()

    def test_infinite_integer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ISO3D + "\n[solver]\nmax_iters = inf\n")
        assert main(["admissible", "--config", cfg]) == 1
        assert "error: [solver] field 'max_iters'" in capsys.readouterr().err

    def test_fractional_integer(self, tmp_path):
        cfg = write_config(tmp_path, patch(ISO3D, "n = 3", "n = 3.5"))
        assert main(["admissible", "--config", cfg]) == 1

    def _verify(self, tmp_path, text):
        sol = tmp_path / "iso3d.gridfn"
        write_gridfn(sol, load_config(write_config(tmp_path, ISO3D, "ok.cfg")).initial_field())
        cfg = write_config(tmp_path, text)
        return main(["verify", "--config", cfg, "--solution", str(sol),
                     "--out", str(tmp_path / "v")])

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("levels =", "levels"),
            ("rhos = 0.5", "rhos"),
            ("rhos = 0.2\nradii = 0.2", "rhos"),
            ("radii =", "radii"),
        ],
        ids=["empty-levels", "no-rho-below-a-radius", "rho-equals-radius", "empty-radii"],
    )
    def test_verify_lists(self, tmp_path, capsys, lines, key):
        # each once ran verify to exit 0 without a Caccioppoli row, or to a
        # max() of an empty sequence
        sol = tmp_path / "smoke.gridfn"
        write_gridfn(sol, load_config(SMOKE).initial_field())
        cfg = write_config(tmp_path, Path(SMOKE).read_text() + lines + "\n")
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [verify] field '{key}'")
        assert not out.exists()

    def test_verify_x0_length(self, tmp_path, capsys):
        assert self._verify(tmp_path, ISO3D + "x0 = 0.5\n") == 1
        assert "error: [verify] field 'x0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subbox, message",
        [
            ("0.1:0.9,0.1:0.9", "[verify] field 'subbox'"),
            ("0.1:0.9,0.1:0.9,0.1:0.9,0.1:0.9", "[verify] field 'subbox'"),
            ("0.1:0.9,0.6:0.4,0.1:0.9", "[verify] field 'subbox'"),
            ("0.1:0.9,0.5:0.5,0.1:0.9", "[verify] field 'subbox'"),
            # lo < hi, but no cell center (h = 1/8) lies between them
            ("0.1:0.9,0.5:0.52,0.1:0.9", "holds no cell center"),
        ],
    )
    def test_verify_subbox(self, tmp_path, capsys, subbox, message):
        assert self._verify(tmp_path, ISO3D + f"subbox = {subbox}\n") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("center", ["0.25", "0.25,0.25,0.25"], ids=["1-entry", "3-entry"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("u_coeff = 0",
             "u_coeff = 0\nlambda1.kind = power\nlambda1.exponent = 0.5\nlambda1.center = {}",
             "error: [weights] field 'lambda1.center': expected 2 entries"),
            ("center = 0.5,0.5", "center = {}", "error: [boundary] field 'center': expected 2 entries"),
        ],
        ids=["lambda1", "boundary"],
    )
    def test_center_length_must_match_n(self, tmp_path, capsys, old, new, message, center):
        smoke = Path(SMOKE).read_text()
        cfg = write_config(tmp_path, patch(smoke, old, new.format(center)))
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_weight_without_kind_is_constant(self, tmp_path):
        cfg = write_config(tmp_path, patch(ISO3D, "u_coeff = 0", "u_coeff = 0\nlambda1.amplitude = 5"))
        assert main(["admissible", "--config", cfg]) == 0
        lam = load_config(cfg).model.lambdas
        assert (lam[0].kind, lam[0].amplitude) == ("constant", 5.0)
        assert (lam[1].kind, lam[1].amplitude) == ("constant", 1.0)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("lambda1.center = 0.5,0.5,0.5", "[weights] field lambda1.center"),
            ("mu.exponent = 1", "[weights] field mu.exponent"),
        ],
        ids=["center", "exponent"],
    )
    def test_power_field_without_kind(self, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, patch(ISO3D, "u_coeff = 0", f"u_coeff = 0\n{line}"))
        assert main(["admissible", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, prefix",
        [
            ("box = 0:1,0:1,0:1", "box = 0:1,0:1,0:nan", "error: [grid] field 'box'"),
            ("r = inf,inf,inf", "r = inf,nan,inf", "error: [exponents] field 'r'"),
        ],
        ids=["box", "r"],
    )
    def test_field_error_prefix_once(self, tmp_path, capsys, old, new, prefix):
        cfg = write_config(tmp_path, patch(ISO3D, old, new))
        assert main(["admissible", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(prefix)


PRODUCT2D = patch(
    patch(ISO2D_INADMISSIBLE, "kind = affine\ncoeffs = 1,0\noffset = 0",
          "kind = product\nfactor1 = 2,1\nfactor2 = -1,3\namplitude = 0.5\noffset = 4"),
    "h = 0.125", "h = 0.25",
)


class TestProductBoundary:
    def test_node_values(self, tmp_path):
        cfg = load_config(write_config(tmp_path, PRODUCT2D))
        x, y = np.meshgrid(*cfg.grid.node_axes(), indexing="ij")
        expected = 4.0 + 0.5 * (2.0 * x + 1.0) * (-1.0 * y + 3.0)
        np.testing.assert_allclose(cfg.initial_field().values, expected, rtol=1e-15)

    @pytest.mark.parametrize("factor", ["2", "2,1,0"])
    def test_factor_length(self, tmp_path, capsys, factor):
        cfg = write_config(tmp_path, patch(PRODUCT2D, "factor2 = -1,3", f"factor2 = {factor}"))
        assert main(["admissible", "--config", cfg]) == 1
        assert "error: [boundary] field 'factor2': expected 'a,b'" in capsys.readouterr().err


EDGE3D = patch(
    patch(patch(ISO3D, "p = 2,2,2", "p = 1.071,1.765,1.846"), "q = 2", "q = 1.954"),
    "gamma = 2", "gamma = 2.647",
)


class TestCertifyOverflow:
    def test_unrepresentable_d_fails_certification(self, tmp_path, capsys):
        # admissible, but so close to the boundary (delta1 about 0.0023) that
        # the closed-form d overflows binary64
        cfg = write_config(tmp_path, EDGE3D)
        assert main(["admissible", "--config", cfg]) == 0
        sol = tmp_path / "edge.gridfn"
        write_gridfn(sol, load_config(cfg).initial_field())
        out = tmp_path / "c"
        assert main(["certify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 4
        assert "d=inf" in capsys.readouterr().out
        row = (out / "iso3d_certificate.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "inf"
        assert row[-1] == "0"

    def test_recursion_constants_beyond_binary64(self, tmp_path, capsys):
        # admissible with delta2 about 53 512, so lambda = 8^delta2, R^-delta2
        # and (1 + N)^E exceed binary64: each is inf, and no command raises
        text = ISO3D
        for old, new in (("p = 2,2,2", "p = 2.99,2.99,2.99"), ("q = 2\n", "q = 400\n"),
                         ("gamma = 2\n", "gamma = 400\n")):
            text = patch(text, old, new)
        cfg = write_config(tmp_path, text)
        assert main(["admissible", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "lambda_base=inf"
        assert main(["sweep", "--config", cfg, "--axis", "gamma=400:401:2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[2:5] for row in rows] == [["1", "1", "1"]] * 2
        sol = tmp_path / "ovf.gridfn"
        write_gridfn(sol, load_config(cfg).initial_field())
        out = tmp_path / "c"
        assert main(["certify", "--config", cfg, "--solution", str(sol), "--out", str(out)]) == 4
        row = (out / "iso3d_certificate.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "inf"
        assert row[-1] == "0"


def test_ci_smoke_config_runs_every_command(tmp_path):
    # the problem both CI jobs run through the installed console script:
    # every command, twice, into two directories that must hold the same bytes
    cfg = SMOKE
    assert main(["admissible", "--config", cfg]) == 0
    outs = [tmp_path / "smoke", tmp_path / "smoke-again"]
    for out in outs:
        solution = str(out / "smoke_solution.gridfn")
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        assert main(["certify", "--config", cfg, "--solution", solution, "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--solution", solution, "--out", str(out)]) == 0
        assert main(["sweep", "--config", cfg, "--axis", "gamma=1.8:3:4", "--out", str(out)]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert "smoke_sweep.csv" in names and len(names) == 6
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


README = Path(__file__).parent.parent / "README.md"


def test_readme_output_table_matches_the_written_headers(tmp_path):
    # README's table of CSV outputs: each file's documented header is the
    # first line its command writes on smoke.cfg, and each command writes
    # exactly the CSV files the table lists for it
    table = re.findall(r"^\| `<name>(_\w+\.csv)` \| `([\w -]+)` \| `([\w,]+)` \|$",
                       README.read_text(), flags=re.MULTILINE)
    assert len(table) == 5
    solution = str(tmp_path / "minimize" / "smoke_solution.gridfn")
    runs = {
        "minimize": [],
        "certify": ["--solution", solution],
        "verify": ["--solution", solution],
        "sweep --out": ["--axis", "gamma=1.8:3:4"],
    }
    for command, extra in runs.items():
        name = command.split()[0]
        argv = [name, "--config", SMOKE, *extra, "--out", str(tmp_path / name)]
        assert main(argv) == 0
        written = sorted(path.name for path in (tmp_path / name).glob("*.csv"))
        assert written == sorted("smoke" + suffix for suffix, cmd, _ in table if cmd == command)
    for suffix, command, header in table:
        lines = (tmp_path / command.split()[0] / ("smoke" + suffix)).read_text().splitlines()
        assert lines[0] == header


def test_ci_offbox_config_runs_minimize_certify_verify(tmp_path):
    # the 2-D problem CI runs on a box whose far nodes miss its sides by
    # rounding (0.1 + 12 * 0.05 > 0.7), with the default C_cal and balls
    # inside the box
    spec = load_config(OFFBOX)
    assert spec.grid.lo == (0.1, 0.1) and spec.grid.hi == (0.7, 0.7) and spec.grid.h == 0.05
    assert spec.certify.C_cal == 1.0 and max(spec.model.exponents.p) < 2
    out = str(tmp_path / "out")
    solution = os.path.join(out, f"{spec.name}_solution.gridfn")
    assert main(["minimize", "--config", OFFBOX, "--out", out]) == 0
    assert main(["certify", "--config", OFFBOX, "--solution", solution, "--out", out]) == 0
    assert main(["verify", "--config", OFFBOX, "--solution", solution, "--out", out]) == 0


def test_ci_smoke3d_config_runs_minimize_certify_verify(tmp_path):
    # the 3-D problem CI also runs through the console script: the default
    # C_cal, the |u|^gamma term and 3-D bumps
    spec = load_config(SMOKE3D)
    assert spec.certify.C_cal == 1.0 and spec.model.u_coeff > 0 and spec.grid.n == 3
    out = str(tmp_path / "out")
    solution = os.path.join(out, f"{spec.name}_solution.gridfn")
    assert main(["minimize", "--config", SMOKE3D, "--out", out]) == 0
    assert main(["certify", "--config", SMOKE3D, "--solution", solution, "--out", out]) == 0
    assert main(["verify", "--config", SMOKE3D, "--solution", solution, "--out", out]) == 0


def test_sigma_below_one_verifies(tmp_path):
    # r_1 = 1 gives sigma_1 = 1.5 / 2 < 1: the lower-bound row reads the
    # L^{sigma_1} quasi-norm of D_1 u, and Hoelder still bounds its c_emp by 1/n
    cfg = write_config(tmp_path, patch(Path(SMOKE).read_text(), "r = inf,inf", "r = 1,inf"))
    assert load_config(cfg).model.exponents.sigma[0] == 0.75
    out = str(tmp_path / "out")
    solution = os.path.join(out, "smoke_solution.gridfn")
    assert main(["minimize", "--config", cfg, "--out", out]) == 0
    assert main(["certify", "--config", cfg, "--solution", solution, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--solution", solution, "--out", out]) == 0
    with open(os.path.join(out, "smoke_inequalities.csv")) as fh:
        lower = next(csv.DictReader(fh))
    assert lower["check"] == "lower_bound" and 0.0 < float(lower["c_emp"]) <= 0.5
