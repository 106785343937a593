import hashlib
import os
from pathlib import Path

import pytest

from anibound.cli import main
from anibound.config import load_config
from anibound.fields import read_gridfn, write_gridfn

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

    def test_non_convergence_exit_three(self, tmp_path):
        text = patch(
            ISO3D,
            "kind = affine\ncoeffs = 1,0,0\noffset = 0",
            "kind = radial\ncenter = 0.5,0.5,0.5\nexponent = 2\noffset = 0",
        )
        text += "\n[solver]\nmax_iters = 1\ngrad_tol = 1e-14\n"
        cfg = write_config(tmp_path, text)
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


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
        assert {"lower_bound", "weight_domination", "embedding",
                "poincare_sobolev", "caccioppoli", "higher_integrability"} <= names


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
        assert hashlib.sha1(data).hexdigest() == "1681d18b36ec601ec6ead371fb943f12d8d87c62"


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

    @pytest.mark.parametrize("key", ["step0", "shrink", "armijo", "smoothing_eps"])
    def test_unknown_solver_key(self, tmp_path, key):
        cfg = write_config(tmp_path, ISO3D + f"\n[solver]\n{key} = 0.5\n")
        assert main(["admissible", "--config", cfg]) == 1

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
