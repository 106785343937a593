"""The benchmark's own tests: a tiny-grid smoke pass and the output checks.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def smoke():
    """One h = 1/8 pass of every workload, untraced and traced."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seconds", "0", "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_reports_every_named_metric_with_its_unit(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    named["trace.overhead_share"] = "ratio"
    assert smoke["correct"] and smoke["failed"] == 0 and smoke["attempted"] > 0
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        prefix = workload + "."
        got = {k[len(prefix):]: v["unit"] for k, v in smoke["metrics"].items() if k.startswith(prefix)}
        assert got == named, workload


def _pass_outputs(tmp_path, workload):
    """Copy of the smoke run's last-pass outputs for one workload."""
    out = tmp_path / workload
    shutil.copytree(ROOT / ".bench_work" / workload / "pass", out)
    return workloads.problems(workload, 0, smoke=True)[0], str(out)


def test_changed_boundary_value_counts_as_failed(smoke, tmp_path):
    problem, out = _pass_outputs(tmp_path, "ladder2d")
    assert checks.check_minimize(problem, out, 0)[0] == []
    path = Path(out) / f"{problem.name}_solution.gridfn"
    lines = path.read_text().splitlines()
    lines[4] = repr(float(lines[4]) + 1e-12)  # the first node is a corner
    path.write_text("\n".join(lines) + "\n")
    found, _ = checks.check_minimize(problem, out, 0)
    assert found == ["1 boundary nodes differ from the Dirichlet data"]


def test_moved_interior_value_fails_only_where_data_is_the_minimizer(smoke, tmp_path):
    for workload, expect_failure in (("post65", True), ("radial3d", False)):
        problem, out = _pass_outputs(tmp_path, workload)
        path = Path(out) / f"{problem.name}_solution.gridfn"
        lines = path.read_text().splitlines()
        centre = 4 + (len(lines) - 4) // 2
        lines[centre] = repr(float(lines[centre]) + 1e-3)
        path.write_text("\n".join(lines) + "\n")
        found, _ = checks.check_minimize(problem, out, 0)
        assert bool(found) == expect_failure, (workload, found)


def test_invalid_certificate_counts_as_failed(smoke, tmp_path):
    problem, out = _pass_outputs(tmp_path, "post65")
    assert checks.check_certify(problem, out, 0) == []
    path = Path(out) / f"{problem.name}_certificate.csv"
    header, row = path.read_text().splitlines()
    path.write_text(header + "\n" + row[:-1] + "0\n")
    assert checks.check_certify(problem, out, 0) == ["certificate valid = 0"]
    assert checks.check_certify(problem, out, 4) != []


def test_exit_code_must_match_the_reported_convergence(smoke, tmp_path):
    problem, out = _pass_outputs(tmp_path, "radial3d")
    assert checks.check_minimize(problem, out, 3)[0] == ["exit code 3 with converged = 1"]
    assert checks.check_verify(problem, out, 0) == []
    assert checks.check_verify(problem, out, 4) == ["verify exit code 4"]


def test_seed_moves_only_boundary_data_and_seed_zero_is_the_reference():
    for workload in workloads.WORKLOADS:
        texts = [p.config_text() for p in workloads.problems(workload, 7)]
        assert texts == [p.config_text() for p in workloads.problems(workload, 7)]
        reference = workloads.problems(workload, 0)
        assert all(p.amplitude == 3.0 and set(p.centre) <= {0.5} for p in reference)
        for seed in range(1, 20):
            moved = workloads.problems(workload, seed)
            assert [replace(p, amplitude=3.0) for p in moved] == reference
            assert all(abs(p.amplitude / 3.0 - 1.0) <= workloads.AMPLITUDE_JITTER for p in moved)
    assert workloads.problems("ladder2d", 7) != workloads.problems("ladder2d", 8)
    assert workloads.problems("post65", 7) != workloads.problems("post65", 8)
    assert workloads.problems("post65", 7)[0].exact_minimizer


def test_tracer_patches_every_lookup_and_skips_missing_names(monkeypatch):
    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        user.inner()

    pkg = types.ModuleType("fakepkg")
    defs = types.ModuleType("fakepkg.defs")
    user = types.ModuleType("fakepkg.user")
    defs.inner, defs.outer = inner, outer
    user.inner = inner  # as after "from .defs import inner"
    for mod in (pkg, defs, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    wrapped = tracer.install(
        [("layer.inner", "fakepkg.defs", "inner"), ("layer.outer", "fakepkg.defs", "outer"),
         ("layer.gone", "fakepkg.defs", "removed")],
        package="fakepkg",
    )
    assert wrapped == {"layer.inner", "layer.outer"}
    tracer.problem = "p1"
    defs.outer()
    summary = tracer.summary()
    tracer.uninstall()
    assert user.inner is inner and defs.outer is outer
    assert summary["layer.inner"][0] == 1
    calls, total, own = summary["layer.outer"]
    assert calls == 1 and own == pytest.approx(total - summary["layer.inner"][1])
    assert [s[4] for s in tracer.spans] == ["p1", "p1"]
