"""anibound benchmark: time to a certified, verified minimizer.

Each pass runs minimize -> certify -> verify through anibound.cli.main on
every problem of the workload, in this process and thread, each command
starting when the previous one returns (a closed loop with one client).
Every command's outputs are checked. Passes repeat until the next one would
end after --seconds; at least three passes run.

    python3 bench/run.py --workload ladder2d --seed 0 --seconds 36 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

One workload prints human-readable lines and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced run.
See bench/README.md for the metrics, the workloads and their reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per workload run: thread pools are sized when numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5  # per pass
# A median over three passes or more outvotes one pass slowed by a burst of
# load from other tenants of the machine (ladder2d passes last 10-16 s).
MIN_PASSES = 3
COMMANDS = ("minimize", "certify", "verify")

# (span name, defining module, public function) for every call the cli makes
# into a layer. The exponents module is closed-form arithmetic and is left out.
LAYERS = (
    ("config.load_config", "anibound.config", "load_config"),
    ("minimize.solve", "anibound.minimize", "solve"),
    ("minimize.quasimin", "anibound.minimize", "verify_quasiminimality"),
    ("minimize.perturbations", "anibound.minimize", "random_perturbations"),
    ("integrand.energy", "anibound.integrand", "energy"),
    ("fields.write_gridfn", "anibound.fields", "write_gridfn"),
    ("fields.read_gridfn", "anibound.fields", "read_gridfn"),
    ("inequalities.caccioppoli", "anibound.inequalities", "verify_caccioppoli"),
    *(
        ("inequalities.other", "anibound.inequalities", fn)
        for fn in (
            "verify_lower_bound", "verify_weight_domination", "verify_embedding",
            "verify_poincare_sobolev", "higher_integrability_norm",
        )
    ),
    ("degiorgi.certify", "anibound.degiorgi", "certify"),
    ("degiorgi.j_sequence", "anibound.degiorgi", "j_sequence"),
)
COUNTED = ("integrand.energy", "inequalities.caccioppoli", "degiorgi.j_sequence")


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "anibound" or k.startswith("anibound.")}


def _time_setup(problems, directory: Path) -> float:
    """Seconds to import anibound afresh and write the configs. The modules
    already in use are put back afterwards, so repetitions can run between
    passes, even traced ones."""
    in_use = _package_modules()
    for name in in_use:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    importlib.import_module("anibound.cli")
    _write_configs(problems, directory)
    seconds = time.perf_counter() - t0
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def _write_configs(problems, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for p in problems:
        (directory / f"{p.name}.cfg").write_text(p.config_text())


def _call(main, argv):
    """(exit code or None if it raised, seconds) of one command; stdout is discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        return rc, time.perf_counter() - t0


def run_pass(mains, problems, out_dir: Path, tracer) -> dict:
    """Run and check every command on every problem once."""
    shutil.rmtree(out_dir, ignore_errors=True)
    _write_configs(problems, out_dir)
    rec = {"pipeline_s": 0.0, "command_s": {}, "attempted": 0, "failed": 0, "ok": 0,
           "iterations": {}, "converged": {}, "gridfn_bytes": 0}
    t0 = time.perf_counter()
    for p in problems:
        cfg = str(out_dir / f"{p.name}.cfg")
        sol = str(out_dir / f"{p.name}_solution.gridfn")
        if tracer is not None:
            tracer.problem = p.name
        for cmd in COMMANDS:
            argv = [cmd, "--config", cfg, "--out", str(out_dir)]
            if cmd != "minimize":
                argv += ["--solution", sol]
            rc, seconds = _call(mains[cmd], argv)
            rec["pipeline_s"] += seconds
            rec["command_s"][p.name, cmd] = seconds
            if cmd == "minimize":
                found, summary = checks.check_minimize(p, str(out_dir), rc)
                if summary is not None:
                    rec["iterations"][p.name] = summary["iterations"]
                    rec["converged"][p.name] = summary["converged"]
                if os.path.exists(sol):
                    rec["gridfn_bytes"] += os.path.getsize(sol)
            elif cmd == "certify":
                found = checks.check_certify(p, str(out_dir), rc)
            else:
                found = checks.check_verify(p, str(out_dir), rc)
            rec["attempted"] += 1
            rec["failed"] += bool(found)
            rec["ok"] += rc == 0 and not found
            for msg in found:
                print(f"check failed: {p.name} {cmd}: {msg}", file=sys.stderr)
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def end_to_end_metrics(setup_times, passes, first_pass_rss) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    # Each command's median over the passes, summed: a burst of interference
    # from other tenants of the machine then moves one command's sample only.
    pipeline = sum(statistics.median(p["command_s"][key] for p in passes) for key in passes[0]["command_s"])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (pipeline, "s"),
        "ok_share": (sum(p["ok"] for p in passes) / attempted, "ratio"),
        "peak_rss_mb": (first_pass_rss, "MB"),
    }


def layer_metrics(passes, summary: dict, wrapped: set) -> dict:
    """Per-pass means over the traced passes. Every `<layer>_s` is self time;
    cli.<command>_s is the command's whole time."""
    n = len(passes)
    out = {}
    cli_self = 0.0
    for cmd in COMMANDS:
        _, total, own = summary.get(f"cli.{cmd}", (0, 0.0, 0.0))
        out[f"cli.{cmd}_s"] = (total / n, "s")
        cli_self += own
    out["cli.self_s"] = (cli_self / n, "s")
    attempted = sum(p["attempted"] for p in passes)
    out["cli.failed_share"] = (1.0 - sum(p["ok"] for p in passes) / attempted, "ratio")

    layer_self = 0.0
    for name in dict.fromkeys(layer[0] for layer in LAYERS):
        if name not in wrapped:
            continue
        calls, _, own = summary.get(name, (0, 0.0, 0.0))
        out[f"{name}_s"] = (own / n, "s")
        layer_self += own
        if name in COUNTED:
            out[f"{name}_calls"] = (calls / n, "count")

    iterations = sum(sum(p["iterations"].values()) for p in passes)
    out["minimize.iterations"] = (iterations / n, "count")
    for prob in workloads.PROBLEM_NAMES:
        count = sum(p["iterations"].get(prob, 0) for p in passes)
        out[f"minimize.iterations.{prob}"] = (count / n, "count")
    solves = [c for p in passes for c in p["converged"].values()]
    out["minimize.converged_share"] = (sum(solves) / max(len(solves), 1), "ratio")
    if "minimize.solve" in wrapped:
        solve_s = summary.get("minimize.solve", (0, 0.0, 0.0))[1]
        out["minimize.ms_per_iter"] = (1000.0 * solve_s / iterations if iterations else 0.0, "ms")
    out["fields.gridfn_bytes"] = (sum(p["gridfn_bytes"] for p in passes) / n, "bytes")

    pipeline = sum(p["pipeline_s"] for p in passes) / n
    out["trace.pipeline_s"] = (pipeline, "s")
    out["trace.unattributed_s"] = (pipeline - (cli_self + layer_self) / n, "s")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    problems = workloads.problems(workload, seed, smoke)
    cli = importlib.import_module("anibound.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"anibound imported from {cli.__file__}, not from {SRC}")

    tracer = Tracer() if trace else None
    if tracer is None:
        wrapped = set()
        mains = {cmd: cli.main for cmd in COMMANDS}
    else:
        wrapped = tracer.install(LAYERS)
        mains = {cmd: tracer.wrap(f"cli.{cmd}", cli.main) for cmd in COMMANDS}
    passes = []
    setup_times = []
    start = time.perf_counter()
    try:
        while True:
            # Set-up repetitions go before every pass, so that their median
            # samples the machine over the whole run, as the passes do.
            setup_times += [_time_setup(problems, work / "setup") for _ in range(SETUP_REPS)]
            passes.append(run_pass(mains, problems, work / "pass", tracer))
            if len(passes) == 1:
                # Later passes raise the high-water mark by about 2 MB each
                # through heap fragmentation, so it is read after set-up and
                # the first pass, where it does not depend on the pass count.
                first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    env = {
        "seed": seed, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "workload": workload, "trace": int(trace),
        "passes": len(passes), "pipeline_s_per_pass": [round(p["pipeline_s"], 4) for p in passes],
    }
    if tracer is None:
        metrics = end_to_end_metrics(setup_times, passes, first_pass_rss)
    else:
        metrics = layer_metrics(passes, tracer.summary(), wrapped)
        tracer.dump(work / "spans.json", env)
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{workload:9s} {name:40s} {value:14.6g} {unit}")
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                return 1
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            total["correct"] &= results[trace]["correct"]
            total["attempted"] += results[trace]["attempted"]
            total["failed"] += results[trace]["failed"]
            for name, metric in results[trace]["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = metric
        traced = results[1]["metrics"]["trace.pipeline_s"]["value"]
        plain = results[0]["metrics"]["pipeline_s"]["value"]
        overhead = traced / plain - 1.0
        total["metrics"][f"{workload}.trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        print(f"{workload:9s} {'trace.overhead_share':40s} {overhead:14.6g} ratio")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every problem at h = 1/8 (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "anibound" / "__init__.py").is_file():
        print(f"error: no anibound sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
