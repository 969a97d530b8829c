"""Dynamics benchmark: one named workload, measured end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload mesh-best --seed 0 --seconds 20 --trace 0

Repetitions run one after another, each in a fresh child process
(``perfbench/child.py``), until ``--seconds`` have passed.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the repetitions, times scaled to the
reference machine speed of ``probe.py``); with ``--trace 1`` one more,
traced repetition follows and the JSON object carries the per-layer
metrics.  Every repetition's output is checked; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole invocation ends within this, hung children included
CHILD_TIMEOUT_S = 120.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "incremental.residual.calls": "count",
    "incremental.residual.self_s": "s",
    "incremental.residual.share": "fraction",
    "incremental.residual.hit_rate": "fraction",
    "incremental.residual.repairs": "count",
    "incremental.residual.fallbacks": "count",
    "incremental.apsp_rebuilds": "count",
    "incremental.apply.calls": "count",
    "incremental.apply.self_s": "s",
    "shortest_paths.apsp.calls": "count",
    "shortest_paths.apsp.self_s": "s",
    "shortest_paths.decremental.calls": "count",
    "shortest_paths.decremental.self_s": "s",
    "shortest_paths.decremental.affected_mean": "count",
    "best_response.score.calls": "count",
    "best_response.score.self_s": "s",
    "best_response.score.share": "fraction",
    "best_response.subsets_scored": "count",
    "best_response.single_moves_scored": "count",
    "best_response.subsets_per_s": "1/s",
    "dynamics.activations": "count",
    "dynamics.moves": "count",
    "dynamics.proposal_hit_rate": "fraction",
    "dynamics.scored_per_activation": "ratio",
    "dynamics.batch_size_mean": "count",
    "dynamics.loop_self_s": "s",
    "parallel.evaluate.calls": "count",
    "parallel.evaluate.self_s": "s",
    "parallel.evaluate.share": "fraction",
    "parallel.tasks": "count",
    "parallel.bytes_sent": "bytes",
    "parallel.bytes_per_task": "bytes",
    "parallel.pools_started": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "checkpoint.saves": "count",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
    "resume_s": "s",
    "failed_share": "fraction",
}
UNITS = {**END_TO_END, **PER_LAYER}
# Derived from each call's inputs (host degree, strategy size), not counted in the kernels.
COMPUTED = ("best_response.subsets_scored", "best_response.single_moves_scored",
            "best_response.subsets_per_s")


def _load_pinned() -> dict:
    with open(HERE / "pinned.json") as handle:
        return json.load(handle)


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = "1"
    env["TMPDIR"] = str(root / ".perfbench_tmp")
    return env


def run_child(root: Path, workload: str, seed: int, trace: bool, tmp: Path,
              timeout: float) -> dict:
    """One repetition in a fresh process group; returns its report (or an error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    finally:
        # Pool workers share the child's process group: none may outlive it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unparsable report: {lines[-1][:200]}"}


def judge(report: dict, workload: str, seed: int, pinned: dict, reference: dict | None) -> list[str]:
    """Failures of one repetition: errors, failed checks and digest mismatches."""
    if "error" in report:
        return [report["error"]]
    problems = list(report["problems"])
    if seed == pinned["default_seed"] and report["digest"] != pinned["digests"][workload]:
        problems.append(f"digest {report['digest']} != pinned {pinned['digests'][workload]}")
    if reference is not None and report["digest"] != reference["digest"]:
        problems.append(f"digest {report['digest']} != first repetition's {reference['digest']}")
    return problems


def environment(root: Path) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if shutil.which("git") and (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = abs(args.seed)

    root = Path.cwd()
    if not (root / "src" / "repro" / "core").is_dir():
        print("perfbench: no src/repro/core here; run from the repository root",
              file=sys.stderr)
        return 2
    pinned = _load_pinned()
    if args.workload not in pinned["digests"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    reports: list[dict] = []
    failures: list[list[str]] = []
    reference = traced = None
    start = time.perf_counter()

    def repetition(trace: bool) -> dict:
        timeout = min(CHILD_TIMEOUT_S, DEADLINE_S - (time.perf_counter() - start))
        report = run_child(root, args.workload, seed, trace,
                           tmp_root / f"{os.getpid()}-{len(failures)}", timeout)
        failures.append(judge(report, args.workload, seed, pinned, reference))
        return report

    try:
        while not reports or time.perf_counter() - start < args.seconds:
            reports.append(repetition(False))
            if reference is None and "error" not in reports[-1]:
                reference = reports[-1]
        if args.trace:
            traced = repetition(True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    ok = [r for r in reports if "error" not in r]
    failed = sum(1 for f in failures if f)
    for index, problems in enumerate(failures):
        for problem in problems:
            print(f"repetition {index} FAILED: {problem.strip().splitlines()[-1]}")
    print(json.dumps({
        "workload": args.workload, "seed": seed, "repetitions": len(failures),
        "digest": ok[0]["digest"] if ok else None, "shape": ok[0]["shape"] if ok else None,
        "measured_run_s": [round(r["measured"]["run_s"], 4) for r in ok],
        "speed_factor": [round(r["speed_factor"], 4) for r in ok],
        "environment": environment(root),
    }))

    metrics: dict[str, float] = {}
    bases: dict[str, str] = {}
    if ok:
        # Times at the reference machine speed (see probe.py): each
        # repetition's measured time over its own speed factor, then the median.
        times = {name: statistics.median(r["measured"][name] / r["speed_factor"] for r in ok)
                 for name in ok[0]["measured"]}
    if ok and args.trace == 0:
        metrics = dict(times, peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in ok))
        metrics = {name: metrics[name] for name in END_TO_END}
    elif ok and traced is not None and "layers" in traced:
        if traced["missing_layers"]:
            print(f"hooks missing, reported as zero: {traced['missing_layers']}")
        values = dict(
            traced["layers"],
            **{
                "trace.overhead": (
                    traced["measured"]["run_s"] / traced["speed_factor"] / times["run_s"] - 1
                ),
                "resume_s": times.get("resume_s", 0.0),
                "failed_share": failed / len(failures),
            },
        )
        metrics = {name: values[name] for name in PER_LAYER}
        bases = traced["bases"]
    for name, value in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        if name in bases:
            note += f" = {bases[name]}"
        print(f"{args.workload:>18}  {name:<42} {value:>16.6g} {UNITS[name]}{note}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
