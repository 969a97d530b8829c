"""One repetition of one workload, in a fresh process.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload mesh-best --seed 0 --tmp DIR [--trace]

Builds the instance (timed as set-up), runs the dynamics through a
``GameSession`` (timed), then, for the checkpoint workload, resumes the
round-1 checkpoint in a new session (timed separately).  The machine-speed
probe (``probe.py``) runs at start, after set-up and at the end.  With
``--trace`` the layer entry points are wrapped while the program runs.  The
program's output is checked afterwards, untimed and untraced, and one JSON
object is printed as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import probe
from tracer import Tracer
from workloads import WORKLOADS, check_result, digest

SETUP_BUDGET_S = 0.25
SETUP_REPS_MAX = 25
RESUME_ROUND = 1  # the checkpoint workload resumes its first round boundary


def _cpu_s() -> float:
    """User + system CPU of this process and every reaped child (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _layer_metrics(tracer: Tracer, result, stats, run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the base of each rate (see README.md)."""
    summary = tracer.summary()
    calls, self_s, counts = summary.calls, summary.self_s, tracer.counts
    engine = result.engine_stats
    queries = engine.residual_cache_hits + engine.residual_repairs + engine.repair_fallbacks
    lookups = result.schedule_hits + result.schedule_misses
    evaluator = stats.evaluator_stats
    tasks = evaluator.tasks if evaluator is not None else 0
    bytes_sent = evaluator.bytes_sent if evaluator is not None else 0
    decremental_calls = calls["shortest_paths.decremental"]
    score_s = self_s["best_response.score"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "incremental.residual.calls": calls["incremental.residual"],
        "incremental.residual.self_s": self_s["incremental.residual"],
        "incremental.residual.share": ratio(self_s["incremental.residual"], run_s),
        "incremental.residual.hit_rate": ratio(engine.residual_cache_hits, queries),
        "incremental.residual.repairs": engine.residual_repairs,
        "incremental.residual.fallbacks": engine.repair_fallbacks,
        "incremental.apsp_rebuilds": engine.apsp_rebuilds,
        "incremental.apply.calls": calls["incremental.apply"],
        "incremental.apply.self_s": self_s["incremental.apply"],
        "shortest_paths.apsp.calls": calls["shortest_paths.apsp"],
        "shortest_paths.apsp.self_s": self_s["shortest_paths.apsp"],
        "shortest_paths.decremental.calls": decremental_calls,
        "shortest_paths.decremental.self_s": self_s["shortest_paths.decremental"],
        "shortest_paths.decremental.affected_mean": ratio(
            counts["affected_sources"], decremental_calls
        ),
        "best_response.score.calls": calls["best_response.score"],
        "best_response.score.self_s": score_s,
        "best_response.score.share": ratio(score_s, run_s),
        "best_response.subsets_scored": counts["subsets_scored"],
        "best_response.single_moves_scored": counts["single_moves_scored"],
        "best_response.subsets_per_s": ratio(counts["subsets_scored"], score_s),
        "dynamics.activations": result.steps,
        "dynamics.moves": result.moves,
        "dynamics.proposal_hit_rate": ratio(result.schedule_hits, lookups),
        "dynamics.scored_per_activation": ratio(counts["responses_scored"], result.steps),
        "dynamics.batch_size_mean": ratio(counts["batched_agents"], counts["batches"]),
        "dynamics.loop_self_s": run_s - summary.covered_s,
        "parallel.evaluate.calls": calls["parallel.evaluate"],
        "parallel.evaluate.self_s": self_s["parallel.evaluate"],
        "parallel.evaluate.share": ratio(self_s["parallel.evaluate"], run_s),
        "parallel.tasks": tasks,
        "parallel.bytes_sent": bytes_sent,
        "parallel.bytes_per_task": ratio(bytes_sent, tasks),
        "parallel.pools_started": stats.evaluator_pools_started,
        "checkpoint.saves": calls["checkpoint.save"],
        "checkpoint.save_s": summary.total_s["checkpoint.save"],
        "checkpoint.bytes": counts["checkpoint_bytes"],
        "trace.coverage": ratio(summary.covered_s, run_s),
    }
    bases = {
        "incremental.residual.hit_rate": f"{engine.residual_cache_hits} hits / {queries} residual queries",
        "dynamics.proposal_hit_rate": f"{result.schedule_hits} hits / {lookups} proposal lookups",
        "dynamics.scored_per_activation": (
            f"{counts['responses_scored']:.0f} responses scored / {result.steps} activations"
        ),
        "dynamics.batch_size_mean": (
            f"{counts['batched_agents']:.0f} agents / {counts['batches']:.0f} respond_many calls"
        ),
        "parallel.bytes_per_task": f"{bytes_sent} bytes / {tasks} tasks",
        "best_response.subsets_per_s": f"{counts['subsets_scored']:.0f} subsets / {score_s:.4f} s",
    }
    return {key: float(value) for key, value in out.items()}, bases


def run_once(name: str, seed: int, tmp: str, trace: bool) -> dict:
    from repro.core import GameSession, SimulationConfig, default_workers
    from repro.core import checkpoint as checkpoint_module

    workload = WORKLOADS[name]
    probe_before = probe.kernel_times()
    # Set-up is repeated (fresh instance each time) while it is cheap, and
    # its median reported, so millisecond set-ups are not one noisy sample.
    setups: list[float] = []
    while not setups or (sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_REPS_MAX):
        t0 = time.perf_counter()
        inst = workload.instance(seed)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    probe_mid = probe.kernel_times()

    fields = dict(workload.config, order=inst.order, seed=seed)
    fields["workers"] = min(fields["workers"], default_workers())
    if workload.checkpoint:
        fields.update(checkpoint_path=os.path.join(tmp, "round-{round}.ckpt"), checkpoint_every=1)
    config = SimulationConfig(**fields)

    tracer = Tracer(inst.game.host.weights) if trace else None
    cpu0 = _cpu_s()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        with GameSession(inst.game, config) as session:
            result = session.run(inst.start)
            run_s = time.perf_counter() - t0
        stats = session.stats()
    cpu_s = _cpu_s() - cpu0

    out: dict = {
        "measured": {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s},
        "digest": digest(result, inst.perm),
        "shape": digest(result, inst.perm, exact=False),
    }
    if tracer is not None:
        out["layers"], out["bases"] = _layer_metrics(tracer, result, stats, run_s)
        out["missing_layers"] = tracer.missing_layers()

    if workload.checkpoint:
        resume_tracer = Tracer(inst.game.host.weights) if trace else None
        with resume_tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            path = checkpoint_module.resolve_checkpoint_path(
                config.checkpoint_path, RESUME_ROUND
            )
            ckpt = checkpoint_module.load_checkpoint(path)
            with GameSession(inst.game, config) as resumed_session:
                resumed = resumed_session.resume(
                    ckpt, checkpoint_path=None, checkpoint_every=None
                )
            out["measured"]["resume_s"] = time.perf_counter() - t0
        out["resume_digest"] = digest(resumed, inst.perm)
        if resume_tracer is not None:
            out["layers"]["checkpoint.load_s"] = resume_tracer.summary().total_s["checkpoint.load"]

    out["probe"] = [probe_before, probe_mid, probe.kernel_times()]
    out["speed_factor"] = probe.speed_factor(*out["probe"])

    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["peak_rss_mb"] = usage_self.ru_maxrss / 1024.0
    if "layers" in out:
        out["layers"].setdefault("checkpoint.load_s", 0.0)
        out["layers"]["parallel.worker_peak_rss_mb"] = usage_children.ru_maxrss / 1024.0

    problems = check_result(workload, inst, result, seed)
    if workload.checkpoint and out["resume_digest"] != out["digest"]:
        problems.append("resumed result differs from the straight-through result")
    out["problems"] = problems
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory for checkpoints")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.tmp, exist_ok=True)
    try:
        out = run_once(args.workload, args.seed, args.tmp, args.trace)
    except Exception:  # reported to the parent as a failed repetition
        out = {"error": traceback.format_exc()}
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
