"""Command-line interface for the reproduction toolkit.

``python -m repro.cli <command>`` exposes the main entry points without
writing any code:

* ``table1``        — print the reproduced Table 1 for a given alpha;
* ``constructions`` — verify every lower-bound construction and print a
  paper-vs-measured Markdown table;
* ``poa``           — run an empirical Price-of-Anarchy experiment on random
  instances of one model variant;
* ``dynamics``      — measure best-response-dynamics convergence on random
  instances;
* ``simulate``      — play one game instance end to end (optimum, dynamics,
  equilibrium certification) and print the outcome;
* ``resume``        — continue a checkpointed ``simulate`` run from its
  checkpoint file (see ``--checkpoint``/``--checkpoint-every`` below); the
  continuation is byte-identical to the uninterrupted run, even in a fresh
  process and even onto a different worker count;
* ``config dump``   — print the resolved simulation config as JSON;
* ``chaos``         — replay a fault plan (``--preset`` or ``--plan``)
  against a live two-process pool and verify the recovery invariant: the
  faulted run's trajectory must be bit-identical to the undisturbed serial
  run;
* ``lint``          — check the tree against the determinism and lifecycle
  invariant rules.

Every command accepts ``--seed`` for reproducibility.  The ``poa``,
``dynamics`` and ``simulate`` commands are driven by a
:class:`repro.core.session.SimulationConfig`: pass ``--config path.json``
to load one (the JSON layout of
:meth:`~repro.core.session.SimulationConfig.to_dict`) and/or the individual
flags — ``--schedule`` (sequential vs. batched proposal-caching
activation), ``--workers`` (shared-memory worker processes for the batched
evaluations), the checkpoint policy and ``--seed`` — which override the
file.  ``repro config dump`` prints the config the same flags resolve to,
so a flag combination can be frozen into a reusable JSON file:

.. code-block:: console

   $ python -m repro.cli config dump --schedule batched --workers 4 > fast.json
   $ python -m repro.cli poa --variant euclidean --n 40 --config fast.json

``max_rounds`` is ``null`` unless set explicitly, which every entry point
resolves to its historical budget (``poa`` sampling and ``simulate`` 60,
the ``dynamics`` study 40) — so freezing flags into a file never silently
changes a round budget.  All configurations compute identical game
quantities — schedule and workers trade nothing but time (see
:mod:`repro.core.session`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]

_VARIANTS = ["ncg", "one_two", "tree", "euclidean", "metric", "general"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Geometric Network Creation Games (SPAA 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="print the reproduced Table 1")
    p_table.add_argument("--alpha", type=float, default=1.0)
    p_table.add_argument("--gadget-size", type=int, default=8)

    p_cons = sub.add_parser("constructions", help="verify the lower-bound constructions")
    p_cons.add_argument("--alpha", type=float, default=2.0)
    p_cons.add_argument("--gadget-size", type=int, default=8)

    p_poa = sub.add_parser("poa", help="empirical PoA on random instances")
    p_poa.add_argument("--variant", default="euclidean", choices=_VARIANTS)
    p_poa.add_argument("--n", type=int, default=6)
    p_poa.add_argument("--alpha", type=float, default=1.0)
    p_poa.add_argument("--instances", type=int, default=3)
    p_poa.add_argument("--samples", type=int, default=4)
    _add_config_flags(p_poa)

    p_dyn = sub.add_parser("dynamics", help="best-response dynamics convergence study")
    p_dyn.add_argument("--variant", default="euclidean", choices=_VARIANTS)
    p_dyn.add_argument("--n", type=int, default=6)
    p_dyn.add_argument("--alpha", type=float, default=1.0)
    p_dyn.add_argument("--instances", type=int, default=3)
    p_dyn.add_argument("--runs", type=int, default=3)
    _add_config_flags(p_dyn)

    p_sim = sub.add_parser("simulate", help="play one random instance end to end")
    p_sim.add_argument("--variant", default="euclidean", choices=_VARIANTS)
    p_sim.add_argument("--n", type=int, default=7)
    p_sim.add_argument("--alpha", type=float, default=1.5)
    _add_config_flags(p_sim)

    p_res = sub.add_parser(
        "resume",
        help="continue a checkpointed run from its checkpoint file "
        "(byte-identical to the uninterrupted run)",
    )
    p_res.add_argument(
        "checkpoint_file",
        metavar="CHECKPOINT",
        help="checkpoint file written by a --checkpoint run",
    )
    _add_resume_flags(p_res)

    p_cfg = sub.add_parser("config", help="inspect simulation configurations")
    cfg_sub = p_cfg.add_subparsers(dest="action", required=True)
    p_dump = cfg_sub.add_parser(
        "dump",
        help="print the resolved SimulationConfig as JSON "
        "(config file merged with explicit flags)",
    )
    _add_config_flags(p_dump, full=True)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject a deterministic fault plan into a live two-process pool "
        "run and verify the result is bit-identical to the undisturbed serial "
        "run",
    )
    p_chaos.add_argument("--variant", default="euclidean", choices=_VARIANTS)
    p_chaos.add_argument("--n", type=int, default=10)
    p_chaos.add_argument("--alpha", type=float, default=1.5)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--schedule", default="batched", choices=["sequential", "batched"]
    )
    plan_source = p_chaos.add_mutually_exclusive_group(required=True)
    plan_source.add_argument(
        "--preset",
        default=None,
        help="named fault plan from the catalog (see repro.core.faults."
        "preset_names: pool-kill)",
    )
    plan_source.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="FaultPlan JSON file to replay",
    )

    # The lint tool parses its own flags (repro.tools.lint.build_parser):
    # this subcommand declares no option, not even -h, and hands every
    # argument after "lint" through verbatim.
    p_lint = sub.add_parser(
        "lint",
        help="check the tree against the determinism & lifecycle invariant "
        "rules (DET*/RES*/PROTO*; exit 1 on findings)",
        add_help=False,
        prefix_chars="\0",
    )
    p_lint.add_argument("lint_args", nargs=argparse.REMAINDER)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser, *, full: bool = False) -> None:
    """The SimulationConfig surface shared by poa/dynamics/simulate/config-dump.

    Flag defaults are ``None`` (= "not given"): resolution starts from the
    ``--config`` file when present — the defaults of
    :class:`repro.core.session.SimulationConfig` otherwise — and explicit
    flags override it.  ``full`` additionally exposes the fields only
    ``config dump`` needs to freeze (response kind, activation order and
    budgets).  The parser is marked ``config_driven`` so :func:`main`
    resolves its :class:`SimulationConfig` before dispatching.
    """
    parser.set_defaults(config_driven=True)
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help=(
            "JSON file holding a SimulationConfig (the layout printed by "
            "'repro config dump'); explicit flags override its fields"
        ),
    )
    parser.add_argument(
        "--schedule",
        default=None,
        choices=["sequential", "batched"],
        help=(
            "activation schedule for response dynamics: 'sequential' "
            "(default) re-scores every agent at every activation; 'batched' "
            "caches scored proposals and replays them at later activations, "
            "re-scoring only agents whose residual rows an applied move "
            "invalidated (identical trajectory)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for batched proposal evaluation: 1 (default) "
            "scores in-process, k > 1 fans each batch of proposals out to k "
            "persistent workers over shared-memory distance snapshots — "
            "bit-identical results for every worker count (pays off with "
            "--schedule batched).  "
            "Sweeps share one worker pool per instance via GameSession"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        dest="checkpoint_path",
        default=None,
        metavar="PATH",
        help=(
            "serialize the run's complete state to PATH at round boundaries "
            "(atomic write-then-rename; a {round} placeholder keeps one file "
            "per boundary); continue a killed run with 'repro resume PATH' — "
            "the continuation is byte-identical to the uninterrupted run"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=None,
        metavar="K",
        help=(
            "checkpoint every K-th round boundary (default 1 when "
            "--checkpoint is given; requires --checkpoint)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed of the run (default: the config file's seed, else 0)",
    )
    if full:
        parser.add_argument(
            "--response", default=None, choices=["best", "greedy", "single"]
        )
        parser.add_argument(
            "--order", default=None, choices=["round_robin", "random", "max_gain"]
        )
        parser.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
        parser.add_argument(
            "--max-candidates", dest="max_candidates", type=int, default=None
        )


_CONFIG_FIELDS = (
    "schedule",
    "workers",
    "seed",
    "checkpoint_every",
    "checkpoint_path",
    "response",
    "order",
    "max_rounds",
    "max_candidates",
)


def _add_resume_flags(parser: argparse.ArgumentParser) -> None:
    """The override surface of ``repro resume``.

    A resume is configured by the checkpoint file itself — game, config,
    RNG and counters all travel in it — so only *placement* fields (which
    never change a trajectory) and the continued checkpoint policy are
    exposed; trajectory-shaping fields are pinned by the checkpoint.
    Defaults are ``None`` = "keep the checkpointed config's value".
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the continuation (placement only: the "
        "trajectory is bit-identical for every worker count)",
    )
    parser.add_argument(
        "--checkpoint",
        dest="checkpoint_path",
        default=None,
        metavar="PATH",
        help="keep checkpointing the continuation to PATH (default: the "
        "checkpointed run's own policy, i.e. the same file keeps advancing)",
    )
    parser.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=None,
        metavar="K",
        help="checkpoint the continuation every K-th round boundary",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="stop checkpointing the continuation entirely",
    )


def resolve_config(args: argparse.Namespace):
    """The :class:`SimulationConfig` a parsed command line resolves to.

    Precedence (lowest to highest): ``SimulationConfig`` field defaults,
    the ``--config`` JSON file, explicit flags — identically for every
    command, so ``config dump`` prints exactly what the experiment
    commands would resolve.  An unset ``max_rounds`` stays ``None`` and is
    resolved to the entry point's historical budget downstream (sampling
    60, convergence study 40, simulate 60, plain runs 100).  Raises
    :class:`ValueError` for unreadable/invalid files and invalid field
    combinations — callers inside :func:`main` turn that into
    ``parser.error``.
    """
    from .core.session import SimulationConfig

    path = getattr(args, "config", None)
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read --config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"--config {path} is not valid JSON: {exc}") from exc
        base = SimulationConfig.from_dict(data)
    else:
        base = SimulationConfig()
    flags = {field: getattr(args, field, None) for field in _CONFIG_FIELDS}
    return base.replace(
        **{field: value for field, value in flags.items() if value is not None}
    )


def _cmd_table1(args) -> int:
    from .analysis.table1 import format_table1, table1_summary

    rows = table1_summary(alpha=args.alpha, gadget_size=args.gadget_size)
    print(format_table1(rows))
    return 0


def _cmd_constructions(args) -> int:
    from .analysis.reporting import build_construction_report

    report = build_construction_report(alpha=args.alpha, gadget_size=args.gadget_size)
    print(report.to_markdown())
    return 0 if report.all_hold else 1


def _cmd_poa(args) -> int:
    from .analysis.experiments import poa_experiment

    summary = poa_experiment(
        args.variant,
        args.n,
        args.alpha,
        instances=args.instances,
        samples_per_instance=args.samples,
        config=args.sim_config,
    )
    print(
        f"variant={summary.variant} n={summary.n} alpha={summary.alpha}\n"
        f"equilibria found : {summary.equilibria_found}\n"
        f"max NE/OPT ratio : {summary.max_ratio:.4f}\n"
        f"mean NE/OPT ratio: {summary.mean_ratio:.4f}\n"
        f"upper bound      : {summary.upper_bound:.4f}\n"
        f"bound respected  : {summary.bound_respected}"
    )
    return 0 if summary.bound_respected else 1


def _cmd_dynamics(args) -> int:
    from .analysis.experiments import dynamics_convergence_experiment

    summary = dynamics_convergence_experiment(
        args.variant,
        args.n,
        args.alpha,
        instances=args.instances,
        runs_per_instance=args.runs,
        config=args.sim_config,
    )
    print(
        f"variant={summary.variant} n={summary.n} alpha={summary.alpha}\n"
        f"runs              : {summary.runs}\n"
        f"converged runs    : {summary.converged_runs}\n"
        f"cycling runs      : {summary.cycling_runs}\n"
        f"convergence rate  : {summary.convergence_rate:.2f}\n"
        f"mean moves        : {summary.mean_moves_to_converge:.2f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    from .analysis.experiments import host_factory
    from .core.bounds import general_poa_upper, metric_poa_upper
    from .core.equilibria import is_nash_equilibrium
    from .core.game import NetworkCreationGame
    from .core.host_graph import ModelVariant
    from .core.session import MAX_ROUNDS_SIMULATE, GameSession
    from .core.social_optimum import social_optimum
    from .core.strategy import StrategyProfile

    cfg = args.sim_config
    if cfg.max_rounds is None:
        cfg = cfg.replace(max_rounds=MAX_ROUNDS_SIMULATE)
    rng = cfg.rng()
    host = host_factory(args.variant, args.n, rng)
    game = NetworkCreationGame(host, args.alpha)
    opt = social_optimum(game)
    with GameSession(game, cfg) as session:
        result = session.run(StrategyProfile.empty(args.n))
        _report_degradation(session)
    profile = result.final_profile
    stable = result.converged and is_nash_equilibrium(game, profile)
    ratio = game.social_cost(profile) / opt.cost if opt.cost > 0 else float("nan")
    bound = (
        metric_poa_upper(args.alpha)
        if host.classify().is_special_case_of(ModelVariant.METRIC)
        else general_poa_upper(args.alpha)
    )
    print(
        f"host variant      : {host.classify().value} (n={args.n}, alpha={args.alpha})\n"
        f"optimum cost      : {opt.cost:.4f}  ({opt.method})\n"
        f"dynamics converged: {result.converged} after {result.moves} moves\n"
        f"reached a NE      : {stable}\n"
        f"equilibrium cost  : {game.social_cost(profile):.4f}\n"
        f"cost ratio        : {ratio:.4f}   (paper bound {bound:.4f})"
    )
    return 0


def _report_degradation(session) -> None:
    """Print the pool's in-process fallbacks — to stderr, only if nonzero.

    Stdout is the byte-diffable surface (a degraded run must print exactly
    what the serial one prints), so degradation telemetry never lands there.
    """
    ev = session.stats().evaluator_stats
    if ev is not None and ev.fallbacks:
        print(f"pool degradation  : fallbacks={ev.fallbacks}", file=sys.stderr)


def _cmd_resume(args) -> int:
    from .core.checkpoint import CheckpointError, load_checkpoint
    from .core.session import resume_dynamics

    try:
        ckpt = load_checkpoint(args.checkpoint_file)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        ckpt.simulation_config()  # e.g. a run on the removed remote backend
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overrides = {
        key: value
        for key, value in {
            "workers": args.workers,
            "checkpoint_path": args.checkpoint_path,
            "checkpoint_every": args.checkpoint_every,
        }.items()
        if value is not None
    }
    if args.no_checkpoint:
        overrides["checkpoint_path"] = None
        overrides["checkpoint_every"] = None
    game = ckpt.build_game()
    result = resume_dynamics(ckpt, game=game, **overrides)
    profile = result.final_profile
    # The last two lines are printed with simulate's exact formatting, so a
    # killed-and-resumed `simulate --checkpoint` run can be diffed against
    # the uninterrupted one (the CI checkpoint-smoke job does exactly that).
    print(
        f"resumed from round : {ckpt.rounds_completed} of {ckpt.rounds_total} "
        f"(n={ckpt.n}, alpha={ckpt.alpha})\n"
        f"dynamics converged: {result.converged} after {result.moves} moves\n"
        f"equilibrium cost  : {game.social_cost(profile):.4f}"
    )
    return 0


def _cmd_config(args) -> int:
    print(json.dumps(args.sim_config.to_dict(), indent=2))
    return 0


def _load_fault_plan(args):
    """The chaos command's plan: a named preset or a FaultPlan JSON file."""
    from .core.faults import FaultPlan, preset

    if args.preset is not None:
        return preset(args.preset)
    try:
        return FaultPlan.from_json(Path(args.plan).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read --plan {args.plan}: {exc}") from exc


def _cmd_chaos(args) -> int:
    import numpy as np

    from .analysis.experiments import host_factory
    from .core.game import NetworkCreationGame
    from .core.session import GameSession, SimulationConfig
    from .core.strategy import StrategyProfile

    try:
        plan = _load_fault_plan(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    base = SimulationConfig(schedule=args.schedule, seed=args.seed, max_rounds=60)
    host = host_factory(args.variant, args.n, base.rng())
    game = NetworkCreationGame(host, args.alpha)
    initial = StrategyProfile.empty(args.n)

    # The undisturbed in-process serial run is the ground truth every
    # degraded run must reproduce bit-for-bit.
    with GameSession(game, base) as session:
        reference = session.run(initial)

    with GameSession(game, base.replace(workers=2)) as session:
        hook = session.arm_faults(plan)
        chaotic = session.run(initial)
        ev = session.stats().evaluator_stats
        _report_degradation(session)

    identical = (
        chaotic.converged == reference.converged
        and chaotic.moves == reference.moves
        and list(chaotic.social_costs) == list(reference.social_costs)
        and np.array_equal(
            chaotic.final_profile.ownership, reference.final_profile.ownership
        )
    )
    # A fault that never fired proves nothing: the run must reach every
    # planned batch (the sequential schedule dispatches none).
    fired = len(hook.fired) if hook is not None else 0
    planned = len(plan.faults)
    if not identical:
        verdict = "DIVERGED"
    elif fired < planned:
        verdict = f"NOT EXERCISED ({fired} of {planned} fault(s) fired)"
    else:
        verdict = "IDENTICAL"
    print(
        f"fault plan        : {args.preset or args.plan} "
        f"({planned} fault(s), seed={plan.seed})\n"
        "faulted backend   : 2-process pool\n"
        f"reference run     : converged={reference.converged} "
        f"moves={reference.moves}\n"
        f"faulted run       : converged={chaotic.converged} "
        f"moves={chaotic.moves}\n"
        f"counters          : fallbacks={ev.fallbacks if ev else 0} "
        f"pool_rebuilds={ev.retries if ev else 0} faults_fired={fired}\n"
        f"trajectory        : {verdict}"
    )
    return 0 if verdict == "IDENTICAL" else 1


def _cmd_lint(args) -> int:
    from .tools.lint import run

    return run(args.lint_args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config_driven", False):
        try:
            args.sim_config = resolve_config(args)
        except ValueError as exc:
            parser.error(str(exc))
    handlers = {
        "table1": _cmd_table1,
        "constructions": _cmd_constructions,
        "poa": _cmd_poa,
        "dynamics": _cmd_dynamics,
        "simulate": _cmd_simulate,
        "resume": _cmd_resume,
        "config": _cmd_config,
        "chaos": _cmd_chaos,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
