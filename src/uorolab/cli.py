"""Command-line front end.

Subcommands: train, variance-report, moment-check, estimator-compare,
alpha-solve.  Each takes --config (flat key=value file), --seed, --out, plus
--estimator / --task overrides, writes CSV + JSON into the output directory
and prints a one-line summary.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import training
from .exact import bptt_gradient, episode_tensors
from .reports import write_json_summary, write_metrics_csv
from .rnn import CutVertex
from .variance import compute_C, moment_lemma_zscores, solve_alpha_newton


def _load_config(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.load(args.config) if args.config else config_mod.ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.estimator:
        overrides["estimator"] = args.estimator
    if args.task:
        overrides["task"] = args.task
    return dataclasses.replace(cfg, **overrides)  # checks the overrides too


def _add_common(parser):
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="base seed override")
    parser.add_argument("--out", type=str, default="runs/out",
                        help="output directory for CSV/JSON")
    parser.add_argument("--estimator", type=str, default=None)
    parser.add_argument("--task", type=str, default=None)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    summary = training.run_training(cfg, out_dir=args.out)
    print(f"train: final loss {summary['final_loss']:.6f} "
          f"after {summary['updates']} updates -> {args.out}")
    return 0


def cmd_variance_report(args) -> int:
    cfg = _load_config(args)
    summary = training.run_variance_report(cfg, out_dir=args.out)
    best = min(summary["grid"], key=lambda c: c["measured_vq"])
    print(f"variance-report: best cell q0={best['q0']} alpha={best['alpha']} "
          f"measured {best['measured_vq']:.4g} -> {args.out}")
    return 0


def cmd_estimator_compare(args) -> int:
    cfg = _load_config(args)
    summary = training.estimator_compare(cfg, out_dir=args.out)
    line = ", ".join(
        f"{r['estimator']}={r['measured_actual']:.3g}" for r in summary["estimators"]
    )
    print(f"estimator-compare: measured error second moments: {line} -> {args.out}")
    return 0


def cmd_moment_check(args) -> int:
    cfg = _load_config(args)
    n = args.samples
    zscores = moment_lemma_zscores(np.random.default_rng(cfg.base_seed), n)
    rows = [(dim, cfg.base_seed, f"kappa={kappa}/{check}_z", z)
            for dim, kappa, check, z in zscores]
    worst = max(z for *_, z in zscores)
    write_metrics_csv(Path(args.out) / "moment_check.csv", rows)
    write_json_summary(Path(args.out) / "moment_check.json",
                       {"samples": n, "worst_z": worst, "pass": worst < 4.0})
    print(f"moment-check: worst |z| = {worst:.3f} over {n} samples "
          f"({'PASS' if worst < 4.0 else 'FAIL'}) -> {args.out}")
    return 0 if worst < 4.0 else 1


def _sample_count(text: str) -> int:
    """--samples: an integer of at least 2, which the standard errors need."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"{n} is below 2: the z-scores take "
                                         "standard errors from two samples or more")
    return n


def cmd_alpha_solve(args) -> int:
    cfg = _load_config(args)
    _, tape = training.build_report_instance(cfg)
    tensors = episode_tensors(tape, CutVertex(cfg.cut))
    solution = solve_alpha_newton(compute_C(tensors, None))
    rows = [(s, cfg.base_seed, "alpha", float(a))
            for s, a in enumerate(solution.alpha)]
    rows.append((0, cfg.base_seed, "residual", solution.residual))
    rows.append((0, cfg.base_seed, "objective", solution.objective))
    write_metrics_csv(Path(args.out) / "alpha_solve.csv", rows)
    write_json_summary(Path(args.out) / "alpha_solve.json", {
        "alpha": [float(a) for a in solution.alpha],
        "residual": solution.residual,
        "objective": solution.objective,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "exact_gradient_norm": float(np.linalg.norm(bptt_gradient(tape).g)),
    })
    print(f"alpha-solve: T={tensors.length} residual {solution.residual:.2e} "
          f"in {solution.iterations} iterations -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uorolab",
        description="Online credit assignment lab: training, variance "
                    "reports and solver checks for recurrent gradient "
                    "estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "train": cmd_train,
        "variance-report": cmd_variance_report,
        "estimator-compare": cmd_estimator_compare,
        "alpha-solve": cmd_alpha_solve,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
    p = sub.add_parser("moment-check")
    _add_common(p)
    p.add_argument("--samples", type=_sample_count, default=1_000_000)
    p.set_defaults(handler=cmd_moment_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
