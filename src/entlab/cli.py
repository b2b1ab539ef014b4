"""Command-line entry points.

Subcommands: train, verify, probe-consistency, probe-doob, probe-transition,
ablate, report.  Each command checks all of its inputs before it creates
--out, so a bad input leaves no files.  Every run directory gets a manifest
(resolved config, seed, package version, per-phase wall-clock timings, and
the names of exactly the files written) next to its artifacts.  Exit codes:
0 success, 1 config/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, geometry, probes
from .config import apply_overrides, config_from_doc, config_to_doc, load_config, save_config
from .envs import make_env
from .policy import (EnumerationBudgetError, PolicySnapshot, TablePolicy, draw_logits, entropy_routes, load_checkpoint,
                     random_policy)
from .trainer import TrainConfig, load_metrics, train


class CliError(Exception):
    """Config or usage problem: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        raise CliError(message)


def _write_manifest(out_dir: str, command: str, config_doc: dict | None, seed: int,
                    outputs: list[str], timings: dict[str, float]) -> None:
    doc = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config_doc,
        "outputs": outputs,
        "timings": timings,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(out: str, command: str, files: dict[str, object], config_doc: dict | None,
                   seed: int, timings: dict[str, float]) -> None:
    """Create ``out`` and write each file by suffix, then a manifest listing them in order.

    ``.json`` is one sorted, indented document; ``.jsonl`` one sorted document
    per line; ``.csv`` a list of rows.
    """
    os.makedirs(out, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out, name), "w", newline="") as fh:
            if name.endswith(".json"):
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif name.endswith(".jsonl"):
                fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in content)
            else:
                csv.writer(fh).writerows(content)
    _write_manifest(out, command, config_doc, seed, list(files), timings)


def _number(kind: type, low: float, strict: bool = False):
    """argparse type: a finite ``kind`` that is >= low, or > low if ``strict``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be {'a finite number' if kind is float else 'an integer'} "
                                             f"{'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    doc = config_to_doc(load_config(args.config)) if args.config else config_to_doc(TrainConfig())
    doc = apply_overrides(doc, args.set or [])
    return config_from_doc(doc)


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    os.makedirs(args.out, exist_ok=True)
    save_config(config, os.path.join(args.out, "config.json"))
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    result = train(config, metrics_path=metrics_path, checkpoint_dir=args.out, mask_sign=args.mask_sign)
    outputs = sorted(f for f in os.listdir(args.out) if f != "manifest.json")
    _write_manifest(args.out, "train", config_to_doc(config), config.seed, outputs, result.timings)
    final = result.metrics[-1]
    print(f"trained {config.steps} steps: success_rate={final.success_rate:.3f} "
          f"entropy={final.policy_entropy_estimate:.4f} mean_reward={final.mean_reward:.3f}")
    return 0


def _nesting_reports(trials: int, rng: np.random.Generator, tol_abs: float) -> list[dict]:
    """The nesting check: at each of ``trials`` random one-state policies, the exact response entropy
    (-sum p log p over the complete responses) against the chain-rule route (the expected sum of the
    per-position entropies), ok when they agree within tol_abs.  Each trial draws |V| and max_len from
    2-4 and then random_policy's logits, trials in turn.  The trials are grouped by (|V|, max_len), each
    a state of its group's policy, and each group's routes are one entropy_routes pass; the reports keep
    draw order."""
    groups: dict[tuple[int, int], TablePolicy] = {}
    states: dict[tuple[int, int], list[str]] = {}
    for trial in range(trials):
        size = int(rng.integers(2, 5)), int(rng.integers(2, 5))  # |V|, max_len
        if size in groups:
            draw_logits(groups[size], str(trial), rng)
        else:
            groups[size] = random_policy(*size, rng, state=str(trial))
        states.setdefault(size, []).append(str(trial))
    routes = {}
    for size, policy in groups.items():
        routes.update(zip(states[size], zip(*entropy_routes(PolicySnapshot(policy), states[size]))))
    reports = []
    for trial in range(trials):
        route_a, route_b = routes[str(trial)]
        err = abs(route_a - route_b)
        reports.append({
            "kind": "nesting",
            "analytic": route_a,
            "finite_difference": route_b,
            "abs_error": err,
            "rel_error": err / abs(route_a) if route_a != 0.0 else float("inf"),
            "ok": err <= tol_abs,
        })
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    kinds = ["resp", "regularized", "parametrized", "nesting"] if args.kind == "all" else [args.kind]
    t0 = time.perf_counter()
    rows: list[dict] = []
    for kind in kinds:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, kinds.index(kind)]))
        if kind == "nesting":
            rows.extend(_nesting_reports(args.trials, rng, tol_abs=1e-10))
        else:
            reports = geometry.verify_drift_fd(
                kind, args.trials, rng,
                fd_step=args.fd_step, tol_rel=args.tol_rel, tol_abs=args.tol_abs,
            )
            rows.extend(vars(r) for r in reports)  # scalar fields only, so the rows need no deep copy
    n_fail = sum(1 for row in rows if not row["ok"])
    summary = {
        "kinds": kinds,
        "trials_per_kind": args.trials,
        "n_reports": len(rows),
        "n_fail": n_fail,
        "max_abs_error": max(row["abs_error"] for row in rows),
    }
    _write_outputs(args.out, "verify", {"reports.jsonl": rows, "summary.json": summary}, None, args.seed,
                   {"total": time.perf_counter() - t0})
    print(f"verify {'+'.join(kinds)}: {len(rows)} reports, {n_fail} failures")
    return 0 if n_fail == 0 else 2


def _probe_inputs(args: argparse.Namespace) -> tuple[TrainConfig, TablePolicy, list[str]]:
    """A probe's config, its checkpoint, and the reachable states of the config's env.

    A checkpoint must match the env's vocabulary and max_len and, unless it is
    empty (an untrained policy), hold an entry at one of the env's reachable states.
    """
    config = _resolve_config(args)
    policy = load_checkpoint(args.checkpoint)
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    if (policy.vocab, policy.max_len) != (env.vocab, env.max_len):
        raise CliError(f"checkpoint {args.checkpoint} has vocab {policy.vocab} and max_len {policy.max_len}, "
                       f"but env {config.env_kind} has vocab {env.vocab} and max_len {env.max_len}")
    states = probes.reachable_states(env)
    if policy.logits and not {state for state, _ in policy.logits}.intersection(states):
        raise CliError(f"checkpoint {args.checkpoint} holds no entry at a reachable state of env {config.env_kind}")
    return config, policy, states


def cmd_probe_consistency(args: argparse.Namespace) -> int:
    config, policy, states = _probe_inputs(args)
    rng = np.random.default_rng(args.seed)
    if len(states) > args.states:
        idx = rng.permutation(len(states))[: args.states]
        states = [states[int(i)] for i in sorted(idx)]
    report = probes.consistency_probe(policy, states, args.samples, rng,
                                      lam=config.aem_lambda, eps=config.aem_eps)
    doc = dataclasses.asdict(report)
    pairs = [["alpha_minus_one", "mc_entropy_change"], *doc.pop("pairs")]
    _write_outputs(args.out, "probe-consistency", {"consistency.json": doc, "pairs.csv": pairs},
                   config_to_doc(config), args.seed, {})
    print(f"consistency: r={report.pearson_r:.4f} ci=[{report.ci_low:.4f}, {report.ci_high:.4f}] "
          f"sign_agreement={report.sign_agreement:.3f} over {report.n_sign_pairs} pairs")
    return 0


def cmd_probe_doob(args: argparse.Namespace) -> int:
    config, policy, states = _probe_inputs(args)
    state = states[0] if args.state is None else args.state
    if state not in states:
        raise CliError(f"--state {state!r} is not a reachable state of env {config.env_kind}")
    rng = np.random.default_rng(args.seed)
    snapshot = PolicySnapshot(policy)  # both probes read the one response tree at state
    report = probes.doob_probe(snapshot, state, args.samples, rng)
    exact = probes.doob_exact_residuals(snapshot, state)
    doc = dataclasses.asdict(report)
    doc["exact_residual_max"] = max(abs(v) for v in exact.values())
    _write_outputs(args.out, "probe-doob", {"doob.json": doc}, config_to_doc(config), args.seed, {})
    print(f"doob at {state}: mean={report.residual_mean:.6f} stderr={report.residual_stderr:.6f} "
          f"ok={report.ok}")
    return 0 if report.ok else 2


def cmd_probe_transition(args: argparse.Namespace) -> int:
    baseline = load_metrics(os.path.join(args.baseline, "metrics.jsonl"))
    modulated = load_metrics(os.path.join(args.modulated, "metrics.jsonl"))
    summary = probes.transition_tracker(baseline, modulated)
    rows = [["step", "baseline_entropy", "modulated_entropy", "baseline_success", "modulated_success"]]
    rows += [[step, b.policy_entropy_estimate, m.policy_entropy_estimate, b.success_rate, m.success_rate]
             for step, (b, m) in enumerate(zip(baseline, modulated))]
    _write_outputs(args.out, "probe-transition",
                   {"transition.json": dataclasses.asdict(summary), "transition.csv": rows}, None, 0, {})
    print(f"transition: early entropy {summary.baseline_early_entropy:.4f} -> "
          f"{summary.modulated_early_entropy:.4f}, late {summary.baseline_late_entropy:.4f} -> "
          f"{summary.modulated_late_entropy:.4f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    variants = args.variants.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(set(variants)) < len(variants) or len(set(seeds)) < len(seeds):
        raise CliError(f"--variants and --seeds must each name every entry once, got {variants} and {seeds}")
    runs = [[config_from_doc({**config_to_doc(config), "aem_mode": variant, "seed": seed}) for seed in seeds]
            for variant in variants]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    with open(os.path.join(args.out, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "n_seeds", "success_mean", "success_std",
                         "reward_mean", "reward_std"])
        fh.flush()
        for variant, run_cfgs in zip(variants, runs):
            successes, rewards = [], []
            for run_cfg in run_cfgs:
                run_dir = os.path.join(args.out, f"{variant}_seed{run_cfg.seed}")
                os.makedirs(run_dir, exist_ok=True)
                result = train(run_cfg, metrics_path=os.path.join(run_dir, "metrics.jsonl"))
                q = max(1, len(result.metrics) // 4)
                successes.append(sum(m.success_rate for m in result.metrics[-q:]) / q)
                rewards.append(sum(m.mean_reward for m in result.metrics[-q:]) / q)
            row = [variant, len(seeds),
                   float(np.mean(successes)), float(np.std(successes, ddof=1) if len(seeds) > 1 else 0.0),
                   float(np.mean(rewards)), float(np.std(rewards, ddof=1) if len(seeds) > 1 else 0.0)]
            rows.append(row)
            writer.writerow(row)
            fh.flush()
    _write_manifest(args.out, "ablate", config_to_doc(config), config.seed, ["results.csv"], {})
    for row in rows:
        print(f"{row[0]}: success {row[2]:.3f} +/- {row[3]:.3f}, reward {row[4]:.3f} +/- {row[5]:.3f}")
    return 0


def _live_frac(spans: list) -> float | str:
    """The share of a step's spans rows whose population passed the range guard (h_tilde set), "" with no spans."""
    return sum(row[4] is not None for row in spans) / len(spans) if spans else ""


def cmd_report(args: argparse.Namespace) -> int:
    names = [os.path.basename(os.path.normpath(run_dir)) for run_dir in args.run]
    if len(set(names)) < len(names):
        raise CliError(f"--run directories must have distinct names, got {names}")
    files: dict[str, object] = {}
    for name, run_dir in zip(names, args.run):
        metrics = load_metrics(os.path.join(run_dir, "metrics.jsonl"))
        if not metrics:
            raise CliError(f"{os.path.join(run_dir, 'metrics.jsonl')} holds no steps to report")
        files[f"{name}_series.csv"] = [
            ["step", "entropy", "success_rate", "mean_reward", "mean_alpha", "frac_positive_advantage",
             "live_population_frac"],
            *([m.step, m.policy_entropy_estimate, m.success_rate, m.mean_reward, m.mean_alpha,
               m.frac_positive_advantage, _live_frac(m.spans)] for m in metrics),
        ]
        files[f"{name}_alpha_scatter.csv"] = [
            ["step", "group", "rollout", "turn", "h_bar", "h_tilde", "alpha", "advantage"],
            *([m.step, g, i, t, h_bar, "" if h_tilde is None else h_tilde, alpha, adv]
              for m in metrics for g, i, t, h_bar, h_tilde, alpha, adv in m.spans),
        ]
        verify_path = os.path.join(run_dir, "summary.json")
        if os.path.exists(verify_path):
            with open(verify_path) as fh:
                files[f"{name}_verify_summary.json"] = json.load(fh)
    _write_outputs(args.out, "report", files, None, 0, {})
    print(f"report: wrote {len(files)} files to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="entlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: _Parser) -> None:
        p.add_argument("--config", help="experiment config file (JSON)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dot paths for nesting)")

    p = sub.add_parser("train", help="run a training loop")
    add_config_args(p)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--mask-sign", type=int, choices=(1, -1), default=None,
                   help="drop spans with this sgn(A * (alpha - 1)) from updates")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="check drift identities against finite differences")
    p.add_argument("--kind", choices=("resp", "regularized", "parametrized", "nesting", "all"),
                   default="all")
    p.add_argument("--trials", type=_number(int, 1), default=200)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--fd-step", type=_number(float, 0, strict=True), default=geometry.DEFAULT_FD_STEP)
    p.add_argument("--tol-rel", type=_number(float, 0), default=geometry.DEFAULT_REL_TOL)
    p.add_argument("--tol-abs", type=_number(float, 0), default=geometry.DEFAULT_ABS_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe-consistency", help="coefficient vs MC entropy-change consistency")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--states", type=_number(int, 1), default=64)
    p.add_argument("--samples", type=_number(int, 2), default=64)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe_consistency)

    p = sub.add_parser("probe-doob", help="martingale residuals of the surprisal decomposition")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--state", default=None, help="policy state key (default: first reachable)")
    p.add_argument("--samples", type=_number(int, 2), default=100000)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe_doob)

    p = sub.add_parser("probe-transition", help="compare a baseline run against a modulated run")
    p.add_argument("--baseline", required=True, help="baseline run directory")
    p.add_argument("--modulated", required=True, help="modulated run directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe_transition)

    p = sub.add_parser("ablate", help="train every modulation variant over seeds")
    add_config_args(p)
    p.add_argument("--variants", default="off,aem,reverse,shuffle,traj_norm,batch_norm")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="emit CSV series from run directories")
    p.add_argument("--run", action="append", required=True, help="run directory (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ValueError, EnumerationBudgetError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
