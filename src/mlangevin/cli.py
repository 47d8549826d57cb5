"""Command-line front end: tune, run, bench, and probe subcommands.

Configuration comes from flags, optionally layered over a JSON config file
(``--config``); flags override file fields.  Output is JSON on stdout, with
``--output``/``--format`` for writing JSON or CSV files.

Exit codes: 0 success, 1 usage or config error, 2 infeasible plan,
3 numerical failure (non-finite trajectory).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

import numpy as np

from .diagnostics import (
    DEFAULT_COVARIATE_SEED,
    bench_logistic,
    bench_ou,
    confluence_probe,
    contraction_probe,
    euler_invariant_moment_oracle,
)
from .estimator import Observable, estimate, norm_observable, identity_observable
from .model import (
    LogisticPerturbedPotential,
    QuadraticPotential,
    logistic_covariate,
    make_langevin_model,
)
from .sde import NoiseStream, NumericalFailureError, run_level0
from .tuning import plan_aggressive, plan_b1, plan_b2
from .warmstart import warm_start

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlangevin",
                     description="Multilevel pathwise-average Langevin estimator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, regimes: Sequence[str]):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", choices=["ou", "logistic"])
        p.add_argument("--d", type=int)
        p.add_argument("--eps", type=float)
        p.add_argument("--regime", choices=list(regimes))
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--lambda", dest="lam", type=float,
                       help="logistic ridge weight")
        p.add_argument("--a", type=float, help="logistic covariate scale")
        p.add_argument("--covariate-seed", type=int)
        p.add_argument("--include-log2", action="store_true", default=None,
                       help="keep the log 2 factor in b2 horizons")

    p_tune = sub.add_parser("tune", help="print a tuning plan")
    add_common(p_tune, ("b1", "b2", "aggressive"))

    p_run = sub.add_parser("run", help="run the estimator once")
    add_common(p_run, ("b1", "b2", "aggressive"))
    p_run.add_argument("--observable", choices=["norm", "identity"])
    p_run.add_argument("--table", action="store_true", default=None,
                       help="print the per-level evolution table")
    p_run.add_argument("--force", action="store_true", default=None,
                       help="run even if the plan is infeasible")
    p_run.add_argument("--warm-start", action="store_true", default=None,
                       help="gradient-descent preprocess from --x-init")
    p_run.add_argument("--x-init",
                       help="starting point: zeros | ones | JSON file")

    p_bench = sub.add_parser("bench", help="RMSE benchmark over repeated runs")
    add_common(p_bench, ("b1", "b2", "aggressive"))
    p_bench.add_argument("--suite", choices=["ou", "logistic"])
    p_bench.add_argument("--runs", type=int)
    p_bench.add_argument("--x0", choices=["zero", "ones", "warmstart"])

    p_probe = sub.add_parser("probe", help="assumption probes")
    add_common(p_probe, ("b1", "b2", "aggressive"))
    p_probe.add_argument("--probe",
                         choices=["confluence", "contraction",
                                  "invariant-moment"])
    p_probe.add_argument("--gamma", type=float)
    p_probe.add_argument("--horizon", type=float)
    p_probe.add_argument("--paths", type=int)
    p_probe.add_argument("--n-steps", type=int)
    p_probe.add_argument("--x-init",
                         help="first probe point: zeros | ones | JSON file")
    p_probe.add_argument("--y-init",
                         help="second probe point: zeros | ones | JSON file")
    return parser


_DEFAULTS = {
    "model": "ou",
    "d": 10,
    "eps": 0.1,
    "regime": "b2",
    "seed": 0,
    "output": None,
    "format": "json",
    "lam": 0.25,
    "a": 2.0,
    "covariate_seed": DEFAULT_COVARIATE_SEED,
    "include_log2": False,
    "observable": "norm",
    "table": False,
    "force": False,
    "warm_start": False,
    "x_init": None,
    "y_init": None,
    "suite": "ou",
    "runs": 50,
    "x0": "zero",
    "probe": "invariant-moment",
    "gamma": None,
    "horizon": None,
    "paths": 2000,
    "n_steps": 12,
}

# JSON config files use the domain field names; "lambda" is the one name
# that differs from the argparse destination.
_CONFIG_ALIASES = {"lambda": "lam"}


def _flag_actions(parser: argparse.ArgumentParser) -> dict:
    """Destination -> argparse action, over the flags of every subcommand."""
    actions = {}
    for sub in parser._actions:
        if isinstance(sub, argparse._SubParsersAction):
            for p in sub.choices.values():
                for action in p._actions:
                    actions.setdefault(action.dest, action)
    return actions


def _config_value(name: str, value, action: argparse.Action):
    """Check and coerce one config-file field as its flag would be."""
    if value is None and _DEFAULTS[action.dest] is None:
        return None
    if action.nargs == 0:  # on/off flags take JSON booleans
        ok = isinstance(value, bool)
    elif isinstance(value, (bool, list, dict)):
        ok = False
    elif action.type is not None:
        # the flag's own type, applied to the text a command line would hold
        try:
            value, ok = action.type(str(value)), True
        except ValueError:
            ok = False
    else:
        ok = isinstance(value, str)
    if not ok or (action.choices is not None and value not in action.choices):
        raise _UsageError(f"config field {name!r}: {value!r} is not a valid "
                          f"value for {action.option_strings[0]}")
    return value


def _resolve_config(args: argparse.Namespace, actions: dict) -> dict:
    """Merge defaults, config-file fields, and explicit flags (flags win).

    ``actions`` maps each field to its flag (see ``_flag_actions``); a
    config-file field is checked and coerced with that flag's type and
    choices, so a bad value is a usage error, not a crash.
    """
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a JSON object")
        for name, value in loaded.items():
            key = _CONFIG_ALIASES.get(name, name)
            if key not in cfg:
                raise _UsageError(f"unknown config field {key!r}")
            cfg[key] = _config_value(name, value, actions[key])
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    cfg["command"] = args.command
    return cfg


def _build_model(cfg: dict):
    if cfg["model"] == "ou":
        potential = QuadraticPotential(cfg["d"])
    else:
        covariate = logistic_covariate(
            cfg["d"], cfg["a"], NoiseStream(cfg["covariate_seed"], 0))
        potential = LogisticPerturbedPotential(cfg["d"], cfg["lam"], covariate)
    return make_langevin_model(potential, "auto"), potential


def _build_plan(model, cfg: dict):
    regime = cfg["regime"]
    if regime == "b2":
        return plan_b2(model, cfg["eps"], include_log2=cfg["include_log2"])
    if regime == "b1":
        return plan_b1(model, cfg["eps"])
    if regime == "aggressive":
        return plan_aggressive(model, cfg["eps"])
    raise _UsageError(f"unknown regime {regime!r}")


def _resolve_point(source: str, d: int) -> np.ndarray:
    if source == "zeros":
        return np.zeros(d)
    if source == "ones":
        return np.ones(d)
    with open(source) as fh:
        data = json.load(fh)
    x = np.asarray(data, dtype=float)
    if x.shape != (d,):
        raise _UsageError(
            f"point file {source!r} holds shape {x.shape}, expected ({d},)")
    return x


def _emit(json_text: str, rows, cfg: dict, quiet: bool = False) -> None:
    if not quiet:
        print(json_text)
    if cfg["output"]:
        if cfg["format"] == "json":
            with open(cfg["output"], "w") as fh:
                fh.write(json_text + "\n")
        else:
            with open(cfg["output"], "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)


def cmd_tune(cfg: dict) -> int:
    model, _ = _build_model(cfg)
    plan = _build_plan(model, cfg)
    rows = [
        {"level": r, "gamma": plan.gamma[r], "horizon": plan.horizons[r]}
        for r in range(plan.R + 1)
    ]
    _emit(json.dumps(plan.to_dict(), indent=2, sort_keys=True), rows, cfg)
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


def cmd_run(cfg: dict) -> int:
    model, potential = _build_model(cfg)
    plan = _build_plan(model, cfg)
    if not plan.feasible and not cfg["force"]:
        print(
            f"plan infeasible: burn-in tau={plan.tau:.6g} exceeds "
            f"T_R/2={plan.horizons[-1] / 2.0:.6g}; rerun with --force to "
            "proceed with the clamped burn-in", file=sys.stderr)
        return EXIT_INFEASIBLE
    x_init = _resolve_point(cfg["x_init"] or "zeros", cfg["d"])
    if cfg["warm_start"]:
        x0 = warm_start(potential, x_init).x0
    else:
        x0 = x_init
    if cfg["observable"] == "norm":
        obs = norm_observable()
    else:
        obs = identity_observable()
    if cfg["table"] and obs.kind != "scalar":
        raise _UsageError("--table requires a scalar observable")
    out = estimate(model, plan, x0, obs, cfg["seed"])
    if cfg["table"]:
        lines = [f"{'level':>5}  {'iterations':>12}  {'cumulative':>18}"]
        cumulative = 0.0
        for r in range(plan.R + 1):
            cumulative += out.level_contributions[r]
            lines.append(f"{r:>5}  {out.level_iterations[r]:>12}  "
                         f"{cumulative:>18.12f}")
        print("\n".join(lines))
        _emit(out.to_json(), out.csv_rows(), cfg, quiet=True)
    else:
        _emit(out.to_json(), out.csv_rows(), cfg)
    return EXIT_OK


# The plans each bench suite can run: bench_ou always tunes b2.
_BENCH_REGIMES = {"ou": ("b2",), "logistic": ("b2", "aggressive")}


def cmd_bench(cfg: dict) -> int:
    if cfg["runs"] < 1:
        raise _UsageError(f"--runs must be >= 1, got {cfg['runs']}")
    regimes = _BENCH_REGIMES[cfg["suite"]]
    if cfg["regime"] not in regimes:
        raise _UsageError(
            f"bench --suite {cfg['suite']} supports --regime "
            f"{' or '.join(regimes)}, not {cfg['regime']!r}")
    if cfg["suite"] == "ou":
        report = bench_ou(cfg["d"], cfg["eps"], cfg["runs"],
                          x0_mode=cfg["x0"], seed=cfg["seed"])
    else:
        report = bench_logistic(
            cfg["d"], cfg["lam"], cfg["a"], cfg["eps"], cfg["runs"],
            seed=cfg["seed"], covariate_seed=cfg["covariate_seed"],
            regime=cfg["regime"])
    _emit(report.to_json(), report.csv_rows(), cfg)
    return EXIT_OK


def cmd_probe(cfg: dict) -> int:
    model, _ = _build_model(cfg)
    name = cfg["probe"]
    if name == "confluence":
        gamma = cfg["gamma"] if cfg["gamma"] is not None else 0.25
        horizon = cfg["horizon"] if cfg["horizon"] is not None else 50.0
        result = confluence_probe(model, gamma, horizon, cfg["paths"],
                                  seed=cfg["seed"])
        payload = {
            "probe": "confluence",
            "sup_gap_sq": {repr(g): v for g, v in result.sup_gap_sq.items()},
            "order_estimate": result.order_estimate,
        }
        rows = [{"gamma": g, "sup_gap_sq": v}
                for g, v in result.sup_gap_sq.items()]
    elif name == "contraction":
        gamma = cfg["gamma"] if cfg["gamma"] is not None else 0.5
        x = _resolve_point(cfg["x_init"] or "ones", cfg["d"])
        y = _resolve_point(cfg["y_init"] or "zeros", cfg["d"])
        distances = contraction_probe(model, x, y, gamma, cfg["n_steps"],
                                      seed=cfg["seed"])
        payload = {
            "probe": "contraction",
            "gamma": gamma,
            "n_steps": cfg["n_steps"],
            "distances": distances,
        }
        rows = [{"step": i, "distance": v} for i, v in enumerate(distances)]
    elif name == "invariant-moment":
        gamma = cfg["gamma"] if cfg["gamma"] is not None else 0.5
        oracle = euler_invariant_moment_oracle(gamma)
        payload = {"probe": "invariant-moment", "gamma": gamma,
                   "oracle_moment": oracle}
        if cfg["horizon"] is not None:
            first_sq = Observable(
                kind="scalar",
                apply=lambda x: float(x[0] ** 2),
                label="first_coordinate_squared",
                apply_batch=lambda xs: xs[..., 0] ** 2,
            )
            tau = min(100.0, cfg["horizon"] / 10.0)
            avg, iters = run_level0(model, np.zeros(cfg["d"]), gamma, tau,
                                    cfg["horizon"], first_sq,
                                    NoiseStream(cfg["seed"], 0))
            payload["empirical_moment"] = avg
            payload["iterations"] = iters
            payload["abs_error"] = abs(avg - oracle)
        rows = [{k: v for k, v in payload.items() if k != "probe"}]
    else:
        raise _UsageError(f"unknown probe {name!r}")
    _emit(json.dumps(payload, indent=2, sort_keys=True), rows, cfg)
    return EXIT_OK


_COMMANDS = {
    "tune": cmd_tune,
    "run": cmd_run,
    "bench": cmd_bench,
    "probe": cmd_probe,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args, _flag_actions(parser))
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
