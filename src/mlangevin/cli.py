"""Command-line front end: tune, run, bench, and probe subcommands.

Configuration comes from flags, optionally layered over a JSON config file
(``--config``); flags override file fields.  The report goes to stdout and,
with ``--output``, to a file, as JSON or, with ``--format csv``, as CSV.

Exit codes: 0 success, 1 usage or config error, 2 infeasible plan,
3 numerical failure (non-finite trajectory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from .diagnostics import (
    DEFAULT_COVARIATE_SEED,
    bench,
    confluence_probe,
    contraction_probe,
    euler_invariant_moment_oracle,
)
from .estimator import estimate, identity_observable, norm_observable
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


_ALL = ("tune", "run", "bench", "probe")
_PLANNING = ("tune", "run", "bench")
_SIMULATING = ("run", "bench", "probe")
_PLANS = {"b1": plan_b1, "b2": plan_b2, "aggressive": plan_aggressive}
_OBSERVABLES = {"norm": norm_observable, "identity": identity_observable}

# Every setting, once: name -> (argparse options, default, subcommands that
# take it).  A config-file field has the setting's name; its flag is that
# name with "-" for "_".  The order is the flags' order in a usage line.  A
# default of None is filled in by the chosen model or probe kind (_KINDS),
# or left unset, and only such a setting accepts a null config field.
_SETTINGS = {
    "model": (dict(choices=["ou", "logistic"]), "ou", _ALL),
    "d": (dict(type=int), 10, _ALL),
    "output": (dict(help="write the report to this path"), None, _ALL),
    "format": (dict(choices=["json", "csv"]), "json", _ALL),
    "lambda": (dict(type=float, metavar="LAM", help="logistic ridge weight"),
               None, _ALL),
    "a": (dict(type=float, help="logistic covariate scale"), None, _ALL),
    "covariate_seed": (dict(type=int), None, _ALL),
    "eps": (dict(type=float), 0.1, _PLANNING),
    "regime": (dict(choices=list(_PLANS)), "b2", _PLANNING),
    "seed": (dict(type=int), 0, _SIMULATING),
    "warm_start": (dict(action="store_true",
                        help="gradient-descent preprocess from --x-init"),
                   False, ("run", "bench")),
    "probe": (dict(choices=["confluence", "contraction", "invariant-moment"]),
              "invariant-moment", ("probe",)),
    "gamma": (dict(type=float), None, ("probe",)),
    "horizon": (dict(type=float), None, ("probe",)),
    "paths": (dict(type=int), None, ("probe",)),
    "n_steps": (dict(type=int), None, ("probe",)),
    "x_init": (dict(help="start point: zeros | ones | JSON file"), None,
               _SIMULATING),
    "y_init": (dict(help="second probe point: zeros | ones | JSON file"),
               None, ("probe",)),
    "observable": (dict(choices=list(_OBSERVABLES)), "norm", ("run",)),
    "table": (dict(action="store_true",
                   help="print the per-level evolution table"),
              False, ("run",)),
    "force": (dict(action="store_true",
                   help="run even if the plan is infeasible"),
              False, ("run",)),
    "runs": (dict(type=int), 50, ("bench",)),
}

# The settings that only one --model or --probe value reads, with the
# defaults that value gives them.  On the command line, a setting that only
# another value reads is a usage error.
_KINDS = {
    "logistic": {"lambda": 0.25, "a": 2.0,
                 "covariate_seed": DEFAULT_COVARIATE_SEED},
    "confluence": {"gamma": 0.25, "horizon": 50.0, "paths": 2000,
                   "x_init": "zeros"},
    "contraction": {"gamma": 0.5, "n_steps": 12, "x_init": "ones",
                    "y_init": "zeros"},
    "invariant-moment": {"gamma": 0.5, "horizon": None},
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlangevin",
                     description="Multilevel pathwise-average Langevin estimator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        # a flag left out is absent from the namespace, not None
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name, (options, _, commands) in _SETTINGS.items():
            if command in commands:
                p.add_argument(_flag(name), **options)
    return parser


def _load_json(path: str, label: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{label} is not valid JSON: {exc}")


def _config_value(name: str, value):
    """Check and coerce one config-file field as its flag would be."""
    options = _SETTINGS[name][0]
    if options.get("action") == "store_true":  # on/off flags take booleans
        ok = isinstance(value, bool)
    elif isinstance(value, (bool, list, dict)):
        ok = False
    elif "type" in options:
        # the flag's own type, applied to the text a command line would hold
        try:
            value, ok = options["type"](str(value)), True
        except ValueError:
            ok = False
    else:
        ok = isinstance(value, str)
    if not ok or ("choices" in options
                  and value not in options["choices"]):
        raise _UsageError(f"config field {name!r}: {value!r} is not a valid "
                          f"value for {_flag(name)}")
    return value


def _resolve_config(command: str, path, given: dict) -> dict:
    """Merge defaults, config-file fields and explicit flags (flags win).

    A config-file field is checked and coerced with its flag's type and
    choices, so a bad value is a usage error, not a crash; a null field
    keeps the default where that is None.  A setting left unset takes the
    default of the chosen model or probe kind, if it gives one.
    """
    chosen = {}
    if path:
        loaded = _load_json(path, f"config file {path!r}")
        if not isinstance(loaded, dict):
            raise _UsageError(
                f"config file {path!r} must hold a JSON object")
        for name, value in loaded.items():
            if name not in _SETTINGS:
                raise _UsageError(f"unknown config field {name!r}")
            if value is not None or _SETTINGS[name][1] is not None:
                chosen[name] = _config_value(name, value)
    chosen.update(given)
    cfg = {name: spec[1] for name, spec in _SETTINGS.items()} | chosen
    for chooser in ("model", "probe"):
        if command in _SETTINGS[chooser][2]:
            kind = _KINDS.get(cfg[chooser], {})
            cfg.update({k: v for k, v in kind.items() if k not in chosen})
    cfg["command"] = command
    return cfg


def _check_flags_read(cfg: dict, given: dict) -> None:
    """A command-line flag that the resolved command does not read is a
    usage error.  Config-file fields are not checked here, so that one file
    can serve several commands."""
    unread = []
    if cfg["model"] == "ou":
        unread += [(name, "applies to --model logistic only")
                   for name in _KINDS["logistic"]]
    if cfg["command"] == "probe":
        kind = cfg["probe"]
        unread += [(name, f"is not read by the {kind} probe")
                   for other in _SETTINGS["probe"][0]["choices"]
                   for name in _KINDS[other] if name not in _KINDS[kind]]
        if kind == "invariant-moment" and cfg["horizon"] is None:
            unread.append(("seed", "is read by the invariant-moment probe "
                                   "only with --horizon"))
    for name, why in unread:
        if name in given:
            raise _UsageError(f"{_flag(name)} {why}")


def _check_output(path: str) -> None:
    """Open ``--output`` for appending before any work, so an unusable path
    fails first; a file that was not there is removed again."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _build_model(cfg: dict):
    if cfg["model"] == "ou":
        potential = QuadraticPotential(cfg["d"])
    else:
        covariate = logistic_covariate(
            cfg["d"], cfg["a"], NoiseStream(cfg["covariate_seed"], 0))
        potential = LogisticPerturbedPotential(cfg["d"], cfg["lambda"],
                                               covariate)
    return make_langevin_model(potential, "auto"), potential


def _resolve_point(source: str, d: int) -> np.ndarray:
    if source == "zeros":
        return np.zeros(d)
    if source == "ones":
        return np.ones(d)
    data = _load_json(source, f"point file {source!r}")
    # JSON numbers load as int or float; a bool is not a number here
    if not (isinstance(data, list)
            and all(type(v) in (int, float) for v in data)):
        raise _UsageError(
            f"point file {source!r} must hold a JSON list of numbers")
    x = np.array(data, dtype=float)
    if x.shape != (d,):
        raise _UsageError(
            f"point file {source!r} holds shape {x.shape}, expected ({d},)")
    return x


def _start_point(cfg: dict, potential) -> np.ndarray:
    x_init = _resolve_point(cfg["x_init"] or "zeros", cfg["d"])
    if cfg["warm_start"]:
        return warm_start(potential, x_init).x0
    return x_init


def _emit(json_text: str, rows, cfg: dict, quiet: bool = False) -> None:
    """Render the report in ``--format`` and write it to stdout (unless
    ``quiet``) and to ``--output``."""
    if cfg["format"] == "json":
        text = json_text + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if not quiet:
        sys.stdout.write(text)
    if cfg["output"]:
        with open(cfg["output"], "w", newline="") as fh:
            fh.write(text)


def cmd_tune(cfg: dict) -> int:
    model, _ = _build_model(cfg)
    plan = _PLANS[cfg["regime"]](model, cfg["eps"])
    rows = [
        {"level": r, "gamma": plan.gamma[r], "horizon": plan.horizons[r]}
        for r in range(plan.R + 1)
    ]
    _emit(json.dumps(plan.to_dict(), indent=2, sort_keys=True), rows, cfg)
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


def cmd_run(cfg: dict) -> int:
    model, potential = _build_model(cfg)
    plan = _PLANS[cfg["regime"]](model, cfg["eps"])
    if not plan.feasible and not cfg["force"]:
        print(
            f"plan infeasible: burn-in tau={plan.tau:.6g} exceeds "
            f"T_R/2={plan.horizons[-1] / 2.0:.6g}; rerun with --force to "
            "proceed with the clamped burn-in", file=sys.stderr)
        return EXIT_INFEASIBLE
    if cfg["table"] and cfg["observable"] != "norm":
        raise _UsageError("--table requires a scalar observable (norm)")
    x0 = _start_point(cfg, potential)
    obs = _OBSERVABLES[cfg["observable"]]()
    out = estimate(model, plan, x0, obs, cfg["seed"])
    if cfg["table"]:
        lines = [f"{'level':>5}  {'iterations':>12}  {'cumulative':>18}"]
        cumulative = 0.0
        for r in range(plan.R + 1):
            cumulative += out.level_contributions[r]
            lines.append(f"{r:>5}  {out.level_iterations[r]:>12}  "
                         f"{cumulative:>18.12f}")
        print("\n".join(lines))
    _emit(out.to_json(), out.csv_rows(), cfg, quiet=cfg["table"])
    return EXIT_OK


def cmd_bench(cfg: dict) -> int:
    if cfg["runs"] < 1:
        raise _UsageError(f"--runs must be >= 1, got {cfg['runs']}")
    model, potential = _build_model(cfg)
    plan = _PLANS[cfg["regime"]](model, cfg["eps"])
    report = bench(model, plan, _start_point(cfg, potential), cfg["runs"],
                   seed=cfg["seed"])
    _emit(report.to_json(), report.csv_rows(), cfg)
    return EXIT_OK


def cmd_probe(cfg: dict) -> int:
    model, _ = _build_model(cfg)
    name, gamma, d = cfg["probe"], cfg["gamma"], cfg["d"]
    if name == "confluence":
        result = confluence_probe(model, gamma, cfg["horizon"], cfg["paths"],
                                  seed=cfg["seed"],
                                  x0=_resolve_point(cfg["x_init"], d))
        payload = {
            "probe": "confluence",
            "sup_gap_sq": {repr(g): v for g, v in result.sup_gap_sq.items()},
            "order_estimate": result.order_estimate,
        }
        rows = [{"gamma": g, "sup_gap_sq": v}
                for g, v in result.sup_gap_sq.items()]
    elif name == "contraction":
        x = _resolve_point(cfg["x_init"], d)
        y = _resolve_point(cfg["y_init"], d)
        distances = contraction_probe(model, x, y, gamma, cfg["n_steps"],
                                      seed=cfg["seed"])
        payload = {
            "probe": "contraction",
            "gamma": gamma,
            "n_steps": cfg["n_steps"],
            "distances": distances,
        }
        rows = [{"step": i, "distance": v} for i, v in enumerate(distances)]
    else:  # invariant-moment
        if cfg["model"] != "ou":
            raise _UsageError(
                "the invariant-moment probe needs --model ou: its oracle "
                "2/(2 - gamma) is the quadratic model's")
        oracle = euler_invariant_moment_oracle(gamma)
        payload = {"probe": "invariant-moment", "gamma": gamma,
                   "oracle_moment": oracle}
        if cfg["horizon"] is not None:
            tau = min(100.0, cfg["horizon"] / 10.0)
            avg, iters = run_level0(model, np.zeros(d), gamma, tau,
                                    cfg["horizon"], lambda x: x[..., 0] ** 2,
                                    NoiseStream(cfg["seed"], 0))
            payload["empirical_moment"] = avg
            payload["iterations"] = iters
            payload["abs_error"] = abs(avg - oracle)
        rows = [{k: v for k, v in payload.items() if k != "probe"}]
    _emit(json.dumps(payload, indent=2, sort_keys=True), rows, cfg)
    return EXIT_OK


_COMMANDS = {
    "tune": (cmd_tune, "print a tuning plan"),
    "run": (cmd_run, "run the estimator once"),
    "bench": (cmd_bench, "RMSE benchmark over repeated runs"),
    "probe": (cmd_probe, "assumption probes"),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        given = {k: v for k, v in vars(args).items() if k in _SETTINGS}
        cfg = _resolve_config(args.command, getattr(args, "config", None),
                              given)
        _check_flags_read(cfg, given)
        if cfg["output"]:
            _check_output(cfg["output"])
        return _COMMANDS[args.command][0](cfg)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:  # beyond a float or memory
        print(f"error: too large to compute or hold: "
              f"{exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
