"""Print SHA-256 digests of tuned plans, estimator outputs and probe outputs.

A refactor that promises the same bytes can be checked by running this
script on both checkouts and diffing the output:

    PYTHONPATH=<old>/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=<new>/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

It covers, in order:

* ``TuningPlan.to_dict()`` of tuned plans, one digest per (model, rule):
  the OU and logistic models in d in {2, 10, 100, 1000} at eps in {0.5, 0.3,
  0.2, 0.1, 0.05, 0.03, 0.01} under ``plan_b2``, ``plan_b1`` and
  ``plan_aggressive``, and three ``plan_general`` constant sets at the same
  eps values.
* ``estimate(...).to_json()`` and ``estimate_repeated(...)`` (3 and 60 runs,
  so both sides of the batch-width chunk rule) on the OU and logistic
  models in d=10, for R in {0, 2, 4} and both observables, with hand-built
  plans, once with the default chunk cap and once with a cap of 7 steps so
  that every level crosses many chunk boundaries; the second set's short
  horizons clamp the burn-in at R=4.
* the ``contraction_probe`` list (d=4, 100,000 steps) and
  ``confluence_probe(...).sup_gap_sq`` (d=2, horizon 500, 2000 paths).
* ``bench(...).to_dict()`` without ``wall_clock_seconds`` (3 runs, seed 5,
  eps=0.45): OU in d=2 and d=4 from the origin, from the ones vector and
  warm-started from the ones vector, and the logistic model warm-started
  from the origin in d=4 and d=10 (``plan_b2``) and d=100 (aggressive
  plan), all three against the quadrature reference.
* the message, step, run and level of two numerical failures, at the
  default chunk cap and at a cap of 7 steps: level 0 of the OU model in
  d=3 at gamma0=3 from 1e308 (where the norm observable overflows at step
  0), and level 1 (coarse step 324) of a noise-free model with the
  expanding drift b(x) = x.
* a model with an explicit sigma0: OU in d=3 with sigma0 = 2 (drift -4x),
  its derived constants, and ``estimate`` / ``estimate_repeated`` (3 runs)
  on a hand-built R=2 plan at gamma0 = 1/8, with both observables.

Then comes the total, a digest of all the lines above it.  After it, the
start points section prints, in clear, the exception class and message (or
"no error") of ``run_level0``, ``run_coupled_level``, ``contraction_probe``,
``confluence_probe``, ``estimate`` and ``warm_start`` on the OU model in d=2
from the start points [nan, 0], [0, inf] and (0, 0, 0).  The non-finite
inputs section then prints the same for non-finite times, plan inputs and
logistic inputs, for an eps so small that the horizons overflow, and for a
NaN or subnormal step.  Last, the CLI section prints the exit code and
digests of stdout, stderr and the ``--output`` file of ``mlangevin.cli.main``
on small ``tune``/``run``/``bench``/``probe`` reports in JSON and CSV,
``--table``, config-file runs, and the bad command lines and config files of
``tests/test_cli.py`` (input files live in a temporary directory that reads
as TMP; bench's ``wall_clock_seconds`` is blanked), with the message of each
bad config file in clear.  These sections follow
the total so that the total stays comparable with checkouts that predate
them.

Takes about 20 s.
"""

import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

import mlangevin as ml
import mlangevin.sde as sde
from mlangevin.cli import main as cli_main

PLAN_DIMS = (2, 10, 100, 1000)
PLAN_EPS = (0.5, 0.3, 0.2, 0.1, 0.05, 0.03, 0.01)

# (label, constants, gamma0) for plan_general: the b2 shape of OU d=10, the
# first-order shape, and an intermediate order whose horizon scale comes
# from the c2 (confluence) term
GENERAL_SETS = (
    ("b2-like", dict(alpha=1.0, b_exponent=2.0, delta=1.0, c2=0.0,
                     c3=2.0 * math.sqrt(10.0), c4=math.sqrt(10.0),
                     eta0=0.5), 0.5),
    ("b1-like", dict(alpha=1.0, b_exponent=1.0, delta=0.5, c2=0.0,
                     c3=2.0 * math.sqrt(2.0), c4=1.0, eta0=0.5), 0.5),
    ("b1.5", dict(alpha=0.5, b_exponent=1.5, delta=0.7, c2=4.0, c3=3.0,
                  c4=0.5, eta0=0.5), 0.25),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan(d, R, gamma0, t0, tau):
    return ml.TuningPlan(regime="b2", gamma0=gamma0,
                         horizons=[t0 * 2.0 ** (-1.5 * r) for r in range(R + 1)],
                         tau=tau, r0=1.0, big_t=t0, dim=d)


def logistic(d):
    cov = ml.logistic_covariate(d, 2.0, ml.NoiseStream(7, 0))
    return ml.make_langevin_model(
        ml.LogisticPerturbedPotential(d, 0.25, cov), "auto")


def models():
    yield "ou", 0.5, ml.make_langevin_model(ml.QuadraticPotential(10), "auto")
    yield "logistic", 0.1, logistic(10)


def plan_lines():
    rules = (
        ("plan_b2", ml.plan_b2),
        ("plan_b1", ml.plan_b1),
        ("plan_aggressive", ml.plan_aggressive),
    )
    lines = []
    for name, build in (("ou", lambda d: ml.make_langevin_model(
            ml.QuadraticPotential(d), "auto")), ("logistic", logistic)):
        built = [build(d) for d in PLAN_DIMS]
        for rule, tune in rules:
            blob = [tune(m, eps).to_dict() for m in built for eps in PLAN_EPS]
            lines.append(f"plans {name} {rule} n={len(blob)} "
                         f"{digest(json.dumps(blob, sort_keys=True))}")
    for label, constants, gamma0 in GENERAL_SETS:
        c = ml.GeneralAssumptionConstants(**constants)
        blob = [ml.plan_general(c, gamma0, eps).to_dict() for eps in PLAN_EPS]
        lines.append(f"plans general {label} n={len(blob)} "
                     f"{digest(json.dumps(blob, sort_keys=True))}")
    return lines


def bench_lines():
    cases = []
    for d in (2, 4):
        model = ml.make_langevin_model(ml.QuadraticPotential(d), "auto")
        ones = np.ones(d)
        warm = ml.warm_start(model.potential, ones).x0
        for start, x0 in (("zeros", np.zeros(d)), ("ones", ones),
                          ("warm-ones", warm)):
            cases.append((f"ou d={d} x0={start}", model, ml.plan_b2, x0))
    for d, rule in ((4, ml.plan_b2), (10, ml.plan_b2),
                    (100, ml.plan_aggressive)):
        model = logistic(d)
        x0 = ml.warm_start(model.potential, np.zeros(d)).x0
        cases.append((f"logistic d={d} {rule.__name__} x0=warm-zeros",
                      model, rule, x0))
    lines = []
    for label, model, rule, x0 in cases:
        report = ml.bench(model, rule(model, 0.45), x0, 3, seed=5).to_dict()
        report.pop("wall_clock_seconds")
        lines.append(f"bench {label} "
                     f"{digest(json.dumps(report, sort_keys=True))}")
    return lines


class Expanding:
    """Duck-typed model with drift b(x) = x and no noise."""

    dim = 3
    noise_scale = 0.0

    def advance(self, x, step):
        x += step * x


def failure_lines():
    far = ml.TuningPlan(regime="b2", gamma0=3.0, horizons=[30.0, 15.0],
                        tau=1.5, r0=1.0, big_t=30.0, dim=3)
    grow = ml.TuningPlan(regime="b2", gamma0=4.0, horizons=[1320.0, 1316.0],
                         tau=4.0, r0=1.0, big_t=1320.0, dim=3)
    cases = (
        ("ou d=3 x0=1e308", ml.make_langevin_model(ml.QuadraticPotential(3),
                                                   "auto"),
         far, np.full(3, 1e308), ml.norm_observable()),
        ("expanding d=3 x0=ones", Expanding(), grow, np.ones(3),
         ml.identity_observable()),
    )
    lines = []
    default_cap = sde._CHUNK_STEP_CAP
    for cap in (default_cap, 7):
        sde._CHUNK_STEP_CAP = cap
        for label, model, p, x0, obs in cases:
            try:
                ml.estimate_repeated(model, p, x0, obs, 1, 2)
            except ml.NumericalFailureError as exc:
                lines.append(f"failure cap={cap} {label} level="
                             f"{exc.level_index} step={exc.step_index} "
                             f"run={exc.run_index} {exc}")
            else:
                lines.append(f"failure cap={cap} {label} did not fail")
    sde._CHUNK_STEP_CAP = default_cap
    return lines


def explicit_lines():
    model = ml.make_langevin_model(ml.QuadraticPotential(3), 2.0)
    lines = [f"explicit sigma0=2 ou d=3 constants {model.sigma0!r} "
             f"{model.noise_scale!r} {model.alpha_eff!r} {model.l_eff!r}"]
    p = plan(3, 2, 0.125, 40.0, 2.0)
    for label, obs in (("norm", ml.norm_observable()),
                       ("identity", ml.identity_observable())):
        tag = f"explicit sigma0=2 ou d=3 R=2 {label}"
        one = ml.estimate(model, p, np.full(3, 0.3), obs, master_seed=21)
        lines.append(f"{tag} estimate {digest(one.to_json())}")
        rep = ml.estimate_repeated(model, p, np.full(3, 0.3), obs, 22, 3)
        lines.append(f"{tag} repeated3 "
                     f"{digest(''.join(o.to_json() for o in rep))}")
    return lines


def outcome(call) -> str:
    """The exception class and message a call raises, or "no error"."""
    try:
        call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def start_point_lines():
    model = ml.make_langevin_model(ml.QuadraticPotential(2), "auto")
    p = plan(2, 1, 0.5, 16.0, 2.0)
    entries = (
        ("run_level0", lambda x: ml.run_level0(
            model, x, 0.5, 0.0, 2.0, ml.norm_observable(),
            ml.NoiseStream(0, 0))),
        ("run_coupled_level", lambda x: ml.run_coupled_level(
            model, x, 0.25, 0.0, 2.0, ml.norm_observable(),
            ml.NoiseStream(0, 1))),
        ("contraction_probe", lambda x: ml.contraction_probe(
            model, x, np.zeros(2), 0.25, 5)),
        ("confluence_probe", lambda x: ml.confluence_probe(
            model, 0.25, 1.0, 200, x0=x)),
        ("estimate", lambda x: ml.estimate(
            model, p, x, ml.norm_observable(), 0)),
        ("warm_start", lambda x: ml.warm_start(model.potential, x)),
    )
    starts = (("nan", [math.nan, 0.0]), ("inf", [0.0, math.inf]),
              ("dim3", [0.0, 0.0, 0.0]))
    return [f"start point {name} x0={label} "
            f"{outcome(lambda: call(np.array(x)))}"
            for name, call in entries for label, x in starts]


def nonfinite_lines():
    inf, nan = math.inf, math.nan
    m2 = ml.make_langevin_model(ml.QuadraticPotential(2), "auto")
    cov = ml.logistic_covariate(2, 2.0, ml.NoiseStream(7, 0))
    kwargs = dict(regime="b2", gamma0=0.5, horizons=[8.0, 2.0], tau=1.0,
                  r0=1.0, big_t=8.0, dim=2)
    cases = (
        ("n_gamma t=inf", lambda: ml.n_gamma(inf, 0.25)),
        ("n_gamma t=nan", lambda: ml.n_gamma(nan, 0.25)),
        ("n_gamma gamma=nan", lambda: ml.n_gamma(1.0, nan)),
        ("n_gamma gamma=1e-320", lambda: ml.n_gamma(10.0, 1e-320)),
        ("run_level0 gamma=nan", lambda: ml.run_level0(
            m2, np.zeros(2), nan, 1.0, 10.0, lambda x: x[..., 0] ** 2,
            ml.NoiseStream(0, 0))),
        ("confluence_probe horizon=inf",
         lambda: ml.confluence_probe(m2, 0.25, inf, 200)),
        ("confluence_probe horizon=nan",
         lambda: ml.confluence_probe(m2, 0.25, nan, 200)),
        ("run_level0 horizon=inf", lambda: ml.run_level0(
            m2, np.zeros(2), 0.5, 100.0, inf, lambda x: x[..., 0] ** 2,
            ml.NoiseStream(0, 0))),
        ("plan_b2 eps=1e-300", lambda: ml.plan_b2(m2, 1e-300)),
        ("plan_b1 eps=1e-300", lambda: ml.plan_b1(m2, 1e-300)),
        ("TuningPlan horizons=[inf]",
         lambda: ml.TuningPlan(**{**kwargs, "horizons": [inf]})),
        ("TuningPlan gamma0=inf",
         lambda: ml.TuningPlan(**{**kwargs, "gamma0": inf})),
        ("TuningPlan tau=nan",
         lambda: ml.TuningPlan(**{**kwargs, "tau": nan})),
        ("LogisticPerturbedPotential lam=inf",
         lambda: ml.LogisticPerturbedPotential(2, inf, cov)),
        ("LogisticPerturbedPotential lam=nan",
         lambda: ml.LogisticPerturbedPotential(2, nan, cov)),
        ("logistic_covariate a=inf",
         lambda: ml.logistic_covariate(2, inf, ml.NoiseStream(7, 0))),
        ("logistic_covariate a=nan",
         lambda: ml.logistic_covariate(2, nan, ml.NoiseStream(7, 0))),
    )
    return [f"non-finite {label} {outcome(call)}" for label, call in cases]


FLAGSHIP = ["--model", "ou", "--d", "10", "--eps", "0.1", "--regime", "b2"]

# input files of the CLI cases, written under one temporary directory whose
# path reads as TMP in the digests
CLI_FILES = {
    "x.json": "[" + ", ".join(["2.0"] * 10) + "]",
    "short.json": "[2.0, 2.0, 2.0]",
    "far.json": "[1e+308, 1e+308]",
    "nan.json": "[NaN, 0.0]",
    "malformed.json": "[1.0, 2.0",
    "pt-object.json": '{"x": 1}', "pt-string.json": '"ones"',
    "pt-number.json": "3", "pt-nested.json": "[[0.0, 1.0]]",
    "pt-mixed.json": '[1, "a"]', "pt-booleans.json": "[true, false]",
    "cfg-tune.json": '{"model": "ou", "d": 2, "eps": 0.45, "lambda": 0.3}',
    "cfg-probe.json": ('{"d": 2, "n_steps": 5, "lambda": 0.3, "horizon": 2.0, '
                       '"paths": 100}'),
    "cfg-strings.json": '{"d": "10", "eps": "0.1", "seed": 3}',
    "cfg-nulls.json": '{"gamma": null, "warm_start": true}',
    "cfg-lam.json": '{"lam": 0.3}',
    "cfg-both.json": ('{"model": "logistic", "d": 2, "eps": 0.5, '
                      '"lambda": 0.3, "lam": 0.9}'),
    "cfg-paths-null.json": '{"d": 2, "horizon": 2.0, "paths": null}',
    "cfg-n-steps-null.json": '{"d": 2, "n_steps": null}',
    "cfg-unknown.json": '{"stepsize": 0.5}',
    "cfg-broken.json": "{not json",
    "cfg-listy.json": "[1, 2]",
    "keep.json": "old\n",
    **{f"cfg-bad-{field}-{i}.json": json.dumps({field: value})
       for i, (field, value) in enumerate(
           [("d", "ten"), ("d", 2.5), ("d", True), ("eps", [0.1]),
            ("regime", "b3"), ("force", "yes"), ("seed", None),
            ("x_init", 3)])},
}


def cli_cases():
    """(label, argv) per CLI case."""
    logistic4 = ["--model", "logistic", "--d", "4", "--eps", "0.45"]
    conf = ["probe", "--probe", "confluence", "--d", "2"]
    return [
        ("tune json", ["tune", "--d", "2", "--eps", "0.5"]),
        ("tune csv", ["tune", "--d", "2", "--eps", "0.5", "--format", "csv"]),
        ("tune flagship", ["tune", *FLAGSHIP]),
        ("tune logistic aggressive",
         ["tune", "--model", "logistic", "--lambda", "0.25", "--a", "2",
          "--d", "100", "--regime", "aggressive"]),
        ("run json", ["run", "--d", "2", "--eps", "0.45", "--force",
                      "--seed", "3"]),
        ("run csv", ["run", "--d", "2", "--eps", "0.45", "--force",
                     "--format", "csv"]),
        ("run identity", ["run", *logistic4, "--observable", "identity",
                          "--force"]),
        ("run table", ["run", *FLAGSHIP, "--table", "--force"]),
        ("run x-init file", ["run", *FLAGSHIP, "--force", "--x-init",
                             "TMP/x.json"]),
        ("run warm-start", ["run", *logistic4, "--force", "--warm-start",
                            "--x-init", "ones"]),
        ("bench json", ["bench", "--d", "2", "--eps", "0.45", "--runs", "3",
                        "--seed", "5"]),
        ("bench csv", ["bench", "--d", "2", "--eps", "0.45", "--runs", "2",
                       "--format", "csv"]),
        ("bench logistic", ["bench", "--model", "logistic", "--d", "4",
                            "--eps", "0.5", "--regime", "aggressive",
                            "--runs", "2", "--x-init", "ones",
                            "--warm-start"]),
        ("probe default", ["probe"]),
        ("probe confluence", [*conf, "--gamma", "0.25", "--horizon", "10",
                              "--paths", "300"]),
        ("probe confluence csv", [*conf, "--horizon", "10", "--paths", "200",
                                  "--x-init", "ones", "--format", "csv"]),
        ("probe contraction", ["probe", "--probe", "contraction", "--d", "4",
                               "--gamma", "0.5", "--n-steps", "12"]),
        ("probe contraction default",
         ["probe", "--probe", "contraction", "--d", "2", "--format", "csv"]),
        ("probe invariant-moment",
         ["probe", "--probe", "invariant-moment", "--d", "2", "--horizon",
          "200", "--seed", "9"]),
        ("probe invariant-moment csv",
         ["probe", "--probe", "invariant-moment", "--gamma", "0.25",
          "--format", "csv"]),
        ("tune output json", ["tune", *FLAGSHIP, "--output", "TMP/o.json"]),
        ("run output csv", ["run", *FLAGSHIP, "--force", "--format", "csv",
                            "--output", "TMP/o.csv"]),
        ("run output infeasible", ["run", *FLAGSHIP, "--output",
                                   "TMP/o.json"]),
        ("config tune", ["tune", "--config", "TMP/cfg-tune.json"]),
        ("config tune flag wins", ["tune", "--config", "TMP/cfg-tune.json",
                                   "--d", "4"]),
        ("config probe", ["probe", "--config", "TMP/cfg-probe.json",
                          "--probe", "confluence"]),
        ("config strings", ["tune", "--config", "TMP/cfg-strings.json"]),
        ("config nulls", ["tune", "--config", "TMP/cfg-nulls.json"]),
        ("config lam", ["tune", "--config", "TMP/cfg-lam.json"]),
        ("config lambda and lam", ["tune", "--config", "TMP/cfg-both.json"]),
        ("config paths null", ["probe", "--config", "TMP/cfg-paths-null.json",
                               "--probe", "confluence"]),
        ("config n_steps null", ["probe", "--config",
                                 "TMP/cfg-n-steps-null.json", "--probe",
                                 "contraction"]),
        ("bad tune eps", ["tune", "--eps", "1.5"]),
        ("bad run infeasible", ["run", *FLAGSHIP]),
        ("bad run table identity", ["run", *logistic4, "--observable",
                                    "identity", "--table", "--force"]),
        ("bad run threads", ["run", *FLAGSHIP, "--force", "--threads", "2"]),
        ("bad run point shape", ["run", *FLAGSHIP, "--force", "--x-init",
                                 "TMP/short.json"]),
        ("bad run numerical", ["run", "--model", "ou", "--d", "2", "--eps",
                               "0.45", "--force", "--x-init",
                               "TMP/far.json"]),
        ("bad bench runs", ["bench", "--model", "ou", "--runs", "0"]),
        *[(f"bad unrecognized {' '.join(argv)}", argv) for argv in (
            ["tune", "--seed", "5"], ["probe", "--eps", "0.3"],
            ["probe", "--regime", "aggressive"], ["probe", "--include-log2"],
            ["tune", "--include-log2"], ["bench", "--suite", "ou"],
            ["bench", "--x0", "ones"])],
        ("bad unread confluence", [*conf, "--horizon", "10", "--paths", "200",
                                   "--x-init", "ones", "--n-steps", "99"]),
        ("bad unread contraction", ["probe", "--probe", "contraction", "--d",
                                    "2", "--paths", "7", "--horizon", "3"]),
        ("bad unread invariant-moment",
         ["probe", "--probe", "invariant-moment", "--d", "2", "--x-init",
          "ones", "--paths", "7"]),
        ("bad unread tune-ou", ["tune", "--model", "ou", "--d", "4", "--eps",
                                "0.5", "--lambda", "3", "--a", "9",
                                "--covariate-seed", "4"]),
        ("bad unread run-ou", ["run", "--d", "2", "--eps", "0.5",
                               "--covariate-seed", "4"]),
        ("bad unread invariant-moment-seed",
         ["probe", "--probe", "invariant-moment", "--d", "2", "--seed", "9"]),
        ("bad invariant-moment logistic",
         ["probe", "--probe", "invariant-moment", "--model", "logistic",
          "--d", "2", "--gamma", "0.5", "--horizon", "2000"]),
        *[(f"bad probe step {' '.join(argv)}", ["probe", "--d", "2", *argv])
          for argv in (["--probe", "contraction", "--gamma", "-0.5"],
                       ["--probe", "contraction", "--gamma", "0"],
                       ["--probe", "confluence", "--gamma", "0"],
                       ["--probe", "confluence", "--gamma", "0.25",
                        "--horizon", "0.1"])],
        *[(f"bad point file {kind}", ["probe", "--probe", "contraction",
                                      "--d", "2", "--x-init",
                                      f"TMP/pt-{kind}.json"])
          for kind in ("object", "string", "number", "nested", "mixed",
                       "booleans")],
        *[(f"bad point file nan {kind}", ["probe", "--probe", kind, "--d",
                                          "2", "--x-init", "TMP/nan.json"])
          for kind in ("confluence", "contraction")],
        ("bad point file malformed", ["run", *FLAGSHIP, "--force",
                                      "--x-init", "TMP/malformed.json"]),
        *[(f"bad non-finite {' '.join(argv)}", argv) for argv in (
            [*conf, "--horizon", "inf", "--paths", "200"],
            [*conf, "--horizon", "nan", "--paths", "200"],
            ["probe", "--probe", "invariant-moment", "--horizon", "inf"],
            ["tune", "--d", "2", "--eps", "1e-300"],
            ["run", "--d", "2", "--eps", "1e-300"],
            ["tune", "--model", "logistic", "--lambda", "inf"],
            ["tune", "--model", "logistic", "--lambda", "nan"],
            ["tune", "--model", "logistic", "--a", "inf"])],
        ("bad subnormal gamma invariant-moment",
         ["probe", "--probe", "invariant-moment", "--gamma", "1e-320",
          "--horizon", "10"]),
        ("bad subnormal gamma confluence",
         [*conf, "--gamma", "1e-320", "--horizon", "1", "--paths", "100"]),
        ("bad probe name", ["probe", "--probe", "volatility"]),
        *[(f"bad config {name}", ["tune", "--config", f"TMP/{name}"])
          for name in CLI_FILES if name.startswith(("cfg-unknown",
                                                    "cfg-broken",
                                                    "cfg-listy",
                                                    "cfg-bad-"))],
        ("bad config missing", ["tune", "--config", "TMP/nope.json"]),
        *[(f"bad output directory {cmd}",
           [cmd, "--d", "2", "--eps", "0.45", *extra, "--output", "TMP"])
          for cmd, extra in (("tune", []), ("run", ["--force"]),
                             ("bench", ["--runs", "2"]))],
        ("bad output missing directory",
         ["tune", "--d", "2", "--eps", "0.5", "--output", "TMP/no/o.json"]),
        ("bad missing subcommand", []),
        ("bad bench runs keeps the output file",
         ["bench", "--runs", "0", "--output", "TMP/keep.json"]),
    ]


def cli_digest(text, tmp) -> str:
    if text is None:
        return "none"
    text = re.sub(r'"wall_clock_seconds": [^,\n]+', '"wall_clock_seconds": 0',
                  text.replace(tmp, "TMP"))
    return digest(text)[:16]


def cli_lines():
    """Exit code and digests of stdout, stderr and the --output file of
    each CLI case, with the temporary directory's path read as TMP and
    bench's wall clock blanked."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in CLI_FILES.items():
            Path(tmp, name).write_text(content)
        for label, argv in cli_cases():
            argv = [a.replace("TMP", tmp) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                try:
                    code = cli_main(argv)
                except Exception as exc:  # a traceback, not an exit code
                    code = f"raised {type(exc).__name__}: {exc}"
            written = None
            if "--output" in argv:
                target = Path(argv[argv.index("--output") + 1])
                if target.is_file():
                    written = target.read_text()
                    target.unlink()
            o, e, f = (cli_digest(t, tmp) for t in
                       (out.getvalue(), err.getvalue(), written))
            line = f"cli {label} exit={code} out={o} err={e} file={f}"
            if label.startswith("bad config"):  # the message, in clear
                line += " " + err.getvalue().replace(tmp, "TMP").strip()
            lines.append(line)
    return lines


def main():
    lines = plan_lines()
    default_cap = sde._CHUNK_STEP_CAP
    for cap, t0 in ((default_cap, 300.0), (7, 40.0)):
        sde._CHUNK_STEP_CAP = cap
        for name, gamma0, model in models():
            x0 = np.full(10, 0.3)
            for R in (0, 2, 4):
                p = plan(10, R, gamma0, t0, 2.0)
                for label, obs in (("norm", ml.norm_observable()),
                                   ("identity", ml.identity_observable())):
                    tag = f"cap={cap} {name} R={R} {label}"
                    one = ml.estimate(model, p, x0, obs, master_seed=5 + R)
                    lines.append(f"{tag} estimate {digest(one.to_json())}")
                    for n_runs in (3, 60):
                        rep = ml.estimate_repeated(model, p, x0, obs, 9 + R,
                                                   n_runs)
                        blob = "".join(o.to_json() for o in rep)
                        lines.append(f"{tag} repeated{n_runs} {digest(blob)}")
    sde._CHUNK_STEP_CAP = default_cap
    m4 = ml.make_langevin_model(ml.QuadraticPotential(4), "auto")
    for seed in (0, 3):
        dist = ml.contraction_probe(m4, 0.5 * np.ones(4), -0.25 * np.ones(4),
                                    2.0 ** -13, 100_000, seed=seed)
        lines.append(f"contraction seed={seed} {digest(repr(dist))}")
    m2 = ml.make_langevin_model(ml.QuadraticPotential(2), "auto")
    for seed in (0, 1):
        res = ml.confluence_probe(m2, 0.25, 500.0, 2000, seed=seed)
        lines.append(f"confluence seed={seed} {res.sup_gap_sq!r}")
    res = ml.confluence_probe(m2, 0.25, 50.0, 300, seed=2, x0=[1.0, -2.0])
    lines.append(f"confluence x0=[1,-2] {res.sup_gap_sq!r}")
    lines += bench_lines()
    lines += failure_lines()
    lines += explicit_lines()
    print("\n".join(lines))
    print("total", digest("\n".join(lines)))
    print("\n".join(start_point_lines()))
    print("\n".join(nonfinite_lines()))
    print("\n".join(cli_lines()))


if __name__ == "__main__":
    main()
