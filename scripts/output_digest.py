"""Print SHA-256 digests of tuned plans, estimator outputs and probe outputs.

A refactor that promises the same bytes can be checked by running this
script on both checkouts and diffing the output:

    PYTHONPATH=<old>/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=<new>/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

It covers, in order:

* ``TuningPlan.to_dict()`` of tuned plans, one digest per (model, rule):
  the OU and logistic models in d in {2, 10, 100, 1000} at eps in {0.5, 0.3,
  0.2, 0.1, 0.05, 0.03, 0.01} under ``plan_b2`` with and without
  ``include_log2``, ``plan_b1`` and ``plan_aggressive``, and three
  ``plan_general`` constant sets at the same eps values.
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
  from the origin in d=4 (quadrature reference), d=10 (frozen reference)
  and d=100 (aggressive plan).
* the message, step, run and level of two numerical failures, at the
  default chunk cap and at a cap of 7 steps: level 0 of the OU model in
  d=3 at gamma0=3 from 1e308 (where the norm observable overflows at step
  0), and level 1 (coarse step 324) of a noise-free model with the
  expanding drift b(x) = x.
* a model with an explicit sigma0: OU in d=3 with sigma0 = 2 (drift -4x),
  its derived constants, and ``estimate`` / ``estimate_repeated`` (3 runs)
  on a hand-built R=2 plan at gamma0 = 1/8, with both observables.

Takes about 15 s.
"""

import hashlib
import json
import math

import numpy as np

import mlangevin as ml
import mlangevin.sde as sde

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
        ("plan_b2", lambda m, eps: ml.plan_b2(m, eps)),
        ("plan_b2+log2", lambda m, eps: ml.plan_b2(m, eps, include_log2=True)),
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

    def drift(self, x):
        return x.copy()


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


if __name__ == "__main__":
    main()
