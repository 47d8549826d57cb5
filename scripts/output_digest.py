"""Print SHA-256 digests of estimator and probe outputs.

A refactor of the engine that promises the same bytes can be checked by
running this script on both checkouts and diffing the output:

    PYTHONPATH=<old>/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=<new>/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

It covers ``estimate(...).to_json()`` and ``estimate_repeated(...)`` (3 and
60 runs, so both sides of the batch-width chunk rule) on the OU and
logistic models in d=10, for R in {0, 2, 4} and both observables, once with
the default chunk cap and once with a cap of 7 steps so that every level
crosses many chunk boundaries.  Then the ``contraction_probe`` list (d=4,
100,000 steps) and ``confluence_probe(...).sup_gap_sq`` (d=2, horizon 500,
2000 paths).  Takes about 15 s.
"""

import hashlib

import numpy as np

import mlangevin as ml
import mlangevin.sde as sde


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan(d, R, gamma0, t0, tau):
    horizons = [t0 * 2.0 ** (-1.5 * r) for r in range(R + 1)]
    clamped = tau > horizons[-1] / 2.0
    return ml.TuningPlan(regime="b2", R=R,
                         gamma=[gamma0 * 2.0 ** -r for r in range(R + 1)],
                         horizons=horizons, tau=tau, r0=1.0, big_t=t0,
                         predicted_complexity=0, feasible=not clamped,
                         tau_clamped=clamped, dim=d)


def models():
    yield "ou", 0.5, ml.make_langevin_model(ml.QuadraticPotential(10), "auto")
    cov = ml.logistic_covariate(10, 2.0, ml.NoiseStream(7, 0))
    yield "logistic", 0.1, ml.make_langevin_model(
        ml.LogisticPerturbedPotential(10, 0.25, cov), "auto")


def main():
    lines = []
    default_cap = sde._CHUNK_STEP_CAP
    for cap, t0 in ((default_cap, 300.0), (7, 40.0)):
        sde._CHUNK_STEP_CAP = cap
        for name, gamma0, model in models():
            x0 = np.full(10, 0.3)
            for R in (0, 2, 4):
                p = plan(10, R, gamma0, t0, 2.0)
                for obs in (ml.norm_observable(), ml.identity_observable()):
                    tag = f"cap={cap} {name} R={R} {obs.label}"
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
    print("\n".join(lines))
    print("total", digest("\n".join(lines)))


if __name__ == "__main__":
    main()
