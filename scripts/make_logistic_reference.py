"""Regenerate the frozen logistic posterior-mean reference.

Runs the estimator at eps = 0.01 for the shipped benchmark configuration
(d=10, lambda=1/4, a=2, default covariate seed) as an 8-run batch under the
pinned master seed 990001, and freezes the componentwise mean into
tests/data/logistic_reference_d10.json together with its full provenance
(covariate, seeds, plan, per-run estimates).  Acceptance test c06 scores
its runs against this file; ``bench`` itself uses exact quadrature.

Every input is pinned, so rerunning this script reproduces the file bit for
bit.  Takes tens of minutes (~3e8 Euler steps per run; the runs advance
together as batch rows so the wall clock is close to a single run's).

Usage: python3 scripts/make_logistic_reference.py [output.json]
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from mlangevin import (
    DEFAULT_COVARIATE_SEED,
    LogisticPerturbedPotential,
    NoiseStream,
    estimate_repeated,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    plan_b2,
    warm_start,
)

D = 10
LAM = 0.25
A = 2.0
EPS_REF = 0.01
N_RUNS = 8
MASTER_SEED = 990001

DEFAULT_OUT = (Path(__file__).resolve().parent.parent
               / "tests" / "data" / "logistic_reference_d10.json")


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    covariate = logistic_covariate(D, A, NoiseStream(DEFAULT_COVARIATE_SEED, 0))
    potential = LogisticPerturbedPotential(D, LAM, covariate)
    model = make_langevin_model(potential, "auto")
    plan = plan_b2(model, EPS_REF)
    x0 = warm_start(potential, np.zeros(D)).x0
    print(f"plan: R={plan.R} horizons[0]={plan.horizons[0]:.6g} "
          f"tau={plan.tau:.6g} (clamped={plan.tau_clamped}) "
          f"predicted_complexity={plan.predicted_complexity}")
    print(f"running {N_RUNS} runs, master_seed={MASTER_SEED} ...",
          flush=True)
    t0 = time.perf_counter()
    outs = estimate_repeated(model, plan, x0, identity_observable(),
                             MASTER_SEED, N_RUNS)
    wall = time.perf_counter() - t0
    per_run = np.asarray([o.estimate for o in outs], dtype=float)
    mean = per_run.mean(axis=0)
    spread = float(np.max(np.linalg.norm(per_run - mean, axis=1))) / np.sqrt(D)
    print(f"done in {wall:.1f}s; max normalized run spread {spread:.5f}")

    payload = {
        "d": D,
        "lambda": LAM,
        "a": A,
        "covariate_seed": DEFAULT_COVARIATE_SEED,
        "eps_ref": EPS_REF,
        "master_seed": MASTER_SEED,
        "n_runs": N_RUNS,
        "generator": "scripts/make_logistic_reference.py",
        "covariate": [float(c) for c in covariate],
        "x0": [float(c) for c in x0],
        "plan": plan.to_dict(),
        "per_run_estimates": [[float(c) for c in row] for row in per_run],
        "estimate": [float(c) for c in mean],
        "level_iterations": [int(i) for i in outs[0].level_iterations],
        "total_complexity": int(outs[0].total_complexity),
        "wall_seconds": round(wall, 1),
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
