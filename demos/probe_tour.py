"""Tour of the three diagnostic probes behind the estimator's guarantees:
geometric contraction of synchronously coupled chains, second-order decay
of the squared coupling gap between step sizes, and the exact invariant
second moment of the discretized quadratic chain.

Run with:  python3 demos/probe_tour.py
"""

import numpy as np

from mlangevin import (
    LogisticPerturbedPotential,
    NoiseStream,
    QuadraticPotential,
    confluence_probe,
    contraction_probe,
    euler_invariant_moment_oracle,
    logistic_covariate,
    make_langevin_model,
    n_gamma,
    run_level0,
)


def show_contraction():
    print("-- contraction: coupled chains approach each other geometrically")
    covariate = logistic_covariate(10, 2.0, NoiseStream(7, 0))
    model = make_langevin_model(
        LogisticPerturbedPotential(10, 0.25, covariate), "auto")
    x = np.full(10, 3.0)
    y = np.full(10, -3.0)
    gamma = 0.25
    distances = contraction_probe(model, x, y, gamma, n_steps=600, seed=0)
    rate = model.alpha_eff * gamma
    print(f"{'step':>6} {'distance':>12} {'bound':>12}")
    for k in (0, 100, 200, 400, 600):
        bound = distances[0] * (1.0 - rate) ** k
        print(f"{k:>6} {distances[k]:>12.6f} {bound:>12.6f}")


def show_confluence():
    print("-- confluence: squared gap between step sizes decays at order 2")
    model = make_langevin_model(QuadraticPotential(2), "auto")
    for gamma in (0.25, 0.0625):
        result = confluence_probe(model, gamma=gamma, horizon=50.0,
                                  n_paths=2000, seed=0)
        gaps = {g: f"{v:.3e}" for g, v in sorted(result.sup_gap_sq.items())}
        print(f"gamma={gamma:<7} sup gap^2: {gaps}"
              f"  order ~ {result.order_estimate:.2f}")


def show_invariant_moment():
    print("-- invariant moment: the discrete chain's bias is exactly known")
    model = make_langevin_model(QuadraticPotential(1), "auto")
    for gamma in (0.5, 0.25, 0.125):
        avg, _ = run_level0(model, np.zeros(1), gamma0=gamma, tau=50.0,
                            t0=2e4, f=lambda x: x[..., 0] ** 2,
                            stream=NoiseStream(11, 0))
        oracle = euler_invariant_moment_oracle(gamma)
        n = n_gamma(2e4, gamma) - n_gamma(50.0, gamma)
        print(f"gamma={gamma:<6} occupation average {float(avg):.4f}"
              f"  oracle 2/(2-gamma) = {oracle:.4f}  ({n} samples)")


def main():
    show_contraction()
    print()
    show_confluence()
    print()
    show_invariant_moment()


if __name__ == "__main__":
    main()
