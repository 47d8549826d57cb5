import math

import numpy as np
import pytest

from mlangevin import (
    GeneralAssumptionConstants,
    LogisticPerturbedPotential,
    NoiseStream,
    QuadraticPotential,
    TuningPlan,
    complexity_bound,
    logistic_covariate,
    make_langevin_model,
    n_gamma,
    plan_aggressive,
    plan_b1,
    plan_b2,
    plan_general,
)

# independently recomputed with 50-digit floor arithmetic before the
# implementation existed; total 7960 sits 0.025% above the commonly quoted
# 7958 (which uses a slightly different per-level rounding convention)
FLAGSHIP_LEVEL_ITERATIONS = [2000, 2121, 1500, 1060, 750, 529]
FLAGSHIP_TOTAL = 7960
FLAGSHIP_BOUND = 9242.640687119283
FLAGSHIP_TAU = 3.4538776394910684
FLAGSHIP_TAU_EFFECTIVE = 2.762135864009951


def ou_model(d):
    return make_langevin_model(QuadraticPotential(d), "auto")


def logistic_model(d, lam=0.25, a=2.0, seed=7):
    cov = logistic_covariate(d, a, NoiseStream(seed, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, lam, cov), "auto")


# ------------------------------------------------------------------- plan_b2


def test_b2_flagship_core_values():
    plan = plan_b2(ou_model(10), 0.1)
    assert plan.regime == "b2"
    assert plan.R == 5
    assert plan.gamma == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    assert plan.horizons[0] == pytest.approx(1000.0, rel=1e-9)
    assert plan.r0 == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert plan.big_t == pytest.approx(10.0, rel=1e-12)
    assert plan.tau == pytest.approx(FLAGSHIP_TAU, rel=1e-12)
    assert plan.tau == pytest.approx(3.454, abs=1e-3)
    assert plan.dim == 10
    assert not plan.experimental


def test_b2_flagship_horizons_decay_by_two_to_three_halves():
    plan = plan_b2(ou_model(10), 0.1)
    for r in range(plan.R):
        assert plan.horizons[r] / plan.horizons[r + 1] == pytest.approx(
            2.0 ** 1.5, rel=1e-12)


def test_b2_flagship_iteration_counts_match_frozen_oracle():
    plan = plan_b2(ou_model(10), 0.1)
    counts = [n_gamma(plan.horizons[0], plan.gamma[0])]
    for r in range(1, plan.R + 1):
        counts.append(n_gamma(plan.horizons[r], plan.gamma[r])
                      + n_gamma(plan.horizons[r], plan.gamma[r - 1]))
    assert counts == FLAGSHIP_LEVEL_ITERATIONS
    assert plan.predicted_complexity == FLAGSHIP_TOTAL


def test_b2_flagship_complexity_near_reference_count():
    # the quoted reference count is 7958; rounding conventions may differ by
    # a few steps but never by more than half a percent
    plan = plan_b2(ou_model(10), 0.1)
    assert abs(plan.predicted_complexity - 7958) / 7958 <= 0.005


def test_b2_flagship_closed_form_bound():
    plan = plan_b2(ou_model(10), 0.1)
    bound = complexity_bound(plan)
    assert bound == pytest.approx(FLAGSHIP_BOUND, rel=1e-12)
    assert plan.predicted_complexity <= bound


def test_b2_flagship_tau_exceeds_last_level_and_is_clamped():
    plan = plan_b2(ou_model(10), 0.1)
    assert plan.tau > plan.horizons[-1] / 2.0
    assert plan.tau_clamped
    assert not plan.feasible
    assert plan.tau_effective == pytest.approx(FLAGSHIP_TAU_EFFECTIVE, rel=1e-12)
    assert plan.tau_effective <= plan.horizons[-1] / 2.0


def test_b2_level_count_on_larger_problems():
    assert plan_b2(ou_model(100), 0.01).R == 10
    assert plan_b2(ou_model(100), 0.1).R == 7


def test_b2_rejects_eps_outside_unit_interval():
    for eps in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError, match="eps"):
            plan_b2(ou_model(10), eps)


def test_b2_requires_auto_noise_scale():
    explicit = make_langevin_model(QuadraticPotential(4), 2.0)
    with pytest.raises(ValueError, match="auto"):
        plan_b2(explicit, 0.1)
    with pytest.raises(ValueError, match="auto"):
        plan_b1(explicit, 0.1)


# ------------------------------------------------------------------- plan_b1


def test_b1_flagship_values():
    plan = plan_b1(ou_model(10), 0.1)
    assert plan.regime == "b1"
    assert plan.R == 9
    assert plan.r0 == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert plan.horizons[0] == pytest.approx(10.0 * 100.0 * 81.0, rel=1e-9)
    for r in range(plan.R):
        assert plan.horizons[r] / plan.horizons[r + 1] == pytest.approx(
            2.0, rel=1e-12)


def test_b1_level_count_doubles_the_b2_count():
    # r0 shrinks by sqrt(2) between the regimes, so the exact relation is
    # R_b1 = ceil(2 log2(r0/eps)) - 1 up to rounding: within 2 of doubling
    for d, eps in ((10, 0.1), (100, 0.1), (10, 0.01)):
        model = ou_model(d)
        b1, b2 = plan_b1(model, eps).R, plan_b2(model, eps).R
        assert b2 < b1
        assert abs(b1 - 2 * b2) <= 2


def test_b1_start_distance_floor_at_one():
    plan = plan_b1(ou_model(2), 0.5)
    assert plan.r0 == 1.0
    assert plan.R == 2


# -------------------------------------------------------------- plan_general


def test_general_matches_b2_shape_at_matching_constants():
    constants = GeneralAssumptionConstants(
        alpha=1.0, b_exponent=2.0, delta=1.0, c2=0.0,
        c3=2.0 * math.sqrt(10.0), c4=math.sqrt(10.0), eta0=0.5)
    plan = plan_general(constants, 0.5, 0.1)
    assert plan.regime == "general"
    assert plan.R == 5
    assert plan.r0 == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert plan.big_t == pytest.approx(10.0, rel=1e-12)
    assert plan.horizons[0] == pytest.approx(1000.0, rel=1e-9)
    for r in range(plan.R):
        assert plan.horizons[r] / plan.horizons[r + 1] == pytest.approx(
            2.0 ** 1.5, rel=1e-12)
    # tau1 = (1 + b - 2 delta) / (alpha delta) = 1,
    # tau2 = log(r0^(3/2) / c4) = log(10^(1/4))
    tau2 = 0.25 * math.log(10.0)
    assert tau2 == pytest.approx(0.5756, abs=1e-4)
    assert plan.tau == pytest.approx(abs(math.log(0.1)) + tau2, rel=1e-12)


def test_general_first_order_regime_carries_level_count_squared():
    constants = GeneralAssumptionConstants(
        alpha=1.0, b_exponent=1.0, delta=0.5, c2=0.0,
        c3=2.0 * math.sqrt(2.0), c4=1.0, eta0=0.5)
    plan = plan_general(constants, 0.5, 0.5)
    assert plan.r0 == pytest.approx(2.0, rel=1e-12)
    assert plan.R == 4
    expected_t0 = plan.big_t * 0.5 ** -2 * plan.R ** 2
    assert plan.horizons[0] == pytest.approx(expected_t0, rel=1e-12)
    for r in range(plan.R):
        assert plan.horizons[r] / plan.horizons[r + 1] == pytest.approx(
            2.0, rel=1e-12)


def test_general_exact_power_of_two_ratio_is_not_bumped_a_level():
    # r0 / eps = 3.2 / 0.1 carries float noise just above 32; the level count
    # must still resolve to log2 = 5 rather than ceil to 6
    constants = GeneralAssumptionConstants(
        alpha=1.0, b_exponent=2.0, delta=1.0, c2=0.0,
        c3=6.4, c4=1.0, eta0=0.5)
    assert plan_general(constants, 0.5, 0.1).R == 5


def test_general_rejects_base_step_above_eta0():
    constants = GeneralAssumptionConstants(
        alpha=1.0, b_exponent=2.0, delta=1.0, c2=0.0,
        c3=1.0, c4=1.0, eta0=0.25)
    with pytest.raises(ValueError, match="eta0"):
        plan_general(constants, 0.5, 0.1)
    with pytest.raises(ValueError, match="eps"):
        plan_general(constants, 0.25, 1.0)


def test_general_assumption_constants_validation():
    good = dict(alpha=1.0, b_exponent=2.0, delta=1.0, c2=0.0,
                c3=1.0, c4=1.0, eta0=0.5)
    GeneralAssumptionConstants(**good)
    for overrides, fragment in (
        (dict(alpha=0.0), "alpha"),
        (dict(b_exponent=0.5), "b_exponent"),
        (dict(b_exponent=2.5), "b_exponent"),
        (dict(delta=0.4), "delta"),
        (dict(delta=1.1), "delta"),
        (dict(b_exponent=2.0, delta=0.7), "delta"),
        (dict(c2=-1.0), "c2"),
        (dict(c4=0.0), "c4"),
        (dict(eta0=0.0), "eta0"),
        (dict(c4=math.nan), "c4 must be finite"),
        (dict(c3=math.inf), "c3 must be finite"),
        (dict(alpha=math.nan), "alpha must be finite"),
        (dict(c2=-math.inf), "c2 must be finite"),
        (dict(eta0=math.inf), "eta0 must be finite"),
    ):
        with pytest.raises(ValueError, match=fragment) as exc:
            GeneralAssumptionConstants(**{**good, **overrides})
        assert "\n" not in str(exc.value)


# --------------------------------------------------------------- aggressive


def test_aggressive_logistic_base_step_and_cost_ratio():
    model = logistic_model(100)
    base = plan_b2(model, 0.1)
    plan = plan_aggressive(model, 0.1)
    assert plan.experimental
    assert plan.regime == "b2"
    assert plan.R == base.R
    assert plan.gamma0 == pytest.approx(20.25, rel=1e-12)
    ratio = base.predicted_complexity / plan.predicted_complexity
    assert ratio == pytest.approx(81.0, rel=0.05)
    # horizons rescaled by (alpha_u/l_u)^2 * (gamma0/0.5) = 0.5
    for t_agg, t_base in zip(plan.horizons, base.horizons):
        assert t_agg == pytest.approx(0.5 * t_base, rel=1e-12)
    assert plan.tau == base.tau


def test_aggressive_pure_quadratic_uses_stability_branch():
    model = ou_model(10)
    plan = plan_aggressive(model, 0.1)
    assert plan.gamma0 == pytest.approx(1.0 / (4.0 * model.alpha_eff),
                                        rel=1e-12)


def test_aggressive_small_dimension_activates_noise_branch():
    model = logistic_model(2)
    plan = plan_aggressive(model, 0.1)
    noise_branch = 2.0 * 2 / (model.sigma0 ** 2 * 10.0)
    assert noise_branch < 1.0 / (4.0 * model.alpha_eff)
    assert plan.gamma0 == pytest.approx(noise_branch, rel=1e-12)


def test_aggressive_requires_gradient_sup_bound():
    model = ou_model(4)
    stripped = make_langevin_model(QuadraticPotential(4), "auto")
    stripped.potential.grad_u1_sup = None
    with pytest.raises(ValueError, match="grad_u1_sup"):
        plan_aggressive(stripped, 0.1)


# -------------------------------------------------- invariants over a grid


GRID_DIMS = (2, 10, 100, 1000)
GRID_EPS = (0.5, 0.1, 0.05, 0.01)


@pytest.mark.parametrize("d", GRID_DIMS)
@pytest.mark.parametrize("eps", GRID_EPS)
def test_discrete_count_stays_below_closed_form_bound(d, eps):
    # the window count lifts T/gamma by a guard of four ulps (so float noise
    # in eps^-2 cannot drop intended steps); allow that lift plus one step
    # per counted chain over the continuous bound
    model = ou_model(d)
    for plan in (plan_b2(model, eps), plan_b1(model, eps)):
        bound = complexity_bound(plan)
        slack = bound * 2.0 ** -49 + 2 * plan.R + 1
        assert plan.predicted_complexity <= bound + slack


@pytest.mark.parametrize("eps", GRID_EPS)
def test_general_plan_bound_is_its_continuous_per_level_cost(eps):
    # an intermediate order whose horizon scale comes from the confluence
    # term c2
    constants = GeneralAssumptionConstants(
        alpha=0.5, b_exponent=1.5, delta=0.7, c2=4.0, c3=3.0, c4=0.5,
        eta0=0.5)
    plan = plan_general(constants, 0.25, eps)
    t, gamma = plan.horizons, plan.gamma
    cost = t[0] / gamma[0] + sum(t[r] * (1.0 / gamma[r] + 1.0 / gamma[r - 1])
                                 for r in range(1, plan.R + 1))
    assert plan.R >= 1
    assert complexity_bound(plan) == pytest.approx(cost, rel=1e-12)
    assert complexity_bound(plan) >= plan.predicted_complexity


def test_complexity_monotone_in_accuracy_and_dimension():
    for d in GRID_DIMS:
        costs = [plan_b2(ou_model(d), eps).predicted_complexity
                 for eps in GRID_EPS]
        assert costs == sorted(costs)
    for eps in GRID_EPS:
        costs = [plan_b2(ou_model(d), eps).predicted_complexity
                 for d in GRID_DIMS]
        assert costs == sorted(costs)


def test_level_counts_over_reference_grid():
    table = {(10, 0.1): 5, (10, 0.01): 8, (100, 0.1): 7, (100, 0.01): 10,
             (1000, 0.1): 8}
    ours = {key: plan_b2(ou_model(key[0]), key[1]).R for key in table}
    assert ours == {(10, 0.1): 5, (10, 0.01): 9, (100, 0.1): 7,
                    (100, 0.01): 10, (1000, 0.1): 9}
    # ceiling-vs-nearest rounding never moves the count by more than one
    for key, reference in table.items():
        assert abs(ours[key] - reference) <= 1


def test_tau_effective_always_fits_the_last_level():
    for d in GRID_DIMS:
        for eps in GRID_EPS:
            for plan in (plan_b2(ou_model(d), eps), plan_b1(ou_model(d), eps)):
                assert plan.tau_effective <= plan.horizons[-1] / 2.0
                assert plan.feasible == (not plan.tau_clamped)
                assert plan.feasible == (plan.tau <= plan.horizons[-1] / 2.0)


# ------------------------------------------------------- TuningPlan surface


def _plan_kwargs(**overrides):
    kwargs = dict(regime="b2", gamma0=0.5, horizons=[8.0, 2.0], tau=1.0,
                  r0=1.0, big_t=8.0, dim=3)
    kwargs.update(overrides)
    return kwargs


def test_plan_derives_levels_steps_cost_and_feasibility():
    plan = TuningPlan(**_plan_kwargs())
    assert plan.R == 1
    assert plan.gamma == [0.5, 0.25]
    # n_0.5(8) + n_0.25(2) + n_0.5(2)
    assert plan.predicted_complexity == 16 + 8 + 4
    assert plan.feasible and not plan.tau_clamped
    assert plan.tau_effective == 1.0
    clamped = TuningPlan(**_plan_kwargs(tau=1.5))
    assert clamped.tau_clamped and not clamped.feasible
    assert clamped.tau_effective == 1.0


def test_plan_validation_rejects_malformed_inputs():
    TuningPlan(**_plan_kwargs())
    TuningPlan(**_plan_kwargs(tau=0.0))
    for overrides, fragment in (
        (dict(regime="b3"), "regime"),
        (dict(horizons=[]), "at least one"),
        (dict(gamma0=0.0), "gamma0"),
        (dict(gamma0=-0.5), "gamma0"),
        (dict(horizons=[2.0, 8.0]), "decreasing"),
        (dict(horizons=[8.0, -2.0]), "positive"),
        (dict(horizons=[-2.0]), "positive"),
        (dict(gamma0=math.inf), "gamma0 must be finite"),
        (dict(gamma0=math.nan), "gamma0 must be finite"),
        (dict(horizons=[math.inf]), "horizons must be finite"),
        (dict(horizons=[math.inf, 2.0]), "horizons must be finite"),
        (dict(horizons=[math.nan]), "horizons must be finite"),
        (dict(horizons=[8.0, math.nan]), "horizons must be finite"),
        (dict(horizons=[8.0, 2.0, math.inf]), "horizons must be finite"),
        (dict(tau=math.nan), "tau must be finite"),
        (dict(tau=math.inf), "tau must be finite"),
        (dict(tau=-1.0), "tau must be nonnegative"),
        (dict(r0=math.nan), "r0 must be finite"),
        (dict(big_t=math.inf), "big_t must be finite"),
    ):
        with pytest.raises(ValueError, match=fragment) as exc:
            TuningPlan(**_plan_kwargs(**overrides))
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("rule", ["b2", "b1", "aggressive", "general"])
def test_an_eps_whose_horizons_overflow_is_a_value_error(rule):
    tune = {
        "b2": lambda eps: plan_b2(ou_model(2), eps),
        "b1": lambda eps: plan_b1(ou_model(2), eps),
        "aggressive": lambda eps: plan_aggressive(logistic_model(2), eps),
        "general": lambda eps: plan_general(GeneralAssumptionConstants(
            alpha=1.0, b_exponent=1.0, delta=0.5, c2=0.0, c3=1.0, c4=1.0,
            eta0=0.5), 0.5, eps),
    }[rule]
    for eps in (1e-300, 1e-160):
        with pytest.raises(ValueError, match=f"eps={eps} is too small"):
            tune(eps)


@pytest.mark.parametrize("horizons", [np.array([8.0, 2.0]), (8.0, 2.0),
                                      [8, 2]], ids=["array", "tuple", "ints"])
def test_plan_holds_its_horizons_as_a_list_of_floats(horizons):
    plan = TuningPlan(**_plan_kwargs(horizons=horizons))
    assert plan.horizons == [8.0, 2.0]
    assert all(type(t) is float for t in plan.horizons)
    assert plan.to_dict() == TuningPlan(**_plan_kwargs()).to_dict()


def test_plan_serializes_every_field():
    plan = plan_b2(ou_model(10), 0.1)
    payload = plan.to_dict()
    assert set(payload) == {
        "regime", "R", "gamma", "horizons", "tau", "tau_effective", "r0",
        "big_t", "predicted_complexity", "feasible", "tau_clamped", "dim",
        "experimental",
    }
    assert payload["R"] == 5
    assert payload["tau_effective"] == pytest.approx(FLAGSHIP_TAU_EFFECTIVE)
    assert payload["gamma"][0] == 0.5
    assert isinstance(payload["predicted_complexity"], int)


def test_single_level_plan_counts_a_plain_windowed_chain():
    plan = TuningPlan(**_plan_kwargs(horizons=[8.0]))
    assert plan.R == 0
    assert plan.predicted_complexity == n_gamma(8.0, 0.5) == 16
