import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dptrain.accountant import (
    CalibrationError,
    MechanismSpec,
    PrivacyLedger,
    RdpCurve,
    accountant_query,
    calibrate_sigma,
    classic_gaussian_sigma,
    compose,
    default_alpha_grid,
    epsilon_for,
    kl_divergence,
    mechanism_curve,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    renyi_divergence,
    to_eps_delta,
)
from dptrain import accountant
from oracles import (
    grid_search_epsilon_gaussian,
    mixture_renyi_rdp,
    per_order_epsilon,
    per_order_rdp,
)


def random_distribution(rng, n, floor=1e-3):
    raw = rng.uniform(floor, 1.0, size=n)
    return raw / raw.sum()


class TestRenyiDivergence:
    def test_identical_distributions_zero(self):
        for alpha in (0.5, 2.0, 7.0):
            assert renyi_divergence([0.3, 0.7], [0.3, 0.7], alpha) == 0.0

    def test_point_mass_vs_uniform(self):
        assert renyi_divergence([1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_alpha_near_one_approaches_kl(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_distribution(rng, 6)
            q = random_distribution(rng, 6)
            r = renyi_divergence(p, q, 1.0001)
            assert r == pytest.approx(kl_divergence(p, q), abs=1e-3)

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [0.5, 0.5], 1.0)

    def test_rejects_support_violation(self):
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [1.0, 0.0], 2.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.6], [0.5, 0.5], 2.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_alpha_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, 5)
        q = random_distribution(rng, 5)
        values = [renyi_divergence(p, q, a) for a in (0.5, 1.5, 2.0, 4.0, 8.0, 16.0)]
        assert all(v >= 0.0 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        if np.max(np.abs(p - q)) > 1e-3:
            assert all(v > 0.0 for v in values)


class TestKlDivergence:
    def test_identical_zero(self):
        assert kl_divergence([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_point_mass(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_matches_renyi_limit(self):
        rng = np.random.default_rng(1)
        p = random_distribution(rng, 8)
        q = random_distribution(rng, 8)
        assert kl_divergence(p, q) == pytest.approx(
            renyi_divergence(p, q, 1.0 + 1e-6), abs=1e-4
        )


class TestGaussianRdp:
    def test_unit_values(self):
        assert rdp_gaussian(2.0, 1.0) == 1.0
        assert rdp_gaussian(3.0, 2.0) == 0.375

    def test_matches_quadrature_oracle(self):
        for alpha, sigma in [(2.0, 1.0), (3.0, 2.0), (16.0, 0.5)]:
            oracle = mixture_renyi_rdp(alpha, sigma, 1.0)
            assert rdp_gaussian(alpha, sigma) == pytest.approx(oracle, rel=1e-9)

    def test_vanishes_for_large_sigma(self):
        values = [rdp_gaussian(4.0, s) for s in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_domain(self):
        with pytest.raises(ValueError):
            rdp_gaussian(1.0, 1.0)
        with pytest.raises(ValueError):
            rdp_gaussian(2.0, 0.0)


class TestSubsampledRdp:
    def test_full_sampling_reduces_to_gaussian(self):
        assert rdp_subsampled_gaussian(MechanismSpec(1.0, 1.0), 2) == 1.0

    def test_vanishing_rate(self):
        values = [
            rdp_subsampled_gaussian(MechanismSpec(1.0, q), 4)
            for q in (0.5, 0.1, 0.01, 1e-4)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_matches_quadrature_oracle_within_one_percent(self):
        spec = MechanismSpec(1.0, 0.01)
        got = rdp_subsampled_gaussian(spec, 2)
        oracle = mixture_renyi_rdp(2.0, 1.0, 0.01)
        assert got == pytest.approx(oracle, rel=0.01)

    def test_rejects_fractional_order(self):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(MechanismSpec(1.0, 0.5), 2.5)

    def test_extreme_order_stays_finite(self):
        v = rdp_subsampled_gaussian(MechanismSpec(0.5, 0.01), 64)
        assert np.isfinite(v) and v > 0

    def test_monotone_in_q(self):
        values = [
            rdp_subsampled_gaussian(MechanismSpec(1.0, q), 8)
            for q in (0.01, 0.1, 0.5, 1.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCurveAndCompose:
    def test_default_grid_shape(self):
        full = default_alpha_grid(1.0)
        assert full[:2] == (1.25, 1.5)
        assert full[2:] == tuple(float(a) for a in range(2, 65))
        sub = default_alpha_grid(0.1)
        assert sub == tuple(float(a) for a in range(2, 65))

    def test_compose_zero_steps_spends_nothing(self):
        curve = mechanism_curve(MechanismSpec(1.0, 1.0))
        assert compose(curve, 0).totals() == tuple(0.0 for _ in curve.alphas)

    def test_compose_two_steps_doubles(self):
        curve = mechanism_curve(MechanismSpec(1.0, 0.1))
        one = compose(curve, 1)
        two = compose(curve, 2)
        np.testing.assert_allclose(two.totals(), np.array(one.totals()) * 2.0)

    def test_compose_is_associative(self):
        curve = mechanism_curve(MechanismSpec(2.0, 0.5))
        a = compose(compose(curve, 3), 4)
        b = compose(curve, 7)
        assert a.totals() == b.totals()
        assert a.step_count == b.step_count == 7

    def test_compose_rejects_negative(self):
        with pytest.raises(ValueError):
            compose(mechanism_curve(MechanismSpec(1.0, 1.0)), -1)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RdpCurve([2.0, 2.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            RdpCurve([2.0, 3.0], [-0.1, 0.1])


class TestConversion:
    def test_single_gaussian_step_spot_value(self):
        curve = compose(mechanism_curve(MechanismSpec(1.0, 1.0)), 1)
        spent = to_eps_delta(curve, 1e-5)
        oracle_eps, oracle_alpha = grid_search_epsilon_gaussian(1.0, 1e-5)
        assert spent.epsilon == pytest.approx(oracle_eps, rel=1e-12)
        assert spent.optimal_alpha == oracle_alpha == 6
        assert spent.epsilon == pytest.approx(5.3026, rel=0.005)

    def test_zero_step_curve_spends_nothing(self):
        curve = mechanism_curve(MechanismSpec(1.0, 0.5))
        assert to_eps_delta(curve, 1e-5).epsilon == 0.0

    def test_epsilon_monotone_in_steps(self):
        curve = mechanism_curve(MechanismSpec(1.0, 0.1))
        eps = [to_eps_delta(compose(curve, t), 1e-5).epsilon for t in (1, 2, 4, 8, 64)]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_epsilon_strictly_decreasing_in_sigma(self):
        eps = [epsilon_for(s, 0.1, 100, 1e-5) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_epsilon_monotone_in_q(self):
        eps = [epsilon_for(1.0, q, 100, 1e-5) for q in (0.01, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_rejects_bad_delta(self):
        curve = mechanism_curve(MechanismSpec(1.0, 1.0))
        with pytest.raises(ValueError):
            to_eps_delta(curve, 0.0)
        with pytest.raises(ValueError):
            to_eps_delta(curve, 1.0)


class TestCalibration:
    def test_inverts_single_step_example(self):
        sigma = calibrate_sigma(5.3026, 1e-5, 1.0, 1)
        assert sigma == pytest.approx(1.0, rel=0.005)

    def test_forward_consistency(self):
        for target in (0.5, 2.0, 10.0, 100.0):
            sigma = calibrate_sigma(target, 1e-5, 0.05, 500)
            assert epsilon_for(sigma, 0.05, 500, 1e-5) <= target
            assert epsilon_for(sigma * 1.01, 0.05, 500, 1e-5) <= epsilon_for(
                sigma, 0.05, 500, 1e-5
            )

    def test_sigma_monotone_in_steps(self):
        sigmas = [calibrate_sigma(5.0, 1e-5, 0.1, t) for t in (10, 100, 1000)]
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))

    def test_unreachable_target_raises(self):
        # min epsilon on the grid is log(1/delta)/63 ~ 0.18 for delta=1e-5
        with pytest.raises(CalibrationError):
            calibrate_sigma(0.01, 1e-5, 1.0, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            calibrate_sigma(-1.0, 1e-5, 0.1, 10)
        with pytest.raises(ValueError):
            calibrate_sigma(1.0, 1e-5, 0.1, 0)


class TestClassicGaussianSigma:
    def test_spot_value(self):
        assert classic_gaussian_sigma(1.0, 1e-5, 1.0) == pytest.approx(4.8445, abs=1e-3)

    def test_linear_in_sensitivity(self):
        base = classic_gaussian_sigma(0.5, 1e-5, 1.0)
        assert classic_gaussian_sigma(0.5, 1e-5, 2.0) == pytest.approx(2 * base, rel=1e-12)

    def test_decreasing_in_delta(self):
        sigmas = [classic_gaussian_sigma(0.5, d, 1.0) for d in (1e-7, 1e-5, 1e-3, 0.5)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            classic_gaussian_sigma(1.5, 1e-5, 1.0)
        with pytest.raises(ValueError):
            classic_gaussian_sigma(0.5, 1e-5, 0.0)


class TestLedgerAndQuery:
    def test_ledger_advances_and_reports(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.1))
        assert ledger.spent().epsilon == 0.0
        ledger.advance(10)
        spent = ledger.spent()
        assert spent.epsilon > 0 and spent.delta == 1e-5
        assert ledger.epsilon_if(11) > spent.epsilon

    def test_query_document_schema(self):
        doc = accountant_query(1.0, 1.0, 1, 1e-5)
        assert set(doc) == {"sigma", "q", "steps", "delta", "epsilon", "optimal_alpha", "curve"}
        assert doc["epsilon"] == pytest.approx(5.3026, rel=0.005)
        assert doc["optimal_alpha"] == 6.0
        alphas = [a for a, _ in doc["curve"]]
        assert alphas == sorted(alphas)
        # accumulated rdp at alpha=2 for one step of sigma=1: 1.0
        assert dict((a, r) for a, r in doc["curve"])[2.0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "sigma,q", [(1.0, 0.1), (0.8, 32 / 1400), (2.0, 1.0), (1e4, 0.5), (1e200, 1.0)]
    )
    def test_ledger_queries_equal_composed_curve(self, sigma, q):
        # The ledger answers from cached arrays; the answers must be the
        # composed curve's, bit for bit, at every step count and delta.
        spec = MechanismSpec(sigma, q)
        ledger = PrivacyLedger(spec, delta=1e-5)
        base = mechanism_curve(spec)
        for steps in (0, 1, 2, 7, 100, 1234, 10**6):
            for delta in (None, 1e-5, 1e-3, 0.3):
                expected = to_eps_delta(compose(base, steps), 1e-5 if delta is None else delta)
                assert ledger.epsilon_if(steps, delta) == expected.epsilon
                ledger.step_count = steps
                assert ledger.spent(delta) == expected
                assert type(ledger.spent(delta).optimal_alpha) is float

    def test_ledger_rejects_bad_queries(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.1))
        with pytest.raises(ValueError):
            ledger.epsilon_if(-1)
        with pytest.raises(ValueError):
            ledger.spent(delta=1.0)
        with pytest.raises(ValueError):
            PrivacyLedger(MechanismSpec(1.0, 0.1), delta=0.0)


# sigma >= 1e-4 (the calibration floor) keeps every value of the former
# per-order code; the q values reach both ends of (0, 1).
TABLE_SIGMAS = (1e-4, 0.3, 1.0, 1.1, 10.0, 1e4, 1e200)
TABLE_QS = (1e-6, 32 / 1440, 0.01, 0.5, 1 - 1e-9)
# dp-small, dp-wide, the README's CLI example and the criterion-10 cells.
CALIBRATION_CASES = (
    (10.0, 1e-5, 32 / 1440, 180),
    (10.0, 1e-5, 32 / 1440, 45),
    (10.0, 1e-5, 0.01, 3000),
    (1.0, 1e-5, 32 / 1440, 1350),
    (10.0, 1e-5, 32 / 1440, 1350),
)


def _calibrate_or_error(*args):
    try:
        return calibrate_sigma(*args)
    except CalibrationError:
        return "CalibrationError"


class TestTableMatchesPerOrderOracle:
    """The all-orders table against the former one-pipeline-per-order code, bit for bit."""

    @pytest.mark.parametrize("q", TABLE_QS + (1.0,))
    def test_every_order(self, q):
        for sigma in TABLE_SIGMAS:
            spec = MechanismSpec(sigma, q)
            curve = mechanism_curve(spec)
            assert curve.per_step == tuple(per_order_rdp(sigma, q, a) for a in curve.alphas)
            for a in range(2, 65):
                assert rdp_subsampled_gaussian(spec, a) == per_order_rdp(sigma, q, a)

    def test_epsilon_for(self):
        for sigma in TABLE_SIGMAS:
            for q in TABLE_QS + (1.0,):
                for steps in (0, 1, 45, 1350, 10**6):
                    for delta in (1e-5, 0.3):
                        got = epsilon_for(sigma, q, steps, delta)
                        assert got == per_order_epsilon(sigma, q, steps, delta)
                        spec = MechanismSpec(sigma, q)
                        composed = to_eps_delta(compose(mechanism_curve(spec), steps), delta)
                        assert got == composed.epsilon

    @pytest.mark.parametrize("case", CALIBRATION_CASES)
    def test_calibration_picks_the_oracle_sigma(self, case, monkeypatch):
        sigma = calibrate_sigma(*case)
        monkeypatch.setattr(accountant, "epsilon_for", per_order_epsilon)
        assert sigma == calibrate_sigma(*case)

    def test_calibration_error_for_the_same_inputs(self, monkeypatch):
        cases = [
            (0.01, 1e-5, 1.0, 1),
            (0.18, 1e-5, 1.0, 1),
            (0.19, 1e-5, 1.0, 1),
            (0.1, 1e-5, 0.5, 10**6),
            (1.0, 1e-9, 0.5, 10**5),
            (1000.0, 1e-5, 1e-6, 1),
        ]
        got = [_calibrate_or_error(*c) for c in cases]
        monkeypatch.setattr(accountant, "epsilon_for", per_order_epsilon)
        assert got == [_calibrate_or_error(*c) for c in cases]
        assert got.count("CalibrationError") >= 2


class TestCustomOrders:
    def test_integer_subset(self):
        for sigma, q in [(1.1, 32 / 1440), (0.3, 0.5), (1e4, 1e-6)]:
            curve = mechanism_curve(MechanismSpec(sigma, q), alphas=(2, 5.0, 17, 64))
            assert curve.alphas == (2.0, 5.0, 17.0, 64.0)
            assert curve.per_step == tuple(per_order_rdp(sigma, q, a) for a in (2, 5, 17, 64))

    def test_fractional_orders_at_full_batch(self):
        alphas = (1.1, 1.25, 2, 3.5, 64, 70.5)
        for sigma in (0.3, 1.0, 1e4):
            curve = mechanism_curve(MechanismSpec(sigma, 1.0), alphas=alphas)
            assert curve.per_step == tuple(per_order_rdp(sigma, 1.0, a) for a in alphas)

    @pytest.mark.parametrize(
        "q,alphas",
        [
            (0.1, (1,)),
            (0.1, (1.0, 2.0)),
            (0.1, (2.0, 65.0)),
            (0.1, (2.5,)),
            (1.0, (1,)),
            (1.0, (65,)),
            (1.0, (0.5,)),
        ],
    )
    def test_rejected_orders(self, q, alphas):
        with pytest.raises(ValueError):
            mechanism_curve(MechanismSpec(1.0, q), alphas=alphas)

    @pytest.mark.parametrize("alpha", [1, 65, 2.5])
    def test_rejected_single_order(self, alpha):
        for q in (0.1, 1.0):
            with pytest.raises(ValueError):
                rdp_subsampled_gaussian(MechanismSpec(1.0, q), alpha)


class TestTinySigma:
    """Below sigma ~ 3e-153 the closed forms overflow; the answer is +inf, never 0."""

    @pytest.mark.parametrize("q", [0.1, 1.0])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_epsilon_for(self, sigma, q):
        assert mechanism_curve(MechanismSpec(sigma, q)).per_step[-1] == math.inf
        assert epsilon_for(sigma, q, 1, 1e-5) == math.inf
        assert epsilon_for(sigma, q, 1000, 1e-5) == math.inf
        assert epsilon_for(sigma, q, 0, 1e-5) == 0.0

    def test_rdp_gaussian_does_not_divide_by_zero(self):
        assert rdp_gaussian(2.0, 1e-200) == math.inf
        assert rdp_subsampled_gaussian(MechanismSpec(1e-200, 1.0), 2) == math.inf
        assert rdp_subsampled_gaussian(MechanismSpec(1e-200, 0.1), 2) == math.inf

    @pytest.mark.parametrize("q", [0.1, 1.0])
    def test_ledger(self, q):
        ledger = PrivacyLedger(MechanismSpec(1e-200, q))
        assert ledger.spent().epsilon == 0.0
        assert ledger.epsilon_if(1) == math.inf
        ledger.advance(3)
        assert ledger.spent().epsilon == math.inf
        assert ledger.spent() == to_eps_delta(ledger.curve(), 1e-5)

    @pytest.mark.parametrize("q", [0.1, 1.0])
    @pytest.mark.parametrize("sigma", [1e-154, 5e-154])
    def test_huge_finite_per_step_values_warn_nothing(self, sigma, q):
        # Some orders are finite but near the float maximum here, so their
        # totals overflow to inf in the conversion.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = PrivacyLedger(MechanismSpec(sigma, q))
            assert ledger.epsilon_if(1000) == math.inf
            ledger.advance(1000)
            assert ledger.spent().epsilon == math.inf
            assert to_eps_delta(ledger.curve(), 1e-5).epsilon == math.inf
            assert epsilon_for(sigma, q, 1000, 1e-5) == math.inf

    @pytest.mark.parametrize("q", [0.1, 1.0])
    def test_zero_steps_spend_nothing(self, q):
        doc = accountant_query(1e-200, q, 0, 1e-5)
        assert doc["epsilon"] == 0.0
        assert all(total == 0.0 for _, total in doc["curve"])

    def test_calibration_floor_values_unchanged(self):
        for q in TABLE_QS + (1.0,):
            for steps in (1, 180, 10**6):
                got = epsilon_for(1e-4, q, steps, 1e-5)
                assert math.isfinite(got) and got == per_order_epsilon(1e-4, q, steps, 1e-5)
