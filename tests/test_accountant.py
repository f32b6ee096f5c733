import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dptrain.accountant import (
    CalibrationError,
    MechanismSpec,
    PrivacyLedger,
    accountant_query,
    calibrate_sigma,
    default_alpha_grid,
    epsilon_for,
)
from dptrain import accountant
from dptrain.config import RunConfig
from dptrain.train import train
from oracles import (
    classic_gaussian_sigma,
    grid_search_epsilon_gaussian,
    kl_divergence,
    mixture_renyi_rdp,
    per_order_epsilon,
    per_order_rdp,
    per_step_first_over,
    renyi_divergence,
    row_loop_subsampled_rdp,
)


@pytest.fixture(autouse=True)
def fresh_curves():
    """Each test computes its own per-step curves and sigmas rather than reading another test's."""
    accountant._per_step.cache_clear()
    accountant._calibrated_sigma.cache_clear()
    yield
    accountant._per_step.cache_clear()
    accountant._calibrated_sigma.cache_clear()


@pytest.fixture
def curve_calls(monkeypatch):
    """The (sigma, q) of every subsampled curve evaluated while the test runs."""
    calls = []
    evaluate = accountant._subsampled_rdp

    def counted(sigma, q):
        calls.append((sigma, q))
        return evaluate(sigma, q)

    monkeypatch.setattr(accountant, "_subsampled_rdp", counted)
    return calls


@pytest.fixture
def epsilon_calls(monkeypatch):
    """The arguments of every ``epsilon_for`` call made while the test runs."""
    calls = []
    evaluate = accountant.epsilon_for

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(accountant, "epsilon_for", counted)
    return calls


def one_step_rdp(sigma, q, alpha):
    """Accumulated RDP at order ``alpha`` after one step, read from the ledger's curve."""
    ledger = PrivacyLedger(MechanismSpec(sigma, q))
    ledger.advance(1)
    return dict(ledger.curve())[float(alpha)]


def totals(ledger):
    return [total for _, total in ledger.curve()]


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
    """The full-batch (q = 1) per-step curve, alpha / (2 sigma^2), as a ledger charges it."""

    def test_unit_values(self):
        assert one_step_rdp(1.0, 1.0, 2) == 1.0
        assert one_step_rdp(2.0, 1.0, 3) == 0.375

    def test_matches_quadrature_oracle(self):
        for alpha, sigma in [(2.0, 1.0), (3.0, 2.0), (16.0, 0.5)]:
            oracle = mixture_renyi_rdp(alpha, sigma, 1.0)
            assert one_step_rdp(sigma, 1.0, alpha) == pytest.approx(oracle, rel=1e-9)

    def test_vanishes_for_large_sigma(self):
        values = [one_step_rdp(s, 1.0, 4) for s in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_zero_sigma_is_inf(self):
        assert one_step_rdp(0.0, 1.0, 2) == math.inf

    @pytest.mark.parametrize("sigma", [0.0, 1e-200, 0.616, 3.0])
    def test_equals_one_step_full_batch_ledger(self, sigma):
        # Every order's one-step total is the closed form's one IEEE divide,
        # or +inf once 2 sigma^2 is zero.
        ledger = PrivacyLedger(MechanismSpec(sigma, 1.0))
        ledger.advance(1)
        curve = ledger.curve()
        assert [a for a, _ in curve] == list(default_alpha_grid(1.0))
        denominator = 2.0 * sigma * sigma
        for alpha, total in curve:
            closed_form = alpha / denominator if denominator > 0.0 else math.inf
            assert closed_form.hex() == total.hex()


class TestSubsampledRdp:
    def test_full_sampling_reduces_to_gaussian(self):
        assert one_step_rdp(1.0, 1.0, 2) == 1.0

    def test_vanishing_rate(self):
        values = [one_step_rdp(1.0, q, 4) for q in (0.5, 0.1, 0.01, 1e-4)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_matches_quadrature_oracle_within_one_percent(self):
        got = one_step_rdp(1.0, 0.01, 2)
        oracle = mixture_renyi_rdp(2.0, 1.0, 0.01)
        assert got == pytest.approx(oracle, rel=0.01)

    def test_extreme_order_stays_finite(self):
        v = one_step_rdp(0.5, 0.01, 64)
        assert np.isfinite(v) and v > 0

    def test_monotone_in_q(self):
        values = [one_step_rdp(1.0, q, 8) for q in (0.01, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCurveAndCompose:
    def test_default_grid_shape(self):
        full = default_alpha_grid(1.0)
        assert full[:2] == (1.25, 1.5)
        assert full[2:] == tuple(float(a) for a in range(2, 65))
        sub = default_alpha_grid(0.1)
        assert sub == tuple(float(a) for a in range(2, 65))

    def test_compose_zero_steps_spends_nothing(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        ledger.advance(0)
        assert [a for a, _ in ledger.curve()] == list(default_alpha_grid(1.0))
        assert totals(ledger) == [0.0] * len(default_alpha_grid(1.0))

    def test_compose_two_steps_doubles(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.1))
        ledger.advance(1)
        one = totals(ledger)
        ledger.advance(1)
        np.testing.assert_allclose(totals(ledger), np.array(one) * 2.0)

    def test_compose_is_associative(self):
        a = PrivacyLedger(MechanismSpec(2.0, 0.5))
        a.advance(3)
        a.advance(4)
        b = PrivacyLedger(MechanismSpec(2.0, 0.5))
        b.advance(7)
        assert a.curve() == b.curve()
        assert a.spent() == b.spent()
        assert a.step_count == b.step_count == 7

    def test_compose_rejects_negative(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0))
        with pytest.raises(ValueError):
            ledger.advance(-1)
        assert ledger.step_count == 0


class TestConversion:
    def test_single_gaussian_step_spot_value(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 1.0), delta=1e-5)
        ledger.advance(1)
        spent = ledger.spent()
        oracle_eps, oracle_alpha = grid_search_epsilon_gaussian(1.0, 1e-5)
        assert spent.epsilon == pytest.approx(oracle_eps, rel=1e-12)
        assert spent.optimal_alpha == oracle_alpha == 6
        assert spent.epsilon == pytest.approx(5.3026, rel=0.005)

    def test_zero_step_curve_spends_nothing(self):
        assert PrivacyLedger(MechanismSpec(1.0, 0.5)).spent().epsilon == 0.0

    def test_epsilon_monotone_in_steps(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.1))
        eps = [ledger.epsilon_if(t) for t in (1, 2, 4, 8, 64)]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_epsilon_strictly_decreasing_in_sigma(self):
        eps = [epsilon_for(s, 0.1, 100, 1e-5) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_epsilon_monotone_in_q(self):
        eps = [epsilon_for(1.0, q, 100, 1e-5) for q in (0.01, 0.1, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(eps, eps[1:]))

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="delta"):
                PrivacyLedger(MechanismSpec(1.0, 1.0), delta=delta)


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

    def test_rejects_nan_target(self):
        with pytest.raises(ValueError, match="target epsilon"):
            calibrate_sigma(math.nan, 1e-5, 0.01, 100)

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match=re.escape(f"delta must be in (0, 1), got {delta}")):
            calibrate_sigma(1.0, delta, 0.01, 100)

    @pytest.mark.parametrize("q", [0.0, 1.5, math.nan])
    def test_rejects_bad_sampling_probability(self, q):
        with pytest.raises(
            ValueError, match=re.escape(f"sampling probability must be in (0, 1], got {q}")
        ):
            calibrate_sigma(1.0, 1e-5, q, 100)


class TestClassicGaussianSigma:
    def test_spot_value(self):
        assert classic_gaussian_sigma(1.0, 1e-5, 1.0) == pytest.approx(4.8445, abs=1e-3)

    def test_linear_in_sensitivity(self):
        base = classic_gaussian_sigma(0.5, 1e-5, 1.0)
        assert classic_gaussian_sigma(0.5, 1e-5, 2.0) == pytest.approx(2 * base, rel=1e-12)

    def test_decreasing_in_delta(self):
        sigmas = [classic_gaussian_sigma(0.5, d, 1.0) for d in (1e-7, 1e-5, 1e-3, 0.5)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


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

    @pytest.mark.parametrize("q", [1e-6, 32 / 1440, 0.5, 1.0])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-4, 0.616, 1.0, 1e4])
    def test_query_document_equals_per_order_oracle(self, sigma, q):
        # Where 2 sigma^2 underflows to zero every order is +inf (see
        # TestTinySigma); the per-order oracle divides by that zero.
        tiny = 2.0 * sigma * sigma == 0.0
        for steps in (0, 1, 180, 10**6):
            for delta in (1e-5, 0.3):
                doc = accountant_query(sigma, q, steps, delta)
                if tiny:
                    expected = math.inf if steps else 0.0
                else:
                    expected = per_order_epsilon(sigma, q, steps, delta)
                assert doc["epsilon"] == expected, (steps, delta)
                assert [a for a, _ in doc["curve"]] == list(default_alpha_grid(q))
                for alpha, total in doc["curve"]:
                    if steps == 0:
                        assert total == 0.0
                    else:
                        rdp = math.inf if tiny else per_order_rdp(sigma, q, alpha)
                        assert total == rdp * steps, (alpha, steps)

    @pytest.mark.parametrize(
        "sigma,q", [(1.0, 0.1), (0.8, 32 / 1400), (2.0, 1.0), (1e4, 0.5), (1e200, 1.0)]
    )
    def test_ledger_queries_equal_composed_curve(self, sigma, q):
        # The ledger answers from cached arrays; the answers must be the
        # per-order oracle's composed curve, bit for bit, at every step
        # count, and the reported order must attain them.
        for delta in (1e-5, 1e-3, 0.3):
            ledger = PrivacyLedger(MechanismSpec(sigma, q), delta=delta)
            for steps in (0, 1, 2, 7, 100, 1234, 10**6):
                expected = per_order_epsilon(sigma, q, steps, delta)
                assert ledger.epsilon_if(steps) == expected
                ledger.step_count = steps
                spent = ledger.spent()
                assert spent.epsilon == expected and spent.delta == delta
                alpha = spent.optimal_alpha
                assert type(alpha) is float and alpha in default_alpha_grid(q)
                if expected > 0.0:
                    penalty = math.log(1.0 / delta) / (alpha - 1.0)
                    assert per_order_rdp(sigma, q, alpha) * steps + penalty == expected

    def test_ledger_rejects_bad_queries(self):
        ledger = PrivacyLedger(MechanismSpec(1.0, 0.1))
        with pytest.raises(ValueError):
            ledger.epsilon_if(-1)
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


class TestFirstStepOver:
    """The budget stop's bisection finds the step a query per step finds."""

    BLOCK = 512

    def budgets(self, ledger, planned):
        """Below the first step's epsilon, equal to several steps' epsilon, and never reached."""
        first = ledger.epsilon_if(1)
        equal = [ledger.epsilon_if(n) for n in (1, 2, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, planned)]
        return [first / 2, math.nextafter(first, 0.0), *equal, ledger.epsilon_if(planned) * 2, math.inf]

    @pytest.mark.parametrize(
        "sigma,q", [(1.0, 32 / 1440), (0.8, 0.1), (2.0, 1.0), (1e4, 0.5), (1e-154, 0.1)]
    )
    def test_equals_a_query_per_step(self, sigma, q):
        ledger = PrivacyLedger(MechanismSpec(sigma, q))
        for planned in (0, 1, 180, 2 * self.BLOCK + 5):
            for budget in self.budgets(ledger, max(planned, 1)):
                want = per_step_first_over(ledger, budget, planned)
                assert ledger._first_step_over(budget, planned) == want, (planned, budget)
        # A budget equal to every count's epsilon puts ties at the bisection's midpoints.
        for budget in map(ledger.epsilon_if, range(1, 38)):
            assert ledger._first_step_over(budget, 37) == per_step_first_over(ledger, budget, 37), budget
        assert ledger.step_count == 0

    @pytest.mark.parametrize("q", [1e-9, 1e-4, 32 / 1440, 0.5, 1.0])
    @pytest.mark.parametrize("sigma", [0.0, 1e-154, 1e-4, 0.3, 0.616, 1.0, 10.0, 1e4, 1e200])
    def test_epsilon_never_falls_with_the_count(self, sigma, q):
        # The bisection's precondition: no per-step value is negative or NaN,
        # so no count's epsilon is below the one before it.
        spec = MechanismSpec(sigma, q)
        per_step = accountant._per_step(spec)
        assert not np.isnan(per_step).any() and (per_step >= 0.0).all()
        ledger = PrivacyLedger(spec)
        epsilons = [ledger.epsilon_if(n) for n in range(1101)]
        assert all(a <= b for a, b in zip(epsilons, epsilons[1:]))

    @pytest.mark.parametrize("q", [1.0, 0.5, 32 / 1440])
    def test_zero_sigma_stops_before_the_first_step(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = PrivacyLedger(MechanismSpec(0.0, q))
            assert ledger._first_step_over(1e300, 10) == 1
        assert ledger._first_step_over(1e300, 0) is None

    def test_no_spend_never_stops(self):
        ledger = PrivacyLedger(MechanismSpec(1e200, 1.0))
        assert ledger.epsilon_if(10**6) == 0.0
        assert ledger._first_step_over(1e-300, 10**6) is None
        assert ledger._first_step_over(-1.0, 10) == 1 == per_step_first_over(ledger, -1.0, 10)


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
            ledger = PrivacyLedger(MechanismSpec(sigma, q))
            ledger.advance(1)
            expected = [[a, per_order_rdp(sigma, q, a)] for a in default_alpha_grid(q)]
            assert ledger.curve() == expected

    def test_epsilon_for(self):
        for sigma in TABLE_SIGMAS:
            for q in TABLE_QS + (1.0,):
                for steps in (0, 1, 45, 1350, 10**6):
                    for delta in (1e-5, 0.3):
                        got = epsilon_for(sigma, q, steps, delta)
                        assert got == per_order_epsilon(sigma, q, steps, delta)

    @pytest.mark.parametrize("case", CALIBRATION_CASES)
    def test_calibration_picks_the_oracle_sigma(self, case, monkeypatch):
        sigma = calibrate_sigma(*case)
        monkeypatch.setattr(accountant, "epsilon_for", per_order_epsilon)
        accountant._calibrated_sigma.cache_clear()
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
        accountant._calibrated_sigma.cache_clear()
        assert got == [_calibrate_or_error(*c) for c in cases]
        assert got.count("CalibrationError") >= 2


class TestTinySigma:
    """Below sigma ~ 3e-153 the closed forms overflow; the answer is +inf, never 0."""

    @pytest.mark.parametrize("q", [0.1, 1.0])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160])
    def test_epsilon_for(self, sigma, q):
        assert one_step_rdp(sigma, q, 64) == math.inf
        assert epsilon_for(sigma, q, 1, 1e-5) == math.inf
        assert epsilon_for(sigma, q, 1000, 1e-5) == math.inf
        assert epsilon_for(sigma, q, 0, 1e-5) == 0.0

    def test_rdp_gaussian_does_not_divide_by_zero(self):
        assert one_step_rdp(1e-200, 1.0, 2) == math.inf
        assert one_step_rdp(1e-200, 0.1, 2) == math.inf

    @pytest.mark.parametrize("q", [0.1, 1.0])
    def test_ledger(self, q):
        ledger = PrivacyLedger(MechanismSpec(1e-200, q))
        assert ledger.spent().epsilon == 0.0
        assert ledger.epsilon_if(1) == math.inf
        ledger.advance(3)
        assert ledger.spent().epsilon == math.inf
        assert totals(ledger) == [math.inf] * len(default_alpha_grid(q))

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
            assert max(totals(ledger)) == math.inf
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


class TestMechanismSpec:
    """sigma must be finite and >= 0, q in (0, 1]; sigma = 0 spends inf after a step."""

    @pytest.mark.parametrize("sigma", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            MechanismSpec(sigma, 0.5)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.0 + 1e-12, 2.0, math.nan, math.inf])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="sampling probability"):
            MechanismSpec(1.0, q)

    @pytest.mark.parametrize("q", [1.0, 0.5, 32 / 1440])
    def test_zero_sigma_spends_inf_after_one_step(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = PrivacyLedger(MechanismSpec(0.0, q))
            assert ledger.spent().epsilon == 0.0
            assert ledger.epsilon_if(1) == ledger.epsilon_if(1000) == math.inf
            ledger.advance(1)
            assert ledger.spent().epsilon == math.inf
            assert totals(ledger) == [math.inf] * len(default_alpha_grid(q))

    @pytest.mark.parametrize("steps", [0, 1, 100])
    @pytest.mark.parametrize("q", [1.0, 0.5, 32 / 1440])
    def test_zero_sigma_query_equals_tiny_sigma(self, q, steps):
        zero = accountant_query(0.0, q, steps, 1e-5)
        tiny = accountant_query(1e-200, q, steps, 1e-5)
        assert zero["sigma"] == 0.0
        assert {**zero, "sigma": 1e-200} == tiny


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


# Around sigma ~ 3e-153 the k^2 / (2 sigma^2) terms start to overflow.
OVERFLOW_EDGE_SIGMAS = (1e-160, 3e-153, 1e-152)
EXTREME_QS = (1e-6, 1 - 1e-9)


class TestPairwiseTableMatchesRowLoop:
    """The masked-reduce table against the former row loop, bit for bit."""

    def test_seeded_grid(self):
        rng = np.random.default_rng(14)
        sigmas = _log_uniform(rng, 1e-4, 1e4, 2000)
        qs = _log_uniform(rng, 1e-6, 1 - 1e-9, 2000)
        for sigma, q in zip(sigmas.tolist(), qs.tolist()):
            got = accountant._subsampled_rdp(sigma, q)
            assert np.array_equal(_bits(got), _bits(row_loop_subsampled_rdp(sigma, q))), (sigma, q)

    @pytest.mark.parametrize("q", EXTREME_QS + (32 / 1440, 0.5))
    def test_overflow_edges(self, q):
        infinite = 0
        for sigma in OVERFLOW_EDGE_SIGMAS + (1e-200, 1e-4, 1e200):
            got = accountant._subsampled_rdp(sigma, q)
            assert np.array_equal(_bits(got), _bits(row_loop_subsampled_rdp(sigma, q))), sigma
            infinite += int(np.isinf(got).sum())
        # Both sides of the edge are reached: all-inf rows, some-inf rows, none.
        assert 0 < infinite < 7 * 63

    def test_calibration_matches_row_loop(self, monkeypatch):
        rng = np.random.default_rng(15)
        cases = [
            (
                float(_log_uniform(rng, 0.05, 50.0)),
                float(rng.choice([1e-5, 1e-3])),
                float(_log_uniform(rng, 1e-4, 0.9)),
                int(_log_uniform(rng, 1, 1e5)),
            )
            for _ in range(100)
        ]
        got = [_calibrate_or_error(*case) for case in cases]
        monkeypatch.setattr(accountant, "_subsampled_rdp", row_loop_subsampled_rdp)
        accountant._per_step.cache_clear()
        accountant._calibrated_sigma.cache_clear()
        assert got == [_calibrate_or_error(*case) for case in cases]
        assert got.count("CalibrationError") < len(cases) // 2

    def test_dp_small_calibration_call_count(self, epsilon_calls):
        calibrate_sigma(10.0, 1e-5, 32 / 1440, 180)
        assert len(epsilon_calls) == 16


NUMPY_ORDER = (
    "np.add.reduce with where= no longer sums a row's masked prefix in the order "
    "np.add.reduce sums that prefix on its own; accountant._subsampled_rdp's "
    "per-step RDP values would lose their bits"
)


class TestNumpyAssumptions:
    """What the accountant's table relies on numpy for."""

    def test_masked_reduce_matches_row_reduce(self):
        lengths = np.arange(1, 66)
        prefix_mask = np.arange(65) < lengths[:, None]
        rng = np.random.default_rng(16)
        order_sensitive = 0
        for _ in range(20):
            rows = _log_uniform(rng, 1e-18, 1.0, (65, 65))
            rows[rng.random((65, 65)) < 0.15] = 0.0
            rows[rng.random((65, 65)) < 0.1] = 5e-324 * rng.integers(1, 1000)
            # Past each prefix the mask, not the value, keeps a term out.
            rows[~prefix_mask] = np.nan
            got = np.add.reduce(rows, axis=1, where=prefix_mask)
            for n, row, total in zip(lengths, rows, got):
                expected = np.add.reduce(row[:n])
                assert _bits(total) == _bits(expected), f"{NUMPY_ORDER} (row length {n})"
                order_sensitive += sum(row[:n].tolist()) != expected
        # The rows tell orders apart: a left-to-right sum differs somewhere.
        assert order_sensitive > 0

    def test_exp_underflows_to_exact_zero(self):
        below = np.array([-746.0, np.nextafter(-746.0, -np.inf), -800.0, -1e5, -1e300, -np.inf])
        assert np.array_equal(_bits(np.exp(below)), np.zeros(len(below), dtype=np.int64)), (
            "np.exp no longer gives +0.0 below -746; accountant._subsampled_rdp skips those terms"
        )
        assert np.isnan(np.exp(np.nan))


class TestCaches:
    def test_cached_arrays_are_read_only(self):
        cached = (
            accountant._q_table(32 / 1440),
            accountant._FULL_BATCH_ORDERS,
        )
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # Every ledger of one spec shares its per-step curve, so none may write it.
        for q in (32 / 1440, 1.0):
            ledger = PrivacyLedger(MechanismSpec(1.0, q))
            assert PrivacyLedger(MechanismSpec(1.0, q), 1e-6)._per_step is ledger._per_step
            with pytest.raises(ValueError, match="read-only"):
                ledger._per_step[0] = ledger._per_step[0]

    @pytest.mark.parametrize("name", ["_q_table", "_per_step"])
    def test_caches_are_bounded(self, name):
        cache = getattr(accountant, name)
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64
        for i in range(maxsize + 10):
            q = 0.5 / (i + 2)
            accountant._per_step(MechanismSpec(1.0, q))
        assert cache.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("q", [1e-6, 0.1, 1 - 1e-9, 1.0])
    def test_tiny_sigma_runs_clean(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accountant._q_table.cache_clear()
            accountant._per_step.cache_clear()
            assert all(r == math.inf for r in accountant._per_step(MechanismSpec(1e-200, q)))
            assert epsilon_for(1e-200, q, 1, 1e-5) == math.inf
            assert calibrate_sigma(1e300, 1e-5, q, 1) == 1e-4


# dp-small's plan (target epsilon, delta, q, steps), and the same plan at
# epsilon 1, whose search doubles sigma past 1.
MEMO_PLANS = ((10.0, 1e-5, 32 / 1440, 180), (1.0, 1e-5, 32 / 1440, 180))


class TestPerStepMemo:
    """Each (sigma, q) curve is evaluated once per process and reused with the same bits."""

    @pytest.mark.parametrize("plan", MEMO_PLANS)
    def test_second_calibration_evaluates_no_curve(self, plan, curve_calls, epsilon_calls):
        sigma = calibrate_sigma(*plan)
        assert len(curve_calls) >= 15 and len(epsilon_calls) >= 15
        curve_calls.clear()
        epsilon_calls.clear()
        again = calibrate_sigma(*plan)
        assert curve_calls == [] and epsilon_calls == []
        assert _bits(again) == _bits(sigma)
        # Without the sigma memo the search runs again, on remembered curves.
        accountant._calibrated_sigma.cache_clear()
        searched = calibrate_sigma(*plan)
        assert curve_calls == [] and len(epsilon_calls) >= 15
        assert _bits(searched) == _bits(sigma)

    def test_epsilon_one_plan_searches_past_sigma_one(self):
        assert calibrate_sigma(*MEMO_PLANS[1]) > 1.0

    @pytest.mark.parametrize("q", [32 / 1440, 1.0])
    @pytest.mark.parametrize("sigma", [1e-200, 0.616, 1.0, 3.0])
    def test_recomputed_curve_has_the_cached_bytes(self, sigma, q):
        cached = accountant._per_step(MechanismSpec(sigma, q))
        assert accountant._per_step(MechanismSpec(sigma, q)) is cached
        accountant._per_step.cache_clear()
        recomputed = accountant._per_step(MechanismSpec(sigma, q))
        assert recomputed is not cached
        assert recomputed.tobytes() == cached.tobytes()

    def test_refusals_are_not_cached(self, curve_calls):
        for _ in range(2):
            with pytest.raises(CalibrationError):
                calibrate_sigma(0.001, 1e-5, 0.5, 10**5)
            with pytest.raises(CalibrationError):
                calibrate_sigma(0.01, 1e-5, 1.0, 1)
            with pytest.raises(ValueError, match="sigma must be"):
                PrivacyLedger(MechanismSpec(-1.0, 0.5))
            with pytest.raises(ValueError, match="delta must be"):
                PrivacyLedger(MechanismSpec(1.0, 0.5), delta=0.0)
            with pytest.raises(ValueError, match="target epsilon"):
                calibrate_sigma(-1.0, 1e-5, 0.5, 10)
            with pytest.raises(ValueError, match="negative number of steps"):
                epsilon_for(1.0, 0.5, -1, 1e-5)
        # The second round read every curve it needed from the memo.
        assert len(curve_calls) == len(set(curve_calls))

    @pytest.mark.parametrize("q", [32 / 1440, 1.0])
    def test_equal_sigmas_of_any_type_share_one_entry(self, q, curve_calls):
        curves = [
            accountant._per_step(MechanismSpec(sigma, q)) for sigma in (1, 1.0, np.float64(1.0))
        ]
        assert curves[1] is curves[0] and curves[2] is curves[0]
        assert accountant._per_step.cache_info().currsize == 1
        assert len(curve_calls) == (q < 1)
        ledgers = [PrivacyLedger(MechanismSpec(sigma, q)) for sigma in (1, 1.0, np.float64(1.0))]
        for ledger in ledgers:
            ledger.advance(180)
        assert len({repr(ledger.curve()) for ledger in ledgers}) == 1
        assert len({_bits(ledger.spent().epsilon).item() for ledger in ledgers}) == 1

    def test_second_run_of_a_plan_evaluates_no_curve(self, curve_calls, epsilon_calls):
        config = RunConfig(n=400, dim=6, widths=(8, 1), epochs=2, noise_placement="on-sum")
        first = train(config)
        assert len(curve_calls) >= 15 and len(epsilon_calls) >= 15
        curve_calls.clear()
        epsilon_calls.clear()
        second = train(
            dataclasses.replace(config, seed_model=11, seed_data=12, seed_poisson=13, seed_noise=14)
        )
        assert curve_calls == [] and epsilon_calls == []
        assert _bits(second.sigma) == _bits(first.sigma)
        assert second.numerics() != first.numerics()

    def test_nonprivate_run_touches_no_curve(self, curve_calls):
        train(RunConfig(n=400, dim=6, widths=(8, 1), epochs=2, privacy="off", target_eps=None))
        assert curve_calls == []
        info = accountant._per_step.cache_info()
        assert (info.hits, info.misses) == (0, 0)


class TestCalibrationMemo:
    """Each plan (target epsilon, delta, q, steps) is searched once per process."""

    def test_equal_targets_of_any_type_share_one_entry(self, epsilon_calls):
        sigmas = [calibrate_sigma(eps, 1e-5, 32 / 1440, 180) for eps in (10, 10.0, np.float64(10.0))]
        assert accountant._calibrated_sigma.cache_info().currsize == 1
        assert len(epsilon_calls) == 16
        assert all(type(sigma) is float for sigma in sigmas)
        assert len({_bits(sigma).item() for sigma in sigmas}) == 1

    @pytest.mark.parametrize(
        "plan, error, message",
        [
            ((0.001, 1e-5, 0.5, 10**5), CalibrationError, "unreachable"),
            ((0.01, 1e-5, 1.0, 1), CalibrationError, "unreachable"),
            ((-1.0, 1e-5, 0.5, 10), ValueError, "target epsilon"),
            ((1.0, 1e-5, 0.5, 0), ValueError, "at least one step"),
            ((1.0, 1e-5, 0.5, 2.5), TypeError, "interpreted as an integer"),
            ((1.0, 0.0, 0.5, 10), ValueError, "delta must be"),
            ((1.0, 1e-5, 1.5, 10), ValueError, "sampling probability"),
        ],
    )
    def test_refusal_raises_every_time_and_is_not_stored(self, plan, error, message):
        for _ in range(3):
            with pytest.raises(error, match=message):
                calibrate_sigma(*plan)
        assert accountant._calibrated_sigma.cache_info().currsize == 0


class TestStepCounts:
    """Step counts are integers; a fractional count or a bool raises instead of being read as one."""

    SPEC = MechanismSpec(1.0, 0.02)

    def _entry_points(self):
        ledger = PrivacyLedger(self.SPEC)
        return {
            "advance": lambda n: (ledger.advance(n), ledger.spent().epsilon)[1],
            "epsilon_if": lambda n: ledger.epsilon_if(n),
            "epsilon_for": lambda n: epsilon_for(1.0, 0.02, n, 1e-5),
            "calibrate_sigma": lambda n: calibrate_sigma(10.0, 1e-5, 0.02, n),
            "accountant_query": lambda n: accountant_query(1.0, 0.02, n, 1e-5)["epsilon"],
        }

    @pytest.mark.parametrize(
        "entry",
        ["advance", "epsilon_if", "epsilon_for", "calibrate_sigma", "accountant_query"],
    )
    def test_fractional_count_raises(self, entry):
        call = self._entry_points()[entry]
        for count in (2.5, 1.5, 2.0, np.float64(3.0)):
            with pytest.raises(TypeError):
                call(count)

    @pytest.mark.parametrize(
        "entry",
        ["advance", "epsilon_if", "epsilon_for", "calibrate_sigma", "accountant_query"],
    )
    def test_bool_count_raises(self, entry):
        call = self._entry_points()[entry]
        for count in (True, False):
            with pytest.raises(TypeError, match=f"a step count must be an integer, not {count}"):
                call(count)
        with pytest.raises(TypeError):
            call(np.True_)

    def test_calibration_refuses_a_negative_count_by_the_ledger_rule(self):
        with pytest.raises(ValueError, match="cannot compose a negative number of steps: -1"):
            calibrate_sigma(10.0, 1e-5, 0.02, -1)

    @pytest.mark.parametrize(
        "entry",
        ["advance", "epsilon_if", "epsilon_for", "calibrate_sigma", "accountant_query"],
    )
    def test_numpy_integer_count_matches_int(self, entry):
        expected = self._entry_points()[entry](3)
        assert self._entry_points()[entry](np.int64(3)) == expected

    def test_fractional_advance_leaves_the_ledger_alone(self):
        ledger = PrivacyLedger(self.SPEC)
        ledger.advance(2)
        with pytest.raises(TypeError):
            ledger.advance(1.5)
        with pytest.raises(TypeError):
            ledger.advance(True)
        assert ledger.step_count == 2
        assert type(ledger.step_count) is int
        assert ledger.spent().epsilon == epsilon_for(1.0, 0.02, 2, 1e-5)
