"""Backend behavior: accounting, noise determinism, detection, timing."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special._ufuncs import _binom_cdf

from reupsim.backend import (DEFAULT_CONFUSION, IdealBackend, MeasurementLedger,
                             NoiseModel, NoisyBackend, PoissonDetectionSpec,
                             TimeBudget, binom_quantile, detection_histogram,
                             estimate_time)
from reupsim.circuits import CircuitSpec
from reupsim.data import generate
from reupsim.seeding import counter_uniforms

BELOW_ONE = np.nextafter(1.0, 0.0)
UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([2.0**-54, BELOW_ONE, 0.5]),
    st.floats(0.0, 1e-15, exclude_min=True),
    st.floats(2.0**-53, 1e-15).map(lambda d: 1.0 - d),
)
SUCCESS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1e-6),
    st.floats(0.0, 1e-6).map(lambda d: 1.0 - d),
    st.floats(0.0, 1.0),
)

# boost warns when its root search for the quantile does not converge
BOOST_QUANTILE_WARNING = pytest.mark.filterwarnings("ignore:Error in function boost")


def assert_same_quantiles(u, n, p):
    u = np.asarray(u, dtype=float)
    p = np.broadcast_to(np.asarray(p, dtype=float), u.shape)
    np.testing.assert_array_equal(binom_quantile(u, n, p), stats.binom.ppf(u, n, p))


def test_ledger_counts_estimates_and_shots():
    ledger = MeasurementLedger()
    assert ledger.reserve(5, 100) == 0
    assert ledger.reserve(3, 100) == 5
    assert ledger.snapshot() == (8, 800)


def test_ledger_reserve_is_atomic_under_threads():
    ledger = MeasurementLedger()
    starts = []

    def worker():
        for _ in range(200):
            starts.append(ledger.reserve(3, 1))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.total_estimates == 8 * 200 * 3
    # blocks are disjoint and tile the index range
    assert sorted(starts) == list(range(0, 8 * 200 * 3, 3))


def test_noise_model_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        NoiseModel(confusion=((0.9, 0.2), (0.1, 0.9)))
    with pytest.raises(ValueError, match="2x2"):
        NoiseModel(confusion=((1.0,), (0.0,)))
    with pytest.raises(ValueError, match="shots"):
        NoiseModel(shots=0)
    with pytest.raises(ValueError, match="residual_sigma"):
        NoiseModel(residual_sigma=-0.1)


def test_observed_probability_endpoints():
    nm = NoiseModel()
    m = np.asarray(DEFAULT_CONFUSION)
    # true state certainly |1>, asking for outcome 1: the diagonal survives
    assert nm.observed_probability(np.array([1.0]), np.array([1]))[0] == m[1, 1]
    # true state certainly |0>, asking for outcome 1: pure misread
    assert nm.observed_probability(np.array([0.0]), np.array([1]))[0] == m[0, 1]
    assert nm.observed_probability(np.array([1.0]), np.array([0]))[0] == m[0, 0]
    mid = nm.observed_probability(np.array([0.5]), np.array([1]))[0]
    np.testing.assert_allclose(mid, 0.5 * (m[1, 1] + m[0, 1]), atol=1e-15)


def test_noise_model_config_round_trip():
    nm = NoiseModel(shots=320, residual_sigma=0.002, seed=5)
    assert NoiseModel.from_config(nm.to_config()) == nm
    with pytest.raises(ValueError, match="unknown noise keys"):
        NoiseModel.from_config({"shots": 10, "bogus": 1})


def test_noisy_sampling_is_a_function_of_the_estimate_index():
    p = np.linspace(0.05, 0.95, 40)
    y = np.tile([0, 1], 20)
    one_call = NoisyBackend(NoiseModel(seed=9)).sample(p, y)
    chunked = NoisyBackend(NoiseModel(seed=9))
    parts = [chunked.sample(p[:13], y[:13]), chunked.sample(p[13:], y[13:])]
    np.testing.assert_array_equal(np.concatenate(parts), one_call)


def test_noisy_estimates_are_clipped_and_unbiased():
    nm = NoiseModel(shots=400, residual_sigma=0.0, seed=3)
    be = NoisyBackend(nm)
    p = np.full(4000, 0.3)
    y = np.ones(4000, dtype=int)
    est = be.sample(p, y)
    assert (est >= 0.0).all() and (est <= 1.0).all()
    target = nm.observed_probability(np.array([0.3]), np.array([1]))[0]
    assert abs(est.mean() - target) < 0.002


def test_residual_floor_widens_the_spread():
    p = np.full(2000, 0.5)
    y = np.ones(2000, dtype=int)
    tight = NoisyBackend(NoiseModel(shots=100_000, residual_sigma=0.0, seed=1))
    loose = NoisyBackend(NoiseModel(shots=100_000, residual_sigma=0.02, seed=1))
    assert loose.sample(p, y).std() > 4 * tight.sample(p, y).std()


def test_ideal_backend_passes_values_through_but_charges():
    be = IdealBackend(shots=150)
    ds = generate(20, seed=4)
    spec = CircuitSpec()
    out = be.measure(spec, np.zeros(spec.n_params), ds.x, ds.y)
    assert be.ledger.snapshot() == (20, 3000)
    out2 = IdealBackend().measure(spec, np.zeros(spec.n_params), ds.x, ds.y)
    np.testing.assert_array_equal(out, out2)


def test_poisson_misassignment_matches_tail_probabilities():
    spec = PoissonDetectionSpec(dark_mean=2.0, bright_mean=25.0, threshold=11)
    eps_dark, eps_bright = spec.misassignment()
    assert eps_dark == stats.poisson.sf(11, 2.0)
    assert eps_bright == stats.poisson.cdf(11, 25.0)
    assert eps_dark < 1e-5
    assert eps_bright < 2e-3


@BOOST_QUANTILE_WARNING
@given(st.integers(1, 10_000), SUCCESS, st.lists(UNIFORMS, min_size=1, max_size=40),
       st.integers(0, 10_000), st.integers(-64, 64), st.integers(4, 52))
@settings(max_examples=300, deadline=None)
def test_binom_quantile_equals_binom_ppf_exactly(n, p, uniforms, k, ulps, rel_exp):
    """Random uniforms, plus uniforms a few ulps or a small relative step away
    from a CDF value, where a guess-and-verify search is most likely to part
    from boost's root finder."""
    c = float(_binom_cdf(float(min(k, n)), n, p))
    edges = [c + ulps * np.spacing(c), c * (1.0 + 2.0**-rel_exp), c * (1.0 - 2.0**-rel_exp),
             c + 2.0**-rel_exp * (1.0 - c), c - 2.0**-rel_exp * (1.0 - c)]
    uniforms += [e for e in edges if 0.0 < e < 1.0]
    assert_same_quantiles(uniforms, n, p)


@BOOST_QUANTILE_WARNING
@pytest.mark.parametrize("n", [1, 2, 7, 150, 151, 1000, 10_000])
def test_binom_quantile_equals_binom_ppf_on_philox_draws(n):
    u = counter_uniforms(n, "quantile-test", 0, 20_000)[:, 0]
    rng = np.random.default_rng(n)
    p = np.concatenate([rng.uniform(0.16, 0.84, 14_000), rng.random(2000),
                        rng.random(1000) * 1e-6, 1.0 - rng.random(1000) * 1e-6,
                        np.zeros(1000), np.ones(1000)])
    assert_same_quantiles(u, n, p)
    # the flat top of the CDF, where boost's own quantile decides
    assert_same_quantiles(np.full(p.size, BELOW_ONE), n, p)


def test_binom_quantile_gives_nan_where_binom_ppf_does():
    p = np.array([-0.1, 1.1, np.nan, 1.0 + 2.0**-52, -2.0**-1074])
    assert np.isnan(binom_quantile(np.full(p.size, 0.3), 150, p)).all()
    assert_same_quantiles(np.full(p.size, 0.3), 150, p)


def test_detection_histogram_thresholds_counts():
    res = detection_histogram(0.0, shots=5000, seed=2)
    assert res.histogram.sum() == 5000
    assert res.p1_hat < 0.01
    res = detection_histogram(1.0, shots=5000, seed=2)
    assert res.p1_hat > 0.99
    mid = detection_histogram(0.4, shots=20_000, seed=2)
    assert abs(mid.p1_hat - 0.4) < 0.02


def test_detection_spec_warns_when_bright_is_below_threshold():
    with pytest.warns(UserWarning, match="bright"):
        PoissonDetectionSpec(bright_mean=5.0, threshold=11)


def test_time_budget_arithmetic():
    budget = TimeBudget()
    ledger = MeasurementLedger()
    ledger.reserve(10, 150)
    want = 10 * budget.per_estimate + 1500 * budget.per_shot
    assert estimate_time(ledger, budget) == pytest.approx(want)
    # shot override recomputes from the estimate count
    assert estimate_time(ledger, budget, shots_per_estimate=10) == pytest.approx(
        10 * budget.per_estimate + 100 * budget.per_shot)


def test_time_budget_validation():
    with pytest.raises(ValueError, match="cooling"):
        TimeBudget(cooling=-1.0)
    ledger = MeasurementLedger()
    ledger.reserve(1, 1)
    with pytest.raises(ValueError, match="shots_per_estimate"):
        estimate_time(ledger, TimeBudget(), shots_per_estimate=-1)
