"""Confusion-matrix mitigation and the surrounding statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim import mitigation
from reupsim.backend import (DEFAULT_CONFUSION, IdealBackend, NoiseModel,
                             NoisyBackend)
from reupsim.circuits import Ansatz, CircuitSpec, Design, check_theta, measure_batch
from reupsim.costs import CostKind
from reupsim.data import Dataset, generate
from reupsim.seeding import derive_seed
from reupsim.mitigation import (GRADIENT_NOISE_COSTS, calibrate,
                                gradient_noise_report, mitigate, noise_scaling,
                                observation_pairs, pole_preparations, residual_analysis)
from oracles import mitigate_estimate

DIAG = st.floats(0.55, 0.999)
PROB = st.floats(0.0, 1.0)


@given(DIAG, DIAG, PROB)
@settings(max_examples=60)
def test_mitigation_inverts_the_confusion_exactly(d0, d1, p1):
    cal = ((d0, 1.0 - d0), (1.0 - d1, d1))
    p = np.array([1.0 - p1, p1])
    observed = np.asarray(cal).T @ p
    np.testing.assert_allclose(mitigate(observed, cal), p, atol=1e-9)


def test_mitigation_clips_out_of_range_observations():
    cal = DEFAULT_CONFUSION
    # an observed frequency more extreme than the confusion can produce
    out = mitigate(np.array([0.05, 0.95]), cal)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("confusion", [DEFAULT_CONFUSION, ((0.9, 0.1), (0.3, 0.7)),
                                       ((0.6, 0.4), (0.02, 0.98))])
def test_a_batch_of_pairs_mitigates_as_each_pair_alone(confusion):
    """An (N, 2) call gives, bit for bit, what N (2,) calls give, over
    frequencies in (0, 1), the endpoints, and pairs that clip."""
    cal = confusion
    values = np.concatenate([np.random.default_rng(31).uniform(size=500),
                             [0.0, 1.0, 2.0**-54, np.nextafter(1.0, 0.0)]])
    pairs = np.column_stack([1.0 - values, values])
    pairs = np.concatenate([pairs, pairs[:, ::-1], [[0.05, 0.95], [1.2, -0.2], [0.0, 0.0]]])
    batched = mitigate(pairs, cal)
    assert batched.shape == pairs.shape
    np.testing.assert_array_equal(batched, [mitigate(pair, cal) for pair in pairs])
    np.testing.assert_array_equal(mitigate(pairs[None], cal), batched[None])
    assert batched[-1].tolist() == [0.5, 0.5]       # a pair that clips to zero
    with pytest.raises(ValueError, match="probability pairs"):
        mitigate(np.zeros(3), cal)


def test_calibration_matrix_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        mitigate(np.array([0.5, 0.5]), ((0.9, 0.2), (0.1, 0.8)))
    with pytest.raises(ValueError, match="singular"):
        mitigate(np.array([0.5, 0.5]), ((0.5, 0.5), (0.5, 0.5)))


@pytest.mark.parametrize("confusion, message", [
    (((np.nan, np.nan), (0.0, 1.0)), r"^confusion entries must lie in \[0, 1\]$"),
    (((0.9, 0.1 + 1e-10), (0.0, 1.0)), "^confusion rows must each sum to 1 within 1e-12$"),
    (((1.0,), (0.0,)), "^confusion must be 2x2, got shape"),
])
def test_mitigate_checks_a_confusion_as_the_noise_model_does(confusion, message):
    """A NaN entry, or a row a little off 1, is no confusion to invert either."""
    with pytest.raises(ValueError, match=message):
        NoiseModel(confusion=confusion)
    with pytest.raises(ValueError, match=message):
        mitigate(np.array([0.5, 0.5]), confusion)


def test_pole_preparations_reach_both_poles_under_every_ansatz():
    for ansatz in Ansatz:
        spec = CircuitSpec(ansatz, 4)
        theta0, theta1 = pole_preparations(spec)
        x = np.array([1.0, 0.0])
        for theta, y in ((theta0, 0), (theta1, 1)):
            m = measure_batch(spec, theta, Design(ansatz, x, np.array([y])))[0]
            assert m == pytest.approx(1.0, abs=1e-12)


def test_calibrate_on_the_ideal_backend_is_the_identity():
    cal = calibrate(IdealBackend(), CircuitSpec(), shots=1000)
    np.testing.assert_allclose(np.asarray(cal), np.eye(2), atol=1e-12)


def test_calibrate_recovers_the_confusion_matrix():
    noise = NoiseModel(shots=500, residual_sigma=0.0, seed=21)
    cal = calibrate(NoisyBackend(noise), CircuitSpec(), shots=100_000)
    np.testing.assert_allclose(np.asarray(cal), np.asarray(DEFAULT_CONFUSION),
                               atol=0.01)
    assert NoiseModel(confusion=cal).confusion == cal


def test_residual_analysis_recovers_a_synthetic_line():
    x = np.linspace(0.0, 1.0, 60)
    rng = np.random.default_rng(17)
    noise = 0.01 * rng.standard_normal(60)
    pairs = np.column_stack([x, 0.24 + 0.6 * x + noise])
    report = residual_analysis(pairs)
    assert report.slope == pytest.approx(0.6, abs=0.02)
    assert report.intercept == pytest.approx(0.24, abs=0.01)
    assert report.residual_mean == pytest.approx(0.0, abs=1e-12)
    assert report.residual_std == pytest.approx(0.01, abs=0.005)
    assert report.n_pairs == 60


def test_residual_analysis_validation():
    with pytest.raises(ValueError, match="at least 3"):
        residual_analysis(np.zeros((2, 2)))
    flat = np.column_stack([np.full(5, 0.3), np.linspace(0, 1, 5)])
    with pytest.raises(ValueError, match="degenerate"):
        residual_analysis(flat)
    with pytest.raises(ValueError, match="shape"):
        residual_analysis(np.zeros((5, 3)))


def test_observation_pairs_columns():
    spec = CircuitSpec()
    ds = generate(12, seed=19)
    cal = DEFAULT_CONFUSION
    pairs = observation_pairs(spec, ds, IdealBackend(), seed=19, cal=cal)
    assert pairs.shape == (12, 3)
    # ideal backend: observed equals theoretical, both in [0, 1]
    np.testing.assert_allclose(pairs[:, 1], pairs[:, 0], atol=1e-12)
    assert pairs[:, 0].min() >= 0.0 and pairs[:, 0].max() <= 1.0
    for theo, obs, mit in pairs:
        assert mit == pytest.approx(mitigate_estimate(obs, 1, cal))


def test_observation_pairs_with_a_fixed_theta():
    spec = CircuitSpec()
    ds = generate(6, seed=20)
    theta = np.zeros(spec.n_params)
    pairs = observation_pairs(spec, ds, IdealBackend(), theta=theta)
    assert pairs.shape == (6, 2)
    # all-zero parameters leave the state at the |0> pole
    np.testing.assert_allclose(pairs[:, 0], 0.0, atol=1e-12)


def _observation_pairs_per_point(spec, dataset, backend, theta=None, seed=0, cal=None):
    """Reference: two kernel calls and one backend measurement per point."""
    n = len(dataset)
    if theta is not None:
        thetas = np.tile(check_theta(spec, theta), (n, 1))
    else:
        rng = np.random.default_rng(derive_seed(seed, "residual-thetas"))
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(n, spec.n_params))
    one = np.array([1])
    out = np.empty((n, 2 if cal is None else 3))
    for i in range(n):
        point = Design(spec.ansatz, dataset.x[i:i + 1], one)
        out[i, 0] = float(measure_batch(spec, thetas[i], point)[0])
        out[i, 1] = float(backend.sample(measure_batch(spec, thetas[i], point), one)[0])
        if cal is not None:
            out[i, 2] = mitigate_estimate(out[i, 1], 1, cal)
    return out


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("fixed_theta", [False, True])
@pytest.mark.parametrize("with_cal", [False, True])
def test_observation_pairs_equal_the_per_point_loop(noisy, fixed_theta, with_cal):
    spec = CircuitSpec(Ansatz.A2B, 3)
    ds = generate(17, seed=23)
    theta = np.linspace(-2.0, 2.0, spec.n_params) if fixed_theta else None
    cal = DEFAULT_CONFUSION if with_cal else None
    results = []
    for pairs in (observation_pairs, _observation_pairs_per_point):
        backend = NoisyBackend(NoiseModel(seed=5)) if noisy else IdealBackend()
        results.append((pairs(spec, ds, backend, theta=theta, seed=8, cal=cal),
                        backend.ledger.snapshot()))
    (batched, ledger_batched), (reference, ledger_reference) = results
    np.testing.assert_array_equal(batched, reference)
    assert ledger_batched == ledger_reference == (17, 17 * 150)


def test_noise_scaling_sees_the_square_root_law():
    spec = CircuitSpec(Ansatz.A2A, 4)
    theta = np.zeros(16)
    theta[2] = 1.0
    point = Dataset(np.array([[0.0, 0.0]]), np.array([1]))
    report = noise_scaling(spec, theta, point, [50, 200, 800], repeats=400, seed=3)
    assert -0.62 < report.exponent < -0.38
    assert report.stds[0] > report.stds[-1]


def test_noise_scaling_validation():
    spec = CircuitSpec()
    ds = generate(3, seed=0)
    theta = np.zeros(16)
    with pytest.raises(ValueError, match="distinct"):
        noise_scaling(spec, theta, ds, [100, 100])
    with pytest.raises(ValueError, match=">= 1"):
        noise_scaling(spec, theta, ds, [0, 100])
    with pytest.raises(ValueError, match="repeats must be >= 2"):
        noise_scaling(spec, theta, ds, [10, 30], repeats=1)


def test_gradient_noise_report_ideal_leg_always_agrees():
    spec = CircuitSpec()
    ds = generate(8, seed=22)
    theta = np.random.default_rng(22).uniform(-np.pi, np.pi, 16)
    rows = gradient_noise_report(spec, theta, ds, noise=None, steps=[0.1], repeats=3)
    assert {r.cost for r in rows} == set(GRADIENT_NOISE_COSTS)
    assert {r.step for r in rows} == {0.1}
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED):
        picked = [r for r in rows if r.cost is kind]
        assert np.nanmean([r.sign_agreement for r in picked]) == 1.0
        assert max(abs(r.theoretical) for r in picked) > 0.0


def test_sign_agreement_is_the_per_component_share_of_matching_signs(monkeypatch):
    """Each row's agreement is the share of repeats whose sign matches the
    noiseless component, NaN where that component is 0: a per-component loop."""
    exact = np.array([0.0, 0.4, -0.2, 0.0, 1e-9, -3.0, 2.0, -0.0])
    draws = np.random.default_rng(29).choice([-1.0, 0.0, 0.5], size=(3 * 5, exact.size))
    noisy = iter(draws)
    monkeypatch.setattr(mitigation, "estimate_gradient",
                        lambda *args, step: next(noisy) if args[5].is_noisy else exact)
    rows = gradient_noise_report(CircuitSpec(Ansatz.A2A, 2), np.zeros(exact.size),
                                 generate(4, seed=29), NoiseModel(), steps=[0.2], repeats=5)
    want = [float("nan") if exact[j] == 0.0
            else float(np.mean(np.sign(reps[:, j]) == np.sign(exact[j])))
            for reps in draws.reshape(3, 5, -1) for j in range(exact.size)]
    np.testing.assert_array_equal([r.sign_agreement for r in rows], want)
