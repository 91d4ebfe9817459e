"""Objective definitions and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reupsim import costs
from reupsim.backend import IdealBackend, NoiseModel, NoisyBackend
from reupsim.circuits import CircuitSpec, random_parameters
from reupsim.costs import (CostKind, accuracy_from, evaluate,
                           evaluate_many_with_accuracy, evaluate_with_accuracy,
                           is_loss, measured_many, measured_values, value_from)
from reupsim.data import Dataset, generate
from reupsim.trainers import gradient_fd

MEASURES = hnp.arrays(float, st.integers(1, 60),
                      elements=st.floats(0.0, 1.0, allow_nan=False))


def test_balanced_measurements_give_the_closed_forms():
    m = np.full(64, 0.5)
    assert value_from(CostKind.CROSS_ENTROPY, m) == pytest.approx(np.log(2), abs=1e-12)
    assert value_from(CostKind.CHI_SQUARED, m) == pytest.approx(0.25, abs=1e-12)
    assert accuracy_from(m) == 0.0   # 0.5 is not strictly above threshold


def test_accuracy_counts_strict_majority():
    assert accuracy_from(np.array([0.4, 0.500001, 0.9, 0.1])) == 0.5


def test_cross_entropy_is_clamped_at_zero_measurements():
    value = value_from(CostKind.CROSS_ENTROPY, np.array([0.0]))
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(costs.LOG_EPS))


def test_gated_cross_entropy_ignores_misclassified_points():
    m = np.array([0.2, 0.4, 0.8])
    want = -np.log(0.8) / 3.0
    assert value_from(CostKind.CROSS_ENTROPY_AS_WRITTEN, m) == pytest.approx(want)
    assert value_from(CostKind.CROSS_ENTROPY_AS_WRITTEN, np.array([0.1, 0.3])) == 0.0


@given(MEASURES)
def test_chi_squared_stays_in_the_unit_interval(m):
    assert 0.0 <= value_from(CostKind.CHI_SQUARED, m) <= 1.0


def test_is_loss_flags_only_accuracy_as_maximized():
    assert not is_loss(CostKind.ACCURACY)
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CROSS_ENTROPY_AS_WRITTEN,
                 CostKind.CHI_SQUARED):
        assert is_loss(kind)


def test_cost_kind_parse():
    assert CostKind.parse("CHI_SQUARED") is CostKind.CHI_SQUARED
    with pytest.raises(ValueError, match="unknown cost"):
        CostKind.parse("mse")


def test_measured_values_worker_count_does_not_change_results():
    spec = CircuitSpec()
    ds = generate(64, seed=8)
    theta = random_parameters(spec, np.random.default_rng(8))
    serial = measured_values(spec, theta, ds, NoisyBackend(NoiseModel(seed=6)))
    sharded = measured_values(spec, theta, ds, NoisyBackend(NoiseModel(seed=6)),
                              workers=4)
    np.testing.assert_array_equal(serial, sharded)


def test_measured_many_rows_equal_successive_measured_values():
    spec = CircuitSpec()
    ds = generate(21, seed=4)
    thetas = np.random.default_rng(4).uniform(-np.pi, np.pi, (6, spec.n_params))
    shifts = [None, (0, 1, 0.3), None, (3, 0, -1.1), (2, 1, 2.0), None]
    batched_be, loop_be = NoisyBackend(NoiseModel(seed=1)), NoisyBackend(NoiseModel(seed=1))
    batched = measured_many(spec, thetas, ds, batched_be, shifts=shifts)
    loop = np.array([measured_values(spec, t, ds, loop_be, shift=s)
                     for t, s in zip(thetas, shifts)])
    np.testing.assert_array_equal(batched, loop)
    assert batched_be.ledger.snapshot() == loop_be.ledger.snapshot()

    values, accs = evaluate_many_with_accuracy(CostKind.CHI_SQUARED, spec, thetas, ds,
                                               NoisyBackend(NoiseModel(seed=1)))
    loop_be = NoisyBackend(NoiseModel(seed=1))
    pairs = [evaluate_with_accuracy(CostKind.CHI_SQUARED, spec, t, ds, loop_be)
             for t in thetas]
    np.testing.assert_array_equal(values, [v for v, _ in pairs])
    np.testing.assert_array_equal(accs, [a for _, a in pairs])


def test_measured_values_rejects_bad_inputs():
    spec = CircuitSpec()
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        measured_values(spec, np.zeros(16), empty, IdealBackend())
    ds = generate(4, seed=0)
    with pytest.raises(ValueError, match="workers"):
        measured_values(spec, np.zeros(16), ds, IdealBackend(), workers=0)
    with pytest.raises(ValueError, match="empty"):
        measured_many(spec, np.zeros((2, 16)), empty, IdealBackend())


def test_evaluate_with_accuracy_uses_one_estimate_batch():
    spec = CircuitSpec()
    ds = generate(30, seed=5)
    theta = random_parameters(spec, np.random.default_rng(5))
    be = IdealBackend()
    value, acc = evaluate_with_accuracy(CostKind.CROSS_ENTROPY, spec, theta, ds, be)
    assert be.ledger.total_estimates == 30
    assert value == pytest.approx(evaluate(CostKind.CROSS_ENTROPY, spec, theta, ds,
                                           IdealBackend()))
    assert acc == pytest.approx(costs.accuracy(spec, theta, ds, IdealBackend()))


def test_analytic_cost_gradients_match_finite_differences():
    spec = CircuitSpec()
    ds = generate(25, seed=12)
    theta = random_parameters(spec, np.random.default_rng(12), -np.pi, np.pi)
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED,
                 CostKind.CROSS_ENTROPY_AS_WRITTEN):
        grad = costs.analytic_gradient(kind, spec, theta, ds)
        fd = gradient_fd(kind, spec, theta, ds, IdealBackend(), step=1e-6)
        np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_accuracy_gradient_is_identically_zero():
    spec = CircuitSpec()
    ds = generate(10, seed=1)
    grad = costs.analytic_gradient(CostKind.ACCURACY, spec,
                                   random_parameters(spec, np.random.default_rng(1)),
                                   ds)
    np.testing.assert_array_equal(grad, np.zeros(16))
