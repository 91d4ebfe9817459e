"""Objective definitions and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import shift_deltas

from reupsim import circuits, costs
from reupsim.backend import IdealBackend, NoiseModel, NoisyBackend
from reupsim.circuits import Ansatz, CircuitSpec, Design, random_parameters
from reupsim.costs import (CostKind, evaluate, evaluate_with_accuracy, is_loss,
                           measured_groups, measured_values, row_accuracies, row_values)
from reupsim.data import Dataset, generate
from reupsim.trainers import GradMethod, estimate_gradient


def _measured_group(spec, thetas, ds, backend, shifts=None):
    """measured_groups of the one group of probes `thetas` over ds's design."""
    return measured_groups(spec, [(thetas, ds.design(spec.ansatz), shifts)], backend)[0]


def _value(kind, m):
    """The objective of one batch of per-point M estimates, as evaluate scores it."""
    return float(row_values(kind, m))


MEASURES = hnp.arrays(float, st.integers(1, 60),
                      elements=st.floats(0.0, 1.0, allow_nan=False))


def test_balanced_measurements_give_the_closed_forms():
    m = np.full(64, 0.5)
    assert _value(CostKind.CROSS_ENTROPY, m) == pytest.approx(np.log(2), abs=1e-12)
    assert _value(CostKind.CHI_SQUARED, m) == pytest.approx(0.25, abs=1e-12)
    assert row_accuracies(m) == 0.0   # 0.5 is not strictly above threshold


def test_accuracy_counts_strict_majority():
    assert row_accuracies(np.array([0.4, 0.500001, 0.9, 0.1])) == 0.5


def test_cross_entropy_is_clamped_at_zero_measurements():
    value = _value(CostKind.CROSS_ENTROPY, np.array([0.0]))
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(costs.LOG_EPS))


def test_gated_cross_entropy_ignores_misclassified_points():
    m = np.array([0.2, 0.4, 0.8])
    want = -np.log(0.8) / 3.0
    assert _value(CostKind.CROSS_ENTROPY_AS_WRITTEN, m) == pytest.approx(want)
    assert _value(CostKind.CROSS_ENTROPY_AS_WRITTEN, np.array([0.1, 0.3])) == 0.0


@given(MEASURES)
def test_chi_squared_stays_in_the_unit_interval(m):
    assert 0.0 <= _value(CostKind.CHI_SQUARED, m) <= 1.0


def _value_of_one_row(kind, m):
    """Reference: the one-batch objective formulas, applied to a single row."""
    if kind is CostKind.ACCURACY:
        return float(np.mean(m > 0.5))
    if kind is CostKind.CROSS_ENTROPY:
        return float(-np.mean(np.log(np.clip(m, costs.LOG_EPS, 1.0))))
    if kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        return float(-np.mean(np.where(m > 0.5, np.log(np.clip(m, costs.LOG_EPS, 1.0)),
                                       0.0)))
    return float(np.mean((1.0 - m) ** 2))


@st.composite
def _measured_rows(draw):
    """(P, n) batches with exact zeros, exact halves and values near the threshold."""
    rows, n = draw(st.integers(1, 80)), draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(0.0, 1.0, (rows, n))
    pick = rng.random((rows, n))
    m[pick < 0.1] = 0.0
    m[(pick >= 0.1) & (pick < 0.2)] = 0.5
    m[(pick >= 0.2) & (pick < 0.25)] = np.nextafter(0.5, 1.0)
    m[pick > 0.95] = 1.0
    return m


@given(_measured_rows())
@settings(max_examples=60, deadline=None)
def test_row_objectives_equal_a_per_row_loop_bit_for_bit(m):
    for kind in CostKind:
        loop = [_value_of_one_row(kind, row) for row in m]
        np.testing.assert_array_equal(row_values(kind, m), loop)
        assert [_value(kind, row) for row in m] == loop
    loop = [_value_of_one_row(CostKind.ACCURACY, row) for row in m]
    np.testing.assert_array_equal(row_accuracies(m), loop)
    assert [row_accuracies(row) for row in m] == loop


def test_is_loss_flags_only_accuracy_as_maximized():
    assert not is_loss(CostKind.ACCURACY)
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CROSS_ENTROPY_AS_WRITTEN,
                 CostKind.CHI_SQUARED):
        assert is_loss(kind)


def test_measured_groups_rows_equal_successive_measured_values():
    spec = CircuitSpec()
    ds = generate(21, seed=4)
    thetas = np.random.default_rng(4).uniform(-np.pi, np.pi, (6, spec.n_params))
    shifts = [None, (0, 1, 0.3), None, (3, 0, -1.1), (2, 1, 2.0), None]
    batched_be, loop_be = NoisyBackend(NoiseModel(seed=1)), NoisyBackend(NoiseModel(seed=1))
    groups = [(t[None], ds.design(spec.ansatz), None if s is None
               else shift_deltas(spec.layers, [s])) for t, s in zip(thetas, shifts)]
    batched = np.concatenate(measured_groups(spec, groups, batched_be))
    loop = np.array([measured_values(spec, t, ds, loop_be) if s is None
                     else _measured_group(spec, t[None], ds, loop_be,
                                          shifts=shift_deltas(spec.layers, [s]))[0]
                     for t, s in zip(thetas, shifts)])
    np.testing.assert_array_equal(batched, loop)
    assert batched_be.ledger.snapshot() == loop_be.ledger.snapshot()

    m = _measured_group(spec, thetas, ds, NoisyBackend(NoiseModel(seed=1)))
    values, accs = row_values(CostKind.CHI_SQUARED, m), row_accuracies(m)
    loop_be = NoisyBackend(NoiseModel(seed=1))
    pairs = [evaluate_with_accuracy(CostKind.CHI_SQUARED, spec, t, ds, loop_be)
             for t in thetas]
    np.testing.assert_array_equal(values, [v for v, _, _ in pairs])
    np.testing.assert_array_equal(accs, [a for _, a, _ in pairs])


def _population_with_repeats(spec):
    """Rows 0, 3 and 5 are equal, row 4 equals row 1 but for a -0.0 gene
    (the value 0.0 in row 1), and rows 6 and 7 repeat one NaN row."""
    rng = np.random.default_rng(12)
    pop = rng.uniform(-np.pi, np.pi, (8, spec.n_params))
    pop[1, 2] = 0.0
    pop[3] = pop[5] = pop[0]
    pop[4] = pop[1]
    pop[4, 2] = -0.0
    pop[6, 5] = np.nan
    pop[7] = pop[6]
    return pop


@pytest.mark.parametrize("noisy", [False, True])
def test_repeated_chromosomes_equal_a_per_chromosome_loop(noisy):
    """Repeats are evolved once but sampled and charged in probe order, so the
    rows, the ledger and the next noise draw match one call per chromosome."""
    spec = CircuitSpec()
    ds = generate(17, seed=12)
    pop = _population_with_repeats(spec)

    def backend():
        return NoisyBackend(NoiseModel(seed=4)) if noisy else IdealBackend()

    batched_be, loop_be = backend(), backend()
    batched = _measured_group(spec, pop, ds, batched_be)
    loop = np.array([measured_values(spec, theta, ds, loop_be) for theta in pop])
    np.testing.assert_array_equal(batched, loop)
    assert batched_be.ledger.snapshot() == loop_be.ledger.snapshot() == (8 * 17, 8 * 17 * 150)
    probe = np.full(3, 0.5), np.ones(3, int)
    np.testing.assert_array_equal(batched_be.sample(*probe), loop_be.sample(*probe))
    assert np.isnan(batched[6:]).all() and not np.isnan(batched[:6]).any()


def test_the_kernel_runs_once_per_distinct_probe(monkeypatch):
    spec = CircuitSpec()
    ds = generate(13, seed=3)
    pop = _population_with_repeats(spec)
    columns = []

    def spy(phi_y, phi_z, states=False):
        columns.append(phi_y.shape[1])
        return evolve(phi_y, phi_z, states)

    evolve = circuits._evolve
    monkeypatch.setattr(circuits, "_evolve", spy)
    backend = IdealBackend()
    _measured_group(spec, pop, ds, backend)
    _measured_group(spec, pop[[1, 4]], ds, backend)
    _measured_group(spec, pop[[6, 7]], ds, backend)
    # rows 0, 1, 2, 4 and 6 are distinct; -0.0 is not 0.0; a NaN row repeats
    assert columns == [5 * 13, 2 * 13, 1 * 13]
    # a shifted batch is never merged: each row is its probe's one-probe call
    columns.clear()
    theta = pop[:1]
    deltas = shift_deltas(spec.layers, [None, (1, 0, 0.5), (1, 0, 0.5), (1, 1, 0.5), None])
    m = _measured_group(spec, theta, ds, IdealBackend(), shifts=deltas)
    assert columns == [5 * 13]
    for row, delta in zip(m, deltas):
        np.testing.assert_array_equal(row, circuits.measure_groups(
            spec, [(theta, Design(spec.ansatz, ds.x, ds.y), delta[None])])[0][0])


def test_measured_values_rejects_bad_inputs():
    spec = CircuitSpec()
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        measured_values(spec, np.zeros(16), empty, IdealBackend())
    with pytest.raises(ValueError, match="empty"):
        _measured_group(spec, np.zeros((2, 16)), empty, IdealBackend())


def test_evaluate_with_accuracy_uses_one_estimate_batch():
    spec = CircuitSpec()
    ds = generate(30, seed=5)
    theta = random_parameters(spec, np.random.default_rng(5))
    be = IdealBackend()
    value, acc, _ = evaluate_with_accuracy(CostKind.CROSS_ENTROPY, spec, theta, ds, be)
    assert be.ledger.total_estimates == 30
    assert value == pytest.approx(evaluate(CostKind.CROSS_ENTROPY, spec, theta, ds,
                                           IdealBackend()))
    assert acc == pytest.approx(evaluate(CostKind.ACCURACY, spec, theta, ds, IdealBackend()))


def test_analytic_cost_gradients_match_finite_differences():
    spec = CircuitSpec()
    ds = generate(25, seed=12)
    theta = np.random.default_rng(12).uniform(-np.pi, np.pi, spec.n_params)
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED,
                 CostKind.CROSS_ENTROPY_AS_WRITTEN):
        grad = estimate_gradient(GradMethod.ANALYTIC, kind, spec, theta, ds, IdealBackend())
        fd = estimate_gradient(GradMethod.FINITE_DIFFERENCE, kind, spec, theta, ds,
                               IdealBackend(), step=1e-6)
        np.testing.assert_allclose(grad, fd, atol=1e-6)


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("layers", [1, 4])
def test_analytic_gradient_is_the_mean_of_the_per_layer_formula_bit_for_bit(ansatz, layers):
    """The gradient is the axis-0 mean of the weighted per-layer chain rule, as
    test_chain_rule_is_the_per_layer_formula_bit_for_bit builds it, for every
    differentiable cost.  chain_rule returns a C-ordered array: over the same
    elements in F order the mean sums in another order and moves the bytes."""
    spec = CircuitSpec(ansatz, layers)
    ds = generate(23, seed=61)
    theta = random_parameters(spec, np.random.default_rng(61))
    m, angle_grads = circuits.gate_angle_gradients(spec, theta, ds.design(ansatz))
    cy, cz = circuits.ansatz_design(ansatz, ds.x)
    per_layer = np.hstack([angle_grads[l, 0][:, None] * cy + angle_grads[l, 1][:, None] * cz
                           for l in range(layers)])
    assert circuits.chain_rule(spec, angle_grads, ds.design(ansatz)).flags.c_contiguous
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CROSS_ENTROPY_AS_WRITTEN,
                 CostKind.CHI_SQUARED):
        want = (costs.cost_weights(kind, m)[:, None] * per_layer).mean(axis=0)
        got = estimate_gradient(GradMethod.ANALYTIC, kind, spec, theta, ds, IdealBackend())
        assert got.tobytes() == want.tobytes()
