"""Training trace records, their CSV round trip, and the incumbent and stop
rules that TrainingTrace.record applies for every optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reupsim.backend import BudgetError, MeasurementLedger
from reupsim.trace import TRACE_HEADER, RunLimits, TrainingTrace


def _sample_trace():
    trace = TrainingTrace()
    trace.append(0, 0.52, 0.693147, 2.3456, 250, 37_500, 1200.5)
    trace.append(1, 0.68, 0.51, 1.9871, 500, 75_000, 2401.0)
    trace.append(2, 0.9, 0.31234567891234567, None, 750, 112_500, 3601.5)
    return trace


def test_append_and_accessors():
    trace = _sample_trace()
    assert len(trace) == 3
    assert [r.best_accuracy for r in trace.rows] == [0.52, 0.68, 0.9]
    assert [r.best_loss for r in trace.rows] == [0.693147, 0.51, 0.31234567891234567]
    assert [r.cum_estimates for r in trace.rows] == [250, 500, 750]
    assert trace.final.iteration == 2
    assert trace.final.diversity is None


def test_cumulative_counters_must_not_decrease():
    trace = _sample_trace()
    with pytest.raises(ValueError, match="must not decrease"):
        trace.append(3, 0.9, 0.3, None, 700, 120_000, 4000.0)
    with pytest.raises(ValueError, match="must not decrease"):
        trace.append(3, 0.9, 0.3, None, 800, 110_000, 4000.0)
    # equal counters are allowed (an iteration that measured nothing new)
    trace.append(3, 0.9, 0.3, None, 750, 112_500, 3601.5)
    assert len(trace) == 4


def test_final_of_an_empty_trace_raises():
    with pytest.raises(ValueError, match="empty"):
        TrainingTrace().final


def test_csv_round_trip_is_exact(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = TrainingTrace.read_csv(path)
    assert back.rows == trace.rows
    # floats survive via repr, so a second write is byte-identical
    path2 = tmp_path / "again.csv"
    back.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_csv_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="expected header"):
        TrainingTrace.read_csv(path)


def test_write_csv_creates_parent_directories(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "deep" / "nested" / "trace.csv"
    trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_HEADER)


# Reference bookkeeping, as ga_train, bfgs_train and sgd_train each kept it
# before TrainingTrace.record took it over.  A step is (thetas, values,
# accuracies) with one row of thetas per candidate.

def ga_reference(steps, maximize, target):
    best_theta = steps[0][0][0].copy()
    best_fitness, best_accuracy, best_value = -np.inf, -np.inf, np.nan
    rows = []
    for thetas, values, accs in steps:
        fitnesses = values if maximize else -values
        gen_best = int(np.argmax(fitnesses))
        if fitnesses[gen_best] > best_fitness:
            best_fitness = float(fitnesses[gen_best])
            best_value = float(values[gen_best])
            best_theta = thetas[gen_best].copy()
        best_accuracy = max(best_accuracy, float(accs.max()))
        rows.append((best_accuracy, best_value))
        if target is not None and best_accuracy >= target:
            break
    return best_theta, rows


def descent_reference(steps, target):
    """One candidate a step; the target is first checked at iteration 1."""
    (theta,), (f,), (acc,) = steps[0]
    best_theta, best_val, best_acc = theta.copy(), f, acc
    rows = [(best_acc, best_val)]
    for (theta,), (f,), (acc,) in steps[1:]:
        if f < best_val:
            best_theta, best_val = theta.copy(), f
        best_acc = max(best_acc, acc)
        rows.append((best_acc, best_val))
        if target is not None and best_acc >= target:
            break
    return best_theta, rows


def recorded(steps, maximize, target, stop_from=0):
    ledger = MeasurementLedger()
    trace = TrainingTrace(target_accuracy=target, ledger=ledger)
    for k, (thetas, values, accs) in enumerate(steps):
        ledger.reserve(len(values), 10)
        if trace.record(k, thetas, values, accs, 0, maximize=maximize) and k >= stop_from:
            break
    assert ([r.cum_estimates for r in trace.rows]
            == [len(steps[0][1]) * (k + 1) for k in range(len(trace))])
    return trace.best_theta, [(r.best_accuracy, r.best_loss) for r in trace.rows]


def _steps(values, accuracies, width):
    """Steps of `width` candidates; candidate j of step k has theta (k, j)."""
    return [(np.array([[k, j] for j in range(width)], dtype=float),
             np.array(values[k * width:(k + 1) * width]),
             np.array(accuracies[k * width:(k + 1) * width]))
            for k in range(len(values) // width)]


# few distinct values, so ties and exact target hits are common
COSTS = st.sampled_from([0.25, 0.5, 0.75, 1.0])
ACCURACIES = st.sampled_from([0.5, 0.625, 0.75, 0.875])
TARGETS = st.sampled_from([None, 0.625, 0.75, 0.875, 1.0])


@given(st.integers(1, 4), st.data(), st.booleans(), TARGETS)
@settings(max_examples=200, deadline=None)
def test_record_keeps_the_incumbent_of_the_ga_loop(width, data, maximize, target):
    n = width * data.draw(st.integers(1, 6))
    steps = _steps(data.draw(st.lists(COSTS, min_size=n, max_size=n)),
                   data.draw(st.lists(ACCURACIES, min_size=n, max_size=n)), width)
    want_theta, want_rows = ga_reference(steps, maximize, target)
    got_theta, got_rows = recorded(steps, maximize, target)
    np.testing.assert_array_equal(got_theta, want_theta)
    assert got_rows == want_rows


@given(st.lists(st.tuples(COSTS, ACCURACIES), min_size=1, max_size=8), TARGETS)
@settings(max_examples=200, deadline=None)
def test_record_keeps_the_incumbent_of_the_descent_loops(points, target):
    steps = _steps([f for f, _ in points], [a for _, a in points], 1)
    want_theta, want_rows = descent_reference(steps, target)
    got_theta, got_rows = recorded(steps, False, target, stop_from=1)
    np.testing.assert_array_equal(got_theta, want_theta)
    assert got_rows == want_rows


@pytest.mark.parametrize("maximize", [False, True])
def test_ties_and_worse_candidates_keep_the_earlier_incumbent(maximize):
    better, worse = (0.75, 0.25) if maximize else (0.25, 0.75)
    steps = _steps([worse, better, better, better, worse, worse],
                   [0.5, 0.75, 0.5, 0.5, 0.625, 0.5], 2)
    theta, rows = recorded(steps, maximize, None)
    assert theta.tolist() == [0.0, 1.0]
    # best_accuracy is the running maximum over every candidate, returned or not
    assert rows == [(0.75, better), (0.75, better), (0.75, better)]


def test_the_target_stops_a_run_at_equal_accuracy():
    ledger = MeasurementLedger()
    trace = TrainingTrace(target_accuracy=0.75, ledger=ledger)
    theta = np.zeros((1, 2))
    assert not trace.record(0, theta, [0.5], [0.625], 0)
    assert trace.record(1, theta, [0.75], [0.75], 0)
    assert trace.record(2, theta, [0.75], [0.5], 0)
    assert not TrainingTrace(ledger=ledger).record(0, theta, [0.5], [1.0], 0)


# The stop rule: TrainingTrace.start refuses a first charge the budget cannot
# pay, and record ends a run at the target, at max_steps, or when the next
# step would overrun max_estimates.

def _started(max_steps=None, max_estimates=None, target=None, held=0, first=0):
    ledger = MeasurementLedger()
    ledger.reserve(held, 10)
    limits = RunLimits(target_accuracy=target, max_estimates=max_estimates)
    return TrainingTrace.start(limits, max_steps, ledger, first, "the first step"), ledger


def test_start_refuses_a_first_charge_above_the_budget():
    with pytest.raises(BudgetError) as exc:
        _started(max_estimates=99, first=100)
    assert str(exc.value) == "max_estimates=99 is below the first step = 100 estimates"
    with pytest.raises(BudgetError) as exc:
        _started(max_estimates=120, held=30, first=100)
    assert str(exc.value) == ("max_estimates=120 is below the first step = 100 estimates "
                              "on top of 30 already charged")


def test_start_takes_a_first_charge_that_fits_exactly():
    trace, ledger = _started(max_steps=5, max_estimates=130, target=0.75, held=30, first=100)
    assert (trace.max_steps, trace.max_estimates, trace.target_accuracy) == (5, 130, 0.75)
    assert trace.ledger is ledger and len(trace) == 0
    assert _started(first=10 ** 12)[0].allows(10 ** 12)     # no budget: anything fits


def _step(trace, ledger, k, accuracy=0.5, charge=10, next_step=10):
    ledger.reserve(charge, 10)
    return trace.record(k, np.zeros((1, 2)), [0.5], [accuracy], next_step)


def test_record_ends_the_run_at_the_target():
    trace, ledger = _started(max_steps=10, target=0.75)
    assert not _step(trace, ledger, 0, accuracy=0.625)
    assert _step(trace, ledger, 1, accuracy=0.75)


def test_record_ends_the_run_at_max_steps():
    trace, ledger = _started(max_steps=2)
    assert [_step(trace, ledger, k) for k in range(3)] == [False, False, True]
    zero, ledger = _started(max_steps=0)
    assert _step(zero, ledger, 0)


def test_record_ends_the_run_when_the_next_step_overruns_the_budget():
    trace, ledger = _started(max_steps=10, max_estimates=35)
    assert not _step(trace, ledger, 0)                  # 10 held, the next 10 fit
    assert not _step(trace, ledger, 1, next_step=15)    # 20 + 15 = 35: fits exactly
    assert _step(trace, ledger, 2, charge=0, next_step=16)
    assert [r.cum_estimates for r in trace.rows] == [10, 20, 20]


def test_a_read_back_trace_has_no_ledger_and_compares_by_rows(tmp_path):
    trace, ledger = _started(max_steps=3, max_estimates=100, target=0.9)
    for k in range(3):
        _step(trace, ledger, k)
    trace.write_csv(tmp_path / "trace.csv")
    back = TrainingTrace.read_csv(tmp_path / "trace.csv")
    assert back.ledger is None and back.max_steps is None and back.max_estimates is None
    assert back.rows == trace.rows and back == trace
