"""The gradient estimator, the quasi-Newton update, and the training loops."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import outer_bfgs_update, sgd_reference

from reupsim import circuits, costs, trainers
from reupsim.backend import BudgetError, IdealBackend, NoiseModel, NoisyBackend
from reupsim.circuits import Ansatz, CircuitSpec, random_parameters
from reupsim.costs import CostKind
from reupsim.data import Dataset, generate
from reupsim.ga import GAConfig, ga_train
from reupsim.seeding import derive_seed
from reupsim.trace import TrainingError
from reupsim.trainers import (GradConfig, GradMethod, LineSearchSpec, OptimizerKind,
                              _initial_theta, bfgs_train, bfgs_update, estimate_gradient,
                              landscape_scan, sgd_train)


def _small_problem(n=20, seed=0):
    spec = CircuitSpec()
    ds = generate(n, seed=seed)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, spec.n_params)
    return spec, ds, theta


def test_gradient_estimators_agree_on_the_ideal_backend():
    spec, ds, theta = _small_problem()
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED):
        analytic = estimate_gradient(GradMethod.ANALYTIC, kind, spec, theta, ds,
                                     IdealBackend())
        shift = estimate_gradient(GradMethod.PARAMETER_SHIFT, kind, spec, theta, ds,
                                  IdealBackend())
        fd = estimate_gradient(GradMethod.FINITE_DIFFERENCE, kind, spec, theta, ds,
                               IdealBackend(), step=1e-6)
        # the shift rule is exact for these rotations, not merely approximate
        np.testing.assert_allclose(shift, analytic, atol=1e-12)
        np.testing.assert_allclose(fd, analytic, atol=1e-7)


@pytest.mark.parametrize("layers", [1, 4])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("method", list(GradMethod))
def test_gradient_estimators_charge_hardware_equivalent_estimates(method, noisy, layers):
    """Each method charges what the equivalent hardware run measures, and
    that is the count the budget checks read, trainers._gradient_cost."""
    spec, ds = CircuitSpec(layers=layers), generate(10, seed=0)
    theta = np.random.default_rng(0).uniform(-np.pi, np.pi, spec.n_params)
    be = NoisyBackend(NoiseModel(seed=3)) if noisy else IdealBackend()
    be.charge(7)
    estimate_gradient(method, CostKind.CROSS_ENTROPY, spec, theta, ds, be, step=0.1)
    per_probe = 2 * spec.n_params if method is GradMethod.FINITE_DIFFERENCE else 4 * layers + 1
    assert be.ledger.total_estimates - 7 == per_probe * 10
    assert be.ledger.total_estimates - 7 == trainers._gradient_cost(method, spec, 10)


def _fd_per_probe(kind, spec, theta, ds, backend, step):
    """Reference: one cost evaluation per finite-difference probe."""
    grad = np.empty(theta.size)
    for j in range(theta.size):
        probe = theta.copy()
        probe[j] = theta[j] + step
        f_plus = costs.evaluate(kind, spec, probe, ds, backend)
        probe[j] = theta[j] - step
        f_minus = costs.evaluate(kind, spec, probe, ds, backend)
        grad[j] = (f_plus - f_minus) / (2.0 * step)
    return grad


def _shifted_estimates(spec, theta, ds, backend, l, gate, delta):
    """One sampled evaluation with `delta` added to one gate angle of the
    single-theta layer angles, evolved by the kernel on their own."""
    angles = circuits.layer_angles(spec, theta, ds.design(spec.ansatz))
    angles[gate][l] += delta
    z = circuits._evolve(*angles)
    return backend.sample(np.where(ds.y == 1, (1 - z) / 2, (1 + z) / 2), ds.y)


def _shift_per_probe(kind, spec, theta, ds, backend):
    """Reference: the base batch, then one evaluation per shifted gate angle."""
    m = costs.measured_values(spec, theta, ds, backend)
    dm = np.empty((spec.layers, 2, len(ds)))
    for l in range(spec.layers):
        for gate in range(2):
            plus, minus = (_shifted_estimates(spec, theta, ds, backend, l, gate, sign * np.pi / 2)
                           for sign in (1.0, -1.0))
            dm[l, gate] = 0.5 * (plus - minus)
    if kind is CostKind.CROSS_ENTROPY:
        w = -1.0 / np.clip(m, costs.LOG_EPS, None)
    elif kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        w = np.where(m > 0.5, -1.0 / np.clip(m, costs.LOG_EPS, None), 0.0)
    else:
        w = -2.0 * (1.0 - m)
    cy, cz = circuits.ansatz_design(spec.ansatz, ds.x)
    grad = np.zeros(spec.n_params)
    for l in range(spec.layers):
        per_point = dm[l, 0][:, None] * cy + dm[l, 1][:, None] * cz
        grad[4 * l:4 * l + 4] = (w[:, None] * per_point).mean(axis=0)
    return grad


BATCHED_CASES = [(Ansatz.A2A, 1, CostKind.CROSS_ENTROPY, 1),
                 (Ansatz.A2B, 3, CostKind.CHI_SQUARED, 7),
                 (Ansatz.A2C, 4, CostKind.CROSS_ENTROPY_AS_WRITTEN, 12),
                 (Ansatz.A2D, 6, CostKind.CROSS_ENTROPY, 5)]


@pytest.mark.parametrize("ansatz, layers, kind, n", BATCHED_CASES)
@pytest.mark.parametrize("noisy", [False, True])
def test_batched_gradients_equal_a_per_probe_loop(ansatz, layers, kind, n, noisy):
    """One probe batch gives the per-probe gradients bit for bit and charges
    the ledger the same estimates, so the noise stream continues unchanged."""
    spec = CircuitSpec(ansatz, layers)
    ds = generate(n, seed=n)
    theta = np.random.default_rng(n).uniform(-np.pi, np.pi, spec.n_params)

    def backend():
        return NoisyBackend(NoiseModel(seed=9)) if noisy else IdealBackend()

    for method, reference, kwargs in ((GradMethod.FINITE_DIFFERENCE, _fd_per_probe,
                                       {"step": 0.05}),
                                      (GradMethod.PARAMETER_SHIFT, _shift_per_probe, {})):
        batched = partial(estimate_gradient, method)
        be_batched, be_reference = backend(), backend()
        np.testing.assert_array_equal(batched(kind, spec, theta, ds, be_batched, **kwargs),
                                      reference(kind, spec, theta, ds, be_reference, **kwargs))
        assert be_batched.ledger.snapshot() == be_reference.ledger.snapshot()
        np.testing.assert_array_equal(be_batched.sample(np.full(3, 0.5), np.ones(3, int)),
                                      be_reference.sample(np.full(3, 0.5), np.ones(3, int)))


def test_analytic_on_a_noisy_backend_samples_like_the_shift_rule():
    spec, ds, theta = _small_problem(n=12)
    a = estimate_gradient(GradMethod.ANALYTIC, CostKind.CROSS_ENTROPY, spec, theta,
                          ds, NoisyBackend(NoiseModel(seed=4)))
    b = estimate_gradient(GradMethod.PARAMETER_SHIFT, CostKind.CROSS_ENTROPY, spec,
                          theta, ds, NoisyBackend(NoiseModel(seed=4)))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("method", [GradMethod.PARAMETER_SHIFT, GradMethod.ANALYTIC])
def test_gradient_methods_reject_the_accuracy_cost(monkeypatch, method, noisy):
    """The refusal comes before anything is evaluated or charged."""
    spec, ds, theta = _small_problem(n=5)
    backend = NoisyBackend(NoiseModel(seed=2)) if noisy else IdealBackend()
    monkeypatch.setattr(circuits, "_evolve",
                        lambda *args, **kwargs: pytest.fail("a circuit was evaluated"))
    with pytest.raises(ValueError, match="accuracy"):
        estimate_gradient(method, CostKind.ACCURACY, spec, theta, ds, backend)
    assert backend.ledger.total_estimates == 0


def test_bfgs_update_satisfies_the_secant_equation():
    rng = np.random.default_rng(14)
    for mode in (OptimizerKind.BFGS_STANDARD, OptimizerKind.BFGS_AS_WRITTEN):
        H = np.eye(6)
        for _ in range(5):
            s = rng.normal(size=6)
            y = s + 0.3 * rng.normal(size=6)
            if float(y @ s) <= 0:
                continue
            H = bfgs_update(H, s, y, mode)
            np.testing.assert_allclose(H @ y, s, atol=1e-10)
    # the standard update keeps the inverse Hessian positive definite
    assert np.linalg.eigvalsh((H + H.T) / 2).min() > 0


def test_bfgs_update_is_the_outer_product_update_bit_for_bit():
    """The cached identity and the broadcast products leave every bit as
    np.eye and np.outer gave it, in both modes."""
    rng = np.random.default_rng(71)
    for case in range(1000):
        dim = (2, 4, 8, 16)[case % 4]
        a = rng.normal(size=(dim, dim))
        H = a @ a.T + np.eye(dim) * rng.uniform(0.01, 2.0)
        s, y = rng.normal(size=(2, dim)) * rng.uniform(1e-3, 10.0, size=(2, 1))
        if y @ s <= trainers.CURVATURE_TOL:
            y = -y
        for mode in (OptimizerKind.BFGS_STANDARD, OptimizerKind.BFGS_AS_WRITTEN):
            got, want = bfgs_update(H, s, y, mode), outer_bfgs_update(H, s, y, mode)
            assert got.tobytes() == want.tobytes()
    assert trainers._identity(16).flags.writeable is False


def test_bfgs_update_rejects_nonpositive_curvature():
    with pytest.raises(ValueError, match="curvature"):
        bfgs_update(np.eye(3), np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))


def test_bfgs_train_descends_on_the_ideal_backend():
    spec, ds, _ = _small_problem(n=40, seed=6)
    cfg = GradConfig(max_iterations=15, seed=6)
    theta, trace = bfgs_train(cfg, spec, ds, IdealBackend())
    losses = [r.best_loss for r in trace.rows]
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
    assert trace.rows[0].iteration == 0


def test_bfgs_train_zero_iterations_returns_the_start():
    spec, ds, _ = _small_problem(n=10, seed=7)
    cfg = GradConfig(max_iterations=0, seed=7)
    theta, trace = bfgs_train(cfg, spec, ds, IdealBackend())
    np.testing.assert_array_equal(theta, _initial_theta(cfg, spec))
    assert len(trace) == 1


@pytest.mark.parametrize("method", [OptimizerKind.BFGS_STANDARD, OptimizerKind.SGD])
def test_a_target_met_at_iteration_0_stops_there(method):
    """As the GA stops at generation 0: row 0 keeps its charges (BFGS's
    includes the iteration-0 gradient) and nothing more is measured."""
    spec, ds, _ = _small_problem(n=10, seed=7)
    cfg = GradConfig(method=method, max_iterations=5, target_accuracy=0.05, seed=7)
    train = bfgs_train if method is OptimizerKind.BFGS_STANDARD else sgd_train
    backend = IdealBackend()
    theta, trace = train(cfg, spec, ds, backend)
    assert trace.rows[0].best_accuracy >= 0.05
    np.testing.assert_array_equal(theta, _initial_theta(cfg, spec))
    assert len(trace) == 1
    first = 10 + ((4 * spec.layers + 1) * 10 if method is OptimizerKind.BFGS_STANDARD else 0)
    assert trace.final.cum_estimates == backend.ledger.total_estimates == first


def test_bfgs_train_is_deterministic_given_the_seed():
    spec, ds, _ = _small_problem(n=25, seed=8)
    cfg = GradConfig(max_iterations=6, gradient=GradMethod.FINITE_DIFFERENCE,
                     step=0.5, seed=8)
    run = lambda: bfgs_train(cfg, spec, ds, NoisyBackend(NoiseModel(seed=8)))
    theta_a, trace_a = run()
    theta_b, trace_b = run()
    np.testing.assert_array_equal(theta_a, theta_b)
    assert [r.best_loss for r in trace_a.rows] == [r.best_loss for r in trace_b.rows]


def test_bfgs_train_respects_the_estimate_budget():
    spec, ds, _ = _small_problem(n=30, seed=10)
    cfg = GradConfig(max_iterations=100, max_estimates=3000, seed=10)
    _, trace = bfgs_train(cfg, spec, ds, IdealBackend())
    assert trace.final.cum_estimates <= 3000


BUDGETED = (["ga"]
            + [(OptimizerKind.BFGS_STANDARD, search, gradient)
               for search in ("armijo", "wolfe") for gradient in GradMethod]
            + [(OptimizerKind.SGD, "armijo", gradient) for gradient in GradMethod]
            + [(OptimizerKind.GRADIENT_DESCENT, "armijo", GradMethod.ANALYTIC)])


@given(st.sampled_from(BUDGETED), st.integers(1, 3000), st.integers(0, 1500),
       st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_no_optimizer_charges_past_max_estimates(case, budget, held, points):
    """The ledger never passes max_estimates, counting what it already held;
    a budget below the first charge raises before anything is charged."""
    spec, ds = CircuitSpec(layers=1), generate(points, seed=points)
    backend = IdealBackend()
    backend.charge(held)
    if case == "ga":
        cfg = GAConfig(population_size=4, elitism_count=1, max_generations=8,
                       seed=budget, max_estimates=budget)
        train, first = ga_train, 4 * points
    else:
        method, search, gradient = case
        bfgs = method is OptimizerKind.BFGS_STANDARD
        # a small c2 makes Wolfe's curvature test fail often, each failure a gradient
        line_search = LineSearchSpec("wolfe", c2=0.1) if search == "wolfe" else LineSearchSpec()
        read = ({"line_search": line_search} if bfgs
                else {"batch_size": min(3, points) if method is OptimizerKind.SGD else None})
        cfg = GradConfig(method=method, gradient=gradient, max_iterations=8,
                         seed=budget, max_estimates=budget, **read)
        if bfgs:
            per_gradient = (8 if gradient is GradMethod.FINITE_DIFFERENCE else 5) * points
            train, first = bfgs_train, points + per_gradient
        else:
            train, first = sgd_train, points
    try:
        train(cfg, spec, ds, backend)
    except BudgetError:
        assert held + first > budget
        assert backend.ledger.total_estimates == held
        return
    assert held + first <= budget
    assert backend.ledger.total_estimates <= budget


# (line search, cap): plain Armijo; Wolfe trials whose curvature test fails after
# their gradient; a cap that cuts a long Armijo search; a cap that leaves Wolfe
# no gradient for its second trial
SPIED_SEARCHES = [(LineSearchSpec(), None), (LineSearchSpec("wolfe", c2=0.5, alpha0=4.0), None),
                  (LineSearchSpec(alpha0=1e6), 4000), (LineSearchSpec("wolfe", c2=0.1), 1600)]


@pytest.mark.parametrize("search, cap", SPIED_SEARCHES)
@pytest.mark.parametrize("kind", [CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED])
def test_ideal_analytic_bfgs_runs_one_forward_pass_per_evaluation(monkeypatch, search, cap,
                                                                   kind):
    """Each cost evaluation runs the kernel once, keeping its states, and the
    gradient at an evaluated point reuses them: no other kernel call is made.
    Every gradient the update sees equals a from-scratch analytic gradient."""
    spec, ds = CircuitSpec(), generate(40, seed=3)
    backend = IdealBackend()
    events, gradients = [], []
    real_evolve, real_sample = circuits._evolve, backend.sample
    real_estimate = trainers.estimate_gradient

    def evolve(phi_y, phi_z, states=False):
        events.append("evolve" if states else "evolve without states")
        return real_evolve(phi_y, phi_z, states)

    def sample(p_y, y):
        events.append("evaluate")
        return real_sample(p_y, y)

    def estimate(method, kind_, spec_, theta, ds_, backend_, **kwargs):
        events.append("gradient")
        gradients.append((theta.copy(), real_estimate(method, kind_, spec_, theta, ds_,
                                                      backend_, **kwargs)))
        return gradients[-1][1]

    monkeypatch.setattr(circuits, "_evolve", evolve)
    monkeypatch.setattr(backend, "sample", sample)
    monkeypatch.setattr(trainers, "estimate_gradient", estimate)
    cfg = GradConfig(cost=kind, max_iterations=12, seed=3, line_search=search,
                     max_estimates=cap)
    bfgs_train(cfg, spec, ds, backend)
    monkeypatch.undo()
    evaluations = [e for e in events if e != "gradient"]
    assert evaluations == ["evolve", "evaluate"] * (len(evaluations) // 2)
    assert events[:3] == ["evolve", "evaluate", "gradient"]
    for theta, grad in gradients:
        fresh = estimate_gradient(GradMethod.ANALYTIC, kind, spec, theta, ds, IdealBackend())
        assert grad.tobytes() == fresh.tobytes()
    if cap is not None:
        assert backend.ledger.total_estimates <= cap
        # the cap ended the op on a line-search trial with no gradient
        assert events[-2:] == ["evolve", "evaluate"]


def test_bfgs_train_rejects_wrong_optimizer_kind():
    spec, ds, _ = _small_problem(n=5)
    with pytest.raises(ValueError, match="bfgs_train got"):
        bfgs_train(GradConfig(method=OptimizerKind.SGD), spec, ds, IdealBackend())


def test_gradient_descent_requires_the_full_batch():
    spec, ds, _ = _small_problem(n=10)
    cfg = GradConfig(method=OptimizerKind.GRADIENT_DESCENT, batch_size=5)
    with pytest.raises(ValueError, match="full-batch"):
        sgd_train(cfg, spec, ds, IdealBackend())


def test_sgd_train_descends_and_traces():
    spec, ds, _ = _small_problem(n=30, seed=11)
    cfg = GradConfig(method=OptimizerKind.SGD, batch_size=10, learning_rate=0.2,
                     max_iterations=12, seed=11)
    _, trace = sgd_train(cfg, spec, ds, IdealBackend())
    assert len(trace) == 13
    assert trace.final.best_loss <= trace.rows[0].best_loss


def test_sgd_shuffling_is_seeded():
    spec, ds, _ = _small_problem(n=24, seed=12)
    cfg = GradConfig(method=OptimizerKind.SGD, batch_size=8, max_iterations=9,
                     seed=12)
    _, a = sgd_train(cfg, spec, ds, IdealBackend())
    _, b = sgd_train(cfg, spec, ds, IdealBackend())
    assert [r.best_loss for r in a.rows] == [r.best_loss for r in b.rows]


def _descent_run(train, cfg, noisy, n=12):
    """(best theta bytes, trace rows as CSV text, ledger) of one (S)GD run."""
    spec, ds = CircuitSpec(layers=2), generate(n, seed=8)
    backend = NoisyBackend(NoiseModel(seed=8)) if noisy else IdealBackend()
    theta, trace = train(cfg, spec, ds, backend)
    return theta.tobytes(), [r.as_csv() for r in trace.rows], backend.ledger.snapshot()


DESCENT_CASES = [(gradient, noisy, batch) for gradient in GradMethod
                 for noisy in (False, True) for batch in (1, 7, None)]


@pytest.mark.parametrize("stop", ["steps", "target", "budget", "zero steps"])
@pytest.mark.parametrize("gradient, noisy, batch", DESCENT_CASES)
def test_sgd_train_equals_the_loop_that_read_out_twice_a_step(gradient, noisy, batch, stop):
    """One readout a step (the cost, then the next gradient's probes, charged
    only when the step is taken) gives the rows, the best theta and the ledger
    of a gradient estimate and a cost evaluation a step, bit for bit, up to
    each way a run ends.  batch None is full-batch gradient descent."""
    n = 12
    method = OptimizerKind.GRADIENT_DESCENT if batch is None else OptimizerKind.SGD
    cfg = GradConfig(method=method, gradient=gradient, batch_size=batch, max_iterations=6,
                     seed=8, **({"step": 0.3} if gradient is GradMethod.FINITE_DIFFERENCE
                                else {}))
    per_step = trainers._gradient_cost(gradient, CircuitSpec(layers=2), batch or n) + n
    if stop == "target":
        # the best accuracy of the first step from 2 on that raises it: the run stops there
        accuracies = [float(row[1]) for row in _descent_run(sgd_reference, cfg, noisy, n)[1]]
        raised = [a for k, a in enumerate(accuracies) if k >= 2 and a > accuracies[k - 1]]
        cfg = replace(cfg, target_accuracy=raised[0])
    elif stop == "budget":
        cfg = replace(cfg, max_estimates=n + 2 * per_step + per_step // 2)
    elif stop == "zero steps":
        cfg = replace(cfg, max_iterations=0)
    want = _descent_run(sgd_reference, cfg, noisy, n)
    got = _descent_run(sgd_train, cfg, noisy, n)
    assert got == want
    steps = len(want[1]) - 1
    assert steps == {"steps": 6, "budget": 2, "zero steps": 0}.get(stop, steps)
    assert stop != "target" or 2 <= steps < 6
    assert want[2][0] == n + steps * per_step


@pytest.mark.parametrize("gradient", list(GradMethod))
def test_noisy_sgd_runs_one_kernel_pass_and_one_readout_a_step(monkeypatch, gradient):
    """A noisy SGD run of k iterations makes k + 1 kernel passes and k + 1
    backend samples: each measures the cost at theta and the next gradient."""
    spec, ds, _ = _small_problem(n=20, seed=6)
    backend = NoisyBackend(NoiseModel(seed=6))
    calls = {"evolve": 0, "sample": 0}
    real_evolve, real_sample = circuits._evolve, backend.sample

    def evolve(*args, **kwargs):
        calls["evolve"] += 1
        return real_evolve(*args, **kwargs)

    def sample(*args):
        calls["sample"] += 1
        return real_sample(*args)

    monkeypatch.setattr(circuits, "_evolve", evolve)
    monkeypatch.setattr(backend, "sample", sample)
    cfg = GradConfig(method=OptimizerKind.SGD, gradient=gradient, batch_size=5,
                     max_iterations=7, seed=6)
    _, trace = sgd_train(cfg, spec, ds, backend)
    assert trace.final.iteration == 7
    assert calls == {"evolve": 8, "sample": 8}


def test_line_search_spec_validation():
    with pytest.raises(ValueError, match="armijo or wolfe"):
        LineSearchSpec(kind="exact")
    with pytest.raises(ValueError, match="c1"):
        LineSearchSpec(c1=0.0)
    with pytest.raises(ValueError, match="c2"):
        LineSearchSpec(kind="wolfe", c1=0.5, c2=0.4)
    with pytest.raises(ValueError, match="alpha0"):
        LineSearchSpec(alpha0=0.0)


def test_an_armijo_search_reads_no_c2():
    """c2 is Wolfe's curvature constant: Armijo rejects it away from its
    default and does not check it against c1."""
    with pytest.raises(ValueError, match="^c2 is not read by armijo line search"):
        LineSearchSpec(kind="armijo", c2=0.5)
    assert LineSearchSpec(kind="armijo", c1=0.95).c1 == 0.95
    with pytest.raises(ValueError, match=r"c2 must lie in \(c1, 1\), got 0.9"):
        LineSearchSpec(kind="wolfe", c1=0.95)
    assert LineSearchSpec(kind="wolfe", c2=0.5).c2 == 0.5


def test_grad_config_validation():
    with pytest.raises(ValueError, match="step"):
        GradConfig(step=0.0)
    with pytest.raises(ValueError, match="learning_rate"):
        GradConfig(learning_rate=-1.0)
    with pytest.raises(ValueError, match="batch_size"):
        GradConfig(batch_size=0)


def test_training_wraps_backend_failures():
    class ExplodingBackend(IdealBackend):
        def sample(self, p_y, y, charged=None):
            raise RuntimeError("laser unlocked")

    spec, ds, _ = _small_problem(n=5)
    with pytest.raises(TrainingError, match="iteration 0"):
        bfgs_train(GradConfig(max_iterations=2), spec, ds, ExplodingBackend())
    with pytest.raises(TrainingError, match="iteration 0"):
        sgd_train(GradConfig(method=OptimizerKind.SGD, max_iterations=2), spec, ds,
                  ExplodingBackend())


def test_landscape_scan_cells_do_not_depend_on_the_grid():
    spec, ds, theta0 = _small_problem(n=15, seed=13)
    grid = np.array([-1.0, 0.5])
    surface = landscape_scan(spec, ds, theta0, grid, budget=3, radius=0.4, seed=13)
    assert surface.shape == (2, 2)
    # rescanning a single cell reproduces its value: streams are keyed by cell
    single = landscape_scan(spec, ds, theta0, grid[:1], budget=3, radius=0.4, seed=13)
    assert single[0, 0] == surface[0, 0]
    with pytest.raises(ValueError, match="nonempty"):
        landscape_scan(spec, ds, theta0, np.array([]), budget=3, radius=0.4, seed=13)


def test_landscape_has_structure_and_stays_in_range():
    spec = CircuitSpec(Ansatz.A2C, 4)
    ds = generate(100, seed=derive_seed(3, "analyze/landscape/data"))
    rng = np.random.default_rng(derive_seed(3, "analyze/landscape/theta"))
    theta0 = random_parameters(spec, rng)
    grid = np.linspace(-np.pi, np.pi, 21)
    surface = landscape_scan(spec, ds, theta0, grid, budget=0, radius=0.5, seed=0)
    assert surface.min() >= 0.0 and surface.max() <= 1.0
    # the accuracy surface over two parameters is far from flat
    assert np.ptp(surface) > 0.2


def _landscape_per_probe(spec, dataset, theta0, grid, budget, radius, seed):
    """Reference: one accuracy evaluation per cell probe."""
    backend = IdealBackend()
    surface = np.empty((grid.size, grid.size))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            theta = theta0.copy()
            theta[0], theta[1] = a, b
            best = costs.evaluate(CostKind.ACCURACY, spec, theta, dataset, backend)
            cell_rng = np.random.default_rng(derive_seed(seed, f"landscape/{i}/{j}"))
            for _ in range(budget):
                probe = theta.copy()
                probe[2:] += cell_rng.uniform(-radius, radius, theta.size - 2)
                best = max(best, costs.evaluate(CostKind.ACCURACY, spec, probe, dataset,
                                                backend))
            surface[i, j] = best
    return surface


def _scan_against_the_loop(budget, radius):
    spec, ds, theta0 = _small_problem(n=11, seed=17)
    grid = np.array([-2.0, -0.4, 0.1, 1.3, 2.5])
    batched, reference = (scan(spec, ds, theta0, grid, budget, radius, seed=17)
                          for scan in (landscape_scan, _landscape_per_probe))
    np.testing.assert_array_equal(batched, reference)


@pytest.mark.parametrize("budget", [0, 4])
def test_landscape_scan_equals_a_per_probe_loop(budget):
    _scan_against_the_loop(budget, radius=0.6)


def test_landscape_scan_with_repeated_probes_equals_a_per_probe_loop():
    """A zero radius makes every probe of a cell a copy of its first."""
    _scan_against_the_loop(budget=3, radius=0.0)


def test_a_subset_builds_its_own_design():
    """A subset taken after its dataset built a design gets a design of its own
    points: its analytic and shift-rule gradients are those of a dataset built
    from the same points, bit for bit."""
    spec, ds, theta = _small_problem(n=30, seed=4)
    assert len(ds.design(spec.ansatz)) == 30
    idx = np.array([3, 17, 0, 29, 3, 11])
    sub, fresh = ds.subset(idx), Dataset(ds.x[idx], ds.y[idx], ds.boundary)
    assert len(sub.design(spec.ansatz)) == len(idx)
    for kind in (CostKind.CROSS_ENTROPY, CostKind.CHI_SQUARED):
        got, want = (estimate_gradient(GradMethod.ANALYTIC, kind, spec, theta, d,
                                       IdealBackend())
                     for d in (sub, fresh))
        assert got.tobytes() == want.tobytes()
        got, want = (estimate_gradient(GradMethod.PARAMETER_SHIFT, kind, spec, theta, d,
                                       NoisyBackend(NoiseModel(seed=5)))
                     for d in (sub, fresh))
        assert got.tobytes() == want.tobytes()


def test_a_subset_slices_the_designs_its_dataset_holds():
    """Each design a dataset holds reaches its subsets sliced: every array is
    the fresh Design's of the subset points, bit for bit, and C-ordered (an
    F-ordered chain rule moves the gradient mean's bytes); the subset's dict
    is its own, and an empty one is still an error.  A subset of a dataset
    holding no design builds its own."""
    ds = generate(30, seed=4)
    idx = np.array([3, 17, 0, 29, 3, 11])
    for ansatz in (Ansatz.A2A, Ansatz.A2D):
        ds.design(ansatz)
    sub = ds.subset(idx)
    assert sub._designs is not ds._designs and set(sub._designs) == set(ds._designs)
    for ansatz, design in sub._designs.items():
        fresh = circuits.Design(ansatz, ds.x[idx], ds.y[idx])
        for name in ("rows", "cols", "y", "sign"):
            got, want = getattr(design, name), getattr(fresh, name)
            assert got.flags.c_contiguous
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                             want.tobytes())
    with pytest.raises(ValueError, match="dataset is empty"):
        ds.subset(idx[:0]).design(Ansatz.A2A)
    bare = generate(30, seed=4).subset(idx)
    assert bare._designs == {}
    assert bare.design(Ansatz.A2B).rows.tobytes() == circuits.Design(
        Ansatz.A2B, ds.x[idx], ds.y[idx]).rows.tobytes()


def test_noisy_shift_rule_sgd_builds_one_design_for_the_full_dataset(monkeypatch):
    built = []

    def spy(ansatz, x):
        built.append(len(x))
        return design(ansatz, x)

    design = circuits.ansatz_design
    monkeypatch.setattr(circuits, "ansatz_design", spy)
    spec, ds, _ = _small_problem(n=20, seed=6)
    cfg = GradConfig(method=OptimizerKind.SGD, gradient=GradMethod.PARAMETER_SHIFT,
                     batch_size=5, max_iterations=3, seed=6)
    _, trace = sgd_train(cfg, spec, ds, NoisyBackend(NoiseModel(seed=6)))
    assert len(trace) == 4
    assert built == [20]
