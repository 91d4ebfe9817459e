"""The gradient estimator and gradient-based training loops.

One estimator, estimate_gradient, gets a cost gradient through a backend by
one of three probe plans:

* finite_difference: central differences on the whole cost, two probes per
  parameter (the hardware-expensive route; on a noisy backend the estimate
  inherits all the readout noise).
* parameter_shift: the base probe and a +-pi/2 pair per gate angle, chained
  to the parameters with the base probe's cost weights.
* analytic: closed-form state derivatives on an ideal backend, charged as
  the shift rule.  On a noisy backend it is the shift rule, since hardware
  cannot return a derivative without measuring, and the two protocols
  coincide for these rotations.

Every plan charges the measurement ledger with what the equivalent hardware
run would consume, so convergence-per-measurement comparisons between
optimizers are honest.  sgd_train measures a plan's probes in the readout
that scores the step before it, and combines them as estimate_gradient does.

The BFGS loop supports the textbook inverse-Hessian update and an
alternative published form (a DFP-shaped inverse update); both step along
theta <- theta - alpha * H * grad with a backtracking line search.

landscape_scan maps the best accuracy that a bounded random search reaches
around each point of one grid over the first two parameters.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import circuits, costs
from .backend import Backend, IdealBackend, SettingError
from .circuits import CircuitSpec
from .costs import CostKind
from .data import Dataset
from .seeding import derive_seed
from .trace import RunLimits, TrainingTrace, backend_failures, reject_unread

GRAD_NORM_TOL = 1e-8
CURVATURE_TOL = 1e-12


class GradMethod(enum.Enum):
    FINITE_DIFFERENCE = "finite_difference"
    PARAMETER_SHIFT = "parameter_shift"
    ANALYTIC = "analytic"


class OptimizerKind(enum.Enum):
    BFGS_STANDARD = "bfgs_standard"
    BFGS_AS_WRITTEN = "bfgs_as_written"
    GRADIENT_DESCENT = "gradient_descent"
    SGD = "sgd"


@dataclass(frozen=True)
class LineSearchSpec:
    """Backtracking search for the step length.

    armijo: halve alpha until the sufficient-decrease condition holds.
    wolfe: additionally require the strict curvature condition with `c2`, at
    the cost of one gradient evaluation per trial step.
    """

    kind: Literal["armijo", "wolfe"] = "armijo"
    c1: float = 1e-4
    c2: float = 0.9
    alpha0: float = 1.0
    max_halvings: int = 25

    def __post_init__(self):
        if self.kind not in ("armijo", "wolfe"):
            raise ValueError(f"line search kind must be armijo or wolfe, got {self.kind!r}")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if self.kind == "armijo":
            reject_unread(self, {"c2": "armijo line search"})
        elif not self.c1 < self.c2 < 1.0:
            raise ValueError(f"c2 must lie in (c1, 1), got {self.c2}")
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if self.max_halvings < 1:
            raise ValueError(f"max_halvings must be >= 1, got {self.max_halvings}")


@dataclass(frozen=True)
class GradConfig(RunLimits):
    method: OptimizerKind = OptimizerKind.BFGS_STANDARD
    gradient: GradMethod = GradMethod.ANALYTIC
    step: float = 1e-2
    learning_rate: float = 0.5
    batch_size: int | None = None
    max_iterations: int = 50
    line_search: LineSearchSpec = field(default_factory=LineSearchSpec)
    cost: CostKind = CostKind.CROSS_ENTROPY

    def __post_init__(self):
        super().__post_init__()
        if self.step <= 0:
            raise ValueError(f"finite-difference step must be positive, got {self.step}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.cost is CostKind.ACCURACY:
            raise ValueError(f"the accuracy cost needs the ga optimizer: {self.method.value} "
                             "minimizes its cost, so it would drive accuracy down")
        bfgs = self.method in (OptimizerKind.BFGS_STANDARD, OptimizerKind.BFGS_AS_WRITTEN)
        unread = dict.fromkeys(("learning_rate", "batch_size") if bfgs else ("line_search",),
                               self.method.value)
        if self.gradient is not GradMethod.FINITE_DIFFERENCE:
            unread["step"] = f"the {self.gradient.value} gradient"
        reject_unread(self, unread)


def estimate_gradient(method: GradMethod, kind: CostKind, spec: CircuitSpec,
                      theta: np.ndarray, ds: Dataset, backend: Backend,
                      step: float = 1e-2, forward=None) -> np.ndarray:
    """The cost gradient at theta by `method`: _probe_plan's groups measured,
    if any, then charged `_gradient_cost` estimates, then _combine."""
    theta = circuits.check_theta(spec, theta)
    plan = _probe_plan(method, kind, spec, theta, ds, backend, step)
    measured = costs.measured_groups(spec, plan, backend, charged=0) if plan else []
    backend.charge(_gradient_cost(method, spec, len(ds)))
    return _combine(method, kind, spec, theta, ds, step, measured, forward)


def _probe_plan(method: GradMethod, kind: CostKind, spec: CircuitSpec, theta: np.ndarray,
                ds: Dataset, backend: Backend, step: float) -> list:
    """The probe groups (thetas, design, shifts) of a gradient at theta on ds's design:
    +e_0, -e_0, +e_1, ...; none (analytic, ideal); or theta once, read by the base
    and the +-pi/2 pair of each gate angle."""
    if method is GradMethod.FINITE_DIFFERENCE:
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        probes, j = np.repeat(theta[None], 2 * theta.size, axis=0), np.arange(theta.size)
        probes[2 * j, j], probes[2 * j + 1, j] = theta + step, theta - step
        return [(probes, ds.design(spec.ansatz), None)]
    if kind is CostKind.ACCURACY:
        raise ValueError(f"the {method.value} gradient is undefined for the accuracy cost; "
                         "pick a differentiable cost")
    if method is GradMethod.ANALYTIC and not backend.is_noisy:
        return []
    return [(theta[None], ds.design(spec.ansatz), _shift_deltas(spec.layers))]


@functools.lru_cache(maxsize=8)
def _shift_deltas(layers: int) -> np.ndarray:
    """The shift rule's read-only (4L+1, L, 2) gate-angle deltas: none, then +-pi/2 on each."""
    deltas, g = np.zeros((4 * layers + 1, 2 * layers)), np.arange(2 * layers)
    deltas[2 * g + 1, g], deltas[2 * g + 2, g] = np.pi / 2.0, -np.pi / 2.0
    deltas.flags.writeable = False
    return deltas.reshape(-1, layers, 2)


def _combine(method: GradMethod, kind: CostKind, spec: CircuitSpec, theta: np.ndarray,
             ds: Dataset, step: float, measured: list, forward=None) -> np.ndarray:
    """The gradient from the estimates of _probe_plan's groups: cost differences
    over 2 step, or the mean of the cost weights of M times dM/dtheta, dM exact
    (on `forward` of evaluate_with_accuracy if given) or from probe differences."""
    if method is GradMethod.FINITE_DIFFERENCE:
        f = costs.row_values(kind, measured[0])
        return (f[0::2] - f[1::2]) / (2.0 * step)
    design = ds.design(spec.ansatz)
    if not measured:
        m, dm = circuits.analytic_gradient_batch(spec, theta, design, forward)
    else:
        m, half = measured[0][0], 0.5 * (measured[0][1::2] - measured[0][2::2])
        dm = circuits.chain_rule(spec, half.reshape(spec.layers, 2, len(ds)), design)
    return np.add.reduce(costs.cost_weights(kind, m)[:, None] * dm) / len(ds)


def bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray,
                mode: OptimizerKind = OptimizerKind.BFGS_STANDARD) -> np.ndarray:
    """One inverse-Hessian update from the displacement/gradient-change pair.

    Standard mode is the textbook rank-two BFGS inverse formula.  The
    as-written mode is the alternative published form
    H - (H y y^T H)/(y^T H y) + (s s^T)/(y^T s), which is the DFP-shaped
    inverse update.  Callers must enforce the curvature safeguard first.
    """
    ys = float(y @ s)
    if ys <= CURVATURE_TOL:
        raise ValueError(f"curvature condition violated: y.s = {ys}")
    # each rank-one term a[:, None] * b is np.outer(a, b), bit for bit, without its wrapper
    if mode is OptimizerKind.BFGS_AS_WRITTEN:
        Hy = H @ y
        return H - (Hy[:, None] * Hy) / float(y @ Hy) + (s[:, None] * s) / ys
    rho = 1.0 / ys
    left = _identity(s.size) - rho * (s[:, None] * y)
    return left @ H @ left.T + rho * (s[:, None] * s)


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """A read-only np.eye(n)."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _initial_theta(cfg: GradConfig, spec: CircuitSpec) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(cfg.seed, "grad-init"))
    return rng.uniform(cfg.init_range[0], cfg.init_range[1], spec.n_params)


def _gradient_cost(method: GradMethod, spec: CircuitSpec, n_points: int) -> int:
    """Estimates one gradient evaluation will charge to the ledger."""
    if method is GradMethod.FINITE_DIFFERENCE:
        return 2 * spec.n_params * n_points
    return (4 * spec.layers + 1) * n_points


def bfgs_train(cfg: GradConfig, spec: CircuitSpec, dataset: Dataset,
               backend: Backend) -> tuple[np.ndarray, TrainingTrace]:
    """Quasi-Newton minimization of the configured cost; returns the iterate
    with the best measured cost and the per-iteration trace.

    The trace ends the run at the target accuracy, after max_iterations, or
    when `max_estimates` cannot pay for a cost evaluation and a gradient; a
    gradient norm below 1e-8 or a failed line search also stops it.  No
    evaluation or gradient starts that would overrun the budget, and one below
    iteration 0 raises BudgetError before anything is charged.
    """
    if cfg.method not in (OptimizerKind.BFGS_STANDARD, OptimizerKind.BFGS_AS_WRITTEN):
        raise ValueError(f"bfgs_train got optimizer {cfg.method.value}")
    n = len(dataset)
    grad_cost = _gradient_cost(cfg.gradient, spec, n)
    trace = TrainingTrace.start(cfg, cfg.max_iterations, backend.ledger, n + grad_cost,
                                "iteration 0: a cost evaluation and a gradient")
    theta = _initial_theta(cfg, spec)
    dim = theta.size
    H = np.eye(dim)
    h_seeded = False

    def gradient(at: np.ndarray, forward: tuple) -> np.ndarray:
        return estimate_gradient(cfg.gradient, cfg.cost, spec, at, dataset, backend,
                                 step=cfg.step, forward=forward)

    with backend_failures("iteration 0"):
        f, acc, forward = costs.evaluate_with_accuracy(cfg.cost, spec, theta, dataset, backend)
        g = gradient(theta, forward)

    ls, k = cfg.line_search, 0
    # a step taken with no budget left for its gradient (g = None) is traced, then ends the run
    while not trace.record(k, theta[None], [f], [acc], n + grad_cost) and g is not None:
        if np.linalg.norm(g) < GRAD_NORM_TOL:
            break
        k += 1
        d = -(H @ g)
        slope = float(g @ d)
        if slope >= 0:
            # numerical breakdown of positive definiteness: restart from steepest descent
            H = np.eye(dim)
            d = -g
            slope = float(g @ d)

        alpha = ls.alpha0
        accepted = False
        with backend_failures(f"iteration {k}"):
            for _ in range(ls.max_halvings):
                trial = theta + alpha * d
                f_trial, acc_trial, forward = costs.evaluate_with_accuracy(
                    cfg.cost, spec, trial, dataset, backend)
                if f_trial <= f + ls.c1 * alpha * slope:
                    g_trial = gradient(trial, forward) if trace.allows(grad_cost) else None
                    accepted = (g_trial is None or ls.kind == "armijo"
                                or abs(float(g_trial @ d)) <= ls.c2 * abs(slope))
                    if accepted:
                        break
                alpha *= 0.5
                if not trace.allows(n):
                    break
        if not accepted:
            break

        s = trial - theta
        if g_trial is not None:
            y = g_trial - g
            ys = float(y @ s)
            if ys > CURVATURE_TOL:
                if not h_seeded:
                    # size the initial inverse Hessian from the first curvature
                    # pair so early steps are not stuck at unit scale
                    H = (ys / float(y @ y)) * np.eye(dim)
                    h_seeded = True
                H = bfgs_update(H, s, y, cfg.method)
        theta, f, acc, g = trial, f_trial, acc_trial, g_trial

    return trace.best_theta, trace


def sgd_train(cfg: GradConfig, spec: CircuitSpec, dataset: Dataset,
              backend: Backend) -> tuple[np.ndarray, TrainingTrace]:
    """Mini-batch gradient descent; full-batch when batch_size is unset or
    equals the dataset size (plain gradient descent).  A batch_size above the
    dataset size is a SettingError.

    One iteration is one parameter update.  Each measures the full-set cost
    and accuracy for the trace in one readout with the probes of the next
    mini-batch gradient at the same theta, charged once the trace takes that
    step; it ends the run as in bfgs_train, the next step being the gradient
    and a cost evaluation.
    """
    if cfg.method not in (OptimizerKind.SGD, OptimizerKind.GRADIENT_DESCENT):
        raise ValueError(f"sgd_train got optimizer {cfg.method.value}")
    n = len(dataset)
    batch = n if cfg.batch_size is None else cfg.batch_size
    if batch > n:
        raise SettingError(f"batch_size={batch} is above the {n} points: "
                           "a batch cannot be larger than the dataset")
    if cfg.method is OptimizerKind.GRADIENT_DESCENT and batch != n:
        raise SettingError(f"batch_size={cfg.batch_size} is below the {n} points: "
                           "gradient_descent is full-batch; use sgd for mini-batches")
    trace = TrainingTrace.start(cfg, cfg.max_iterations, backend.ledger, n,
                                "iteration 0: a cost evaluation")
    theta = _initial_theta(cfg, spec)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "sgd-shuffle"))
    design = dataset.design(spec.ansatz)    # built once: each mini-batch slices it
    grad_cost = _gradient_cost(cfg.gradient, spec, batch)
    order, k, cursor = np.arange(n), 0, n  # a cursor at the end forces a reshuffle on first use
    while True:
        if cursor + batch > n:
            order, cursor = shuffle_rng.permutation(n) if batch < n else order, 0
        sub, cursor = dataset.subset(order[cursor:cursor + batch]), cursor + batch
        # the cost at theta, then the next step's probes, charged if it is taken
        with backend_failures(f"iteration {k}"):
            groups = [(theta[None], design, None),
                      *_probe_plan(cfg.gradient, cfg.cost, spec, theta, sub, backend, cfg.step)]
            m, *measured = costs.measured_groups(spec, groups, backend, charged=n)
        if trace.record(k, theta[None], costs.row_values(cfg.cost, m), costs.row_accuracies(m),
                        grad_cost + n):
            return trace.best_theta, trace
        k += 1
        with backend_failures(f"iteration {k}"):
            backend.charge(grad_cost)
            g = _combine(cfg.gradient, cfg.cost, spec, theta, sub, cfg.step, measured)
            theta = theta - cfg.learning_rate * g


def landscape_scan(spec: CircuitSpec, dataset: Dataset, theta0: np.ndarray,
                   grid: np.ndarray, budget: int, radius: float, seed: int) -> np.ndarray:
    """Best-achievable-accuracy surface over a (theta_0, theta_1) grid.

    Each cell fixes the first two parameters at the grid values and reports
    the best accuracy over the unperturbed point plus `budget` random
    perturbations of the remaining parameters, each uniform in +-radius per
    coordinate, measured on the ideal backend as one probe batch per cell.
    Cell RNG streams are keyed by cell index, so the scan order cannot change
    the surface.
    """
    backend = IdealBackend()
    theta0 = circuits.check_theta(spec, np.asarray(theta0, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    surface, design = np.empty((grid.size, grid.size)), dataset.design(spec.ansatz)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            probes = np.tile(theta0, (budget + 1, 1))
            probes[:, 0], probes[:, 1] = a, b
            if budget > 0:      # one draw fills the rows in stream order
                cell_rng = np.random.default_rng(derive_seed(seed, f"landscape/{i}/{j}"))
                probes[1:, 2:] += cell_rng.uniform(-radius, radius, (budget, theta0.size - 2))
            m = costs.measured_groups(spec, [(probes, design, None)], backend)[0]
            surface[i, j] = costs.row_accuracies(m).max()
    return surface
