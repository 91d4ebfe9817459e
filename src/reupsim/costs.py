"""Training objectives evaluated over a dataset through a backend.

Four objectives (CostKind) built on the per-point projection probability
M(theta, x_i, y_i): accuracy, cross-entropy, chi-squared and the literal
published cross-entropy, gated by the correct-classification indicator and
kept as the "as written" variant (the gated CE is minimized by
misclassifying everything).  Accuracy, the one maximized objective, differs
from the published one only by a leading minus.

Entry points: measured_values (one theta) and measured_many (P probes) return
charged estimates, through circuits.measure_batch or measure_many and one
backend sample; evaluate and evaluate_with_accuracy score one theta.
"""

from __future__ import annotations

import numpy as np

from . import circuits
from .backend import Backend
from .circuits import Choice, CircuitSpec
from .data import Dataset

LOG_EPS = 1e-12


class CostKind(Choice, noun="cost"):
    ACCURACY = "accuracy"
    CROSS_ENTROPY = "cross_entropy"
    CROSS_ENTROPY_AS_WRITTEN = "cross_entropy_as_written"
    CHI_SQUARED = "chi_squared"


def is_loss(kind: CostKind) -> bool:
    """True when lower is better; accuracy is the one maximized objective."""
    return kind is not CostKind.ACCURACY


def measured_values(spec: CircuitSpec, theta: np.ndarray, ds: Dataset,
                    backend: Backend, states: bool = False):
    """Per-point estimates of M(theta, x_i, y_i) through the backend; with
    states=True, (estimates, forward), forward what circuits.measure_batch gave."""
    m = circuits.measure_batch(spec, theta, ds.design(spec.ansatz), ds.y, states)
    return (backend.sample(m[0], ds.y), m) if states else backend.sample(m, ds.y)


def measured_many(spec: CircuitSpec, thetas: np.ndarray, ds: Dataset, backend: Backend,
                  shifts: np.ndarray | None = None) -> np.ndarray:
    """Per-point estimates for P probes over the dataset, shape (P, n).

    One kernel call and one backend sample over the flattened batch in probe
    order, so row p is bit-identical to measured_values on probe p when the
    probes are measured one after another.  `shifts`: (P, L, 2) angle deltas.
    """
    p = circuits.measure_many(spec, thetas, ds.design(spec.ansatz), ds.y, shifts)
    return backend.sample(p.ravel(), np.tile(ds.y, p.shape[0])).reshape(p.shape)


def row_accuracies(measured: np.ndarray) -> np.ndarray:
    """Fraction of points with estimated M above 0.5, per row (last axis)."""
    measured = np.asarray(measured)
    if measured.size == 0:
        raise ValueError("no measured values")
    return np.add.reduce(measured > 0.5, axis=-1) / measured.shape[-1]


def row_values(kind: CostKind, measured: np.ndarray) -> np.ndarray:
    """Objective value per row (last axis) of a batch of per-point M estimates.

    A row's value is bit-identical to the value of that row alone.  Means are
    sums over the count, which is what np.mean computes, without its wrapper.
    """
    m = np.asarray(measured, dtype=float)
    if m.size == 0:
        raise ValueError("no measured values")
    if kind is CostKind.ACCURACY:
        return row_accuracies(m)
    if kind is CostKind.CROSS_ENTROPY:
        return -(np.add.reduce(np.log(np.clip(m, LOG_EPS, 1.0)), axis=-1) / m.shape[-1])
    if kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        gated = np.where(m > 0.5, np.log(np.clip(m, LOG_EPS, 1.0)), 0.0)
        return -(np.add.reduce(gated, axis=-1) / m.shape[-1])
    if kind is CostKind.CHI_SQUARED:
        return np.add.reduce((1.0 - m) ** 2, axis=-1) / m.shape[-1]
    raise ValueError(f"unhandled cost kind {kind}")  # pragma: no cover


def evaluate(kind: CostKind, spec: CircuitSpec, theta: np.ndarray, ds: Dataset,
             backend: Backend) -> float:
    """The objective at one theta over the dataset, from one estimate batch."""
    return float(row_values(kind, measured_values(spec, theta, ds, backend)))


def evaluate_with_accuracy(kind: CostKind, spec: CircuitSpec, theta: np.ndarray,
                           ds: Dataset, backend: Backend, states: bool = False) -> tuple:
    """(objective, accuracy) computed from one shared estimate batch; with
    states=True, the forward pass for analytic_gradient comes third."""
    out = measured_values(spec, theta, ds, backend, states)
    m = out[0] if states else out
    pair = float(row_values(kind, m)), float(row_accuracies(m))
    return (*pair, out[1]) if states else pair


def cost_weights(kind: CostKind, m: np.ndarray) -> np.ndarray:
    """dCost/dM per point, for chaining per-point measurement gradients."""
    if kind is CostKind.CROSS_ENTROPY:
        return -1.0 / np.clip(m, LOG_EPS, None)
    if kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        return np.where(m > 0.5, -1.0 / np.clip(m, LOG_EPS, None), 0.0)
    if kind is CostKind.CHI_SQUARED:
        return -2.0 * (1.0 - m)
    raise ValueError(f"cost {kind.value} has no usable measurement derivative")


def analytic_gradient(kind: CostKind, spec: CircuitSpec, theta: np.ndarray,
                      ds: Dataset, forward=None) -> np.ndarray:
    """Exact objective gradient, composed from the state-evolution gradients
    (from `forward` of evaluate_with_accuracy at this theta, if given).

    Accuracy is piecewise constant, so its gradient is identically zero away
    from threshold crossings; the other objectives chain through dM/dtheta.
    """
    if kind is CostKind.ACCURACY:
        return np.zeros(spec.n_params)
    m, dm = circuits.analytic_gradient_batch(spec, theta, ds.design(spec.ansatz), ds.y, forward)
    return np.add.reduce(cost_weights(kind, m)[:, None] * dm) / len(ds)
