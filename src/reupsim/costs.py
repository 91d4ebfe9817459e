"""Training objectives evaluated over a dataset through a backend.

Four objectives (CostKind) built on the per-point projection probability
M(theta, x_i, y_i): accuracy, cross-entropy, chi-squared and the literal
published cross-entropy, gated by the correct-classification indicator and
kept as the "as written" variant (the gated CE is minimized by
misclassifying everything).  Accuracy, the one maximized objective, differs
from the published one only by a leading minus.

Every estimate is read out here, from one kernel pass and one backend sample:
measured_groups, of probe groups on labelled Designs, for every caller, and
measured_values, of one theta on a dataset; evaluate and evaluate_with_accuracy
score one theta.  cost_weights gives dCost/dM, which trainers.estimate_gradient chains.
"""

from __future__ import annotations

import enum

import numpy as np

from . import circuits
from .backend import Backend
from .circuits import CircuitSpec
from .data import Dataset

LOG_EPS = 1e-12


class CostKind(enum.Enum):
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
    m = circuits.measure_batch(spec, theta, ds.design(spec.ansatz), states)
    return (backend.sample(m[0], ds.y), m) if states else backend.sample(m, ds.y)


def measured_groups(spec: CircuitSpec, groups: list, backend: Backend,
                    charged: int | None = None) -> list[np.ndarray]:
    """Per-point estimates of probe groups (thetas, design, shifts), as
    circuits.measure_groups takes them, one (P, n) array each, from one kernel
    call and one backend sample of each design's labels in probe order that
    charges its first `charged` estimates (all when None): row p of a group is
    measured_values on probe p, bit for bit, when probes are measured in turn."""
    p = circuits.measure_groups(spec, groups)
    p_y = p[0].ravel() if len(p) == 1 else np.concatenate([m.ravel() for m in p])
    y, end = np.empty(p_y.size, dtype=int), 0
    for m, (_, design, _) in zip(p, groups):
        y[end:(end := end + m.size)].reshape(m.shape)[...] = design.y
    est, end = backend.sample(p_y, y, charged), 0
    return [est[end:(end := end + m.size)].reshape(m.shape) for m in p]


def row_accuracies(measured: np.ndarray) -> np.ndarray:
    """Fraction of points with estimated M above 0.5, per row (last axis)."""
    measured = np.asarray(measured)
    if measured.size == 0:
        raise ValueError("no measured values")
    return np.add.reduce(measured > 0.5, axis=-1) / measured.shape[-1]


def row_values(kind: CostKind, measured: np.ndarray) -> np.ndarray:
    """Objective value per row (last axis) of a batch of per-point M estimates.

    A row's value is bit-identical to the value of that row alone.  Means are
    sums over the count, which is what np.mean computes, without its wrapper;
    ndarray.clip is np.clip without its wrapper.
    """
    m = np.asarray(measured, dtype=float)
    if m.size == 0:
        raise ValueError("no measured values")
    if kind is CostKind.ACCURACY:
        return row_accuracies(m)
    if kind is CostKind.CROSS_ENTROPY:
        return -(np.add.reduce(np.log(m.clip(LOG_EPS, 1.0)), axis=-1) / m.shape[-1])
    if kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        gated = np.where(m > 0.5, np.log(m.clip(LOG_EPS, 1.0)), 0.0)
        return -(np.add.reduce(gated, axis=-1) / m.shape[-1])
    if kind is CostKind.CHI_SQUARED:
        return np.add.reduce((1.0 - m) ** 2, axis=-1) / m.shape[-1]
    raise ValueError(f"unhandled cost kind {kind}")  # pragma: no cover


def evaluate(kind: CostKind, spec: CircuitSpec, theta: np.ndarray, ds: Dataset,
             backend: Backend) -> float:
    """The objective at one theta over the dataset, from one estimate batch."""
    return float(row_values(kind, measured_values(spec, theta, ds, backend)))


def evaluate_with_accuracy(kind: CostKind, spec: CircuitSpec, theta: np.ndarray,
                           ds: Dataset, backend: Backend) -> tuple:
    """(objective, accuracy, forward) from one shared estimate batch, forward
    being the kernel pass that an analytic gradient at theta reads."""
    m, forward = measured_values(spec, theta, ds, backend, states=True)
    return float(row_values(kind, m)), float(row_accuracies(m)), forward


def cost_weights(kind: CostKind, m: np.ndarray) -> np.ndarray:
    """dCost/dM per point, for chaining per-point measurement gradients; a
    lower clip is np.maximum, as np.clip computes it."""
    if kind is CostKind.CROSS_ENTROPY:
        return -1.0 / np.maximum(m, LOG_EPS)
    if kind is CostKind.CROSS_ENTROPY_AS_WRITTEN:
        return np.where(m > 0.5, -1.0 / np.maximum(m, LOG_EPS), 0.0)
    if kind is CostKind.CHI_SQUARED:
        return -2.0 * (1.0 - m)
    raise ValueError(f"cost {kind.value} has no usable measurement derivative")

