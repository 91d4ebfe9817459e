"""Reference implementations the tests check the package against.

Nothing in the package uses these: they are the one-state gate functions and
the complex-amplitude batch kernel that the real-amplitude kernel replaced,
kept as independent oracles, the per-probe scatter that turns one-gate
shifts into the delta array the batched kernel takes, the ndtri that ran
both Cephes branches for every entry, which the one-branch ndtri replaced,
the one-pair-at-a-time readout mitigation that `mitigation.mitigate`
batched, the SGD loop whose two readouts per iteration `sgd_train` made
one, and the BFGS update as it ran on a fresh identity and np.outer.
"""

from dataclasses import dataclass

import numpy as np

from reupsim import binomial, costs
from reupsim.backend import Backend, Confusion
from reupsim.circuits import Ansatz, CircuitSpec, ansatz_design
from reupsim.data import Dataset
from reupsim.seeding import derive_seed
from reupsim.trace import TrainingTrace, backend_failures
from reupsim.trainers import (CURVATURE_TOL, GradConfig, OptimizerKind, _gradient_cost,
                              _initial_theta, estimate_gradient)


@dataclass(frozen=True)
class QubitState:
    """Normalized amplitude pair (alpha, beta) of a single qubit."""

    alpha: complex
    beta: complex

    def probabilities(self) -> tuple[float, float]:
        return abs(self.alpha) ** 2, abs(self.beta) ** 2


ZERO_STATE = QubitState(1.0 + 0.0j, 0.0 + 0.0j)


def rotation_y(state: QubitState, angle: float) -> QubitState:
    """Apply R_y(angle) = exp(-i angle Y / 2)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return QubitState(c * state.alpha - s * state.beta,
                      s * state.alpha + c * state.beta)


def rotation_z(state: QubitState, angle: float) -> QubitState:
    """Apply R_z(angle) = exp(-i angle Z / 2); outcome probabilities unchanged."""
    phase = np.exp(-0.5j * angle)
    return QubitState(phase * state.alpha, np.conj(phase) * state.beta)


def layer_args(ansatz: Ansatz, theta_layer: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Gate angles (phi_y, phi_z) of a single layer; R_y is applied first."""
    theta_layer = np.asarray(theta_layer, dtype=float)
    if theta_layer.shape != (4,):
        raise ValueError(f"layer slice must have 4 entries, got shape {theta_layer.shape}")
    cy, cz = ansatz_design(ansatz, x)
    return float(cy[0] @ theta_layer), float(cz[0] @ theta_layer)


def shift_deltas(layers: int, shifts: list) -> np.ndarray:
    """The (P, L, 2) delta array of per-probe shifts, each None or (layer,
    gate 0 = R_y or 1 = phase, delta added to that angle)."""
    deltas = np.zeros((len(shifts), layers, 2))
    for p, shift in enumerate(shifts):
        if shift is not None:
            layer, gate, delta = shift
            deltas[p, layer, gate] = delta
    return deltas


def complex_evolve(phi_y: np.ndarray, phi_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the layered circuit on |0> in complex amplitudes, every R_z
    included; returns the final (alpha, beta) of each of the n columns."""
    n = phi_y.shape[1]
    alpha = np.ones(n, dtype=complex)
    beta = np.zeros(n, dtype=complex)
    for l in range(phi_y.shape[0]):
        ay, az = phi_y[l], phi_z[l]
        c, s = np.cos(ay / 2.0), np.sin(ay / 2.0)
        alpha, beta = c * alpha - s * beta, s * alpha + c * beta
        phase = np.exp(-0.5j * az)
        alpha = alpha * phase
        beta = beta * np.conj(phase)
    return alpha, beta


_NDTRI = np.concatenate([binomial._NDTRI_CENTRE, binomial._NDTRI_TAIL], axis=1)


def two_branch_ndtri(u: np.ndarray) -> np.ndarray:
    """binomial.ndtri as it ran before it took only each uniform's branch:
    the centre and tail rational functions for every entry, then a pick."""
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if flat.size > binomial._CHUNK // 8:
        size = binomial._CHUNK // 8
        return np.concatenate([two_branch_ndtri(flat[i:i + size])
                               for i in range(0, flat.size, size)]).reshape(u.shape)
    y, w, tail = np.empty((3, flat.size))
    np.greater(flat, 1.0 - binomial._EXP_M2, out=y)
    np.abs(np.subtract(y, flat, out=y), out=y)      # 1 - u where flipped, exactly
    centre = y > binomial._EXP_M2
    np.sqrt(np.multiply(np.log(y, out=w), -2.0, out=w), out=w)
    x = np.empty((4, flat.size))
    np.multiply(np.subtract(y, 0.5, out=y), y, out=x[0])
    np.divide(1.0, w, out=x[2])
    x[1], x[3] = x[0], x[2]
    mid, ratio = binomial._horner(x, _NDTRI)
    if np.maximum.reduce(w, initial=0.0) >= 8.0:
        far = np.flatnonzero(w >= 8.0)
        ratio[far] = binomial._horner(x[2:, far], binomial._NDTRI_FAR)[0]
    mid *= y
    mid += y
    mid *= 2.5066282746310007
    np.divide(np.log(w, out=tail), w, out=tail)
    np.subtract(w, tail, out=tail)
    tail -= ratio
    np.copysign(tail, np.subtract(flat, 0.5, out=y), out=tail)
    np.copyto(tail, mid, where=centre)
    return tail.reshape(u.shape)


def mitigate_estimate(value: float, y: int, confusion: Confusion) -> float:
    """Mitigated estimate of P(outcome = y) from a single observed frequency,
    one 2x2 solve per call."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    pair = np.array([1.0 - value, value]) if y == 1 else np.array([value, 1.0 - value])
    clipped = np.clip(np.linalg.solve(np.asarray(confusion, dtype=float).T, pair), 0.0, 1.0)
    total = clipped.sum()
    if total <= 0:
        return 0.5
    return float((clipped / total)[y])


def sgd_reference(cfg: GradConfig, spec: CircuitSpec, dataset: Dataset,
                  backend: Backend) -> tuple[np.ndarray, TrainingTrace]:
    """trainers.sgd_train as it ran when each iteration made two readouts: the
    mini-batch gradient by estimate_gradient, then the full-set cost at the
    updated theta by evaluate_with_accuracy (valid settings only)."""
    n = len(dataset)
    batch = n if cfg.batch_size is None else cfg.batch_size
    trace = TrainingTrace.start(cfg, cfg.max_iterations, backend.ledger, n,
                                "iteration 0: a cost evaluation")
    theta = _initial_theta(cfg, spec)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "sgd-shuffle"))

    with backend_failures("iteration 0"):
        f, acc, _ = costs.evaluate_with_accuracy(cfg.cost, spec, theta, dataset, backend)

    order = np.arange(n)
    k, cursor = 0, n  # a cursor at the end forces a reshuffle on first use
    grad_cost = _gradient_cost(cfg.gradient, spec, batch)
    while not trace.record(k, theta[None], [f], [acc], grad_cost + n):
        k += 1
        if cursor + batch > n:
            order = shuffle_rng.permutation(n) if batch < n else order
            cursor = 0
        idx = order[cursor:cursor + batch]
        cursor += batch
        with backend_failures(f"iteration {k}"):
            g = estimate_gradient(cfg.gradient, cfg.cost, spec, theta,
                                  dataset.subset(idx), backend, step=cfg.step)
            theta = theta - cfg.learning_rate * g
            f, acc, _ = costs.evaluate_with_accuracy(cfg.cost, spec, theta, dataset, backend)

    return trace.best_theta, trace


def outer_bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray,
                      mode: OptimizerKind = OptimizerKind.BFGS_STANDARD) -> np.ndarray:
    """trainers.bfgs_update as it ran with a fresh np.eye and np.outer."""
    ys = float(y @ s)
    if ys <= CURVATURE_TOL:
        raise ValueError(f"curvature condition violated: y.s = {ys}")
    if mode is OptimizerKind.BFGS_AS_WRITTEN:
        Hy = H @ y
        return H - np.outer(Hy, Hy) / float(y @ Hy) + np.outer(s, s) / ys
    rho = 1.0 / ys
    n = s.size
    left = np.eye(n) - rho * np.outer(s, y)
    return left @ H @ left.T + rho * np.outer(s, s)
