"""Reference implementations the tests check `reupsim.circuits` against.

Nothing in the package uses these: they are the one-state gate functions and
the complex-amplitude batch kernel that the real-amplitude kernel replaced,
kept as independent oracles, and the per-probe scatter that turns one-gate
shifts into the delta array the batched kernel takes.
"""

from dataclasses import dataclass

import numpy as np

from reupsim.circuits import Ansatz, ansatz_design


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
