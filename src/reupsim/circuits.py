"""Exact single-qubit state evolution for data re-uploading circuits.

A circuit is L layers applied to |0>, each layer an R_y rotation followed by
an R_z rotation.  The two angles of layer l are linear combinations of a
4-entry parameter slice theta[4l:4l+4] and the 2D data point x, with the
combination fixed by the chosen ansatz kernel (2A-2D).  Everything here is a
pure function: states in, states out, no global state.

Gate convention: R_y(phi) = exp(-i phi Y / 2), R_z(phi) = exp(-i phi Z / 2).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class Choice(enum.Enum):
    """An enum of named choices that parse() matches case-insensitively.

    A subclass names what it chooses, for the error message:
    `class Ansatz(Choice, noun="ansatz")`.
    """

    def __init_subclass__(cls, noun: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._noun = noun

    @classmethod
    def parse(cls, name: str):
        for member in cls:
            if member.value.lower() == str(name).lower():
                return member
        options = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown {cls._noun} {name!r}; expected one of {options}")


class Ansatz(Choice, noun="ansatz"):
    """The four linear kernels mapping (theta slice, x) to gate angles."""

    A2A = "2A"
    A2B = "2B"
    A2C = "2C"
    A2D = "2D"


@dataclass(frozen=True)
class QubitState:
    """Normalized amplitude pair (alpha, beta) of a single qubit."""

    alpha: complex
    beta: complex

    def probabilities(self) -> tuple[float, float]:
        return abs(self.alpha) ** 2, abs(self.beta) ** 2


ZERO_STATE = QubitState(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class CircuitSpec:
    """Ansatz kind plus layer count; parameter vectors have length 4*layers."""

    ansatz: Ansatz = Ansatz.A2C
    layers: int = 4

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layer count must be >= 1, got {self.layers}")

    @property
    def n_params(self) -> int:
        return 4 * self.layers


def check_theta(spec: CircuitSpec, theta: np.ndarray) -> np.ndarray:
    """Validate and return theta as a float array of length 4*layers."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected ({spec.n_params},) "
            f"for {spec.layers} layers"
        )
    return theta


def random_parameters(spec: CircuitSpec, rng: np.random.Generator,
                      low: float = -2 * np.pi, high: float = 2 * np.pi) -> np.ndarray:
    """Uniform random parameter vector in [low, high)."""
    return rng.uniform(low, high, size=spec.n_params)


def rotation_y(state: QubitState, angle: float) -> QubitState:
    """Apply R_y(angle) = exp(-i angle Y / 2)."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return QubitState(c * state.alpha - s * state.beta,
                      s * state.alpha + c * state.beta)


def rotation_z(state: QubitState, angle: float) -> QubitState:
    """Apply R_z(angle) = exp(-i angle Z / 2); outcome probabilities unchanged."""
    phase = np.exp(-0.5j * angle)
    return QubitState(phase * state.alpha, np.conj(phase) * state.beta)


def ansatz_design(ansatz: Ansatz, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point design rows for the two gate angles of one layer.

    Returns (cy, cz), each of shape (n, 4), such that for layer slice
    t = theta[4l:4l+4] the angles are phi_y = cy @ t and phi_z = cz @ t.
    The rows are also the exact derivatives d(angle)/d(theta_j).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    x0, x1 = x[:, 0], x[:, 1]
    cy, cz = np.zeros((n, 4)), np.zeros((n, 4))
    if ansatz is Ansatz.A2A:
        cy[:, 0], cy[:, 1], cy[:, 2] = x0, x1, 1.0
        cz[:, 3] = 1.0
    elif ansatz is Ansatz.A2B:
        cy[:, 0], cy[:, 1] = x0, 1.0
        cz[:, 2], cz[:, 3] = x1, 1.0
    elif ansatz is Ansatz.A2C:
        cy[:, 0], cy[:, 1] = x0, x1
        cz[:, 2], cz[:, 3] = x0, x1
    elif ansatz is Ansatz.A2D:
        cy[:, 0] = 1.0
        cz[:, 1], cz[:, 2], cz[:, 3] = x0, x1, 1.0
    else:  # pragma: no cover
        raise ValueError(f"unhandled ansatz {ansatz}")
    return cy, cz


def layer_args(ansatz: Ansatz, theta_layer: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Gate angles (phi_y, phi_z) of a single layer; R_y is applied first."""
    theta_layer = np.asarray(theta_layer, dtype=float)
    if theta_layer.shape != (4,):
        raise ValueError(f"layer slice must have 4 entries, got shape {theta_layer.shape}")
    cy, cz = ansatz_design(ansatz, x)
    return float(cy[0] @ theta_layer), float(cz[0] @ theta_layer)


def layer_angles(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All layer angles for a batch of points: two (L, n) arrays."""
    theta = check_theta(spec, theta)
    cy, cz = ansatz_design(spec.ansatz, x)
    slices = theta.reshape(spec.layers, 4)
    return slices @ cy.T, slices @ cz.T


def _evolve(phi_y: np.ndarray, phi_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the layered circuit on |0> for a batch; returns final (alpha, beta)."""
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


def _probe_amplitudes(spec: CircuitSpec, thetas: np.ndarray, x: np.ndarray,
                      shifts: Sequence[tuple[int, int, float] | None] | None = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Final (alpha, beta) of P probes in one kernel pass, each of shape (P, n).

    `x` is either (n, 2), one point set shared by every probe, or (P, n, 2),
    one point set per probe.  The angles come from one stacked
    `(P, L, 4) @ (4, n)` product written straight into the kernel's
    `(L, P*n)` layout; numpy runs it as one gemm per probe, so a probe comes
    out bit-identical to a single-theta evaluation (one `(P*L, 4)` gemm or
    an einsum would not).  `shifts`, if given, holds one entry per probe:
    None or (layer, gate, delta) with gate 0 = R_y, 1 = R_z; delta is added
    to that single gate angle (parameter-shift evaluations).  On a shared
    point set, probes with equal parameter bytes and equal shifts are
    evolved once and copied.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != spec.n_params:
        raise ValueError(f"parameter vectors have shape {thetas.shape}, expected "
                         f"(P, {spec.n_params}) for {spec.layers} layers")
    n_probes = thetas.shape[0]
    x = np.asarray(x, dtype=float)
    per_probe = x.ndim == 3
    if per_probe and x.shape[0] != n_probes:
        raise ValueError(f"got {x.shape[0]} point sets for {n_probes} probes")
    if shifts is not None and len(shifts) != n_probes:
        raise ValueError(f"got {len(shifts)} shifts for {n_probes} probes")
    if not per_probe and n_probes > 1:
        # keyed on bytes: -0.0 and 0.0 stay apart, equal NaN rows still merge
        keys = [row.tobytes() + repr(s).encode()
                for row, s in zip(thetas, shifts or [None] * n_probes)]
        _, first, inverse = np.unique(np.array(keys, dtype=object), return_index=True,
                                      return_inverse=True)
        if first.size < n_probes:
            alpha, beta = _probe_amplitudes(spec, thetas[first], x, None if shifts is None
                                            else [shifts[p] for p in first])
            return alpha[inverse], beta[inverse]
    cy, cz = ansatz_design(spec.ansatz, x.reshape(-1, 2))
    if per_probe:
        cy, cz = cy.reshape(n_probes, -1, 4), cz.reshape(n_probes, -1, 4)
    slices = thetas.reshape(n_probes, spec.layers, 4)
    n = cy.shape[-2]
    phi_y = np.empty((spec.layers, n_probes, n))
    phi_z = np.empty((spec.layers, n_probes, n))
    np.matmul(slices, np.swapaxes(cy, -1, -2), out=phi_y.transpose(1, 0, 2))
    np.matmul(slices, np.swapaxes(cz, -1, -2), out=phi_z.transpose(1, 0, 2))
    for p, shift in enumerate(shifts or ()):
        if shift is not None:
            layer, gate, delta = shift
            if not 0 <= layer < spec.layers or gate not in (0, 1):
                raise ValueError(f"shift {shift} names no gate of a "
                                 f"{spec.layers}-layer circuit")
            (phi_z if gate else phi_y)[layer, p] += delta
    alpha, beta = _evolve(phi_y.reshape(spec.layers, -1), phi_z.reshape(spec.layers, -1))
    return alpha.reshape(n_probes, n), beta.reshape(n_probes, n)


def evaluate_batch(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                   shift: tuple[int, int, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact outcome probabilities (p0, p1) for each point in the batch."""
    theta = check_theta(spec, theta)
    alpha, beta = _probe_amplitudes(spec, theta[None], x, [shift])
    return np.abs(alpha[0]) ** 2, np.abs(beta[0]) ** 2


def evaluate_circuit(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (p0, p1) for a single point."""
    p0, p1 = evaluate_batch(spec, theta, x)
    return float(p0[0]), float(p1[0])


def measure_many(spec: CircuitSpec, thetas: np.ndarray, x: np.ndarray, y: np.ndarray,
                 shifts: Sequence[tuple[int, int, float] | None] | None = None,
                 ) -> np.ndarray:
    """Projection probabilities onto |y_i> for P probes at once, shape (P, n).

    Row p is what measure_batch returns for thetas[p] and shifts[p], bit for
    bit.  `x` and `y` are either shared by every probe, shapes (n, 2) and
    (n,), or given per probe, shapes (P, n, 2) and (P, n).
    """
    y = np.asarray(y)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    alpha, beta = _probe_amplitudes(spec, thetas, x, shifts)
    return np.abs(np.where(y == 1, beta, alpha)) ** 2


def measure_batch(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                  y: np.ndarray, shift: tuple[int, int, float] | None = None) -> np.ndarray:
    """Projection probability onto each point's label state |y_i>."""
    theta = check_theta(spec, theta)
    return measure_many(spec, theta[None], x, y, [shift])[0]


def measure_label(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray, y: int) -> float:
    """M(theta, x, y): probability of projecting the final state onto |y>."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    return float(measure_batch(spec, theta, x, np.array([y]))[0])


def classify_batch(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Predicted labels: 1 where p1 > 0.5, else 0 (ties go to 0)."""
    _, p1 = evaluate_batch(spec, theta, x)
    return (p1 > 0.5).astype(int)


def classify(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> int:
    return int(classify_batch(spec, theta, x)[0])


def gate_angle_gradients(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """dM/d(gate angle) for all 2L gate angles, shape (L, 2, n).

    Forward pass stores the state after every gate; the backward pass
    accumulates the row vector <y| G_2L ... G_{g+1}.  With P the Pauli axis
    of gate g, d(amp)/d(phi_g) = row_g . (-i P / 2) psi_g and
    dM/dphi_g = 2 Re(conj(amp) d(amp)).
    """
    phi_y, phi_z = layer_angles(spec, theta, x)
    L, n = phi_y.shape
    y = np.asarray(y)

    # Forward: states after each of the 2L gates (order: y gate then z gate).
    alphas = np.empty((2 * L + 1, n), dtype=complex)
    betas = np.empty((2 * L + 1, n), dtype=complex)
    alphas[0], betas[0] = 1.0, 0.0
    for l in range(L):
        c, s = np.cos(phi_y[l] / 2.0), np.sin(phi_y[l] / 2.0)
        a, b = alphas[2 * l], betas[2 * l]
        alphas[2 * l + 1] = c * a - s * b
        betas[2 * l + 1] = s * a + c * b
        phase = np.exp(-0.5j * phi_z[l])
        alphas[2 * l + 2] = alphas[2 * l + 1] * phase
        betas[2 * l + 2] = betas[2 * l + 1] * np.conj(phase)

    # amp = <y|psi_final> per point.
    amp = np.where(y == 1, betas[2 * L], alphas[2 * L])

    # Backward: row = <y| (product of gates after gate g), components (ra, rb).
    ra = np.where(y == 1, 0.0 + 0.0j, 1.0 + 0.0j)
    rb = np.where(y == 1, 1.0 + 0.0j, 0.0 + 0.0j)
    grads = np.empty((L, 2, n))
    for l in range(L - 1, -1, -1):
        # Undo the z gate: row <- row @ R_z(phi_z[l]).
        phase = np.exp(-0.5j * phi_z[l])
        ra_z, rb_z = ra * phase, rb * np.conj(phase)
        # (-i Z / 2) psi = (-i a / 2, +i b / 2) with psi the post-R_z state;
        # the row here excludes the z gate, which commutes with its generator.
        psi_a, psi_b = alphas[2 * l + 2], betas[2 * l + 2]
        damp = ra * (-0.5j * psi_a) + rb * (0.5j * psi_b)
        grads[l, 1] = 2.0 * np.real(np.conj(amp) * damp)
        ra, rb = ra_z, rb_z

        # (-i Y / 2) psi = (-b/2, a/2) with psi the post-R_y state.
        psi_a, psi_b = alphas[2 * l + 1], betas[2 * l + 1]
        damp = ra * (-0.5 * psi_b) + rb * (0.5 * psi_a)
        grads[l, 0] = 2.0 * np.real(np.conj(amp) * damp)
        # Undo the y gate: row <- row @ R_y(phi_y[l]).
        c, s = np.cos(phi_y[l] / 2.0), np.sin(phi_y[l] / 2.0)
        ra, rb = c * ra + s * rb, -s * ra + c * rb
    return grads


def chain_rule(spec: CircuitSpec, angle_grads: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-point derivatives by theta_j, shape (n, 4L), from derivatives by
    the 2L gate angles, shape (L, 2, n).

    Each theta_j enters the two gate angles of its layer linearly, so the
    chain rule contracts gate-angle derivatives with the ansatz design rows.
    """
    cy, cz = ansatz_design(spec.ansatz, x)           # (n, 4) each
    out = np.empty((cy.shape[0], spec.n_params))
    for l in range(spec.layers):
        out[:, 4 * l:4 * l + 4] = (angle_grads[l, 0][:, None] * cy
                                   + angle_grads[l, 1][:, None] * cz)
    return out


def analytic_gradient_batch(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray,
                            y: np.ndarray) -> np.ndarray:
    """Exact dM/dtheta_j per point, shape (n, 4L)."""
    return chain_rule(spec, gate_angle_gradients(spec, theta, x, y), x)


def analytic_gradient(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray, y: int) -> np.ndarray:
    """Exact gradient of measure_label with respect to every parameter."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    return analytic_gradient_batch(spec, theta, x, np.array([y]))[0]
