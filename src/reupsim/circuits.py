"""Exact single-qubit state evolution for data re-uploading circuits.

A circuit is L layers applied to |0>, each layer an R_y rotation followed by
an R_z rotation.  The two angles of layer l are linear combinations of a
4-entry parameter slice theta[4l:4l+4] and the 2D data point x, with the
combination fixed by the chosen ansatz kernel (2A-2D).  Everything here is a
pure function: states in, states out, no global state.

Gate convention: R_y(phi) = exp(-i phi Y / 2), R_z(phi) = exp(-i phi Z / 2).

The kernel evolves real amplitudes (Re a, Im a, Re b, Im b) of a|0> + b|1>.
R_y rotates the pair (a, b) by half its angle.  R_z is applied as the
relative phase diag(1, e^{i phi}), which is R_z times the global phase
e^{i phi / 2} that no population sees: it rotates (Re b, Im b) by phi.  The
last layer's R_z is skipped, because a phase cannot change a population.
"""

from __future__ import annotations

import enum
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


def random_parameters(spec: CircuitSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform random parameter vector in [-2 pi, 2 pi)."""
    return rng.uniform(-2 * np.pi, 2 * np.pi, size=spec.n_params)


# each ansatz's cy and cz, as columns picked from (x0, x1, 1, 0)
_DESIGN_COLUMNS = {Ansatz.A2A: ((0, 1, 2, 3), (3, 3, 3, 2)),     # t0 x0 + t1 x1 + t2; t3
                   Ansatz.A2B: ((0, 2, 3, 3), (3, 3, 1, 2)),     # t0 x0 + t1; t2 x1 + t3
                   Ansatz.A2C: ((0, 1, 3, 3), (3, 3, 0, 1)),     # t0 x0 + t1 x1; t2 x0 + t3 x1
                   Ansatz.A2D: ((2, 3, 3, 3), (3, 0, 1, 2))}     # t0; t1 x0 + t2 x1 + t3


def ansatz_design(ansatz: Ansatz, x: np.ndarray) -> np.ndarray:
    """Per-point design rows for the two gate angles of one layer: (cy, cz) as
    one C-ordered array of shape (2, n, 4), or (2, P, n, 4) for points (P, n, 2),
    such that for layer slice t = theta[4l:4l+4] the angles are phi_y = cy @ t
    and phi_z = cz @ t.  The rows are also the exact derivatives d(angle)/d(theta_j)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    basis = np.empty((4, x.size // 2))
    basis[:2], basis[2], basis[3] = x.reshape(-1, 2).T, 1.0, 0.0
    rows = basis.take(_DESIGN_COLUMNS[ansatz], axis=0).transpose(0, 2, 1)
    return np.ascontiguousarray(rows).reshape(2, *x.shape[:-1], 4)


class Design:
    """One point set under one ansatz: `rows`, its ansatz_design rows (cy, cz)
    stacked, which the angle product reads; `cols`, their C-contiguous
    transposes, which the chain rule reads; given labels y, `label` = y == 1,
    once each label is checked to be 0 or 1.  A Dataset keeps one per ansatz."""

    __slots__ = ("rows", "cols", "label")

    def __init__(self, ansatz: Ansatz, x: np.ndarray, y: np.ndarray | None = None):
        self.rows = ansatz_design(ansatz, x)
        self.cols = np.ascontiguousarray(np.swapaxes(self.rows, -1, -2))
        if y is not None:
            self.label = np.asarray(y) == 1
            if not (self.label | (np.asarray(y) == 0)).all():
                raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.rows.shape[-2]

    def take(self, idx: np.ndarray) -> "Design":
        """The Design of this one's labelled points at `idx`, by C-ordered copies."""
        sub = object.__new__(Design)
        sub.rows, sub.cols = self.rows.take(idx, axis=-2), self.cols.take(idx, axis=-1)
        sub.label = self.label[idx]
        return sub


def _design(spec: CircuitSpec, x, y: np.ndarray | None = None) -> Design:
    """x if it is a Design (for spec's ansatz), else the Design of points x and labels y."""
    return x if isinstance(x, Design) else Design(spec.ansatz, x, y)


def _angles(spec: CircuitSpec, thetas: np.ndarray, design: Design) -> np.ndarray:
    """The angles (phi_y, phi_z) of P parameter vectors, shape (2, L, P, n): a
    stacked `(P, L, 4) @ (4, n)` product into the kernel's layout, one gemm per
    probe, so a probe is bit-identical to the single-theta `slices @ cy.T`."""
    slices = thetas.reshape(len(thetas), spec.layers, 4)
    phi = np.empty((2, spec.layers, len(thetas), len(design)))
    for angles, rows in zip(phi, design.rows):
        np.matmul(slices, np.swapaxes(rows, -1, -2), out=angles.transpose(1, 0, 2))
    return phi


def layer_angles(spec: CircuitSpec, theta: np.ndarray, x) -> np.ndarray:
    """All layer angles (phi_y, phi_z) at points x or their Design, shape (2, L, n)."""
    return _angles(spec, check_theta(spec, theta)[None], _design(spec, x))[:, :, 0]


def _pair(v: np.ndarray, tmp: np.ndarray) -> tuple:
    """The views _rotate reads to turn the pair v = (v0, v1); `tmp` has v's shape."""
    return v, v[::-1], v[0], v[1], tmp, tmp[0], tmp[1]


def _rotate(pair: tuple, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate the pair v of _pair(v, tmp) in place to (c v0 - s v1, s v0 + c v1).
    R_y rotates the amplitudes (a, b) by half its angle, the phase e^{i phi}
    rotates (Re b, Im b) by phi; on v[::-1] it turns the other way, which
    moves a row vector through R_y: <w| R_y."""
    v, flipped, v0, v1, tmp, t0, t1 = pair
    np.multiply(flipped, s, out=tmp)
    v *= c
    v0 -= t0
    v1 += t1


def _evolve(phi_y: np.ndarray, phi_z: np.ndarray, states: bool = False):
    """Run the layered circuit on |0> for N columns; angles are (L, N) each.

    Returns the populations (p0, p1) as one (2, N) array.  With `states` it
    returns (populations, (psi, cos, sin)), the second for the backward pass,
    indexed by gate g: 2l is layer l's R_y and 2l + 1 its phase; psi[g] =
    ((Re a, Im a), (Re b, Im b)) after gate g.  The last R_z has no index.

    A rotation's cos and sin come from u = tan of its half angle, as
    (1 - u^2) / (1 + u^2) and 2u / (1 + u^2): where numpy vectorises float64
    tan but not cos or sin (x86 with AVX-512) that is several times cheaper.
    Every intermediate lives in one workspace; without `states` it holds the
    2L - 1 tangents and cosines, then one state and a scratch state in rows
    that first hold 1 + u^2 (at least 2L - 1 of them), then the populations.
    The gates turn psi[-1] through views made once per pass; with `states`,
    each gate's output is copied to its row before the next gate turns it,
    and the populations get an array of their own: ws[:2] holds kept sines.
    """
    gates, n = 2 * len(phi_y) - 1, phi_y.shape[1]
    n_psi = gates if states else 1
    ws = np.empty((2 * gates + max(4 * n_psi + 4, gates), n))
    sin, cos, rest = ws[:gates], ws[gates:2 * gates], ws[2 * gates:]
    psi, tmp = rest[:4 * n_psi].reshape(n_psi, 2, 2, n), rest[4 * n_psi:][:4].reshape(2, 2, n)
    np.multiply(phi_y, 0.25, out=sin[0::2])         # R_y rotates by phi_y / 2
    np.multiply(phi_z[:-1], 0.5, out=sin[1::2])     # the phase by phi_z
    np.tan(sin, out=sin)
    t = np.multiply(sin, sin, out=rest[:gates])
    np.subtract(1.0, t, out=cos)
    t += 1.0
    cos /= t
    sin /= t
    sin += sin
    state = psi[-1]                                 # R_y|0> = (cos, 0, sin, 0)
    state[0, 0], state[1, 0], state[:, 1] = cos[0], sin[0], 0.0
    pairs = _pair(state, tmp), _pair(state[1], tmp[0])      # R_y turns (a, b), the phase b
    for g in range(1, gates):
        if states:
            psi[g - 1] = state
        _rotate(pairs[g % 2], cos[g], sin[g])
    np.square(state, out=tmp)
    populations = np.add(tmp[:, 0], tmp[:, 1], out=None if states else ws[:2])
    return (populations, (psi, cos, sin)) if states else populations


def _probe_populations(spec: CircuitSpec, groups: list, states: bool = False):
    """Populations (p0, p1) of probe groups (thetas, x, shifts) in one kernel
    pass, one (2, P, n) array per group; with `states`, for one group of one
    probe, (its array, the pass _evolve kept).

    `x` is (n, 2), shared by the group's probes, or (P, n, 2), one point set
    per probe, or the Design of either.  The angles come from _angles, so a
    probe is bit-identical to a single-theta evaluation, whatever the other
    probes.  `shifts`, if given, holds (P, L, 2) deltas: [p, l, 0] is added to
    probe p's layer-l R_y angle, [p, l, 1] to its phase.  Unshifted probes of
    a group on shared points with equal parameter bytes are evolved once.
    """
    phis, picks = [], []
    for thetas, x, shifts in groups:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != spec.n_params:
            raise ValueError(f"parameter vectors have shape {thetas.shape}, expected "
                             f"(P, {spec.n_params}) for {spec.layers} layers")
        n_probes, design, pick = thetas.shape[0], _design(spec, x), None
        per_probe = design.rows.ndim == 4
        if per_probe and design.rows.shape[1] != n_probes:
            raise ValueError(f"got {design.rows.shape[1]} point sets for {n_probes} probes")
        if shifts is not None and shifts.shape != (n_probes, spec.layers, 2):
            raise ValueError(f"shifts have shape {shifts.shape}, expected "
                             f"({n_probes}, {spec.layers}, 2) for {n_probes} probes")
        if shifts is None and not per_probe and n_probes > 1:
            size, data = 8 * spec.n_params, thetas.tobytes()    # by bytes: -0.0 is not 0.0
            keys = [data[p * size:(p + 1) * size] for p in range(n_probes)]
            first = dict(zip(keys[::-1], range(n_probes - 1, -1, -1)))  # key: its first probe
            if len(first) < n_probes:
                slot = {p: i for i, p in enumerate(first.values())}
                thetas, pick = thetas[list(slot)], [slot[first[key]] for key in keys]
        phi = _angles(spec, thetas, design)
        if shifts is not None:  # a 0.0 delta that turns -0.0 to +0.0 moves no population bit
            phi += shifts.transpose(2, 1, 0)[..., None]
        phis.append(phi.reshape(2, spec.layers, -1))
        picks.append((phi.shape[2:], pick))
    out = _evolve(*(phis[0] if len(phis) == 1 else np.concatenate(phis, axis=2)), states=states)
    flat, split = out[0] if states else out, []
    for columns, (shape, pick) in zip(phis, picks):
        part, flat = flat[:, :columns.shape[2]].reshape(2, *shape), flat[:, columns.shape[2]:]
        split.append(part if pick is None else part[:, pick])
    return (split[0], out[1]) if states else split


def evaluate_circuit(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (p0, p1) for a single point."""
    p0, p1 = _probe_populations(spec, [(check_theta(spec, theta)[None], x, None)])[0][:, 0, 0]
    return float(p0), float(p1)


def measure_groups(spec: CircuitSpec, groups: list) -> list[np.ndarray]:
    """Projection probabilities onto |y_i> of probe groups (thetas, labelled
    Design, shifts), read as _probe_populations reads them, in one pass: one
    (P, n) array per group, row p bit-identical to a one-probe group's."""
    return [np.where(design.label, p1, p0) for (p0, p1), (_, design, _)
            in zip(_probe_populations(spec, groups), groups)]


def measure_batch(spec: CircuitSpec, theta: np.ndarray, x, y: np.ndarray | None,
                  states: bool = False):
    """measure_groups's row for the one probe theta at points x labelled y, or
    their Design, as an (n,) array; with states=True, (M, (psi, cos, sin)): the
    same M bit for bit, and the pass that kept every state, gate_angle_gradients's `forward`."""
    design = _design(spec, x, y)
    out = _probe_populations(spec, [(check_theta(spec, theta)[None], design, None)], states)
    m = np.where(design.label, out[0][1, 0], out[0][0, 0])
    return (m, out[1]) if states else m


def gate_angle_gradients(spec: CircuitSpec, theta: np.ndarray, x, y: np.ndarray | None,
                         forward=None) -> tuple[np.ndarray, np.ndarray]:
    """(M, dM/d(gate angle)): M per point, shape (n,), bit-identical to
    measure_batch, and the derivatives by all 2L gate angles, shape (L, 2, n).

    The forward pass (`forward`, if measure_batch kept it at this theta and
    x) keeps the state psi_g after every gate g; M is read from the last one.
    The backward pass carries the row vector w = conj(<y|psi>) <y| G_last ... G_{g+1}
    back through the same rotations, so that dM/dphi_g = 2 Re(w K_g psi_g)
    with K_g the generator of gate g: -iY/2 for R_y, which gives
    Re(w_b a - w_a b), and diag(0, i) for the phase, which gives
    -2 Im(w_b b).  The skipped last R_z changes no population: its entry is 0.
    """
    design = _design(spec, x, y)
    m, (psi, cos, sin) = forward or measure_batch(spec, theta, design, None, states=True)
    w = np.where(np.stack([design.label, ~design.label])[:, None], 0.0,
                 psi[-1] * [[1.0], [-1.0]])
    tmp = np.empty_like(w)
    grads = np.empty((spec.layers, 2, w.shape[-1]))
    (w0, w1), (t0, t1), (t00, t01) = w, tmp, tmp[0]     # views made once per pass
    phase, turn = _pair(w1, t0), _pair(w[::-1], tmp)    # <w| through a phase, through R_y
    for g in range(len(psi) - 1, -1, -1):
        (l, gate), (a, b) = divmod(g, 2), psi[g]
        if gate:
            np.multiply(w1, b[::-1], out=t0)
            np.add(t00, t01, out=grads[l, 1])
            _rotate(phase, cos[g], sin[g])
            continue
        np.multiply(w1, a, out=t0)
        np.multiply(w0, b, out=t1)
        t0 -= t1
        np.subtract(t00, t01, out=grads[l, 0])
        if g:
            _rotate(turn, cos[g], sin[g])
    grads[:-1, 1] *= -2.0
    grads[-1, 1] = 0.0
    return m, grads


def chain_rule(spec: CircuitSpec, angle_grads: np.ndarray, x) -> np.ndarray:
    """Per-point derivatives by theta_j, a C-ordered (n, 4L) array, from
    derivatives by the 2L gate angles, shape (L, 2, n), at points x or their Design.

    Each theta_j enters the two gate angles of its layer linearly, so the
    chain rule contracts gate-angle derivatives with the ansatz design rows,
    as (L, 4, n) against their contiguous transposes.  The copy is C-ordered
    because an axis-0 mean sums an F-ordered array in another order.
    """
    design = _design(spec, x)
    out = angle_grads[:, 0, None] * design.cols[0]      # (L, 4, n): layer l's 4 columns
    out += angle_grads[:, 1, None] * design.cols[1]
    return np.ascontiguousarray(out.reshape(spec.n_params, -1).T)


def analytic_gradient_batch(spec: CircuitSpec, theta: np.ndarray, x, y: np.ndarray | None,
                            forward=None) -> tuple[np.ndarray, np.ndarray]:
    """(M, exact dM/dtheta_j) per point, shapes (n,) and (n, 4L), from one
    forward pass, or from `forward` as gate_angle_gradients takes it."""
    m, angle_grads = gate_angle_gradients(spec, theta, x, y, forward)
    return m, chain_rule(spec, angle_grads, x)
