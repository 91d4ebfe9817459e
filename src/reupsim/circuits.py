"""Exact single-qubit state evolution for data re-uploading circuits.

A circuit is L layers applied to |0>, each layer an R_y rotation followed by
an R_z rotation.  The two angles of layer l are linear combinations of a
4-entry parameter slice theta[4l:4l+4] and the 2D data point x, with the
combination fixed by the chosen ansatz kernel (2A-2D).  Everything here is a
pure function: states in, states out, no global state.

Gate convention: R_y(phi) = exp(-i phi Y / 2), R_z(phi) = exp(-i phi Z / 2).

The kernel evolves the Bloch vector (z, x, y) of the pure state, from
R_y|0> = (cos phi, sin phi, 0).  R_y turns the pair (z, x) by its full angle
and R_z turns (x, y) by its angle, so a gate turns two reals.  The last
layer's R_z is skipped, because it cannot change z, and the last R_y computes
z alone.  The populations are (1 + z) / 2 and (1 - z) / 2, and the projection
onto |y> is 1/2 + sign z with sign = +1/2 for y = 0 and -1/2 for y = 1.
"""

from __future__ import annotations

import ctypes
import enum
import math
from dataclasses import dataclass

import numpy as np


class Ansatz(enum.Enum):
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


def aligned_empty(shape: tuple) -> np.ndarray:
    """np.empty(shape) whose first byte sits on a 64-byte (cache-line) boundary,
    wherever malloc puts the block: a pass over rows that start 16 or 32 bytes
    past one runs several percent slower.  Only the base is aligned, so the
    rows keep their contiguous stride."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    skip = -ctypes.addressof(ctypes.c_char.from_buffer(buf)) % 64 // 8
    return buf[skip:skip + size].reshape(shape)


class Design:
    """One point set under one ansatz: `rows`, its ansatz_design rows (cy, cz)
    stacked, which the angle product reads; `cols`, their C-contiguous
    transposes, which the chain rule reads; given labels y, each checked to be
    0 or 1, `sign` = 1/2 - y, so that M = 1/2 + sign z.  A Dataset keeps one per ansatz."""

    __slots__ = ("rows", "cols", "sign")

    def __init__(self, ansatz: Ansatz, x: np.ndarray, y: np.ndarray | None = None):
        self.rows = ansatz_design(ansatz, x)
        self.cols = np.ascontiguousarray(np.swapaxes(self.rows, -1, -2))
        if y is not None:
            label = np.asarray(y) == 1
            if not (label | (np.asarray(y) == 0)).all():
                raise ValueError("labels must be 0 or 1")
            self.sign = np.where(label, -0.5, 0.5)

    def __len__(self) -> int:
        return self.rows.shape[-2]

    def take(self, idx: np.ndarray) -> "Design":
        """The Design of this one's labelled points at `idx`, by C-ordered copies."""
        sub = object.__new__(Design)
        sub.rows, sub.cols = self.rows.take(idx, axis=-2), self.cols.take(idx, axis=-1)
        sub.sign = self.sign[idx]
        return sub


def _design(spec: CircuitSpec, x, y: np.ndarray | None = None) -> Design:
    """x if it is a Design (for spec's ansatz), else the Design of points x and labels y."""
    return x if isinstance(x, Design) else Design(spec.ansatz, x, y)


def _angles(spec: CircuitSpec, thetas: np.ndarray, design: Design,
            out: np.ndarray | None = None) -> np.ndarray:
    """The angles (phi_y, phi_z) of P parameter vectors, shape (2, L, P, n), in
    `out` if given: a stacked `(P, L, 4) @ (4, n)` product into the kernel's
    layout, one gemm per probe, so a probe is bit-identical to the single-theta
    `slices @ cy.T`."""
    slices = thetas.reshape(len(thetas), spec.layers, 4)
    phi = aligned_empty((2, spec.layers, len(thetas), len(design))) if out is None else out
    for angles, rows in zip(phi, design.rows):
        np.matmul(slices, rows.swapaxes(-1, -2), out=angles.transpose(1, 0, 2))
    return phi


def layer_angles(spec: CircuitSpec, theta: np.ndarray, x) -> np.ndarray:
    """All layer angles (phi_y, phi_z) at points x or their Design, shape (2, L, n)."""
    return _angles(spec, check_theta(spec, theta)[None], _design(spec, x))[:, :, 0]


def _pair(v: np.ndarray, tmp: np.ndarray) -> tuple:
    """The views _rotate reads to turn the pair v = (v0, v1); `tmp` has v's shape."""
    return v, v[::-1], v[0], v[1], tmp, tmp[0], tmp[1]


def _rotate(pair: tuple, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate the pair v of _pair(v, tmp) in place to (c v0 - s v1, s v0 + c v1).
    R_y turns (z, x) and R_z turns (x, y) this way; on the pair reversed it
    turns the other way, which moves a row vector through the gate: <w| R."""
    v, flipped, v0, v1, tmp, t0, t1 = pair
    np.multiply(flipped, s, out=tmp)
    v *= c
    v0 -= t0
    v1 += t1


def _evolve(phi_y: np.ndarray, phi_z: np.ndarray, states: bool = False):
    """Run the layered circuit on |0> for N columns; angles are (L, N) each.
    Returns the final Bloch z, shape (N,); with `states`, (z, (kept, cos, sin))
    for the backward pass, indexed by gate g (2l: layer l's R_y, 2l + 1 its
    R_z; the last R_z has none), kept[g - 2] the vector (z, x, y) before gate g.

    cos and sin are t - 1 and u t, t = 2 / (1 + u^2), from u = tan of the half
    angle: numpy vectorises float64 tan, not cos or sin, on x86 with AVX-512.
    One aligned workspace holds the cosines, sines, state rows (every kept
    vector, the last the running one) and two scratch rows; z overwrites the
    first cosine, its base, or with `states` gets an array of its own.
    """
    gates, n = 2 * len(phi_y) - 1, phi_y.shape[1]
    n_kept = max(gates - 2, 1) if states else 1
    ws = aligned_empty((2 * gates + 3 * n_kept + 2, n))
    cos, sin = ws[:gates], ws[gates:2 * gates]
    kept, tmp = ws[2 * gates:-2].reshape(n_kept, 3, n), ws[-2:]
    np.multiply(phi_y, 0.5, out=sin[0::2])
    np.multiply(phi_z[:-1], 0.5, out=sin[1::2])
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0
    if gates == 1:
        return (cos[0].copy(), (kept[:0], cos, sin)) if states else cos[0]
    state = kept[-1]
    z, x, y = state
    np.copyto(z, cos[0])
    np.multiply(sin[0], cos[1], out=x)              # the first R_z turns (x, 0)
    np.multiply(sin[0], sin[1], out=y)
    pairs = _pair(state[:2], tmp), _pair(state[1:], tmp)    # R_y turns (z, x), R_z (x, y)
    for g in range(2, gates - 1):
        if states:
            kept[g - 2] = state
        _rotate(pairs[g % 2], cos[g], sin[g])
    np.multiply(x, sin[-1], out=tmp[0])             # the last R_y: z alone
    out = np.multiply(z, cos[-1], out=None if states else ws[0])
    out -= tmp[0]
    return (out, (kept, cos, sin)) if states else out


def _probe_z(spec: CircuitSpec, groups: list, states: bool = False):
    """Bloch z of probe groups (thetas, x, shifts) in one kernel pass, one
    (P, n) array per group; with `states`, for one group of one probe, (its
    array, the pass _evolve kept).

    `x` is (n, 2), shared by the group's probes, or (P, n, 2), one point set
    per probe, or the Design of either.  The angles come from _angles, so a
    probe is bit-identical to a single-theta evaluation, whatever the other
    probes.  `shifts`, if given, holds (P, L, 2) deltas: [p, l, 0] is added to
    probe p's layer-l R_y angle, [p, l, 1] to its R_z; `thetas` then holds
    P rows, or one row that every shift reads (on shared points).  Unshifted
    probes of a group on shared points with equal parameter bytes are evolved once.
    Every group's angles are written into one array, the kernel's input.
    """
    plans = []
    for thetas, x, shifts in groups:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != spec.n_params:
            raise ValueError(f"parameter vectors have shape {thetas.shape}, expected "
                             f"(P, {spec.n_params}) for {spec.layers} layers")
        design, pick = _design(spec, x), None
        n_probes = len(shifts) if shifts is not None and len(thetas) == 1 else len(thetas)
        per_probe = design.rows.ndim == 4
        if per_probe and design.rows.shape[1] != len(thetas):
            raise ValueError(f"got {design.rows.shape[1]} point sets for {len(thetas)} probes")
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
        shape = (len(thetas) if shifts is None else n_probes, len(design))
        plans.append((thetas, design, shifts, pick, shape))
    phi, end = aligned_empty((2, spec.layers, sum(p * n for *_, (p, n) in plans))), 0
    for thetas, design, shifts, _, shape in plans:
        block = phi[:, :, end:(end := end + shape[0] * shape[1])].reshape(2, spec.layers, *shape)
        if shifts is None:
            _angles(spec, thetas, design, block)
        else:   # a 0.0 delta that turns -0.0 to +0.0 moves no population bit
            np.add(_angles(spec, thetas, design), shifts.transpose(2, 1, 0)[..., None], out=block)
    out = _evolve(*phi, states=states)
    flat, split, end = out[0] if states else out, [], 0
    for *_, pick, shape in plans:
        part = flat[end:(end := end + shape[0] * shape[1])].reshape(shape)
        split.append(part if pick is None else part[pick])
    return (split[0], out[1]) if states else split


def _read(z: np.ndarray, design: Design) -> np.ndarray:
    """M = 1/2 + sign z: bit for bit (1 + z) / 2 or (1 - z) / 2 by label, as halving is exact."""
    m = np.multiply(z, design.sign)
    m += 0.5
    return m


def evaluate_circuit(spec: CircuitSpec, theta: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Exact (p0, p1) = ((1 + z) / 2, (1 - z) / 2) for a single point."""
    z = _probe_z(spec, [(check_theta(spec, theta)[None], x, None)])[0][0, 0]
    return float((1.0 + z) / 2), float((1.0 - z) / 2)


def measure_groups(spec: CircuitSpec, groups: list) -> list[np.ndarray]:
    """Projection probabilities onto |y_i> of probe groups (thetas, labelled
    Design, shifts), read off _probe_z's z, in one pass: one (P, n) array per
    group, row p bit-identical to a one-probe group's."""
    return [_read(z, design) for z, (_, design, _) in zip(_probe_z(spec, groups), groups)]


def measure_batch(spec: CircuitSpec, theta: np.ndarray, x, y: np.ndarray | None,
                  states: bool = False):
    """measure_groups's row for the one probe theta at points x labelled y, or
    their Design, as an (n,) array; with states=True, (M, (kept, cos, sin)): the
    same M bit for bit, and the pass that kept every state, gate_angle_gradients's `forward`."""
    design = _design(spec, x, y)
    out = _probe_z(spec, [(check_theta(spec, theta)[None], design, None)], states)
    m = _read(out[0][0], design)
    return (m, out[1]) if states else m


def gate_angle_gradients(spec: CircuitSpec, theta: np.ndarray, x, y: np.ndarray | None,
                         forward=None) -> tuple[np.ndarray, np.ndarray]:
    """(M, dM/d(gate angle)): M per point, shape (n,), bit-identical to
    measure_batch, and the derivatives by all 2L gate angles, shape (L, 2, n).

    The forward pass (`forward`, if measure_batch kept it at this theta and x)
    keeps the Bloch vector r before each gate.  The backward pass carries the
    label-free adjoint w = (R_last ... R_g)^T e_z, its first step written out
    as (cos, -sin, 0), so that dz/dphi_g = w . K_g r: w_x z - w_z x for R_y,
    w_y x - w_x y for R_z; r = (cos, sin, 0) before the first R_z, e_z before
    the first R_y.  dM/dphi = sign dz/dphi; the skipped last R_z's entry is 0.
    w, its scratch rows and the derivatives share one aligned workspace.
    """
    design = _design(spec, x, y)
    m, (kept, cos, sin) = forward or measure_batch(spec, theta, design, None, states=True)
    gates, n = len(cos), cos.shape[1]
    ws = aligned_empty((gates + 6, n))
    grads, w, tmp = ws[:gates + 1], ws[gates + 1:gates + 4], ws[gates + 4:]
    (wz, wx, wy), t0 = w, tmp[0]
    if gates == 1:
        np.negative(sin[0], out=grads[0])
    else:
        np.copyto(wz, cos[-1])
        np.negative(sin[-1], out=wx)
        wy[...] = 0.0
        turns = _pair(w[1::-1], tmp), _pair(w[:0:-1], tmp)  # w through R_y^T, R_z^T
        for g in range(gates - 1, 1, -1):
            k, r = g % 2, kept[g - 2]               # gate g turns (r[k], r[k + 1])
            np.multiply(w[k + 1], r[k], out=grads[g])
            np.multiply(w[k], r[k + 1], out=t0)
            grads[g] -= t0
            _rotate(turns[1 - k], cos[g - 1], sin[g - 1])
        np.multiply(wy, sin[0], out=grads[1])
        np.multiply(wx, cos[0], out=grads[0])       # (R_0^T w)_x
        np.multiply(wz, sin[0], out=t0)
        grads[0] -= t0
    grads[:-1] *= design.sign
    grads[-1] = 0.0
    return m, grads.reshape(spec.layers, 2, n)


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
