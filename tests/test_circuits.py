"""State-evolution tests: gate conventions, ansatz kernels, gradients."""

import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (ZERO_STATE, QubitState, complex_evolve, layer_args,
                     rotation_y, rotation_z, shift_deltas)

from reupsim import circuits
from reupsim.circuits import (Ansatz, CircuitSpec, Design, analytic_gradient_batch,
                              check_theta, evaluate_circuit, layer_angles,
                              measure_batch, measure_groups, random_parameters)

ANGLES = st.floats(min_value=-4 * np.pi, max_value=4 * np.pi,
                   allow_nan=False, allow_infinity=False)


def _one_group(spec, thetas, x, y, shifts=None):
    """measure_groups of the one group of probes `thetas` at points x labelled y."""
    return measure_groups(spec, [(thetas, Design(spec.ansatz, x, y), shifts)])[0]


def _ry(phi):
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(phi):
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def _populations(spec, theta, x):
    """(p0, p1) per point: M against all-0 and against all-1 labels."""
    return (measure_batch(spec, theta, x, np.zeros(len(x), int)),
            measure_batch(spec, theta, x, np.ones(len(x), int)))


def _reference_probabilities(spec, theta, x):
    """Independent oracle: explicit 2x2 matrix products, one point."""
    phi_y, phi_z = layer_angles(spec, theta, np.atleast_2d(x))
    state = np.array([1.0, 0.0], dtype=complex)
    for l in range(spec.layers):
        state = _rz(phi_z[l, 0]) @ _ry(phi_y[l, 0]) @ state
    return np.abs(state) ** 2


def test_rotation_y_pi_flips_the_qubit():
    out = rotation_y(ZERO_STATE, np.pi)
    assert abs(out.alpha) < 1e-12
    assert abs(abs(out.beta) - 1.0) < 1e-12


def test_rotation_y_half_pi_is_balanced():
    p0, p1 = rotation_y(ZERO_STATE, np.pi / 2.0).probabilities()
    np.testing.assert_allclose([p0, p1], [0.5, 0.5], atol=1e-12)


@given(ANGLES, ANGLES, ANGLES)
def test_rotation_z_leaves_probabilities_alone(a, b, phi):
    norm = np.hypot(abs(np.cos(a) + 1j * np.sin(b)), abs(np.sin(a)))
    state = QubitState((np.cos(a) + 1j * np.sin(b)) / norm, np.sin(a) / norm)
    before = state.probabilities()
    after = rotation_z(state, phi).probabilities()
    np.testing.assert_allclose(after, before, atol=1e-12)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_evolution_preserves_the_norm(layers, seed):
    rng = np.random.default_rng(seed)
    spec = CircuitSpec(Ansatz.A2C, layers)
    theta = random_parameters(spec, rng)
    x = rng.uniform(-1.0, 1.0, (7, 2))
    p0, p1 = _populations(spec, theta, x)
    np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-12)


def test_matches_matrix_product_oracle():
    rng = np.random.default_rng(11)
    for ansatz in Ansatz:
        spec = CircuitSpec(ansatz, 4)
        theta = random_parameters(spec, rng)
        x = rng.uniform(-1.0, 1.0, 2)
        want = _reference_probabilities(spec, theta, x)
        got = evaluate_circuit(spec, theta, x)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_ansatz_kernels_map_theta_and_x_as_documented():
    t = np.array([0.3, -1.1, 0.7, 2.2])
    x = np.array([0.4, -0.8])
    x0, x1 = x
    expected = {
        Ansatz.A2A: (t[0] * x0 + t[1] * x1 + t[2], t[3]),
        Ansatz.A2B: (t[0] * x0 + t[1], t[2] * x1 + t[3]),
        Ansatz.A2C: (t[0] * x0 + t[1] * x1, t[2] * x0 + t[3] * x1),
        Ansatz.A2D: (t[0], t[1] * x0 + t[2] * x1 + t[3]),
    }
    for ansatz, (want_y, want_z) in expected.items():
        got_y, got_z = layer_args(ansatz, t, x)
        np.testing.assert_allclose([got_y, got_z], [want_y, want_z], atol=1e-12)


def test_layer_angles_agree_with_layer_args():
    rng = np.random.default_rng(3)
    spec = CircuitSpec(Ansatz.A2B, 3)
    theta = random_parameters(spec, rng)
    x = rng.uniform(-1.0, 1.0, (5, 2))
    phi_y, phi_z = layer_angles(spec, theta, x)
    for l in range(spec.layers):
        for i in range(5):
            y1, z1 = layer_args(spec.ansatz, theta[4 * l:4 * l + 4], x[i])
            assert abs(phi_y[l, i] - y1) < 1e-12
            assert abs(phi_z[l, i] - z1) < 1e-12


def test_layer_args_on_a_reference_slice():
    # first layer of a known-good trained vector; values pinned as a regression
    phi_y, phi_z = layer_args(Ansatz.A2C, [0.1532, 0.5374, 2.3999, -0.8025],
                              np.array([0.0976, 0.4304]))
    assert phi_y == pytest.approx(0.2462, abs=5e-5)
    assert phi_z == pytest.approx(-0.1112, abs=5e-5)


def test_measure_batch_picks_the_label_component():
    rng = np.random.default_rng(7)
    spec = CircuitSpec()
    theta = random_parameters(spec, rng)
    x = rng.uniform(-1.0, 1.0, (6, 2))
    p0, p1 = _populations(spec, theta, x)
    y = np.array([0, 1, 0, 1, 1, 0])
    m = measure_batch(spec, theta, x, y)
    np.testing.assert_allclose(m, np.where(y == 1, p1, p0), atol=1e-15)


def test_gate_shift_matches_direct_angle_change():
    """The shift hook adds a delta to one gate angle; compare against
    shifting the corresponding theta component when the map is trivial."""
    spec = CircuitSpec(Ansatz.A2A, 2)
    rng = np.random.default_rng(19)
    theta = random_parameters(spec, rng)
    x = rng.uniform(-1.0, 1.0, (4, 2))
    delta = 0.37
    theta2 = theta.copy()
    theta2[4 + 2] += delta    # layer-1 data-independent R_y entry of 2A
    for label in (0, 1):
        y = np.full(len(x), label)
        shifted = _one_group(spec, theta[None], x, y, shift_deltas(2, [(1, 0, delta)]))[0]
        np.testing.assert_allclose(shifted, measure_batch(spec, theta2, x, y), atol=1e-12)


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for ansatz in Ansatz:
        spec = CircuitSpec(ansatz, 4)
        theta = random_parameters(spec, rng)
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.integers(0, 2, 1)
        grad = analytic_gradient_batch(spec, theta, x, y)[1][0]
        for j in range(spec.n_params):
            probe = theta.copy()
            probe[j] += h
            up = measure_batch(spec, probe, x, y)[0]
            probe[j] -= 2 * h
            down = measure_batch(spec, probe, x, y)[0]
            assert abs(grad[j] - (up - down) / (2 * h)) < 1e-6


def test_gate_angle_gradients_obey_the_shift_rule():
    """For these rotations dM/dphi equals half the difference of +-pi/2
    shifted evaluations, exactly; the M of the same forward pass is
    measure_batch's, bit for bit."""
    rng = np.random.default_rng(29)
    spec = CircuitSpec(Ansatz.A2C, 3)
    theta = random_parameters(spec, rng)
    x = rng.uniform(-1.0, 1.0, (5, 2))
    y = rng.integers(0, 2, 5)
    m, grads = circuits.gate_angle_gradients(spec, theta, x, y)
    np.testing.assert_array_equal(m, measure_batch(spec, theta, x, y))
    for l in range(spec.layers):
        for gate in range(2):
            plus, minus = _one_group(spec, np.stack([theta, theta]), x, y, shift_deltas(
                spec.layers, [(l, gate, np.pi / 2), (l, gate, -np.pi / 2)]))
            np.testing.assert_allclose(grads[l, gate], 0.5 * (plus - minus),
                                       atol=1e-12)


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("layers", [1, 2, 4])
def test_the_pass_that_keeps_its_states_gives_the_plain_populations(ansatz, layers):
    """_evolve with states returns the plain pass's populations bit for bit.
    A kept forward, used after another kernel pass, gives the gradient of a
    fresh pass bit for bit, and that gradient obeys the shift rule: the kept
    sines and cosines are the ones the pass turned by."""
    rng = np.random.default_rng(79)
    spec = CircuitSpec(ansatz, layers)
    theta = random_parameters(spec, rng)
    x, y = rng.uniform(-1.0, 1.0, (23, 2)), rng.integers(0, 2, 23)
    phi_y, phi_z = layer_angles(spec, theta, x)
    populations, kept = circuits._evolve(phi_y, phi_z, states=True)
    assert populations.tobytes() == circuits._evolve(phi_y, phi_z).tobytes()
    assert len(kept) == 3 and len(kept[0]) == 2 * layers - 1
    m, forward = measure_batch(spec, theta, x, y, states=True)
    _one_group(spec, random_parameters(spec, rng)[None], x, y)
    kept_m, kept_grads = circuits.gate_angle_gradients(spec, theta, x, y, (m, forward))
    fresh_m, fresh_grads = circuits.gate_angle_gradients(spec, theta, x, y)
    assert kept_m.tobytes() == fresh_m.tobytes() == measure_batch(spec, theta, x, y).tobytes()
    assert kept_grads.tobytes() == fresh_grads.tobytes()
    for l in range(layers):
        plus, minus = _one_group(spec, np.stack([theta, theta]), x, y, shift_deltas(
            layers, [(l, 0, np.pi / 2), (l, 0, -np.pi / 2)]))
        np.testing.assert_allclose(kept_grads[l, 0], 0.5 * (plus - minus), atol=1e-12)


def test_check_theta_rejects_wrong_shapes():
    spec = CircuitSpec(Ansatz.A2C, 4)
    with pytest.raises(ValueError, match="expected \\(16,\\)"):
        check_theta(spec, np.zeros(15))
    with pytest.raises(ValueError):
        check_theta(spec, np.zeros((4, 4)))


def test_label_validation():
    spec = CircuitSpec()
    theta = np.zeros(spec.n_params)
    with pytest.raises(ValueError, match="labels"):
        measure_batch(spec, theta, np.array([[0.1, 0.2]]), np.array([3]))


def test_ansatz_parse_and_spec_validation():
    assert Ansatz.parse("2c") is Ansatz.A2C
    with pytest.raises(ValueError, match="unknown ansatz"):
        Ansatz.parse("2E")
    with pytest.raises(ValueError, match="layer count"):
        CircuitSpec(Ansatz.A2A, 0)


def test_random_parameters_range_and_determinism():
    spec = CircuitSpec()
    a = random_parameters(spec, np.random.default_rng(5))
    b = random_parameters(spec, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (16,)
    assert (np.abs(a) <= 2 * np.pi).all()


def _shifted_angles(spec, theta, x, shift=None):
    """Single-theta layer angles with `shift`, None or (layer, gate, delta),
    added to one gate angle."""
    phi_y, phi_z = layer_angles(spec, theta, x)
    if shift is not None:
        layer, gate, delta = shift
        (phi_z if gate else phi_y)[layer] += delta
    return phi_y, phi_z


def _single_theta_kernel(spec, theta, x, y, shift=None):
    """Reference: one probe evolved on its own by the kernel, its angles from
    the single-theta `layer_angles` product."""
    p0, p1 = circuits._evolve(*_shifted_angles(spec, theta, x, shift))
    return np.where(y == 1, p1, p0)


def _random_probes(ansatz, layers, probes, seed):
    spec = CircuitSpec(ansatz, layers)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (probes, spec.n_params))
    shifts = [(int(rng.integers(layers)), int(rng.integers(2)), float(rng.uniform(-np.pi, np.pi)))
              if rng.random() < 0.5 else None for _ in range(probes)]
    return spec, rng, thetas, shifts


@given(st.sampled_from(list(Ansatz)), st.integers(1, 6), st.integers(1, 64),
       st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_measure_groups_rows_equal_measure_batch_bit_for_bit(ansatz, layers, probes, n, seed):
    spec, rng, thetas, shifts = _random_probes(ansatz, layers, probes, seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    y = rng.integers(0, 2, n)
    deltas = shift_deltas(layers, shifts)
    many = _one_group(spec, thetas, x, y, deltas)
    assert many.shape == (probes, n)
    for p in range(probes):
        single = _one_group(spec, thetas[p:p + 1], x, y, deltas[p:p + 1])[0]
        np.testing.assert_array_equal(many[p], single)
        np.testing.assert_array_equal(single, _single_theta_kernel(spec, thetas[p], x, y,
                                                                   shifts[p]))
        if shifts[p] is None:
            np.testing.assert_array_equal(single, measure_batch(spec, thetas[p], x, y))


@given(st.sampled_from(list(Ansatz)), st.integers(1, 6), st.integers(1, 64),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_measure_groups_with_a_point_set_per_probe(ansatz, layers, probes, n, seed):
    spec, rng, thetas, shifts = _random_probes(ansatz, layers, probes, seed)
    x = rng.uniform(-1.0, 1.0, (probes, n, 2))
    y = rng.integers(0, 2, (probes, n))
    deltas = shift_deltas(layers, shifts)
    many = _one_group(spec, thetas, x, y, deltas)
    for p in range(probes):
        np.testing.assert_array_equal(many[p], _one_group(spec, thetas[p:p + 1], x[p], y[p],
                                                          deltas[p:p + 1])[0])


@given(st.sampled_from(list(Ansatz)), st.integers(1, 6), st.integers(1, 16),
       st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_populations_match_the_complex_kernel(ansatz, layers, probes, n, seed):
    """The real-amplitude kernel against the complex one it replaced, which
    applies every R_z.  Absolute: near p = 0 neither keeps relative precision."""
    spec, rng, thetas, shifts = _random_probes(ansatz, layers, probes, seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    populations = circuits._probe_populations(spec, [(thetas, x, shift_deltas(layers, shifts))])[0]
    for p in range(probes):
        alpha, beta = complex_evolve(*_shifted_angles(spec, thetas[p], x, shifts[p]))
        np.testing.assert_allclose(populations[:, p], np.abs([alpha, beta]) ** 2,
                                   rtol=0, atol=4e-15)


def test_the_last_phase_changes_no_population_bit():
    rng = np.random.default_rng(43)
    x = rng.uniform(-1.0, 1.0, (9, 2))
    for layers in (1, 4):
        spec = CircuitSpec(Ansatz.A2C, layers)
        theta = random_parameters(spec, rng)
        for y in (np.zeros(len(x), dtype=int), np.ones(len(x), dtype=int)):
            base = measure_batch(spec, theta, x, y)
            for delta in (0.3, -2.0, np.pi):
                np.testing.assert_array_equal(
                    _one_group(spec, theta[None], x, y,
                               shifts=shift_deltas(layers, [(layers - 1, 1, delta)]))[0], base)


def test_the_kernel_allocates_one_workspace_and_its_outputs():
    """The kernel writes every intermediate into one workspace; per-layer
    temporaries would push the peak past this bound."""
    layers, n = 4, 12500
    phi_y, phi_z = np.random.default_rng(47).uniform(-2 * np.pi, 2 * np.pi, (2, layers, n))
    circuits._evolve(phi_y, phi_z)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p0, p1 = circuits._evolve(phi_y, phi_z)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert p0.shape == p1.shape == (n,)
    assert peak <= 1.5 * (2 * layers + 7) * n * 8


def test_warm_generations_take_no_page_faults():
    """A GA generation's kernel pass reuses the heap its last pass freed.
    Per-layer temporaries made the allocator return and re-fault the heap:
    about 600 minor faults per generation of 50 x 250 columns."""
    rng = np.random.default_rng(53)
    spec = CircuitSpec()
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (50, spec.n_params))
    x, y = rng.uniform(-1.0, 1.0, (250, 2)), rng.integers(0, 2, 250)
    for _ in range(3):
        _one_group(spec, thetas, x, y)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        _one_group(spec, thetas, x, y)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_measure_groups_validation():
    spec = CircuitSpec(Ansatz.A2A, 2)
    x, y = np.zeros((3, 2)), np.array([0, 1, 0])
    thetas = np.zeros((2, spec.n_params))
    with pytest.raises(ValueError, match="expected"):
        _one_group(spec, np.zeros((2, 5)), x, y)
    with pytest.raises(ValueError, match="2 probes"):
        _one_group(spec, thetas, x, y, shifts=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="2 probes"):
        _one_group(spec, thetas, np.zeros((3, 3, 2)), y)
    # one delta per probe, layer and gate: a third layer or gate has no place
    for shape in ((2, 3, 2), (2, 2, 3), (2, 4), (2, 2, 2, 1)):
        with pytest.raises(ValueError, match=r"shape \(.*\), expected \(2, 2, 2\)"):
            _one_group(spec, thetas, x, y, shifts=np.zeros(shape))
    with pytest.raises(ValueError, match="labels"):
        _one_group(spec, thetas, x, np.array([0, 2, 1]))


def test_signed_zero_deltas_give_the_one_probe_rows():
    """Deltas of 0.0 and -0.0, and no shift at all, in one shifted batch:
    each row is what the single-theta kernel gives for its probe."""
    spec = CircuitSpec()
    rng = np.random.default_rng(59)
    theta = random_parameters(spec, rng)
    x, y = rng.uniform(-1.0, 1.0, (7, 2)), rng.integers(0, 2, 7)
    shifts = [(1, 0, 0.0), (1, 0, -0.0), (1, 0, 0.0), None, (1, 0, -0.0), (1, 0, 0.0)]
    many = _one_group(spec, np.repeat(theta[None], len(shifts), axis=0), x, y,
                      shift_deltas(spec.layers, shifts))
    for row, shift in zip(many, shifts):
        np.testing.assert_array_equal(row, _single_theta_kernel(spec, theta, x, y, shift))
    with pytest.raises(ValueError, match=r"expected \(2, 4, 2\)"):
        _one_group(spec, np.repeat(theta[None], 2, axis=0), x, y,
                   shifts=shift_deltas(spec.layers + 1, [(spec.layers, 0, 0.5)] * 2))


def test_adding_zero_to_the_angles_moves_no_population_bit():
    """A shifted pass adds 0.0 to every angle it does not shift; at an angle
    of -0.0 that changes the sign of a zero, and no population bit."""
    rng = np.random.default_rng(67)
    phi_y, phi_z = rng.uniform(-2 * np.pi, 2 * np.pi, (2, 3, 40))
    phi_y[:, :10], phi_z[:, 5:15] = -0.0, -0.0      # columns of zeros, whole or in part
    phi_y[1, 20:30], phi_z[0, 25:35] = -0.0, -0.0
    zeroed = phi_y + 0.0, phi_z + 0.0
    assert np.signbit(zeroed[0]).sum() < np.signbit(phi_y).sum()
    assert circuits._evolve(*zeroed).tobytes() == circuits._evolve(phi_y, phi_z).tobytes()


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("layers", [1, 4])
def test_chain_rule_is_the_per_layer_formula_bit_for_bit(ansatz, layers):
    spec = CircuitSpec(ansatz, layers)
    rng = np.random.default_rng(61)
    x = rng.uniform(-1.0, 1.0, (23, 2))
    angle_grads = rng.normal(size=(layers, 2, len(x)))
    cy, cz = circuits.ansatz_design(ansatz, x)
    per_layer = np.hstack([angle_grads[l, 0][:, None] * cy + angle_grads[l, 1][:, None] * cz
                           for l in range(layers)])
    np.testing.assert_array_equal(circuits.chain_rule(spec, angle_grads, x), per_layer)


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("layers", [1, 4])
def test_the_stacked_angle_product_is_slices_at_cy_t_bit_for_bit(ansatz, layers):
    """Every angle path reads one builder: a stacked (P, L, 4) product whose
    probes equal the single-theta `slices @ cy.T` bit for bit.  (Against
    contiguous transposes of the rows, a one-layer product rounds otherwise.)"""
    spec = CircuitSpec(ansatz, layers)
    rng = np.random.default_rng(71)
    x = rng.uniform(-1.0, 1.0, (37, 2))
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, (9, spec.n_params))
    cy, cz = circuits.ansatz_design(ansatz, x)
    phi = circuits._angles(spec, thetas, circuits.Design(ansatz, x))
    for p, theta in enumerate(thetas):
        slices = theta.reshape(layers, 4)
        for got, rows in zip(phi[:, :, p], (cy, cz)):
            assert got.tobytes() == (slices @ rows.T).tobytes()
        assert layer_angles(spec, theta, x).tobytes() == phi[:, :, p].tobytes()


LABELLED_ENTRY_POINTS = {
    "measure_batch": lambda spec, theta, x, y: measure_batch(spec, theta, x, y),
    "measure_batch_keeping_states":
        lambda spec, theta, x, y: measure_batch(spec, theta, x, y, states=True),
    "measure_groups": lambda spec, theta, x, y: _one_group(spec, theta[None], x, y),
    "gate_angle_gradients": circuits.gate_angle_gradients,
    "analytic_gradient_batch": analytic_gradient_batch,
}


@pytest.mark.parametrize("entry", LABELLED_ENTRY_POINTS.values(), ids=LABELLED_ENTRY_POINTS)
def test_every_labelled_entry_point_rejects_a_label_that_is_not_0_or_1(entry):
    spec = CircuitSpec()
    x = np.random.default_rng(73).uniform(-1.0, 1.0, (3, 2))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        entry(spec, np.zeros(spec.n_params), x, np.array([0, 2, 1]))
