"""Tests for the gate-level realizations.

Both circuits are checked against the isometry they are supposed to
implement; the exchange propagator is checked against its closed-form
sector amplitudes and the interaction time against a bisection solve on
the simulated propagator.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from mirrorclone.circuits import (
    HADAMARD_CONJUGATOR,
    Circuit,
    Gate,
    circuit_matrix,
    circuit_mpcc_v1,
    circuit_mpcc_v2,
    decompose_ccr,
    eqneighbor_hamiltonian,
    eqneighbor_propagator,
    equal_up_to_global_phase,
    gate_matrix,
    interaction_time,
    parse_circuit,
    propagator_coefficients,
    rotation_angle,
    serialize_circuit,
)
from mirrorclone.cloners import FIDELITY_MINIMUM_ANGLE, mpcc_isometry_apply, mpcc_params
from mirrorclone.qcore import haar_random_state


def basis(i):
    v = np.zeros(8, dtype=np.complex128)
    v[i] = 1.0
    return v


def start_state(psi):
    # input qubit on wire 1, ancillas on |0>
    v = np.zeros(8, dtype=np.complex128)
    v[0], v[4] = psi[0], psi[1]
    return v


# --- gates ------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("BAD", (1,))
    with pytest.raises(ValueError):
        Gate("ROTY", (1, 2), (0.1,))
    with pytest.raises(ValueError):
        Gate("CNOT", (2, 2))
    with pytest.raises(ValueError):
        Gate("CNOT", (0, 1))
    with pytest.raises(ValueError):
        Gate("ROTY", (4,), (0.1,))
    with pytest.raises(ValueError):
        Gate("ROTY", (1,), (math.nan,))
    with pytest.raises(ValueError):
        Gate("CCR", (1, 3, 2), (0.1,))
    with pytest.raises(ValueError):
        Gate("EVOLVE", (2, 1, 3), (1.0, 1.0))
    with pytest.raises(ValueError):
        Gate("CR", (1.5, 2), (0.1,))
    with pytest.raises(ValueError):
        Gate("NOT", (2.0,))


def test_gate_and_circuit_normalize_containers():
    listed = Gate("NOT", [2])
    assert listed == Gate("NOT", (2,)) and hash(listed) == hash(Gate("NOT", (2,)))
    circ = Circuit([Gate("ROTY", (1,), [0.5])])
    assert circ.gates[0].params == (0.5,)
    assert parse_circuit(serialize_circuit(circ)) == circ
    with pytest.raises(ValueError):
        Circuit([1, 2])
    with pytest.raises(ValueError):
        Circuit([Gate("NOT", (1,)), "CNOT 1 2"])


@pytest.mark.parametrize(
    "gate",
    [
        Gate("ROTY", (2,), (0.7,)),
        Gate("NOT", (3,)),
        Gate("CNOT", (1, 3)),
        Gate("CH", (3, 2)),
        Gate("CR", (2, 3), (-1.1,)),
        Gate("CCR", (1, 2, 3), (0.9,)),
        Gate("CCR0", (1, 2, 3), (-2.3,)),
        Gate("EVOLVE", (1, 2, 3), (0.8, 1.7)),
    ],
)
def test_gate_matrices_are_unitary(gate):
    u = gate_matrix(gate)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


# --- kron reference: the register layout spelled out qubit by qubit ----------

P0 = np.diag([1.0, 0.0]).astype(np.complex128)
P1 = np.diag([0.0, 1.0]).astype(np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def kron3(factors):
    # factors maps qubit -> 2x2 matrix; qubit 1 is the leftmost factor
    one, two, three = (factors.get(q, np.eye(2)) for q in (1, 2, 3))
    return np.kron(np.kron(one, two), three)


def controlled_reference(u, controls, target, value=1):
    on = P1 if value == 1 else P0
    fire = kron3({c: on for c in controls})
    return np.eye(8) - fire + kron3({**{c: on for c in controls}, target: u})


def reference_matrix(gate):
    """The gate's 8x8 matrix built from kron products of one-qubit factors."""
    kind, qubits, params = gate.kind, gate.qubits, gate.params
    if kind == "ROTY":
        c, s = math.cos(params[0] / 2.0), math.sin(params[0] / 2.0)
        return kron3({qubits[0]: np.array([[c, -s], [s, c]], dtype=np.complex128)})
    if kind == "NOT":
        return kron3({qubits[0]: X})
    if kind == "CNOT":
        return controlled_reference(X, qubits[:1], qubits[1])
    if kind == "CH":
        conj = kron3({qubits[1]: HADAMARD_CONJUGATOR})
        return conj @ controlled_reference(X, qubits[:1], qubits[1]) @ conj
    rz = np.diag([cmath.exp(-0.5j * params[0]), cmath.exp(0.5j * params[0])])
    return controlled_reference(rz, qubits[:-1], qubits[-1], 0 if kind == "CCR0" else 1)


def all_placements():
    for q in (1, 2, 3):
        yield Gate("ROTY", (q,), (0.7,))
        yield Gate("NOT", (q,))
    for c, t in itertools.permutations((1, 2, 3), 2):
        yield Gate("CNOT", (c, t))
        yield Gate("CH", (c, t))
        yield Gate("CR", (c, t), (-1.1,))
    yield Gate("CCR", (1, 2, 3), (0.9,))
    yield Gate("CCR0", (1, 2, 3), (-2.3,))


def placement_id(gate):
    return gate.kind + "".join(map(str, gate.qubits))


@pytest.mark.parametrize("gate", list(all_placements()), ids=placement_id)
def test_gate_matrix_matches_kron_reference(gate):
    assert np.array_equal(gate_matrix(gate), reference_matrix(gate))


def test_hamiltonian_matches_ordered_pair_sum():
    lower = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |1><0|
    raise_ = lower.T
    for kappa in (1.3, -0.4, 2.0):
        h = np.zeros((8, 8), dtype=np.complex128)
        for n, m in itertools.permutations((1, 2, 3), 2):
            h += kron3({n: raise_, m: lower}) + kron3({n: lower, m: raise_})
        assert np.array_equal(eqneighbor_hamiltonian(kappa), (kappa / 2.0) * h)


def test_roty_zero_is_identity():
    assert np.abs(gate_matrix(Gate("ROTY", (1,), (0.0,))) - np.eye(8)).max() == 0.0


def test_hadamard_conjugator_identities():
    a = HADAMARD_CONJUGATOR
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(a @ a - np.eye(2)).max() < 1e-12
    assert np.abs(a @ x @ a - h).max() < 1e-12


def test_ch_conditional_hadamard():
    u = gate_matrix(Gate("CH", (3, 2)))
    out = u @ basis(1)  # |001>: control (qubit 3) is 1
    want = (basis(1) + basis(3)) / math.sqrt(2.0)
    assert np.abs(out - want).max() < 1e-12
    # control 0 leaves the target alone
    assert np.abs(u @ basis(0) - basis(0)).max() < 1e-12
    assert np.abs(u @ basis(4) - basis(4)).max() < 1e-12


def test_cr_phases():
    u = gate_matrix(Gate("CR", (1, 3), (0.8,)))
    assert abs(u[4, 4] - cmath.exp(-0.4j)) < 1e-15  # |100>: control 1, target 0
    assert abs(u[5, 5] - cmath.exp(0.4j)) < 1e-15  # |101>: control 1, target 1
    assert abs(u[1, 1] - 1.0) < 1e-15  # control 0: untouched


def test_ccr_projector_action():
    phi = 1.3
    u = gate_matrix(Gate("CCR", (1, 2, 3), (phi,)))
    assert abs(u[6, 6] - cmath.exp(-0.5j * phi)) < 1e-15  # |110>
    assert abs(u[7, 7] - cmath.exp(0.5j * phi)) < 1e-15  # |111>
    for i in range(6):
        assert u[i, i] == 1.0
    v = gate_matrix(Gate("CCR0", (1, 2, 3), (phi,)))
    assert abs(v[0, 0] - cmath.exp(-0.5j * phi)) < 1e-15  # |000>
    assert abs(v[1, 1] - cmath.exp(0.5j * phi)) < 1e-15  # |001>
    for i in range(2, 8):
        assert v[i, i] == 1.0


def compose(gates):
    m = np.eye(8, dtype=np.complex128)
    for g in gates:
        m = gate_matrix(g) @ m
    return m


def test_decompose_ccr_zero_angle_is_identity():
    assert np.abs(compose(decompose_ccr(0.0)) - np.eye(8)).max() < 1e-15


@pytest.mark.parametrize("angle", [math.pi / 2, 0.7, -1.9])
def test_decompose_ccr_matches_direct_matrix(angle):
    direct = gate_matrix(Gate("CCR", (1, 2, 3), (angle,)))
    assert np.abs(compose(decompose_ccr(angle, "11")) - direct).max() < 1e-12


def test_decompose_ccr_open_polarity_sign():
    # flipping both controls negates the implemented angle
    angle = math.pi / 3
    got = compose(decompose_ccr(angle, "00"))
    assert np.abs(got - gate_matrix(Gate("CCR0", (1, 2, 3), (-angle,)))).max() < 1e-12


def test_decompose_ccr_uses_at_most_two_qubit_gates():
    for polarity in ("11", "00"):
        for g in decompose_ccr(0.77, polarity):
            assert len(g.qubits) <= 2


def test_decompose_ccr_validation():
    with pytest.raises(ValueError):
        decompose_ccr(0.5, "01")
    with pytest.raises(ValueError):
        decompose_ccr(math.inf)


# --- first circuit ------------------------------------------------------------


def test_rotation_angle_values():
    assert abs(rotation_angle(0.0)) < 1e-12  # lam = 1
    assert abs(rotation_angle(math.pi / 2) - math.pi / 2) < 1e-12  # lam = 1/sqrt(2)


def test_circuit_v1_pole_cases():
    circ = circuit_mpcc_v1(0.0)
    assert np.abs(circuit_matrix(circ) @ basis(0) - basis(0)).max() < 1e-12
    assert np.abs(circuit_matrix(circ) @ basis(4) - basis(7)).max() < 1e-12


def test_circuit_v1_gate_list():
    gates = circuit_mpcc_v1(0.8).gates
    assert [g.kind for g in gates] == ["ROTY", "CH", "CNOT", "CNOT", "CNOT"]
    assert gates[0].qubits == (3,)
    assert gates[0].params == (rotation_angle(0.8),)
    assert [g.qubits for g in gates[1:]] == [(3, 2), (1, 3), (2, 1), (3, 2)]


def test_circuit_v1_equator_superposition():
    theta = math.pi / 2
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    out = circuit_matrix(circuit_mpcc_v1(theta)) @ start_state(psi)
    ok, residual = equal_up_to_global_phase(out, mpcc_isometry_apply(theta, psi))
    assert ok and residual < 1e-10


def test_circuit_v1_matches_isometry(rng):
    for theta in np.linspace(0.0, math.pi, 9):
        circ = circuit_mpcc_v1(float(theta))
        for _ in range(3):
            psi = haar_random_state(rng)
            out = circuit_matrix(circ) @ start_state(psi)
            ok, residual = equal_up_to_global_phase(out, mpcc_isometry_apply(float(theta), psi))
            assert ok, (theta, residual)


# --- exchange propagator -----------------------------------------------------


def test_hamiltonian_structure():
    h = eqneighbor_hamiltonian(1.3)
    assert np.abs(h - h.conj().T).max() == 0.0
    # conserves excitation number: no coupling between different-weight states
    for i in range(8):
        for j in range(8):
            if bin(i).count("1") != bin(j).count("1"):
                assert h[i, j] == 0.0
    # every pair inside the one-defect sector couples with strength kappa
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            want = 0.0 if i == j else 1.3
            assert abs(h[i, j] - want) < 1e-15


def test_propagator_zero_time_identity():
    assert np.abs(eqneighbor_propagator(0.0, 2.2) - np.eye(8)).max() < 1e-14


def test_propagators_reject_non_finite():
    for t, kappa in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)):
        for propagator in (propagator_coefficients, eqneighbor_propagator):
            with pytest.raises(ValueError, match="finite"):
                propagator(t, kappa)
    # each factor is finite, but the phase 2*kappa*t of exp(-iHt) overflows
    with np.errstate(all="raise"):
        for propagator in (propagator_coefficients, eqneighbor_propagator):
            with pytest.raises(ValueError, match="finite"):
                propagator(1e300, 1e10)
        with pytest.raises(ValueError, match="finite"):
            gate_matrix(Gate("EVOLVE", (1, 2, 3), (1e300, 1e10)))


def test_propagator_closed_form_amplitudes(rng):
    for _ in range(20):
        t = float(rng.uniform(0.0, 5.0))
        kappa = float(rng.uniform(0.1, 3.0))
        u = eqneighbor_propagator(t, kappa)
        stay, hop = propagator_coefficients(t, kappa)
        assert abs(abs(stay) ** 2 + 2.0 * abs(hop) ** 2 - 1.0) < 1e-12
        for sector in ((1, 2, 4), (3, 5, 6)):  # one and two defects
            for i in sector:
                for j in sector:
                    want = stay if i == j else hop
                    assert abs(u[i, j] - want) < 1e-10, (t, kappa, i, j)


def test_propagator_stationary_sectors():
    u = eqneighbor_propagator(1.7, 0.9)
    assert abs(u[0, 0] - 1.0) < 1e-12  # |000> has no exchange partner
    assert abs(u[7, 7] - 1.0) < 1e-12  # |111> likewise
    assert np.abs(u[0, 1:]).max() < 1e-12
    assert np.abs(u[7, :7]).max() < 1e-12


def test_interaction_time_solves_for_the_mixing_amplitude():
    # oracle: bisection on the simulated propagator, no closed forms involved
    for theta in (0.3, 1.0, FIDELITY_MINIMUM_ANGLE):
        kappa = 0.8
        lam_bar = mpcc_params(theta).lam_bar

        def hop_mag(t):
            return abs(eqneighbor_propagator(t, kappa)[2, 1])

        lo, hi = 0.0, (2.0 / (3.0 * kappa)) * (math.pi / 2.0)
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if math.sqrt(2.0) * hop_mag(mid) < lam_bar:
                lo = mid
            else:
                hi = mid
        assert abs(interaction_time(theta, kappa) - (lo + hi) / 2.0) < 1e-10


def test_interaction_time_scaling_and_poles():
    assert interaction_time(0.0, 1.0) == 0.0
    t1 = interaction_time(1.1, 1.0)
    assert abs(interaction_time(1.1, 2.0) - t1 / 2.0) < 1e-15
    assert abs(interaction_time(math.pi / 2, 1.0) - (2.0 / 3.0) * math.asin(0.75)) < 1e-15
    with pytest.raises(ValueError):
        interaction_time(1.0, 0.0)
    with pytest.raises(ValueError):
        interaction_time(1.0, -2.0)


# --- second circuit -----------------------------------------------------------


def test_circuit_v2_gate_list():
    theta, kappa = 0.9, 1.4
    gates = circuit_mpcc_v2(theta, kappa).gates
    kinds = [g.kind for g in gates]
    assert kinds == ["CNOT", "CNOT", "NOT", "EVOLVE", "CCR", "CCR0", "NOT"]
    assert gates[3].params == (interaction_time(theta, kappa), kappa)
    # the two phase repairs use opposite angles
    assert gates[4].params[0] == -gates[5].params[0]


def test_circuit_v2_intermediate_is_exact(rng):
    # after the three permutation gates: a|001> + b|110>, bit for bit
    psi = haar_random_state(rng)
    state = start_state(psi)
    for gate in circuit_mpcc_v2(1.1).gates[:3]:
        state = gate_matrix(gate) @ state
    want = psi[0] * basis(1) + psi[1] * basis(6)
    assert np.array_equal(state, want)


@pytest.mark.parametrize("kappa", [1.0, 2.3])
def test_circuit_v2_matches_isometry(rng, kappa):
    for theta in np.linspace(0.0, math.pi, 9):
        circ = circuit_mpcc_v2(float(theta), kappa)
        for _ in range(3):
            psi = haar_random_state(rng)
            out = circuit_matrix(circ) @ start_state(psi)
            ok, residual = equal_up_to_global_phase(out, mpcc_isometry_apply(float(theta), psi))
            assert ok, (theta, kappa, residual)


# --- plumbing -------------------------------------------------------------------


def test_circuit_matrix_is_unitary():
    for circ in (circuit_mpcc_v1(1.3), circuit_mpcc_v2(1.3)):
        u = circuit_matrix(circ)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


def test_equal_up_to_global_phase():
    a = np.array([1.0, 1j, 0, 0, 0, 0, 0, 0]) / math.sqrt(2.0)
    same, residual = equal_up_to_global_phase(a, cmath.exp(0.9j) * a)
    assert same and residual < 1e-15
    different, residual = equal_up_to_global_phase(basis(0), basis(3))
    assert not different and abs(residual - 1.0) < 1e-15
    with pytest.raises(ValueError):
        equal_up_to_global_phase(basis(0), np.zeros(4))
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.array([2.0, 0.0]), np.array([0.5, 0.0]))  # not unit norm
    with pytest.raises(ValueError):
        equal_up_to_global_phase(basis(0), 2.0 * basis(0))
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.array([math.nan, 0.0]), np.array([1.0, 0.0]))


def test_serialize_parse_round_trip():
    for circ in (circuit_mpcc_v1(0.77), circuit_mpcc_v2(0.77, 1.9)):
        text = serialize_circuit(circ)
        assert parse_circuit(text) == circ
        assert serialize_circuit(parse_circuit(text)) == text


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nNOT 2\n  # indented comment\nCNOT 1 3\n"
    circ = parse_circuit(text)
    assert circ.gates == (Gate("NOT", (2,)), Gate("CNOT", (1, 3)))


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_circuit("SWAP 1 2\n")
    with pytest.raises(ValueError):
        parse_circuit("CNOT 1\n")
    with pytest.raises(ValueError):
        parse_circuit("ROTY 1 0.5 0.6\n")
