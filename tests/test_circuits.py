"""Tests for the gate-level realizations.

Both circuits are checked against the isometry they are supposed to
implement; the exchange propagator is checked against its closed-form
sector amplitudes and the interaction time against a bisection solve on
the simulated propagator.
"""

import cmath
import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorclone.circuits import (
    GATE_ARITY,
    HADAMARD_CONJUGATOR,
    MPCC_V1_LAYOUT,
    MPCC_V2_LAYOUT,
    Circuit,
    Gate,
    _gate_stack,
    circuit_matrix,
    circuit_mpcc_v1,
    circuit_mpcc_v2,
    compose_layout,
    decompose_ccr,
    eqneighbor_hamiltonian,
    eqneighbor_propagator,
    equal_up_to_global_phase,
    gate_matrix,
    interaction_time,
    layout_text,
    mpcc_v1_params,
    mpcc_v2_params,
    parse_circuit,
    propagator_coefficients,
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
    with pytest.raises(ValueError):
        Gate("NOT", (True,))  # a bool is not a qubit index
    with pytest.raises(ValueError):
        Gate("NOT", ([1],))  # unhashable entry
    with pytest.raises(ValueError):
        Gate("NOT", 2)  # qubits not a sequence
    with pytest.raises(ValueError):
        Gate("ROTY", (1,), 0.5)  # params not a sequence
    with pytest.raises(ValueError):
        Gate("ROTY", (1,), ("x",))
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate(["CNOT"], (1, 2))  # an unhashable kind


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
    with pytest.raises(ValueError, match="not a sequence"):
        Circuit(3)


@pytest.mark.parametrize(
    "call",
    [
        partial(gate_matrix, "CNOT 1 2"),
        partial(circuit_matrix, [Gate("NOT", (1,))]),
        partial(serialize_circuit, "x"),
        partial(parse_circuit, 3),
        partial(parse_circuit, b"NOT 1"),
    ],
    ids=["gate_matrix", "circuit_matrix", "serialize_circuit", "parse_circuit-int", "parse_circuit-bytes"],
)
def test_wrong_argument_types_raise_value_error(call):
    # ValueError naming the argument, not AttributeError or TypeError from the first use of it
    with pytest.raises(ValueError, match="is not a"):
        call()


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


@pytest.mark.parametrize("gate", [Gate("CNOT", (1, 3)), Gate("NOT", (2,)), Gate("CH", (3, 2))])
def test_fixed_gate_matrix_is_a_fresh_copy(gate):
    first = gate_matrix(gate)
    first[:] = 7.0
    again = gate_matrix(gate)
    assert again is not first and np.array_equal(again, reference_matrix(gate))
    assert again.flags.writeable


# --- the lone route: every gate built and multiplied on its own ---------------


def lone_gate_matrix(gate):
    """A gate's 8x8 unitary built alone, with no stack axis: the bit-for-bit oracle of the stacks."""
    kind, qubits, params = gate.kind, gate.qubits, gate.params
    if kind == "EVOLVE":
        w, v = np.linalg.eigh(eqneighbor_hamiltonian(1.0))
        return (v * np.exp(-1j * (params[1] * w) * params[0])) @ v.conj().T

    def on(u, wires):
        order = [*wires, *(q for q in (1, 2, 3) if q not in wires)]
        axes = [order.index(q) for q in (1, 2, 3)]
        full = np.kron(u, np.eye(8 >> len(wires))).reshape((2,) * 6)
        return full.transpose(axes + [a + 3 for a in axes]).reshape(8, 8)

    if kind == "ROTY":
        c, s = math.cos(params[0] / 2.0), math.sin(params[0] / 2.0)
        u = np.array([[c, -s], [s, c]], dtype=np.complex128)
    elif kind in ("NOT", "CNOT", "CH"):
        u = X
    else:
        u = np.diag([cmath.exp(-0.5j * params[0]), cmath.exp(0.5j * params[0])])
    block = np.eye(2 << (len(qubits) - 1), dtype=np.complex128)
    k = (0 if kind == "CCR0" else 1) * (len(block) - 2)
    block[k : k + 2, k : k + 2] = u
    m = on(block, qubits)
    if kind == "CH":
        conj = on(HADAMARD_CONJUGATOR, qubits[1:])
        m = conj @ m @ conj
    return m


def lone_circuit_matrix(circuit):
    m = np.eye(8, dtype=np.complex128)
    for gate in circuit.gates:
        m = lone_gate_matrix(gate) @ m
    return m


PLACEMENTS = [("ROTY", (2,)), ("NOT", (3,)), ("CNOT", (1, 3)), ("CH", (3, 2)), ("CR", (2, 3))]
PLACEMENTS += [("CCR", (1, 2, 3)), ("CCR0", (1, 2, 3)), ("EVOLVE", (1, 2, 3))]


@settings(max_examples=40, deadline=None)
@given(
    drawn=st.lists(st.floats(-10.0, 10.0), max_size=6),
    kappas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
)
def test_gate_stacks_equal_the_lone_builder_bit_for_bit(drawn, kappas):
    column = [0.0, math.pi, -math.pi, *drawn]  # EVOLVE pairs each time with a coupling rate
    for kind, qubits in PLACEMENTS:
        params = [(a, kappas[i % len(kappas)])[: GATE_ARITY[kind][1]] for i, a in enumerate(column)]
        stack = _gate_stack(kind, qubits, params)
        assert stack.shape == (len(column), 8, 8)
        for row, p in zip(stack, params):
            gate = Gate(kind, qubits, p)
            assert row.tobytes() == gate_matrix(gate).tobytes() == lone_gate_matrix(gate).tobytes()


@settings(max_examples=20, deadline=None)
@given(extra=st.lists(st.floats(0.0, math.pi), max_size=8), kappa=st.floats(0.2, 3.0))
def test_circuit_batches_equal_the_lone_route_bit_for_bit(extra, kappa):
    grid = [0.0, math.pi / 2, math.pi, FIDELITY_MINIMUM_ANGLE, math.pi - FIDELITY_MINIMUM_ANGLE, *extra]
    for layout, params_at, build in (
        (MPCC_V1_LAYOUT, mpcc_v1_params, circuit_mpcc_v1),
        (MPCC_V2_LAYOUT, partial(mpcc_v2_params, kappa=kappa), partial(circuit_mpcc_v2, kappa=kappa)),
    ):
        rows = [params_at(theta) for theta in grid]
        assert repr(params_at(grid)) == repr(rows)  # the column call gives the lone calls' rows, signed zeros too
        stack = compose_layout(layout, rows)
        assert stack.shape == (len(grid), 8, 8)
        for row, text, theta in zip(stack, layout_text(layout, rows), grid, strict=True):
            circ = build(theta)
            assert row.tobytes() == circuit_matrix(circ).tobytes() == lone_circuit_matrix(circ).tobytes()
            assert text == serialize_circuit(circ)


def test_composer_and_writer_reject_rows_that_do_not_fit_the_layout():
    good = mpcc_v1_params(0.4)
    for layout, rows in (
        (MPCC_V1_LAYOUT, []),  # no row
        (MPCC_V1_LAYOUT, None),
        (MPCC_V1_LAYOUT, [good, good[:-1]]),  # a row one gate short
        (MPCC_V1_LAYOUT, [good, ((0.1, 0.2), (), (), (), ())]),  # two angles for a one-angle gate
        (MPCC_V1_LAYOUT, [good, ((math.nan,), (), (), (), ())]),
        (MPCC_V1_LAYOUT, [good, (("0.1",), (), (), (), ())]),
        (MPCC_V1_LAYOUT, [good, ((10**400,), (), (), (), ())]),  # an int past the float range
        (MPCC_V1_LAYOUT, [good, ((True,), (), (), (), ())]),  # a bool, refused in a later row as in the first
        (MPCC_V1_LAYOUT, [good, ((np.True_,), (), (), (), ())]),
        (MPCC_V1_LAYOUT, [good, 3]),
        (MPCC_V2_LAYOUT, [good]),  # another variant's row
        ((("BAD", (1,)),), [((),)]),  # an unknown kind
        ((("NOT", (1, 2)),), [((),)]),  # a kind on the wrong number of qubits
        ((3,), [((),)]),  # a layout entry that is not a (kind, qubits) pair
        (None, [good]),
    ):
        for call in (compose_layout, layout_text):
            with pytest.raises(ValueError):
                call(layout, rows)
    # one-pass layouts and rows are read once, not spent by the check
    for call in (compose_layout, layout_text):
        want = call(MPCC_V1_LAYOUT, [good, good])
        assert np.array_equal(call(iter(MPCC_V1_LAYOUT), (iter(row) for row in [good, good])), want)
    # an empty layout composes to the identity, once per row
    assert np.array_equal(compose_layout((), [(), ()]), np.tile(np.eye(8), (2, 1, 1)))
    assert layout_text((), [()]) == ["\n"] == [serialize_circuit(Circuit())]


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
    assert abs(mpcc_v1_params(0.0)[0][0]) < 1e-12  # lam = 1
    assert abs(mpcc_v1_params(math.pi / 2)[0][0] - math.pi / 2) < 1e-12  # lam = 1/sqrt(2)


def test_circuit_v1_pole_cases():
    circ = circuit_mpcc_v1(0.0)
    assert np.abs(circuit_matrix(circ) @ basis(0) - basis(0)).max() < 1e-12
    assert np.abs(circuit_matrix(circ) @ basis(4) - basis(7)).max() < 1e-12


def test_circuit_v1_gate_list():
    gates = circuit_mpcc_v1(0.8).gates
    assert [g.kind for g in gates] == ["ROTY", "CH", "CNOT", "CNOT", "CNOT"]
    assert gates[0].qubits == (3,)
    assert gates[0].params == (2.0 * math.acos(mpcc_params(0.8).lam),)
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
    # kappa*t is finite but 2*kappa*t, the phase of exp(-2i*kappa*t), is not
    with pytest.raises(ValueError, match="phase 2\\*kappa\\*t"):
        propagator_coefficients(9e307, 1.0)


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


def test_propagator_shares_one_eigendecomposition_across_couplings():
    # H = kappa H0: at kappa = 1 the propagator is bit for bit the eigendecomposition of H
    # itself, and at any other kappa it agrees with that route to rounding
    for t in (0.0, 0.37, 1.7, 4.1):
        w, v = np.linalg.eigh(eqneighbor_hamiltonian(1.0))
        assert eqneighbor_propagator(t, 1.0).tobytes() == ((v * np.exp(-1j * w * t)) @ v.conj().T).tobytes()
        for kappa in (0.3, 2.5, -1.1):
            w, v = np.linalg.eigh(eqneighbor_hamiltonian(kappa))
            assert np.abs(eqneighbor_propagator(t, kappa) - (v * np.exp(-1j * w * t)) @ v.conj().T).max() < 1e-13


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
    # a rate this small puts the time past the float range
    with pytest.raises(ValueError, match="interaction time"):
        interaction_time(0.7, 1e-320)
    # 3 * kappa overflows here, but the time is still kappa's share of the kappa = 1 time
    assert interaction_time(0.7, 7e307) > 0.0
    assert abs(interaction_time(0.7, 7e307) * 7e307 - interaction_time(0.7, 1.0)) < 1e-12


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


@pytest.mark.parametrize("kappa", [1.0, 2.3, 7e307])  # at 7e307, 3 * kappa overflows
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


def test_stacked_residuals_equal_the_lone_calls_bit_for_bit(rng):
    a = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = np.exp(1j * rng.uniform(0.0, 6.0, (40, 1))) * a
    b[::2] = a[1::2]  # half the pairs unequal
    b[::3] += 1e-9 * rng.standard_normal((14, 8))
    b /= np.linalg.norm(b, axis=1)[:, None]
    # |z| rounds to 1.0 by abs(complex) and np.hypot, and one ulp above by np.abs's SIMD loop
    pinned = -0.0027615004177640734 + 0.9999961870504521j
    a[-1], b[-1] = basis(0), pinned * basis(0)
    equal, residual = equal_up_to_global_phase(a, b)
    assert equal.shape == residual.shape == (40,)
    for x, y, flag, got in zip(a, b, equal, residual):
        assert got.tobytes() == np.float64(1.0 - abs(complex(np.vdot(x, y)))).tobytes()
        assert (flag, got) == equal_up_to_global_phase(x, y) and flag == (got <= 1e-10)
    assert abs(pinned) == 1.0 and residual[-1] == 0.0 and equal[-1]
    assert not equal[::2].any() and equal[1::2].all()
    with pytest.raises(ValueError, match="equal shape"):
        equal_up_to_global_phase(a, b[:-1])
    b[7] *= 1.0 + 1e-9  # one state off the unit sphere
    with pytest.raises(ValueError, match="norm"):
        equal_up_to_global_phase(a, b)


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
