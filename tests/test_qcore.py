"""Unit tests for the dense one-to-three-qubit register helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorclone.qcore import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_vector,
    check_state,
    fidelity_pure,
    haar_random_state,
    ket_from_angles,
    num_qubits,
    partial_trace,
)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_X, ID2)
    assert np.allclose(PAULI_Y @ PAULI_Y, ID2)
    assert np.allclose(PAULI_Z @ PAULI_Z, ID2)
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
@pytest.mark.parametrize("phi", [0.0, 1.0, -2.5])
def test_ket_from_angles_bloch_roundtrip(theta, phi):
    psi = ket_from_angles(theta, phi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    rho = np.outer(psi, psi.conj())
    want = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    assert np.abs(bloch_vector(rho) - want).max() < 1e-14


def test_ket_from_angles_rejects_nonfinite():
    with pytest.raises(ValueError):
        ket_from_angles(math.nan, 0.0)
    with pytest.raises(ValueError):
        ket_from_angles(0.0, math.inf)


def test_num_qubits():
    assert num_qubits(2) == 1
    assert num_qubits(4) == 2
    assert num_qubits(8) == 3
    for dim in (0, 1, 3, 6, 16):
        with pytest.raises(ValueError):
            num_qubits(dim)


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(rho, [1]) - rho_a).max() < 1e-14
    assert np.abs(partial_trace(rho, [2]) - rho_b).max() < 1e-14


def test_partial_trace_keep_order_swaps(rng):
    parts = [random_density(rng, 2) for _ in range(3)]
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    swapped = partial_trace(rho, [3, 1])
    assert np.abs(swapped - np.kron(parts[2], parts[0])).max() < 1e-14


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    assert np.abs(partial_trace(rho, [1]) - ID2 / 2).max() < 1e-14
    assert np.abs(partial_trace(rho, [2]) - ID2 / 2).max() < 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), keep=st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]))
def test_partial_trace_preserves_trace_and_hermiticity(seed, keep):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    out = partial_trace(rho, list(keep))
    assert out.shape == (2 ** len(keep),) * 2
    assert abs(complex(np.trace(out)) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_partial_trace_validation(rng):
    rho = random_density(rng, 4)
    for keep in ([], [1, 2], [0], [3], [1, 1], [1.5], [1.0]):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)
    with pytest.raises(ValueError):
        partial_trace(np.zeros((2, 4)), [1])


def test_fidelity_pure_matches_quadratic_form(rng):
    psi = haar_random_state(rng, 2)
    rho = random_density(rng, 4)
    want = (psi.conj() @ rho @ psi).real
    assert abs(fidelity_pure(psi, rho) - want) < 1e-14
    assert abs(fidelity_pure(psi, np.outer(psi, psi.conj())) - 1.0) < 1e-14


def test_fidelity_pure_validation():
    with pytest.raises(ValueError):
        fidelity_pure(np.array([1.0, 0.0]), np.eye(4))
    skew = np.array([[0.0, 1j], [0.0, 0.0]])  # <+|skew|+> = i/2
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        fidelity_pure(plus, skew)
    with pytest.raises(ValueError):
        fidelity_pure(np.array([2.0, 0.0]), np.eye(2) / 2)  # not unit norm


def test_bloch_vector_axis_states():
    assert np.abs(bloch_vector(ID2 / 2)).max() < 1e-14
    up = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.abs(bloch_vector(up) - [0.0, 0.0, 1.0]).max() < 1e-14
    with pytest.raises(ValueError):
        bloch_vector(np.eye(4))


def test_haar_random_state_basics():
    a = haar_random_state(np.random.default_rng(5), 3)
    b = haar_random_state(np.random.default_rng(5), 3)
    assert a.shape == (8,)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert np.array_equal(a, b)  # seeded draws are reproducible
    assert haar_random_state(np.random.default_rng(5), np.int64(2)).shape == (4,)
    for n_qubits in (0, -1, 4, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="n_qubits"):
            haar_random_state(np.random.default_rng(5), n_qubits)


def test_check_state():
    psi = np.array([1.0, 0.0])
    assert check_state(psi) is psi
    with pytest.raises(ValueError):
        check_state(np.array([1.0, 1.0]))
