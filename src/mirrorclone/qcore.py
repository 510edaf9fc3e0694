"""Dense linear algebra for registers of one to three qubits.

Qubit 1 is the most significant bit of the basis index throughout, so the
basis ket |q1 q2 q3> sits at index 4*q1 + 2*q2 + q3.  Everything works on
plain complex numpy arrays; functions are pure and return fresh arrays.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

ID2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# default tolerance for algebraic identities
ATOL = 1e-12


def ket_from_angles(theta: float, phi: float) -> np.ndarray:
    """Single-qubit state cos(theta/2)|0> + exp(i*phi) sin(theta/2)|1>."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("Bloch angles must be finite")
    return np.array(
        [math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))],
        dtype=np.complex128,
    )


def num_qubits(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension in {2, 4, 8}."""
    n = max(dim, 1).bit_length() - 1
    if dim != 1 << n or not 1 <= n <= 3:
        raise ValueError(f"dimension {dim} is not a register of 1..3 qubits")
    return n


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (1-based indices).

    The result carries the kept qubits in the order given, so
    ``partial_trace(rho, [2, 1])`` also swaps them.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    n = num_qubits(rho.shape[0])
    keep = list(keep)
    if not all(isinstance(q, numbers.Integral) for q in keep):
        raise ValueError("keep indices must be integers")
    if len(set(keep)) != len(keep) or any(q < 1 or q > n for q in keep):
        raise ValueError(f"keep indices must be distinct integers in 1..{n}")
    if not keep or len(keep) == n:
        raise ValueError("keep must be a nonempty strict subset of the qubits")
    t = rho.reshape((2,) * (2 * n))
    row = list(range(n))
    col = [q + n for q in range(n)]
    for q in range(n):
        if q + 1 not in keep:
            col[q] = row[q]  # same label on both axes contracts them
    out = [row[q - 1] for q in keep] + [col[q - 1] for q in keep]
    dim = 1 << len(keep)
    return np.einsum(t, row + col, out).reshape(dim, dim)


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a unit-norm pure state with a density matrix."""
    psi = np.asarray(psi)
    rho = np.asarray(rho)
    if rho.shape != (psi.size, psi.size):
        raise ValueError("state and density matrix dimensions do not match")
    check_state(psi)
    val = complex(psi.conj() @ rho @ psi)
    if abs(val.imag) > ATOL:
        raise ValueError(f"overlap has imaginary residue {val.imag:.3e}")
    return val.real


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr rho*X, Tr rho*Y, Tr rho*Z) of a one-qubit state."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError("Bloch vector is defined for 2x2 density matrices")
    return np.array(
        [
            np.trace(rho @ PAULI_X).real,
            np.trace(rho @ PAULI_Y).real,
            np.trace(rho @ PAULI_Z).real,
        ]
    )


def haar_random_state(rng: np.random.Generator, n_qubits: int = 1) -> np.ndarray:
    """Haar-random pure state on ``n_qubits`` qubits, an integer from 1 to 3."""
    if not (isinstance(n_qubits, numbers.Integral) and 1 <= n_qubits <= 3):
        raise ValueError(f"n_qubits {n_qubits!r} is not an integer from 1 to 3")
    dim = 2**n_qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def check_state(psi: np.ndarray) -> np.ndarray:
    """Validate unit norm to ATOL; returns the input unchanged."""
    psi = np.asarray(psi)
    norm = math.sqrt(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= ATOL:  # also rejects a NaN norm
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return psi
