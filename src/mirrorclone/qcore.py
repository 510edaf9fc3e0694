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


def check_finite(value, name: str):
    """Returns ``value`` unchanged if it is a finite real number, else ValueError naming it."""
    try:
        if math.isfinite(value):
            return value
    except TypeError:  # not a real number
        pass
    raise ValueError(f"{name} {value!r} is not finite or not a real number")


def ket_from_angles(theta: float, phi: float) -> np.ndarray:
    """Single-qubit state cos(theta/2)|0> + exp(i*phi) sin(theta/2)|1>."""
    check_finite(theta, "polar angle")
    check_finite(phi, "azimuth")
    return np.array(
        [math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))],
        dtype=np.complex128,
    )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product a tensor b of two matrices, or of two broadcasting stacks of them."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def check_qubits(qubits, n: int) -> list:
    """Returns ``qubits`` as a list if they are distinct integers in 1..n, else ValueError."""
    try:
        qubits = list(qubits)
    except TypeError:
        raise ValueError(f"qubit indices {qubits!r} are not a sequence") from None
    if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in qubits):
        raise ValueError(f"qubit indices {qubits!r} must be integers")
    if len(set(qubits)) != len(qubits) or any(q < 1 or q > n for q in qubits):
        raise ValueError(f"qubit indices {qubits!r} must be distinct integers in 1..{n}")
    return qubits


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (1-based indices).

    The result carries the kept qubits in the order given, so
    ``partial_trace(rho, [2, 1])`` also swaps them.  Leading axes of
    ``rho`` are a stack: each matrix in it is traced on its own.
    """
    rho = np.asarray(rho)
    n = {(2, 2): 1, (4, 4): 2, (8, 8): 3}.get(rho.shape[-2:])
    if n is None:
        raise ValueError(f"partial_trace expects 2x2, 4x4 or 8x8 matrices, not shape {rho.shape}")
    keep = check_qubits(keep, n)
    if not keep or len(keep) == n:
        raise ValueError("keep must be a nonempty strict subset of the qubits")
    stack = rho.shape[:-2]
    t = rho.reshape(stack + (2,) * (2 * n))
    col = [q + n if q + 1 in keep else q for q in range(n)]  # a shared label contracts two axes
    out = [q - 1 for q in keep] + [col[q - 1] for q in keep]
    return np.einsum(t, [..., *range(n), *col], [..., *out]).reshape(stack + (1 << len(keep),) * 2)


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a unit-norm pure state with a finite density matrix."""
    psi = np.asarray(psi)
    rho = np.asarray(rho)
    if rho.shape != (psi.size, psi.size):
        raise ValueError("state and density matrix dimensions do not match")
    check_state(psi)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
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
