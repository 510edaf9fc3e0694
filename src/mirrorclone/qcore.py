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

# default tolerance for algebraic identities
ATOL = 1e-12


def check_finite(value, name: str):
    """Returns ``value`` unchanged if it is a finite real number and not a bool, else ValueError naming it."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):  # not a real number, or an int past the float range
        pass
    raise ValueError(f"{name} {value!r} is not finite or not a real number")


def check_int(value, name: str, lo: int, hi: float = math.inf) -> int:
    """Returns ``value`` as an int if it is an integer from lo to hi and not a bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        check_finite(value, name)  # a non-real value gets check_finite's message
    elif lo <= value <= hi:
        return int(value)
    span = f">= {lo}" if hi == math.inf else f"from {lo} to {hi}"
    raise ValueError(f"{name} {value!r} is not an integer {span}")


def check_polar(theta: float) -> float:
    """Returns ``theta`` as a float if it is a polar angle in [0, pi], else ValueError naming it."""
    if not 0.0 <= check_finite(theta, "polar angle") <= math.pi:
        raise ValueError(f"polar angle {theta!r} is not a number in [0, pi]")
    return float(theta)


def check_sequence(values, name: str) -> list:
    """Returns ``values`` as a list if they can be iterated, else ValueError naming them."""
    try:
        return list(values)
    except TypeError:
        raise ValueError(f"{name} {values!r} are not a sequence") from None


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
    """Returns ``qubits`` as a list of ints if they are distinct integers in 1..n, else ValueError."""
    qubits = [check_int(q, "qubit index", 1, n) for q in check_sequence(qubits, "qubit indices")]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices {qubits!r} must be distinct")
    return qubits


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (1-based indices).

    The result carries the kept qubits in the order given, so
    ``partial_trace(rho, [2, 1])`` also swaps them.  Leading axes of
    ``rho`` are a stack: each matrix in it is traced on its own.
    """
    rho = np.asarray(rho)
    n = {(4, 4): 2, (8, 8): 3}.get(rho.shape[-2:])  # one qubit has no qubit to trace out and one to keep
    if n is None:
        raise ValueError(f"partial_trace expects 4x4 or 8x8 matrices, not shape {rho.shape}")
    keep = check_qubits(keep, n)
    if not keep or len(keep) == n:
        raise ValueError("keep must be a nonempty strict subset of the qubits")
    stack = rho.shape[:-2]
    t = rho.reshape(stack + (2,) * (2 * n))
    col = [q + n if q + 1 in keep else q for q in range(n)]  # a shared label contracts two axes
    out = [q - 1 for q in keep] + [col[q - 1] for q in keep]
    return np.einsum(t, [..., *range(n), *col], [..., *out]).reshape(stack + (1 << len(keep),) * 2)


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Overlap <psi|rho|psi>, a float, of a unit-norm pure state with a finite density matrix.

    Stacks of both with one leading shape give an array, each entry bit for bit its lone call."""
    psi, rho = check_state(psi), np.asarray(rho)
    if rho.shape != psi.shape + psi.shape[-1:]:
        raise ValueError("state and density matrix dimensions do not match")
    if not np.issubdtype(rho.dtype, np.number) or not np.isfinite(rho).all():
        raise ValueError(f"density matrix has non-finite or non-numeric entries (dtype {rho.dtype})")
    val = (psi.conj()[..., None, :] @ rho @ psi[..., :, None])[..., 0, 0]
    resid = np.abs(val.imag).max(initial=0.0)
    if resid > ATOL:
        raise ValueError(f"overlap has imaginary residue {resid:.3e}")
    return val.real if val.ndim else float(val.real)


def haar_random_state(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random one-qubit pure state, or a ``shape`` array of them, bit for bit consecutive lone calls."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng {rng!r} is not a numpy.random.Generator")
    shape = [check_int(n, "state shape entry", 0) for n in check_sequence(shape, "state shape")]
    draws = rng.standard_normal((*shape, 2, 2))
    re, im = draws[..., 0, :], draws[..., 1, :]
    return (re + 1j * im) / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]


def check_state(psi: np.ndarray, size: int | None = None) -> np.ndarray:
    """Returns ``psi`` as an array if each state, along its last axis, has unit norm to ATOL.

    Given ``size``, each state must have ``size`` amplitudes."""
    psi = np.asarray(psi)
    if not np.issubdtype(psi.dtype, np.number):
        raise ValueError(f"state amplitudes must be numbers, not dtype {psi.dtype}")
    if not psi.ndim or size is not None and psi.shape[-1:] != (size,):
        raise ValueError(f"each state must be a vector{f' of {size} amplitudes' if size else ''}, not shape {psi.shape}")
    deviation = np.abs(np.sqrt(np.vecdot(psi, psi).real) - 1.0)
    if not (deviation <= ATOL).all():  # also rejects a NaN norm
        raise ValueError(f"state norm deviates from 1 by {deviation.max():.3e}")
    return psi


def check_choi(chi: np.ndarray) -> np.ndarray:
    """Validate that chi is a completely positive trace-preserving process.

    Checks that the entries are finite numbers, Hermiticity to 1e-12, positivity
    of the spectrum down to -1e-10, and that the partial trace over both
    clones is the identity on the input to 1e-10.  Leading axes of chi
    are a nonempty stack: every matrix in it must pass, and the worst is reported.
    """
    chi = np.asarray(chi)
    if chi.shape[-2:] != (8, 8) or chi.size == 0 or not np.issubdtype(chi.dtype, np.number):
        raise ValueError(f"process matrix must be 8x8 numbers or a nonempty stack of them, not {chi.dtype} {chi.shape}")
    if not np.isfinite(chi).all():
        raise ValueError("process matrix has non-finite entries")
    herm = float(np.abs(chi - chi.conj().swapaxes(-1, -2)).max())
    if herm > 1e-12:
        raise ValueError(f"process matrix not Hermitian: deviation {herm:.3e}")
    low = float(np.linalg.eigvalsh(chi)[..., 0].min())
    if low < -1e-10:
        raise ValueError(f"process matrix has negative eigenvalue {low:.3e}")
    defect = float(np.abs(partial_trace(chi, [1]) - np.eye(2)).max())
    if defect > 1e-10:
        raise ValueError(f"process matrix is not trace preserving: defect {defect:.3e}")
    return chi


def check_scores(scores) -> np.ndarray:
    """A non-empty (N, 8, 8) stack of finite, Hermitian, PSD, nonzero scores, as complex."""
    scores = np.asarray(scores)  # an int past the float range, or any other object, gives an object array
    if scores.dtype.kind not in "biufc" or scores.ndim != 3 or scores.shape[1:] != (8, 8) or len(scores) == 0:
        raise ValueError("score matrices must be 8x8 numbers, stacked as (N, 8, 8) with N >= 1")
    scores = scores.astype(complex, copy=False)
    if not np.isfinite(scores).all():
        raise ValueError("score matrices must be finite")
    scale = np.abs(scores).max(axis=(1, 2))
    if (np.abs(scores - scores.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12 * scale).any():
        raise ValueError("score matrices must be Hermitian, with no imaginary part (S - S^dagger)/2i")
    if (np.linalg.eigvalsh(scores)[:, 0] < -1e-12 * scale).any() or not scale.all():
        raise ValueError("score matrices must be positive semidefinite and nonzero")
    return scores
