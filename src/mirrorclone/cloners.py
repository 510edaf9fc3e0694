"""Closed-form 1-to-2 cloning machines.

Three machines are provided.  The mirror machine is optimal when only the
magnitude of the input's z polarization is known, i.e. the input polar
angle is theta or pi - theta with equal weight.  The phase-covariant
machine assumes the polar angle itself is known; the universal machine
assumes nothing.  Channels are represented by their 8x8 process matrices
on (input qubit) x (clone 1) x (clone 2), input most significant: the
channel acts as rho_out = Tr_in[chi (rho_in^T tensor id)] with the
transpose taken in the computational basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import check_state, partial_trace

SQRT2 = math.sqrt(2.0)

# polar angle at which the mirror machine's fidelity reaches its minimum 5/6
FIDELITY_MINIMUM_ANGLE = math.acos(math.sqrt(3.0) / 3.0)


def _check_polar(theta: float, phi: float = 0.0) -> None:
    """A polar angle in [0, pi] and a finite azimuth, or ValueError."""
    try:
        if not (math.isfinite(theta) and 0.0 <= theta <= math.pi):
            raise ValueError(f"polar angle {theta!r} outside [0, pi]")
        if not math.isfinite(phi):
            raise ValueError(f"azimuth {phi!r} is not finite")
    except TypeError:  # math.isfinite of a value that is not a real number
        raise ValueError(f"polar angle {theta!r} or azimuth {phi!r} is not a real number") from None


@dataclass(frozen=True)
class MpccParams:
    """Parameters of the optimal mirror machine at one polar angle.

    lam is the direct-copy amplitude (weight kept on |00> and |11|) and
    lam_bar = sqrt(1 - lam^2) the symmetric-mix amplitude.  a, b, c are
    the process-matrix weights derived from them: a on the direct-copy
    projectors, b on the symmetric-mix block, c on the coherences between
    the two (c = sqrt(a*b)).  candidates lists the four signed roots of
    the rationalized stationarity equation; squaring discards a sign, so
    only the first and last are true stationary points of the functional.
    lam is the first root and is checked to be the maximizer.
    """

    theta: float
    p: float
    candidates: tuple[float, float, float, float]
    lam: float
    lam_bar: float
    a: float
    b: float
    c: float

    @property
    def fidelity(self) -> float:
        """F = (1 + lam^2 cos(theta)^2 + sqrt(2) lam lam_bar sin(theta)^2) / 2."""
        c_sq = math.cos(self.theta) ** 2
        s_sq = math.sin(self.theta) ** 2
        return 0.5 * (1.0 + self.a * c_sq + SQRT2 * self.lam * self.lam_bar * s_sq)


def fidelity_for_amplitude(theta: float, lam: float) -> float:
    """Mean clone fidelity of the mirror-symmetric isometry with amplitude lam.

    F = (1 + lam^2)/2 - sin(theta)^2 * (lam^2 - lam*sqrt(2 - 2*lam^2)) / 2
    """
    _check_polar(theta)
    if not -1.0 <= lam <= 1.0:
        raise ValueError("amplitude must lie in [-1, 1]")
    lam_bar_sq = max(1.0 - lam * lam, 0.0)
    s_sq = math.sin(theta) ** 2
    return (1.0 + lam * lam) / 2.0 - 0.5 * s_sq * (lam * lam - lam * math.sqrt(2.0 * lam_bar_sq))


def mpcc_params(theta: float) -> MpccParams:
    """Solve the stationarity quartic and select the optimal amplitude.

    The four candidate amplitudes are (-1)^i * sqrt(1/2 + (-1)^j *
    cos(theta)^2 / (2*sqrt(p))) for i, j in {0, 1}, ordered by i + 2j,
    with p = 2 - 4*cos(theta)^2 + 3*cos(theta)^4; their squares solve the
    quartic obtained by rationalizing dF/dlam = 0.  The first one is the
    optimum; this is asserted against a direct argmax over all four and
    any disagreement raises ArithmeticError.
    """
    _check_polar(theta)
    cos_sq = math.cos(theta) ** 2
    p = 2.0 - 4.0 * cos_sq + 3.0 * cos_sq * cos_sq
    shift = cos_sq / (2.0 * math.sqrt(p))
    # shift <= 1/2 always: cos^4 <= p reduces to 2*(1 - cos^2)^2 >= 0
    plus = math.sqrt(0.5 + shift)
    minus = math.sqrt(max(0.5 - shift, 0.0))
    candidates = (plus, -plus, minus, -minus)
    lam = candidates[0]
    best = max(fidelity_for_amplitude(theta, c) for c in candidates)
    if best - fidelity_for_amplitude(theta, lam) > 1e-12:
        raise ArithmeticError(
            f"amplitude selection failed at theta={theta!r}: "
            f"first stationary point is not the maximizer"
        )
    lam_bar = math.sqrt(max(1.0 - lam * lam, 0.0))
    a = lam * lam
    b = lam_bar * lam_bar / 2.0
    c = lam * lam_bar / SQRT2
    return MpccParams(theta, p, candidates, lam, lam_bar, a, b, c)


def mpcc_fidelity(theta: float) -> float:
    """Optimal mirror-machine fidelity, MpccParams.fidelity at the optimal amplitude.

    Equals 1 at the poles, has the global minimum 5/6 at cos(theta)^2 = 1/3.
    """
    return mpcc_params(theta).fidelity


def choi_from_weights(a: float, b: float, c: float) -> np.ndarray:
    """Process matrix of the mirror-symmetric isometry channel.

    Weight a sits on the direct-copy projectors |000><000| and |111><111|,
    b on the symmetric-mix block, c on the coherences connecting them.
    Trace preservation requires a + 2b = 1; the matrix is rank 2 when
    c = sqrt(a*b).
    """
    chi = np.zeros((8, 8), dtype=np.complex128)
    chi[0, 0] = chi[7, 7] = a
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (5, 5), (5, 6), (6, 5), (6, 6)):
        chi[i, j] = b
    for i, j in ((0, 5), (0, 6), (5, 0), (6, 0), (1, 7), (2, 7), (7, 1), (7, 2)):
        chi[i, j] = c
    return chi


def mpcc_choi(theta: float) -> np.ndarray:
    """Process matrix of the optimal mirror machine at ``theta``."""
    pr = mpcc_params(theta)
    return choi_from_weights(pr.a, pr.b, pr.c)


def uc_choi() -> np.ndarray:
    """Process matrix of the symmetric universal machine (a = 2/3)."""
    return choi_from_weights(2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0)


def mpcc_isometry_apply(theta: float, psi: np.ndarray) -> np.ndarray:
    """Apply the mirror-machine isometry to a single-qubit state.

    Output register order is (clone 1, clone 2, ancilla):
      |0>  ->  lam |000> + lam_bar (|011> + |101|)/sqrt(2)
      |1>  ->  lam |111> + lam_bar (|010> + |100|)/sqrt(2)
    """
    psi = np.asarray(psi)
    if psi.shape != (2,):
        raise ValueError("input must be a single-qubit state vector")
    check_state(psi)
    pr = mpcc_params(theta)
    h = pr.lam_bar / SQRT2
    image0 = np.array([pr.lam, 0, 0, h, 0, h, 0, 0], dtype=np.complex128)
    image1 = np.array([0, 0, h, 0, h, 0, 0, pr.lam], dtype=np.complex128)
    return psi[0] * image0 + psi[1] * image1


def clone(psi: np.ndarray, chi: np.ndarray):
    """Send a single-qubit state through a process matrix.

    Returns (rho_out, rho1, rho2): the joint two-clone state and the two
    reduced clone states.
    """
    psi = np.asarray(psi)
    chi = np.asarray(chi)
    if psi.shape != (2,):
        raise ValueError("input must be a single-qubit state vector")
    check_state(psi)
    if chi.shape != (8, 8):
        raise ValueError("process matrix must be 8x8")
    # Tr_in[chi (rho_in^T tensor id)] as one contraction over the input indices
    rho_out = np.einsum("iajb,ij->ab", chi.reshape(2, 4, 2, 4), np.outer(psi, psi.conj()))
    rho1 = partial_trace(rho_out, [1])
    rho2 = partial_trace(rho_out, [2])
    return rho_out, rho1, rho2


def trace_over_outputs(op: np.ndarray) -> np.ndarray:
    """Partial trace over the 4-dim output of an (input x output) operator or a stack of them."""
    op = np.asarray(op)
    if op.shape[-2:] != (8, 8):
        raise ValueError("operator must be 8x8")
    return np.einsum("...iaja->...ij", op.reshape(*op.shape[:-2], 2, 4, 2, 4))


def check_choi(chi: np.ndarray) -> np.ndarray:
    """Validate that chi is a completely positive trace-preserving process.

    Checks that the entries are finite, Hermiticity to 1e-12, positivity
    of the spectrum down to -1e-10, and that the partial trace over both
    clones is the identity on the input to 1e-10.
    """
    chi = np.asarray(chi)
    if chi.shape != (8, 8):
        raise ValueError("process matrix must be 8x8")
    if not np.isfinite(chi).all():
        raise ValueError("process matrix has non-finite entries")
    herm = float(np.abs(chi - chi.conj().T).max())
    if herm > 1e-12:
        raise ValueError(f"process matrix not Hermitian: deviation {herm:.3e}")
    w = np.linalg.eigvalsh(chi)
    if w[0] < -1e-10:
        raise ValueError(f"process matrix has negative eigenvalue {w[0]:.3e}")
    defect = float(np.abs(trace_over_outputs(chi) - np.eye(2)).max())
    if defect > 1e-10:
        raise ValueError(f"process matrix is not trace preserving: defect {defect:.3e}")
    return chi


def mpcc_clone_bloch(theta: float, phi: float) -> np.ndarray:
    """Bloch vector of either clone of the mirror machine.

    (sqrt(2) lam lam_bar sin(theta) cos(phi),
     sqrt(2) lam lam_bar sin(theta) sin(phi),
     lam^2 cos(theta))
    """
    _check_polar(theta, phi)
    pr = mpcc_params(theta)
    r_eq = SQRT2 * pr.lam * pr.lam_bar * math.sin(theta)
    return np.array([r_eq * math.cos(phi), r_eq * math.sin(phi), pr.a * math.cos(theta)])


def _pole_sign(theta: float) -> float:
    # sign of (pi - 2*theta); the boundary theta = pi/2 is assigned +1,
    # where the fidelity does not depend on the choice
    return 1.0 if math.pi - 2.0 * theta >= 0.0 else -1.0


def pcc_clone_bloch(theta: float, phi: float) -> np.ndarray:
    """Bloch vector of either clone of the phase-covariant machine."""
    _check_polar(theta, phi)
    s = _pole_sign(theta)
    return np.array(
        [
            math.sin(theta) * math.cos(phi) / SQRT2,
            math.sin(theta) * math.sin(phi) / SQRT2,
            (s + math.cos(theta)) / 2.0,
        ]
    )


def pcc_fidelity(theta: float) -> float:
    """Clone fidelity of the phase-covariant machine at known polar angle."""
    _check_polar(theta)
    s = _pole_sign(theta)
    cos_t = math.cos(theta)
    return 0.5 * (1.0 + math.sin(theta) ** 2 / SQRT2 + cos_t * (s + cos_t) / 2.0)


def uc_fidelity(n_copies: int = 2) -> float:
    """Fidelity (2M + 1)/(3M) of the symmetric 1-to-M universal machine."""
    if not (math.isfinite(n_copies) and int(n_copies) == n_copies >= 1):
        raise ValueError("number of copies must be an integer >= 1")
    return (2.0 * n_copies + 1.0) / (3.0 * n_copies)


def uc_clone_bloch(theta: float, phi: float) -> np.ndarray:
    """Bloch vector of a universal-machine clone: the input shrunk by 2/3."""
    _check_polar(theta, phi)
    return (2.0 / 3.0) * np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
