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
from functools import partial

import numpy as np

from .qcore import check_choi, check_finite, check_int, check_polar, check_state, partial_trace

SQRT2 = math.sqrt(2.0)

# polar angle at which the mirror machine's fidelity reaches its minimum 5/6
FIDELITY_MINIMUM_ANGLE = math.acos(math.sqrt(3.0) / 3.0)


@dataclass(frozen=True)
class MpccParams:
    """Parameters of the optimal mirror machine at one polar angle, or columns of them at a column of angles.

    lam is the direct-copy amplitude (weight kept on |00> and |11|) and
    lam_bar = sqrt(1 - lam^2) the symmetric-mix amplitude.  a, b, c are
    the process-matrix weights derived from them: a on the direct-copy
    projectors, b on the symmetric-mix block, c on the coherences between
    the two (c = sqrt(a*b)).  candidates lists the four signed roots of
    the rationalized stationarity equation; squaring discards a sign, so
    only the first and last are true stationary points of the functional.
    lam is the first root and is checked to be the maximizer.  fidelity is
    F = (1 + lam^2 cos(theta)^2 + sqrt(2) lam lam_bar sin(theta)^2) / 2.
    """

    theta: float
    p: float
    candidates: tuple[float, float, float, float]
    lam: float
    lam_bar: float
    a: float
    b: float
    c: float
    fidelity: float


def _polar_columns(theta) -> tuple:
    """Checks each angle of ``theta``, one angle or a 1-D column of them, once (check_polar).

    Returns whether it was one angle, then the angles and their cos, sin,
    cos^2 and sin^2 by math, as float64 columns: NumPy then rounds each +,
    -, *, / and sqrt of the closed forms as Python does, bit for bit.
    """
    items = theta.tolist() if isinstance(theta, np.ndarray) else theta
    lone = not isinstance(items, (list, tuple))
    angles = list(map(check_polar, [items] if lone else items))
    cos, sin = list(map(math.cos, angles)), list(map(math.sin, angles))
    return lone, *np.array([angles, cos, sin, [c ** 2 for c in cos], [s ** 2 for s in sin]])


def _fit(lone: bool, column: np.ndarray):
    """A column, or a stack of rows, as its angles came: for one angle its one row, a scalar row as a Python float."""
    return column if not lone else column[0] if column.ndim > 1 else column.item()


def mpcc_params(theta) -> MpccParams:
    """Solve the stationarity quartic and select the optimal amplitude, at one angle or a column of them.

    The four candidate amplitudes are (-1)^i * sqrt(1/2 + (-1)^j *
    cos(theta)^2 / (2*sqrt(p))) for i, j in {0, 1}, ordered by i + 2j,
    with p = 2 - 4*cos(theta)^2 + 3*cos(theta)^4; their squares solve the
    quartic obtained by rationalizing dF/dlam = 0.  The first one is the
    optimum; this is asserted against a direct argmax over all four and
    any disagreement raises ArithmeticError.
    """
    lone, theta, _, _, cos_sq, s_sq = _polar_columns(theta)
    return _mpcc_params(lone, theta, cos_sq, s_sq)


def _mpcc_params(lone: bool, theta, cos_sq, s_sq) -> MpccParams:
    """mpcc_params from the checked columns of _polar_columns, each field fit to one angle if lone."""
    p = 2.0 - 4.0 * cos_sq + 3.0 * cos_sq * cos_sq
    shift = cos_sq / (2.0 * np.sqrt(p))
    # shift <= 1/2 always: cos^4 <= p reduces to 2*(1 - cos^2)^2 >= 0
    plus = np.sqrt(0.5 + shift)
    minus = np.sqrt(np.maximum(0.5 - shift, 0.0))
    candidates = (plus, -plus, minus, -minus)
    lam = np.stack(candidates)  # the candidates as rows: F of each at once, for the argmax check
    lam_bar = np.sqrt(np.maximum(1.0 - lam * lam, 0.0))
    values = 0.5 * (1.0 + lam * lam * cos_sq + SQRT2 * lam * lam_bar * s_sq)
    failed = values.max(axis=0) - values[0] > 1e-12
    if failed.any():
        raise ArithmeticError(
            f"amplitude selection failed at theta={theta[failed][0].item()!r}: "
            f"first stationary point is not the maximizer"
        )
    lam, lam_bar, fidelity = lam[0].copy(), lam_bar[0].copy(), values[0].copy()  # no (4, N) stack outlives the call
    a, b, c = lam * lam, lam_bar * lam_bar / 2.0, lam * lam_bar / SQRT2
    fit = partial(_fit, lone)
    return MpccParams(fit(theta), fit(p), tuple(map(fit, candidates)), *map(fit, (lam, lam_bar, a, b, c, fidelity)))


def mpcc_fidelity(theta) -> float | np.ndarray:
    """Optimal mirror-machine fidelity, MpccParams.fidelity at the optimal amplitude.

    Equals 1 at the poles, has the global minimum 5/6 at cos(theta)^2 = 1/3.
    """
    return mpcc_params(theta).fidelity


def choi_from_weights(a: float, b: float, c: float) -> np.ndarray:
    """Process matrix of the mirror-symmetric isometry channel.

    Weight a sits on the direct-copy projectors |000><000| and |111><111|,
    b on the symmetric-mix block, c on the coherences connecting them.
    Trace preservation requires a + 2b = 1; the matrix is rank 2 when
    c = sqrt(a*b).  Equal-length arrays of weights give an (N, 8, 8) stack.
    """
    chi = np.zeros(np.shape(a) + (8, 8), dtype=np.complex128)
    chi[..., 0, 0] = chi[..., 7, 7] = a
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (5, 5), (5, 6), (6, 5), (6, 6)):
        chi[..., i, j] = b
    for i, j in ((0, 5), (0, 6), (5, 0), (6, 0), (1, 7), (2, 7), (7, 1), (7, 2)):
        chi[..., i, j] = c
    return chi


def mpcc_choi(theta: float) -> np.ndarray:
    """Process matrix of the optimal mirror machine at ``theta``."""
    pr = mpcc_params(theta)
    return choi_from_weights(pr.a, pr.b, pr.c)


def uc_choi() -> np.ndarray:
    """Process matrix of the symmetric universal machine (a = 2/3)."""
    return choi_from_weights(2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0)


def mpcc_isometry_apply(theta, psi: np.ndarray) -> np.ndarray:
    """Apply the mirror-machine isometry to a single-qubit state, or to a stack of them.

    One angle takes a state or an (M, 2) stack; an (N, 1) column of angles
    takes an (N, M, 2) stack.  Output register order is (clone 1, clone 2, ancilla):
      |0>  ->  lam |000> + lam_bar (|011> + |101|)/sqrt(2)
      |1>  ->  lam |111> + lam_bar (|010> + |100|)/sqrt(2)
    """
    psi = check_state(psi, 2)
    if psi.ndim > max(np.ndim(theta), 1) + 1:
        raise ValueError(f"need one-qubit states, stacked no deeper than the angles, not shape {psi.shape}")
    pr = mpcc_params(np.ravel(theta))
    lam, h = pr.lam.reshape(np.shape(theta)), (pr.lam_bar / SQRT2).reshape(np.shape(theta))
    o = np.zeros_like(lam)
    image0 = np.stack([lam, o, o, h, o, h, o, o], axis=-1).astype(np.complex128)
    image1 = np.stack([o, o, h, o, h, o, o, lam], axis=-1).astype(np.complex128)
    return psi[..., :1] * image0 + psi[..., 1:] * image1


def clone(psi: np.ndarray, chi: np.ndarray):
    """Send a single-qubit state, or a stack of them, through one process matrix.

    Returns (rho_out, rho1, rho2): the joint two-clone state and the two
    reduced clone states, stacked as psi is, each entry bit for bit its
    lone call.  Raises ValueError if chi fails check_choi, checked once.
    """
    psi = check_state(psi, 2)
    chi4 = check_choi(chi).reshape(2, 4, 2, 4)
    # Tr_in[chi (rho_in^T tensor id)] as one contraction over the input indices
    rho_out = np.einsum("iajb,...ij->...ab", chi4, psi[..., :, None] * psi[..., None, :].conj())
    return rho_out, partial_trace(rho_out, [1]), partial_trace(rho_out, [2])


def mpcc_clone_bloch(theta, phi: float) -> np.ndarray:
    """Bloch vector of either clone of the mirror machine, stacked (N, 3) for a column of angles.

    (sqrt(2) lam lam_bar sin(theta) cos(phi),
     sqrt(2) lam lam_bar sin(theta) sin(phi),
     lam^2 cos(theta))
    """
    lone, theta, cos, sin, cos_sq, s_sq = _polar_columns(theta)
    pr = _mpcc_params(False, theta, cos_sq, s_sq)
    check_finite(phi, "azimuth")
    r_eq = SQRT2 * pr.lam * pr.lam_bar * sin
    return _fit(lone, np.stack([r_eq * math.cos(phi), r_eq * math.sin(phi), pr.a * cos], axis=1))


def _pole_sign(theta: np.ndarray) -> np.ndarray:
    # sign of (pi - 2*theta); the boundary theta = pi/2 is assigned +1,
    # where the fidelity does not depend on the choice
    return np.where(math.pi - 2.0 * theta >= 0.0, 1.0, -1.0)


def pcc_clone_bloch(theta, phi: float) -> np.ndarray:
    """Bloch vector of either clone of the phase-covariant machine, stacked (N, 3) for a column of angles."""
    lone, theta, cos, sin, _, _ = _polar_columns(theta)
    check_finite(phi, "azimuth")
    s = _pole_sign(theta)
    return _fit(lone, np.stack([sin * math.cos(phi) / SQRT2, sin * math.sin(phi) / SQRT2, (s + cos) / 2.0], axis=1))


def pcc_fidelity(theta) -> float | np.ndarray:
    """Clone fidelity of the phase-covariant machine at known polar angle, or a column of them."""
    lone, theta, cos, _, _, s_sq = _polar_columns(theta)
    s = _pole_sign(theta)
    return _fit(lone, 0.5 * (1.0 + s_sq / SQRT2 + cos * (s + cos) / 2.0))


def uc_fidelity(n_copies: int = 2) -> float:
    """Fidelity (2M + 1)/(3M) of the symmetric 1-to-M universal machine."""
    n_copies = check_int(n_copies, "number of copies", 1)
    return (2.0 * n_copies + 1.0) / (3.0 * n_copies)


def uc_clone_bloch(theta, phi: float) -> np.ndarray:
    """Bloch vector of a universal-machine clone, the input shrunk by 2/3, stacked (N, 3) for a column of angles."""
    lone, _, cos, sin, _, _ = _polar_columns(theta)
    check_finite(phi, "azimuth")
    return _fit(lone, (2.0 / 3.0) * np.stack([sin * math.cos(phi), sin * math.sin(phi), cos], axis=1))
