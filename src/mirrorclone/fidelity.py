"""Input priors and the score operators they induce.

The mean single-copy fidelity of a cloning channel is a linear functional
of its process matrix: F = Tr(chi R), where the 8x8 score operator R
averages the projector onto perfect clones over the prior.  R is built by
two independent routes, a closed form (`r_theta`, `score_operator`) and a
numerical quadrature over states (`score_operator_quadrature`,
`average_fidelity_direct`); each route serves as the oracle for the other.

The azimuth is uniform under every prior handled here, and every prior
is a list of (polar angle, weight) atoms.  The universal prior's atoms
are the 32-point Gauss-Legendre nodes in cos(theta) of its density
sin(theta)/2, exact for the polynomials in cos(theta) integrated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import _check_polar, check_choi, clone
from .qcore import ID2, fidelity_pure, ket_from_angles

_TWO_PI = 2.0 * math.pi
_N_PHI = 64  # azimuthal rectangle-rule nodes of the quadrature routes
_N_POLAR = 32  # Gauss-Legendre nodes of the universal prior


@dataclass(frozen=True)
class PriorDistribution:
    """Prior over the input polar angle (azimuth always uniform).

    atoms is a tuple of (polar angle, weight) point masses, both real:
    every angle in [0, pi], every weight finite and nonnegative, the
    weights summing to one within 1e-12; anything else raises ValueError.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        # a tuple keeps the frozen prior hashable
        if not isinstance(self.atoms, tuple):
            raise ValueError(f"prior atoms {self.atoms!r} are not a tuple of (angle, weight) pairs")
        for atom in self.atoms:
            if not (isinstance(atom, tuple) and len(atom) == 2):
                raise ValueError(f"prior atom {atom!r} is not an (angle, weight) pair")
            angle, weight = atom
            try:
                _check_polar(angle)
                if not (math.isfinite(weight) and weight >= 0.0):
                    raise ValueError(f"weight {weight!r} is not finite and nonnegative")
            except (TypeError, ValueError) as exc:  # TypeError: a weight that is not a real number
                raise ValueError(f"prior atom {atom!r} is invalid: {exc}") from None
        total = sum(weight for _, weight in self.atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"prior weights sum to {total!r}, not 1")

    @staticmethod
    def mirror(theta: float) -> "PriorDistribution":
        """Equal-weight atoms on theta and its mirror image pi - theta."""
        _check_polar(theta)  # before pi - theta raises TypeError for a non-real angle
        return PriorDistribution(((theta, 0.5), (math.pi - theta, 0.5)))

    @staticmethod
    def phase_covariant(theta: float) -> "PriorDistribution":
        """Single atom: the polar angle is known exactly."""
        return PriorDistribution(((theta, 1.0),))

    @staticmethod
    def universal() -> "PriorDistribution":
        """Uniform over the whole Bloch sphere, as Gauss-Legendre atoms."""
        # nodes in u = cos(theta); the polar density sin(theta)/2 becomes du/2
        nodes, weights = np.polynomial.legendre.leggauss(_N_POLAR)
        return PriorDistribution(tuple((math.acos(u), w / 2.0) for u, w in zip(nodes, weights)))


def r_theta(theta: float) -> np.ndarray:
    """Closed-form score operator of a single polar-angle atom.

    Indices run over (input, clone 1, clone 2) with the input qubit most
    significant.  The matrix is real symmetric with nonnegative diagonal.
    """
    _check_polar(theta)
    s1_sq = math.sin(theta) ** 2
    c2_sq = math.cos(theta / 2) ** 2
    s2_sq = math.sin(theta / 2) ** 2
    r = np.zeros((8, 8))
    r[0, 0] = c2_sq * c2_sq
    r[1, 1] = r[2, 2] = c2_sq / 2.0
    r[3, 3] = r[4, 4] = s1_sq / 4.0
    r[5, 5] = r[6, 6] = s2_sq / 2.0
    r[7, 7] = s2_sq * s2_sq
    coh = s1_sq / 8.0
    for i, j in ((0, 5), (0, 6), (1, 7), (2, 7)):
        r[i, j] = r[j, i] = coh
    return r


def score_operator(prior: PriorDistribution) -> np.ndarray:
    """Score operator of a prior, assembled from the closed-form atoms."""
    out = np.zeros((8, 8))
    for angle, weight in prior.atoms:
        out += weight * r_theta(angle)
    return out


def _check_scores(scores) -> np.ndarray:
    """A non-empty (N, 8, 8) stack of finite, Hermitian, PSD, nonzero scores, as complex."""
    scores = np.asarray(scores, dtype=complex)
    if scores.ndim != 3 or scores.shape[1:] != (8, 8) or len(scores) == 0:
        raise ValueError("score matrices must be 8x8, stacked as (N, 8, 8) with N >= 1")
    if not np.isfinite(scores).all():
        raise ValueError("score matrices must be finite")
    scale = np.abs(scores).max(axis=(1, 2))
    if (np.abs(scores - scores.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12 * scale).any():
        raise ValueError("score matrices must be Hermitian, with no imaginary part (S - S^dagger)/2i")
    if (np.linalg.eigvalsh(scores)[:, 0] < -1e-12 * scale).any() or not scale.all():
        raise ValueError("score matrices must be positive semidefinite and nonzero")
    return scores


def _phi_averaged_score(theta: float) -> np.ndarray:
    acc = np.zeros((8, 8), dtype=np.complex128)
    for k in range(_N_PHI):
        psi = ket_from_angles(theta, _TWO_PI * k / _N_PHI)
        rho_in = np.outer(psi, psi.conj())
        sym = 0.5 * (np.kron(rho_in, ID2) + np.kron(ID2, rho_in))
        acc += np.kron(rho_in.T, sym)
    return acc / _N_PHI


def score_operator_quadrature(prior: PriorDistribution) -> np.ndarray:
    """Score operator rebuilt from projectors by numerical quadrature.

    The azimuthal average uses the 64-point rectangle rule, exact for
    trigonometric polynomials of degree below 63; the integrand here has
    degree 2.  The polar angle runs over the prior's atoms.
    """
    acc = np.zeros((8, 8), dtype=np.complex128)
    for angle, weight in prior.atoms:
        acc += weight * _phi_averaged_score(angle)
    resid = float(np.abs(acc.imag).max())
    if resid > 1e-13:
        raise ArithmeticError(f"quadrature left imaginary residue {resid:.3e}")
    return acc.real


def average_fidelity(chi: np.ndarray, score: np.ndarray) -> float:
    """Mean clone fidelity Tr(chi R) of a channel (check_choi) against a score operator.

    The score must be a finite Hermitian PSD nonzero 8x8 matrix, as for
    optimize_batch, else ValueError.
    """
    chi = check_choi(chi)
    score = _check_scores(np.asarray(score)[None])[0]
    val = complex(np.trace(chi @ score))
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.3e}")
    return val.real


def average_fidelity_direct(chi: np.ndarray, prior: PriorDistribution) -> float:
    """Mean clone fidelity by sending quadrature-sampled states through chi.

    Independent of the score-operator route: the channel is applied to
    each sampled input and both clones are compared with it directly.
    Raises ValueError if chi fails check_choi.
    """
    chi = check_choi(chi)

    def phi_average(theta: float) -> float:
        total = 0.0
        for k in range(_N_PHI):
            psi = ket_from_angles(theta, _TWO_PI * k / _N_PHI)
            _, rho1, rho2 = clone(psi, chi)
            total += 0.5 * (fidelity_pure(psi, rho1) + fidelity_pure(psi, rho2))
        return total / _N_PHI

    return sum(weight * phi_average(angle) for angle, weight in prior.atoms)
