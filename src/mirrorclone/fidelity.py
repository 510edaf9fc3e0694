"""Input priors and the score operators they induce.

The mean single-copy fidelity of a cloning channel is a linear functional
of its process matrix: F = Tr(chi R), where the 8x8 score operator R
averages the projector onto perfect clones over the prior.  R is built by
two independent routes, a closed form (`r_theta`, `score_operator`) and a
numerical quadrature over states (`score_operator_quadrature`,
`average_fidelity_direct`); each route serves as the oracle for the other.

The azimuth is uniform under every prior handled here.  Point priors on
the polar angle are stored as (angle, weight) atoms; the universal prior
is the continuous density sin(theta)/2, integrated by Gauss-Legendre
quadrature in cos(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import _check_polar, clone
from .qcore import ID2, fidelity_pure, ket_from_angles

KIND_UNIVERSAL = "universal"
KIND_PHASE_COVARIANT = "phase-covariant"
KIND_MIRROR = "mirror-phase-covariant"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PriorDistribution:
    """Prior over the input polar angle (azimuth always uniform).

    atoms holds (polar angle, weight) point masses summing to one; it is
    empty for the universal prior, whose polar density is sin(theta)/2.
    """

    kind: str
    theta: float | None
    atoms: tuple[tuple[float, float], ...]

    @staticmethod
    def mirror(theta: float) -> "PriorDistribution":
        """Equal-weight atoms on theta and its mirror image pi - theta."""
        _check_polar(theta)
        return PriorDistribution(
            KIND_MIRROR, theta, ((theta, 0.5), (math.pi - theta, 0.5))
        )

    @staticmethod
    def phase_covariant(theta: float) -> "PriorDistribution":
        """Single atom: the polar angle is known exactly."""
        _check_polar(theta)
        return PriorDistribution(KIND_PHASE_COVARIANT, theta, ((theta, 1.0),))

    @staticmethod
    def universal() -> "PriorDistribution":
        """Uniform over the whole Bloch sphere."""
        return PriorDistribution(KIND_UNIVERSAL, None, ())


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


def _polar_terms(prior: PriorDistribution, n_polar: int):
    """(polar angle, weight) pairs: the atoms, or n_polar Gauss-Legendre nodes."""
    if prior.kind != KIND_UNIVERSAL:
        return prior.atoms
    # nodes in u = cos(theta); the polar density sin(theta)/2 becomes du/2
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    return [(math.acos(u), w / 2.0) for u, w in zip(nodes, weights)]


def score_operator(prior: PriorDistribution) -> np.ndarray:
    """Score operator of a prior, assembled from the closed-form atoms."""
    out = np.zeros((8, 8))
    for angle, weight in _polar_terms(prior, 32):
        out += weight * r_theta(angle)
    return out


def _phi_averaged_score(theta: float, n_phi: int, phi_offset: float) -> np.ndarray:
    acc = np.zeros((8, 8), dtype=np.complex128)
    for k in range(n_phi):
        psi = ket_from_angles(theta, phi_offset + _TWO_PI * k / n_phi)
        rho_in = np.outer(psi, psi.conj())
        proj = rho_in  # same projector, reused on the clone factors
        sym = 0.5 * (np.kron(proj, ID2) + np.kron(ID2, proj))
        acc += np.kron(rho_in.T, sym)
    return acc / n_phi


def score_operator_quadrature(
    prior: PriorDistribution,
    n_phi: int = 64,
    n_polar: int = 32,
    phi_offset: float = 0.0,
) -> np.ndarray:
    """Score operator rebuilt from projectors by numerical quadrature.

    The azimuthal average uses the n_phi-point rectangle rule, exact for
    trigonometric polynomials of degree below n_phi - 1; the integrand
    here has degree 2.  The universal prior additionally integrates the
    polar angle by n_polar-point Gauss-Legendre in cos(theta).
    """
    if n_phi < 8:
        raise ValueError("n_phi must be at least 8")
    if prior.kind == KIND_UNIVERSAL and n_polar < 32:
        raise ValueError("n_polar must be at least 32")
    acc = np.zeros((8, 8), dtype=np.complex128)
    for angle, weight in _polar_terms(prior, n_polar):
        acc += weight * _phi_averaged_score(angle, n_phi, phi_offset)
    resid = float(np.abs(acc.imag).max())
    if resid > 1e-13:
        raise ArithmeticError(f"quadrature left imaginary residue {resid:.3e}")
    return acc.real


def average_fidelity(chi: np.ndarray, score: np.ndarray) -> float:
    """Mean clone fidelity Tr(chi R) of a channel against a score operator."""
    chi = np.asarray(chi)
    score = np.asarray(score)
    if chi.shape != (8, 8) or score.shape != (8, 8):
        raise ValueError("process and score matrices must be 8x8")
    val = complex(np.trace(chi @ score))
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.3e}")
    return val.real


def average_fidelity_direct(
    chi: np.ndarray,
    prior: PriorDistribution,
    n_phi: int = 64,
    n_polar: int = 32,
    phi_offset: float = 0.0,
) -> float:
    """Mean clone fidelity by sending quadrature-sampled states through chi.

    Independent of the score-operator route: the channel is applied to
    each sampled input and both clones are compared with it directly.
    """
    if n_phi < 8:
        raise ValueError("n_phi must be at least 8")
    chi = np.asarray(chi)

    def phi_average(theta: float) -> float:
        total = 0.0
        for k in range(n_phi):
            psi = ket_from_angles(theta, phi_offset + _TWO_PI * k / n_phi)
            _, rho1, rho2 = clone(psi, chi)
            total += 0.5 * (fidelity_pure(psi, rho1) + fidelity_pure(psi, rho2))
        return total / n_phi

    return sum(weight * phi_average(angle) for angle, weight in _polar_terms(prior, n_polar))
