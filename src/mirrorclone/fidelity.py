"""Input priors and the score operators they induce.

The mean single-copy fidelity of a cloning channel is a linear functional
of its process matrix: F = Tr(chi R), where the 8x8 score operator R
averages the projector onto perfect clones over the prior.  R is built by
two independent routes, a closed form (`r_theta`, `score_operator`) and a
numerical quadrature over states (`score_operator_quadrature`,
`average_fidelity_direct`); each route serves as the oracle for the other.

The azimuth is uniform under every prior handled here, and every prior
is a list of (polar angle, weight) atoms.  Every entry of r_theta has
degree at most 2 in u = cos(theta), so a prior reaches R only through
E[u] and E[u^2], and the uniform sphere is exactly the 2-point
Gauss-Legendre rule u = +-1/sqrt(3): the mirror pair at
FIDELITY_MINIMUM_ANGLE.  Both routes are exact on it, the direct one for
every channel chi, because its polar integrand is Tr(chi R(theta)).

The same degree bound holds in the azimuth: the state |psi><psi| enters
R(theta, phi) twice, as rho^T and rho, so every entry is a trigonometric
polynomial in phi of degree at most 2.  The rectangle rule on n equally
spaced nodes is exact for e^{ik phi} with |k| < n, so both quadrature
routes average over a ring of 3 azimuth nodes per atom, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import FIDELITY_MINIMUM_ANGLE, clone
from .qcore import ID2, check_choi, check_finite, check_polar, check_scores, check_sequence
from .qcore import fidelity_pure, ket_from_angles, kron

_TWO_PI = 2.0 * math.pi
_N_PHI = 3  # azimuth nodes per atom, the fewest exact for degree 2


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
                check_polar(angle)
                if check_finite(weight, "weight") < 0.0:
                    raise ValueError(f"weight {weight!r} is negative")
            except ValueError as exc:
                raise ValueError(f"prior atom {atom!r} is invalid: {exc}") from None
        total = sum(weight for _, weight in self.atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"prior weights sum to {total!r}, not 1")

    @staticmethod
    def mirror(theta: float) -> "PriorDistribution":
        """Equal-weight atoms on theta and its mirror image pi - theta."""
        theta = check_polar(theta)  # a float, before pi - theta raises TypeError for a non-real angle
        return PriorDistribution(((theta, 0.5), (math.pi - theta, 0.5)))

    @staticmethod
    def phase_covariant(theta: float) -> "PriorDistribution":
        """Single atom: the polar angle is known exactly."""
        return PriorDistribution(((theta, 1.0),))

    @staticmethod
    def universal() -> "PriorDistribution":
        """Uniform over the Bloch sphere, as the mirror pair with the sphere's E[u] = 0, E[u^2] = 1/3."""
        return PriorDistribution.mirror(FIDELITY_MINIMUM_ANGLE)


def _atom_scores(thetas) -> np.ndarray:
    """r_theta of each of a sequence of checked polar angles, stacked (N, 8, 8)."""
    trig = [(math.sin(t) ** 2, math.cos(t / 2) ** 2, math.sin(t / 2) ** 2) for t in thetas]
    s1_sq, c2_sq, s2_sq = np.array(trig).reshape(-1, 3).T  # NumPy then rounds each * and / as Python does
    r = np.zeros((len(s1_sq), 8, 8))
    r[:, 0, 0] = c2_sq * c2_sq
    r[:, 1, 1] = r[:, 2, 2] = c2_sq / 2.0
    r[:, 3, 3] = r[:, 4, 4] = s1_sq / 4.0
    r[:, 5, 5] = r[:, 6, 6] = s2_sq / 2.0
    r[:, 7, 7] = s2_sq * s2_sq
    coh = s1_sq / 8.0
    for i, j in ((0, 5), (0, 6), (1, 7), (2, 7)):
        r[:, i, j] = r[:, j, i] = coh
    return r


def r_theta(theta: float) -> np.ndarray:
    """Closed-form score operator of a single polar-angle atom.

    Indices run over (input, clone 1, clone 2) with the input qubit most
    significant.  The matrix is real symmetric with nonnegative diagonal.
    """
    return _atom_scores([check_polar(theta)])[0]


def _atoms(prior: PriorDistribution) -> tuple:
    """The atoms of ``prior`` if it is a PriorDistribution, else ValueError naming it."""
    if isinstance(prior, PriorDistribution):
        return prior.atoms
    raise ValueError(f"prior {prior!r} is not a PriorDistribution")


def score_operator(prior: PriorDistribution) -> np.ndarray:
    """Score operator of a prior, assembled from the closed-form atoms."""
    angles, weights = zip(*_atoms(prior))
    return np.einsum("n,n...->...", weights, _atom_scores(angles))


def mirror_scores(thetas) -> np.ndarray:
    """score_operator(PriorDistribution.mirror(theta)) of each polar angle, bit for bit, stacked (N, 8, 8)."""
    thetas = [check_polar(t) for t in check_sequence(thetas, "polar angles")]
    return 0.5 * _atom_scores(thetas) + 0.5 * _atom_scores([math.pi - t for t in thetas])


def _nodes(prior: PriorDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature inputs of a prior, the azimuth ring of each atom stacked (M, 2), and their M weights."""
    nodes = [(angle, _TWO_PI * k / _N_PHI, weight / _N_PHI) for angle, weight in _atoms(prior) for k in range(_N_PHI)]
    return np.array([ket_from_angles(angle, phi) for angle, phi, _ in nodes]), np.array([w for _, _, w in nodes])


def _projector_score(psi: np.ndarray) -> np.ndarray:
    """Score operator of each pure input of a stack: rho^T tensor the clone-averaged projector."""
    rho_in = psi[..., :, None] * psi[..., None, :].conj()
    return kron(rho_in.swapaxes(-1, -2), 0.5 * (kron(rho_in, ID2) + kron(ID2, rho_in)))


def score_operator_quadrature(prior: PriorDistribution) -> np.ndarray:
    """Score operator rebuilt from projectors by numerical quadrature.

    Averages the projector score over the prior's atoms and the exact
    3-node azimuth ring (see the module docstring).
    """
    states, weights = _nodes(prior)
    acc = np.einsum("n,n...->...", weights, _projector_score(states))
    resid = float(np.abs(acc.imag).max())
    if resid > 1e-13:
        raise ArithmeticError(f"quadrature left imaginary residue {resid:.3e}")
    return acc.real


def average_fidelity(chi: np.ndarray, score: np.ndarray) -> float:
    """Mean clone fidelity Tr(chi R) of a channel (check_choi) against a score operator.

    The score must be a finite Hermitian PSD nonzero 8x8 matrix, as for
    optimize_batch, else ValueError.
    """
    chi = check_choi(chi).reshape(8, 8)  # a stack of channels raises ValueError here
    score = check_scores(np.asarray(score)[None])[0]
    val = complex(np.trace(chi @ score))
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has imaginary residue {val.imag:.3e}")
    return val.real


def average_fidelity_direct(chi: np.ndarray, prior: PriorDistribution) -> float:
    """Mean clone fidelity by sending quadrature-sampled states through chi.

    Independent of the score-operator route: the channel is applied to
    the stack of sampled inputs in one clone call, and both clones are
    compared with each input directly.  Raises ValueError if chi fails check_choi.
    """
    states, weights = _nodes(prior)
    _, rho1, rho2 = clone(states, chi)
    return float(weights @ (0.5 * (fidelity_pure(states, rho1) + fidelity_pure(states, rho2))))
