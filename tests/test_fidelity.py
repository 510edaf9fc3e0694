"""Tests for the priors and score operators.

The closed-form score matrices and the quadrature-built ones serve as
oracles for each other; the trace functional is additionally checked by
pushing sampled states through the channel directly.
"""

import math

import numpy as np
import pytest

from mirrorclone.cloners import mpcc_choi, mpcc_fidelity, uc_choi
from mirrorclone.fidelity import (
    PriorDistribution,
    average_fidelity,
    average_fidelity_direct,
    r_theta,
    score_operator,
    score_operator_quadrature,
)

THETAS_20 = np.linspace(0.0, math.pi, 20)


def universal_score_reference():
    """Sphere-averaged score assembled by hand from the moments of cos(theta).

    <(1+u)^2/4> = 1/3, <(1+u)/2)/2> = 1/4, <(1-u^2)/4> = 1/6 and the
    coherences average to 1/12, with u uniform on [-1, 1].
    """
    r = np.zeros((8, 8))
    r[0, 0] = r[7, 7] = 1.0 / 3.0
    r[1, 1] = r[2, 2] = r[5, 5] = r[6, 6] = 1.0 / 4.0
    r[3, 3] = r[4, 4] = 1.0 / 6.0
    for i, j in ((0, 5), (0, 6), (1, 7), (2, 7)):
        r[i, j] = r[j, i] = 1.0 / 12.0
    return r


# --- priors -------------------------------------------------------------


def test_prior_constructors():
    m = PriorDistribution.mirror(0.7)
    assert m.atoms == ((0.7, 0.5), (math.pi - 0.7, 0.5))
    p = PriorDistribution.phase_covariant(0.7)
    assert p.atoms == ((0.7, 1.0),)
    u = PriorDistribution.universal()
    assert len(u.atoms) == 32
    assert all(0.0 < angle < math.pi for angle, _ in u.atoms)
    for atoms in (m.atoms, p.atoms, u.atoms):
        assert abs(sum(w for _, w in atoms) - 1.0) < 1e-15


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorDistribution.mirror(-0.2)
    with pytest.raises(ValueError):
        PriorDistribution.phase_covariant(math.pi + 0.2)
    for atoms in (
        ((0.3, 1.0), (2.0, 1.0)),  # weights sum to 2
        ((1.0, 2.0),),
        ((5.0, 1.0),),  # angle outside [0, pi]
        ((math.nan, 1.0),),
        ((0.3, math.nan), (2.0, 1.0)),
        ((0.3, -0.5), (2.0, 1.5)),  # sums to one, but a negative weight
        (),  # empty: no mass at all
    ):
        with pytest.raises(ValueError):
            PriorDistribution(atoms)


# --- score operators ------------------------------------------------------


def test_r_theta_closed_form_vs_quadrature():
    for theta in THETAS_20:
        closed = r_theta(float(theta))
        quad = score_operator_quadrature(PriorDistribution.phase_covariant(float(theta)))
        assert np.abs(closed - quad).max() < 1e-12


def test_r_theta_is_symmetric_psd():
    for theta in (0.0, 0.9, math.pi / 2, 2.7, math.pi):
        r = r_theta(theta)
        assert np.abs(r - r.T).max() == 0.0
        assert np.linalg.eigvalsh(r)[0] > -1e-12


def test_mirror_score_is_atom_average():
    for theta in (0.0, 0.5, 1.4, math.pi / 2):
        want = 0.5 * (r_theta(theta) + r_theta(math.pi - theta))
        got = score_operator(PriorDistribution.mirror(theta))
        assert np.abs(got - want).max() < 1e-15


def test_phase_covariant_score_is_single_atom():
    theta = 1.234
    assert np.abs(score_operator(PriorDistribution.phase_covariant(theta)) - r_theta(theta)).max() < 1e-15


def test_universal_score_closed_and_quadrature():
    ref = universal_score_reference()
    got = score_operator(PriorDistribution.universal())
    assert np.abs(got - ref).max() < 1e-13
    quad = score_operator_quadrature(PriorDistribution.universal())
    assert np.abs(quad - ref).max() < 1e-13


# --- the fidelity functional ----------------------------------------------


def test_functional_routes_agree_for_mirror_machine():
    for theta in (0.0, 0.4, 1.1, math.pi / 2, 2.3, math.pi):
        prior = PriorDistribution.mirror(theta)
        chi = mpcc_choi(theta)
        f_closed = mpcc_fidelity(theta)
        assert abs(average_fidelity(chi, score_operator(prior)) - f_closed) < 1e-12
        assert abs(average_fidelity_direct(chi, prior) - f_closed) < 1e-12


def test_functional_routes_agree_for_universal_machine():
    prior = PriorDistribution.universal()
    chi = uc_choi()
    assert abs(average_fidelity(chi, score_operator(prior)) - 5.0 / 6.0) < 1e-12
    assert abs(average_fidelity_direct(chi, prior) - 5.0 / 6.0) < 1e-12


def test_cross_machine_functional_is_suboptimal():
    # the universal machine scores strictly below the mirror machine on its prior
    theta = 1.0
    score = score_operator(PriorDistribution.mirror(theta))
    assert average_fidelity(uc_choi(), score) < mpcc_fidelity(theta) - 1e-4


def test_average_fidelity_validation():
    with pytest.raises(ValueError):
        average_fidelity(np.eye(4), np.eye(8))
    with pytest.raises(ValueError):
        average_fidelity(np.eye(8), np.eye(4))
    chi = np.zeros((8, 8), dtype=np.complex128)
    chi[0, 1] = 1j
    score = np.zeros((8, 8))
    score[1, 0] = 1.0
    with pytest.raises(ValueError):
        average_fidelity(chi, score)  # trace picks up an imaginary part
    # a Hermitian, trace-preserving chi against a score with an imaginary diagonal
    imaginary = np.zeros((8, 8), dtype=np.complex128)
    imaginary[0, 0] = 1j
    with pytest.raises(ValueError, match="imaginary"):
        average_fidelity(np.eye(8) / 4.0, imaginary)
    # only channels are scored: scaled, non-finite or non-PSD process matrices raise
    prior = PriorDistribution.mirror(1.0)
    nan_chi = np.full((8, 8), np.nan)
    negative = np.diag([0.25] * 6 + [0.75, -0.25])  # trace preserving, not PSD
    for bad in (5.0 * np.eye(8), nan_chi, negative):
        with pytest.raises(ValueError, match="process matrix"):
            average_fidelity(bad, np.eye(8))
    with pytest.raises(ValueError, match="process matrix"):
        average_fidelity_direct(5.0 * np.eye(8), prior)
    with pytest.raises(ValueError, match="process matrix"):
        average_fidelity_direct(nan_chi, prior)
