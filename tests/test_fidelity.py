"""Tests for the priors and score operators.

The closed-form score matrices and the quadrature-built ones serve as
oracles for each other; the trace functional is additionally checked by
pushing sampled states through the channel directly.
"""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorclone import cloners
from mirrorclone.cloners import FIDELITY_MINIMUM_ANGLE, mpcc_choi, mpcc_fidelity, uc_choi
from mirrorclone.fidelity import (
    PriorDistribution,
    average_fidelity,
    average_fidelity_direct,
    mirror_scores,
    r_theta,
    score_operator,
    score_operator_quadrature,
)
from mirrorclone.optimality import random_trace_preserving_choi

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
    assert u == PriorDistribution.mirror(FIDELITY_MINIMUM_ANGLE)
    assert all(0.0 < angle < math.pi for angle, _ in u.atoms)
    for atoms in (m.atoms, p.atoms, u.atoms):
        assert abs(sum(w for _, w in atoms) - 1.0) < 1e-15


def test_prior_validation():
    for bad in (-0.2, True):
        with pytest.raises(ValueError):
            PriorDistribution.mirror(bad)
    assert [type(angle) for angle, _ in PriorDistribution.mirror(np.float64(0.5)).atoms] == [float, float]
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
    # malformed atoms: ValueError naming the atom, not TypeError or a bare unpacking error
    for atoms, named in ((5, "atoms 5 "), ((("a", 1.0),), "atom ('a', 1.0) "), (((1.0,),), "atom (1.0,) ")):
        with pytest.raises(ValueError, match=re.escape(named)):
            PriorDistribution(atoms)
    # a non-prior where a prior belongs: ValueError naming it, not AttributeError on .atoms
    for call, named in (
        (partial(score_operator, "x"), "prior 'x' "),
        (partial(score_operator_quadrature, None), "prior None "),
        (partial(average_fidelity_direct, mpcc_choi(0.5), ((0.5, 1.0),)), "prior ((0.5, 1.0),) "),
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            call()


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


def _r_theta_reference(theta):
    """r_theta written out for one angle, entry by entry: the oracle for the stacked form."""
    s1_sq = math.sin(theta) ** 2
    c2_sq = math.cos(theta / 2) ** 2
    s2_sq = math.sin(theta / 2) ** 2
    r = np.zeros((8, 8))
    r[0, 0] = c2_sq * c2_sq
    r[1, 1] = r[2, 2] = c2_sq / 2.0
    r[3, 3] = r[4, 4] = s1_sq / 4.0
    r[5, 5] = r[6, 6] = s2_sq / 2.0
    r[7, 7] = s2_sq * s2_sq
    for i, j in ((0, 5), (0, 6), (1, 7), (2, 7)):
        r[i, j] = r[j, i] = s1_sq / 8.0
    return r


@settings(max_examples=50, deadline=None)
@given(thetas=st.lists(st.floats(0.0, math.pi), max_size=12))
@example(thetas=[0.0, math.pi, math.pi / 2, FIDELITY_MINIMUM_ANGLE, math.pi - FIDELITY_MINIMUM_ANGLE, 5e-324])
def test_stacked_mirror_scores_equal_the_lone_score_operator_bit_for_bit(thetas):
    stack = mirror_scores(thetas)
    assert stack.shape == (len(thetas), 8, 8) and stack.dtype == np.float64
    for theta, score in zip(thetas, stack):
        assert score.tobytes() == score_operator(PriorDistribution.mirror(theta)).tobytes()
        assert r_theta(theta).tobytes() == _r_theta_reference(theta).tobytes()


def test_mirror_scores_reject_what_a_mirror_prior_rejects():
    for bad in ([0.2, -0.1], [math.pi + 1e-9], [math.nan], ["x"], [1j], 0.5, None):
        with pytest.raises(ValueError):
            mirror_scores(bad)


def test_phase_covariant_score_is_single_atom():
    theta = 1.234
    assert np.abs(score_operator(PriorDistribution.phase_covariant(theta)) - r_theta(theta)).max() < 1e-15


def test_universal_score_closed_and_quadrature():
    ref = universal_score_reference()
    got = score_operator(PriorDistribution.universal())
    assert np.abs(got - ref).max() < 1e-13
    quad = score_operator_quadrature(PriorDistribution.universal())
    assert np.abs(quad - ref).max() < 1e-13


# poles and equator drawn on purpose, next to any angle in [0, pi]
POLAR_ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, math.pi))


@given(angles=st.lists(POLAR_ANGLES, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_two_moments_decide_a_mirror_symmetric_score(angles, seed):
    # pairs (theta, pi - theta) with Dirichlet weights: E[cos theta] = 0, and
    # E[cos^2 theta] = cos^2 theta_eff fixes the rest of the score
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(angles)))
    atoms = [(theta, w / 2) for theta, w in zip(angles, weights.tolist())]
    prior = PriorDistribution(tuple(atoms + [(math.pi - theta, w) for theta, w in atoms]))
    cos_sq = float(weights @ np.cos(angles) ** 2)
    theta_eff = math.acos(math.sqrt(min(cos_sq, 1.0)))
    score = score_operator(prior)
    assert np.abs(score - score_operator(PriorDistribution.mirror(theta_eff))).max() < 1e-14
    assert abs(average_fidelity(mpcc_choi(theta_eff), score) - mpcc_fidelity(theta_eff)) < 1e-14


@given(angles=st.lists(POLAR_ANGLES, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_quadrature_routes_are_exact(angles, seed):
    # any prior and any channel: the 3-node azimuth ring integrates the
    # degree-2 integrand exactly, so both routes meet the closed form
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(len(angles)))
    prior = PriorDistribution(tuple(zip(angles, weights.tolist())))
    chi = random_trace_preserving_choi(rng)
    score = score_operator(prior)
    assert abs(average_fidelity_direct(chi, prior) - average_fidelity(chi, score)) < 1e-13
    assert np.abs(score_operator_quadrature(prior) - score).max() < 1e-13


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


def test_average_fidelity_direct_checks_the_channel_once(monkeypatch):
    # every quadrature node goes through one clone call, so one check_choi
    chi, calls = mpcc_choi(0.7), []
    check_choi = cloners.check_choi
    monkeypatch.setattr(cloners, "check_choi", lambda c: calls.append(c) or check_choi(c))
    three_atoms = PriorDistribution(((0.2, 0.5), (0.9, 0.25), (2.0, 0.25)))
    for prior in (PriorDistribution.mirror(0.7), PriorDistribution.universal(), three_atoms):
        calls.clear()
        average_fidelity_direct(chi, prior)
        assert len(calls) == 1


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
    # invalid scores raise instead of scoring: NaN entries, and -R (not PSD)
    chi = mpcc_choi(1.0)
    score = score_operator(prior)
    for bad in (np.full((8, 8), np.nan), -score):
        with pytest.raises(ValueError, match="score"):
            average_fidelity(chi, bad)
