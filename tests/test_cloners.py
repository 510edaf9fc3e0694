"""Tests for the closed-form cloning machines.

Every nontrivial closed form is checked against an independent route:
the optimal amplitude against a brute-force scan, the process matrix
against the isometry it dilates, the clone states against partial traces
of the isometry output.
"""

import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorclone.cloners import (
    FIDELITY_MINIMUM_ANGLE,
    MpccParams,
    check_choi,
    choi_from_weights,
    clone,
    mpcc_choi,
    mpcc_clone_bloch,
    mpcc_fidelity,
    mpcc_isometry_apply,
    mpcc_params,
    pcc_clone_bloch,
    pcc_fidelity,
    uc_choi,
    uc_clone_bloch,
    uc_fidelity,
)
from mirrorclone.circuits import (
    Gate,
    circuit_mpcc_v2,
    decompose_ccr,
    eqneighbor_hamiltonian,
    eqneighbor_propagator,
    interaction_time,
    propagator_coefficients,
)
from mirrorclone.fidelity import PriorDistribution, r_theta, score_operator
from mirrorclone.optimality import certificate, optimize_map, random_trace_preserving_choi
from mirrorclone.qcore import fidelity_pure, haar_random_state, ket_from_angles, partial_trace

GRID = np.linspace(0.0, math.pi, 61)


def amplitude_fidelity(theta, lam):
    """Clone fidelity of the mirror-symmetric isometry at amplitude lam: an oracle, not the library code.

    F = (1 + lam^2)/2 - sin(theta)^2 (lam^2 - lam sqrt(2 - 2 lam^2))/2
    """
    return (1 + lam**2) / 2 - math.sin(theta) ** 2 * (lam**2 - lam * np.sqrt(2 - 2 * lam**2)) / 2


def bloch(rho):
    """Bloch vector (Tr rho X, Tr rho Y, Tr rho Z) of a one-qubit density matrix."""
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def isometry_choi(theta):
    """Process matrix rebuilt from the isometry: independent of choi_from_weights.

    chi = sum_ij |i><j| tensor eps(|i><j|) with eps the two-clone channel,
    i.e. the ancilla traced out of the isometry images.
    """
    images = [mpcc_isometry_apply(theta, np.eye(2)[i]) for i in range(2)]
    chi = np.zeros((8, 8), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            block = np.outer(images[i], images[j].conj()).reshape(4, 2, 4, 2)
            eps = np.einsum("akbk->ab", block)  # trace out the ancilla (last qubit)
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            chi += np.kron(unit, eps)
    return chi


# --- optimal amplitude ------------------------------------------------------


def test_p_polynomial_pinned_values():
    inflection = math.acos(math.sqrt(6.0) / 3.0)
    assert abs(mpcc_params(inflection).p - 2.0 / 3.0) < 1e-12
    assert abs(mpcc_params(math.pi - inflection).p - 2.0 / 3.0) < 1e-12
    assert abs(mpcc_params(math.pi / 2).p - 2.0) < 1e-12


def test_p_symmetric_and_bounded():
    for theta in GRID:
        pr = mpcc_params(float(theta))
        assert abs(pr.p - mpcc_params(math.pi - float(theta)).p) < 1e-12
        assert 2.0 / 3.0 - 1e-12 <= pr.p <= 2.0 + 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, FIDELITY_MINIMUM_ANGLE, math.pi / 2, 2.4, math.pi])
def test_amplitude_is_global_maximizer(theta):
    # brute-force oracle: scan the whole amplitude range
    pr = mpcc_params(theta)
    lams = np.linspace(-1.0, 1.0, 20001)
    brute = amplitude_fidelity(theta, lams).max()
    at_lam = amplitude_fidelity(theta, pr.lam)
    assert brute <= at_lam + 1e-12  # nothing on the grid beats the closed form
    assert at_lam >= brute - 1e-7  # grid resolution bounds the other direction


@pytest.mark.parametrize("theta", [0.4, 1.0, math.pi / 2, 2.0])
def test_candidates_solve_the_stationarity_quartic(theta):
    # oracle derived by differentiating F and rationalizing:
    # 2 cos^4 x (1 - x) = sin^4 (1 - 2x)^2 with x = lam^2
    c_sq = math.cos(theta) ** 2
    s_sq = math.sin(theta) ** 2
    pr = mpcc_params(theta)
    for lam in pr.candidates:
        x = lam * lam
        quartic = 2.0 * c_sq * c_sq * x * (1.0 - x) - s_sq * s_sq * (1.0 - 2.0 * x) ** 2
        assert abs(quartic) < 1e-12, (lam, quartic)


@pytest.mark.parametrize("theta", [0.4, 1.0, 2.0])
def test_true_stationary_points_by_finite_difference(theta):
    # squaring loses a sign: only the first and last roots are stationary
    pr = mpcc_params(theta)
    h = 1e-6

    def slope(lam):
        return (amplitude_fidelity(theta, lam + h) - amplitude_fidelity(theta, lam - h)) / (2.0 * h)

    assert abs(slope(pr.candidates[0])) < 1e-7
    assert abs(slope(pr.candidates[3])) < 1e-7
    assert abs(slope(pr.candidates[1])) > 1e-2  # spurious root of the squared equation
    assert abs(slope(pr.candidates[2])) > 1e-2


def test_params_invariants():
    for theta in GRID:
        pr = mpcc_params(float(theta))
        assert isinstance(pr, MpccParams)
        assert 1.0 / math.sqrt(2.0) - 1e-12 <= pr.lam <= 1.0 + 1e-12
        assert abs(pr.lam**2 + pr.lam_bar**2 - 1.0) < 1e-12
        assert abs(pr.a + 2.0 * pr.b - 1.0) < 1e-12  # trace preservation
        assert abs(pr.c - math.sqrt(pr.a * pr.b)) < 1e-12  # rank-2 coherence
        assert pr.candidates[0] == pr.lam


# --- fidelity closed form ---------------------------------------------------


def test_fidelity_pinned_values():
    assert abs(mpcc_fidelity(0.0) - 1.0) < 1e-12
    assert abs(mpcc_fidelity(math.pi) - 1.0) < 1e-12
    assert abs(mpcc_fidelity(math.pi / 2) - (0.5 + math.sqrt(2.0) / 4.0)) < 1e-12
    assert abs(mpcc_fidelity(FIDELITY_MINIMUM_ANGLE) - 5.0 / 6.0) < 1e-12
    assert abs(mpcc_fidelity(math.pi - FIDELITY_MINIMUM_ANGLE) - 5.0 / 6.0) < 1e-12


def test_fidelity_two_algebraic_forms_agree():
    # MpccParams.fidelity groups the terms by a = lam^2 and lam*lam_bar instead
    for theta in GRID:
        theta = float(theta)
        pr = mpcc_params(theta)
        assert abs(mpcc_fidelity(theta) - amplitude_fidelity(theta, pr.lam)) < 1e-12


def test_fidelity_mirror_symmetric():
    for theta in GRID:
        assert abs(mpcc_fidelity(float(theta)) - mpcc_fidelity(math.pi - float(theta))) < 1e-12


def test_fidelity_minimum_is_at_the_named_angle():
    fine = np.linspace(0.0, math.pi, 4001)
    values = mpcc_fidelity(fine)  # one column call: each entry is bitwise its lone call
    assert values.min() >= 5.0 / 6.0 - 1e-12
    best = fine[int(np.argmin(values))]
    assert min(abs(best - FIDELITY_MINIMUM_ANGLE), abs(best - (math.pi - FIDELITY_MINIMUM_ANGLE))) < 1e-3


def test_polar_angle_validation():
    for bad in (-0.1, math.pi + 0.1, math.nan, True, np.False_):
        with pytest.raises(ValueError):
            mpcc_params(bad)
        with pytest.raises(ValueError):
            pcc_fidelity(bad)
    for bloch in (mpcc_clone_bloch, pcc_clone_bloch, uc_clone_bloch):
        for bad_theta, bad_phi in ((-0.1, 0.0), (math.nan, 0.0), (True, 0.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                bloch(bad_theta, bad_phi)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


_BLOCHS = (mpcc_clone_bloch, pcc_clone_bloch, uc_clone_bloch)
SQRT2 = math.sqrt(2.0)


def _scalar_closed_forms(theta, phi):
    """The closed forms at one angle in Python floats, operation for operation: the oracle for the columns.

    Returns the MpccParams fields, pcc_fidelity and the three Bloch vectors, by name.
    """
    cos, sin = math.cos(theta), math.sin(theta)
    cos_sq, s_sq = math.cos(theta) ** 2, math.sin(theta) ** 2
    p = 2.0 - 4.0 * cos_sq + 3.0 * cos_sq * cos_sq
    shift = cos_sq / (2.0 * math.sqrt(p))
    plus, minus = math.sqrt(0.5 + shift), math.sqrt(max(0.5 - shift, 0.0))
    lam = plus
    lam_bar = math.sqrt(max(1.0 - lam * lam, 0.0))
    a = lam * lam
    r_eq = SQRT2 * lam * lam_bar * sin
    s = 1.0 if math.pi - 2.0 * theta >= 0.0 else -1.0
    return {
        "theta": theta, "p": p, "candidates": (plus, -plus, minus, -minus), "lam": lam, "lam_bar": lam_bar, "a": a,
        "b": lam_bar * lam_bar / 2.0, "c": lam * lam_bar / SQRT2,
        "fidelity": 0.5 * (1.0 + a * cos_sq + SQRT2 * lam * lam_bar * s_sq),
        "pcc_fidelity": 0.5 * (1.0 + s_sq / SQRT2 + cos * (s + cos) / 2.0),
        "mpcc_clone_bloch": [r_eq * math.cos(phi), r_eq * math.sin(phi), a * cos],
        "pcc_clone_bloch": [sin * math.cos(phi) / SQRT2, sin * math.sin(phi) / SQRT2, (s + cos) / 2.0],
        "uc_clone_bloch": [(2.0 / 3.0) * v for v in (sin * math.cos(phi), sin * math.sin(phi), cos)],
    }


@settings(max_examples=60, deadline=None)
@given(thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=40), phi=st.floats(-7.0, 7.0))
@example(thetas=[0.0], phi=0.0)
@example(thetas=[math.pi / 2], phi=0.9)
@example(thetas=[math.pi], phi=-1.0)
@example(thetas=[FIDELITY_MINIMUM_ANGLE], phi=2.5)
@example(thetas=[math.pi - FIDELITY_MINIMUM_ANGLE], phi=0.0)
@example(thetas=[5e-324], phi=math.pi)
@example(thetas=[math.pi - 1e-16], phi=-0.0)
@example(thetas=[0.0, 5e-324, FIDELITY_MINIMUM_ANGLE, math.pi / 2, math.pi - 1e-16, math.pi], phi=1.3)
def test_column_closed_forms_equal_the_lone_calls_bit_for_bit(thetas, phi):
    for column in (thetas, np.array(thetas)):
        pr, f_pcc = mpcc_params(column), pcc_fidelity(column)
        vectors = [bloch(column, phi) for bloch in _BLOCHS]
        assert f_pcc.shape == (len(thetas),) and all(v.shape == (len(thetas), 3) for v in vectors)
        for i, theta in enumerate(thetas):
            lone, want = mpcc_params(theta), _scalar_closed_forms(theta, phi)
            for name, value in vars(lone).items():  # every field, fidelity among them
                if name == "candidates":
                    assert all(type(v) is float for v in value)
                    assert _bits(value) == _bits([c[i] for c in pr.candidates])
                else:
                    assert type(value) is float and _bits(value) == _bits(getattr(pr, name)[i]), name
                assert _bits(value) == _bits(want[name]), name
            assert type(pcc_fidelity(theta)) is float
            assert _bits(pcc_fidelity(theta)) == _bits(f_pcc[i]) == _bits(want["pcc_fidelity"])
            for bloch, stack in zip(_BLOCHS, vectors):
                assert _bits(bloch(theta, phi)) == _bits(stack[i]) == _bits(want[bloch.__name__]), bloch.__name__


@pytest.mark.parametrize("bad", [math.nan, -0.1, math.pi + 1e-9, True, np.True_])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_bad_angle_anywhere_in_a_column_raises_naming_it(bad, position):
    column = [0.3, 1.0, FIDELITY_MINIMUM_ANGLE, 2.5, math.pi]
    column[position] = bad
    for call in (mpcc_params, pcc_fidelity, *(partial(bloch, phi=0.4) for bloch in _BLOCHS)):
        with pytest.raises(ValueError, match=re.escape(f"polar angle {bad!r} ")):
            call(column)


@pytest.mark.parametrize(
    "call",
    [
        partial(mpcc_params, "a"),
        partial(certificate, "a"),
        partial(r_theta, None),
        partial(PriorDistribution.mirror, "a"),
        partial(interaction_time, "x", 1.0),
        partial(interaction_time, 1.0, "x"),
        partial(circuit_mpcc_v2, 1.0, "x"),
        partial(eqneighbor_hamiltonian, "x"),
        partial(eqneighbor_propagator, "x", 1.0),
        partial(propagator_coefficients, "x", 1.0),
        partial(decompose_ccr, "x"),
        partial(optimize_map, score_operator(PriorDistribution.mirror(1.0)), tol="x"),
        partial(optimize_map, score_operator(PriorDistribution.mirror(1.0)), tol=None),
        partial(uc_fidelity, "x"),
        partial(ket_from_angles, "a", 0.0),
        partial(Gate, "ROTY", (1,), ("x",)),
    ],
    ids=lambda call: call.func.__name__,
)
def test_non_real_scalars_raise_value_error(call):
    # ValueError naming the value, not TypeError from the arithmetic it would reach
    with pytest.raises(ValueError, match="is not finite or not a real number"):
        call()


# --- process matrices -------------------------------------------------------


def test_universal_machine_is_the_mirror_machine_at_the_minimum_angle():
    assert np.abs(uc_choi() - mpcc_choi(FIDELITY_MINIMUM_ANGLE)).max() < 1e-15


def test_choi_from_weights_builds_only_channels():
    # the edge c = sqrt(ab) and a column pass; each condition's violation, a bool,
    # a shape mismatch and a non-number raise ValueError
    lam = np.linspace(0.0, 1.0, 11)
    check_choi(choi_from_weights(lam**2, (1.0 - lam**2) / 2.0, lam * np.sqrt((1.0 - lam**2) / 2.0)))
    for bad in ((5, -3, 7), (1.5, -0.25, 0.0), (0.5, 0.25 + 1e-12, 0.2), (0.5, 0.25, 0.3536), (True, 0, 0),
                (1.0, 0.0, 2**32), ([0.5, 1.0], [0.25, 0.0], 0.0), (10**400, 0, 0), (object(), 0, 0), ("1", 0, 0)):
        with pytest.raises(ValueError, match="weights"):
            choi_from_weights(*bad)


def test_choi_support_pattern():
    chi = choi_from_weights(0.5, 0.25, 0.2)
    support = {(0, 0), (7, 7)}
    support |= {(i, j) for i in (1, 2) for j in (1, 2)}
    support |= {(i, j) for i in (5, 6) for j in (5, 6)}
    support |= {(0, 5), (0, 6), (5, 0), (6, 0), (1, 7), (2, 7), (7, 1), (7, 2)}
    for i in range(8):
        for j in range(8):
            if (i, j) not in support:
                assert chi[i, j] == 0.0, (i, j)


def test_mpcc_choi_is_valid_rank_two_process():
    for theta in (0.0, 0.7, FIDELITY_MINIMUM_ANGLE, math.pi / 2, 2.8):
        chi = mpcc_choi(theta)
        check_choi(chi)
        w = np.linalg.eigvalsh(chi)
        assert np.abs(w[:6]).max() < 1e-10  # rank 2
        assert np.abs(w[6:] - 1.0).max() < 1e-10  # isometry channel


def test_mpcc_choi_matches_isometry_dilation():
    for theta in (0.0, 0.4, 1.2, math.pi / 2, 2.1, math.pi):
        assert np.abs(mpcc_choi(theta) - isometry_choi(theta)).max() < 1e-12


def test_uc_choi_weights():
    chi = uc_choi()
    check_choi(chi)
    assert abs(chi[0, 0] - 2.0 / 3.0) < 1e-15
    assert abs(chi[1, 1] - 1.0 / 6.0) < 1e-15
    assert abs(chi[0, 5] - 1.0 / 3.0) < 1e-15


def test_check_choi_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_choi(np.eye(4))
    bad = mpcc_choi(1.0).copy()
    bad[0, 3] = 0.5  # breaks Hermiticity
    with pytest.raises(ValueError):
        check_choi(bad)
    with pytest.raises(ValueError):
        check_choi(2.0 * mpcc_choi(1.0))  # not trace preserving
    neg = np.zeros((8, 8), dtype=np.complex128)
    neg[0, 0] = neg[7, 7] = 1.0
    neg[0, 7] = neg[7, 0] = 1.5  # negative eigenvalue, still TP
    with pytest.raises(ValueError):
        check_choi(neg)
    with pytest.raises(ValueError):
        check_choi(np.full((8, 8), np.nan))


# --- channel application ----------------------------------------------------


def test_clone_matches_isometry_reductions(rng):
    # dual route: the channel via the process matrix against the dilation
    for theta in (0.0, 0.5, FIDELITY_MINIMUM_ANGLE, math.pi / 2, 2.6):
        chi = mpcc_choi(theta)
        for _ in range(4):
            psi = haar_random_state(rng)
            rho_out, rho1, rho2 = clone(psi, chi)
            full = mpcc_isometry_apply(theta, psi)
            rho_full = np.outer(full, full.conj())
            assert np.abs(rho_out - partial_trace(rho_full, [1, 2])).max() < 1e-12
            assert np.abs(rho1 - partial_trace(rho_full, [1])).max() < 1e-12
            assert np.abs(rho2 - partial_trace(rho_full, [2])).max() < 1e-12
            assert abs(complex(np.trace(rho_out)) - 1.0) < 1e-12


def test_clone_validation():
    with pytest.raises(ValueError):
        clone(np.array([1.0, 0.0, 0.0]), mpcc_choi(1.0))
    with pytest.raises(ValueError):
        clone(np.array([1.0, 0.0]), np.eye(4))
    with pytest.raises(ValueError):
        clone(np.array([2.0, 0.0]), mpcc_choi(1.0))  # not unit norm
    with pytest.raises(ValueError):
        clone(np.array([math.nan, 0.0]), mpcc_choi(1.0))
    # only channels: non-finite and non-trace-preserving process matrices raise
    for bad in (np.full((8, 8), np.nan), 5.0 * np.eye(8)):
        with pytest.raises(ValueError, match="process matrix"):
            clone(np.array([1.0, 0.0]), bad)


def test_isometry_preserves_norm_and_validates(rng):
    for theta in (0.2, 1.3, 2.9):
        psi = haar_random_state(rng)
        out = mpcc_isometry_apply(theta, psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        mpcc_isometry_apply(1.0, np.zeros(3))
    with pytest.raises(ValueError):
        mpcc_isometry_apply(1.0, np.array([2.0, 0.0]))  # not unit norm
    with pytest.raises(ValueError):
        mpcc_isometry_apply(1.0, np.array([math.nan, 0.0]))


def test_isometry_on_a_stack_equals_the_lone_calls_bit_for_bit(rng):
    states = np.array([haar_random_state(rng) for _ in range(5)])
    for theta in (0.0, 0.7, FIDELITY_MINIMUM_ANGLE, math.pi):
        out = mpcc_isometry_apply(theta, states)
        assert out.shape == (5, 8)
        for psi, row in zip(states, out):
            assert row.tobytes() == mpcc_isometry_apply(theta, psi).tobytes()
    bad = states.copy()
    bad[3] *= 1.5  # one row off the unit sphere
    for stack in (bad, np.ones((2, 3)) / math.sqrt(3.0), states[None]):
        with pytest.raises(ValueError):
            mpcc_isometry_apply(1.0, stack)


def test_isometry_on_a_column_of_angles_equals_the_lone_calls_bit_for_bit(rng):
    grid = np.array([0.0, 0.7, FIDELITY_MINIMUM_ANGLE, math.pi / 2, math.pi - FIDELITY_MINIMUM_ANGLE, math.pi])
    states = haar_random_state(rng, (len(grid), 3))
    out = mpcc_isometry_apply(grid[:, None], states)  # three states per angle
    assert out.shape == (6, 3, 8)
    for theta, per_angle, rows in zip(grid, states, out):
        for psi, row in zip(per_angle, rows):
            assert row.tobytes() == mpcc_isometry_apply(float(theta), psi).tobytes()
    with pytest.raises(ValueError):
        mpcc_isometry_apply(grid[:, None], states[None])  # one stack axis more than the angles have
    with pytest.raises(ValueError):
        mpcc_isometry_apply(np.array([[0.5], [4.0]]), states[:2])  # an angle outside [0, pi]


def test_clone_bloch_closed_form():
    for theta in (0.0, 0.6, math.pi / 2, 2.2):
        for phi in (0.0, 1.1, -2.0):
            psi = ket_from_angles(theta, phi)
            _, rho1, rho2 = clone(psi, mpcc_choi(theta))
            want = mpcc_clone_bloch(theta, phi)
            assert np.abs(bloch(rho1) - want).max() < 1e-12
            assert np.abs(bloch(rho2) - want).max() < 1e-12


def test_stacked_clone_and_fidelity_equal_their_lone_calls_bit_for_bit(rng):
    # one check_choi and one contraction per stack, no second cloning map:
    # each entry is its lone call, and a lone call is the plain contraction
    chis = [mpcc_choi(0.4), uc_choi()] + [random_trace_preserving_choi(rng) for _ in range(4)]
    for chi in chis:
        states = haar_random_state(rng, (3, 5))
        stacked = clone(states, chi)
        overlaps = [fidelity_pure(states, rho) for rho in stacked[1:]]
        assert [out.shape for out in stacked] == [(3, 5, 4, 4), (3, 5, 2, 2), (3, 5, 2, 2)]
        assert overlaps[0].shape == (3, 5)
        for idx in np.ndindex(3, 5):
            psi = states[idx]
            lone = clone(psi, chi)
            plain = np.einsum("iajb,ij->ab", chi.reshape(2, 4, 2, 4), np.outer(psi, psi.conj()))
            assert lone[0].tobytes() == plain.tobytes()
            for got, want in zip(stacked, lone):
                assert got[idx].tobytes() == want.tobytes()
            for got, rho in zip(overlaps, lone[1:]):
                value = fidelity_pure(psi, rho)
                assert type(value) is float and got[idx] == value
    with pytest.raises(ValueError, match="dimensions"):
        fidelity_pure(states, stacked[1][0])  # leading shapes (3, 5) and (5,)
    with pytest.raises(ValueError, match="vector of 2"):
        clone(np.ones((4, 3)) / math.sqrt(3.0), uc_choi())
    with pytest.raises(ValueError, match=r"one 8x8 process matrix, not a stack of shape \(2, 8, 8\)"):
        clone(states, np.stack([uc_choi(), uc_choi()]))  # one channel per call, however many states


def test_clone_fidelity_is_phase_invariant():
    for theta in (0.3, FIDELITY_MINIMUM_ANGLE, 1.9):
        f_ref = mpcc_fidelity(theta)
        chi = mpcc_choi(theta)
        for phi in (0.0, 0.7, 2.9, -1.2):
            psi = ket_from_angles(theta, phi)
            _, rho1, _ = clone(psi, chi)
            assert abs(fidelity_pure(psi, rho1) - f_ref) < 1e-12


def test_clone_fidelity_mirror_pair():
    # the machine at theta serves the mirrored input equally well
    theta = 0.8
    chi = mpcc_choi(theta)
    psi = ket_from_angles(math.pi - theta, 0.4)
    _, rho1, _ = clone(psi, chi)
    assert abs(fidelity_pure(psi, rho1) - mpcc_fidelity(theta)) < 1e-12


# --- reference machines -----------------------------------------------------


def test_pcc_fidelity_consistent_with_bloch():
    # F = (1 + n . r)/2 ties the two closed forms together
    for theta in GRID:
        theta = float(theta)
        for phi in (0.0, 1.3):
            n = np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )
            r = pcc_clone_bloch(theta, phi)
            assert abs(pcc_fidelity(theta) - 0.5 * (1.0 + float(n @ r))) < 1e-12


def test_pcc_poles_and_continuity():
    assert abs(pcc_fidelity(0.0) - 1.0) < 1e-12
    assert abs(pcc_fidelity(math.pi) - 1.0) < 1e-12
    mid = pcc_fidelity(math.pi / 2)
    assert abs(pcc_fidelity(math.pi / 2 - 1e-9) - mid) < 1e-8
    assert abs(pcc_fidelity(math.pi / 2 + 1e-9) - mid) < 1e-8


def test_uc_fidelity_formula():
    assert uc_fidelity(2) == 5.0 / 6.0  # the sweep's F_uc bits
    assert uc_fidelity(10**400) == 2.0 / 3.0  # integer division rounds once, past the float range too
    assert uc_fidelity(1) == 1.0
    assert abs(uc_fidelity(5) - 11.0 / 15.0) < 1e-15
    for bad in (0, -1, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            uc_fidelity(bad)


def test_uc_channel_is_universal(rng):
    # every input comes out with the same fidelity and a 2/3-shrunk Bloch vector
    chi = uc_choi()
    for _ in range(20):
        psi = haar_random_state(rng)
        _, rho1, rho2 = clone(psi, chi)
        assert abs(fidelity_pure(psi, rho1) - 5.0 / 6.0) < 1e-12
        assert abs(fidelity_pure(psi, rho2) - 5.0 / 6.0) < 1e-12
        rho_in = np.outer(psi, psi.conj())
        assert np.abs(bloch(rho1) - (2.0 / 3.0) * bloch(rho_in)).max() < 1e-12


def test_uc_clone_bloch_shrinks_input():
    v = uc_clone_bloch(0.9, 0.3)
    want = (2.0 / 3.0) * np.array(
        [math.sin(0.9) * math.cos(0.3), math.sin(0.9) * math.sin(0.3), math.cos(0.9)]
    )
    assert np.abs(v - want).max() < 1e-15
