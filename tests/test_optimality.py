"""Tests for the optimality certificate and the independent optimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorclone.cloners import (
    FIDELITY_MINIMUM_ANGLE,
    check_choi,
    mpcc_choi,
    mpcc_fidelity,
    pcc_fidelity,
    trace_over_outputs,
    uc_fidelity,
)
from mirrorclone.fidelity import PriorDistribution, score_operator
from mirrorclone.optimality import (
    OptimalityCertificate,
    certificate,
    choi_pattern_defect,
    optimize_batch,
    optimize_map,
    random_trace_preserving_choi,
)

GRID = np.concatenate([np.linspace(0.0, math.pi, 41), [FIDELITY_MINIMUM_ANGLE]])


def test_certificate_closed_spectrum_at_equator():
    cert = certificate(math.pi / 2)
    d1, d2, d3, d4 = cert.delta_closed_form
    s = math.sqrt(2.0)
    assert abs(d1 - s / 8.0) < 1e-12
    assert abs(d2 - s / 8.0) < 1e-12
    assert abs(d3 - s / 4.0) < 1e-12
    assert abs(d4) < 1e-12
    assert cert.psd_ok and cert.saturation_ok


def test_certificate_pole_is_tight():
    cert = certificate(0.0)
    assert cert.trace_gap == 0.0
    assert abs(cert.lambda_scalar - 0.5) < 1e-12  # F = 1 there
    assert min(cert.delta_spectrum) >= -1e-12


def test_certificate_grid_all_pass():
    for theta in GRID:
        cert = certificate(float(theta))
        assert isinstance(cert, OptimalityCertificate)
        assert cert.psd_ok, theta
        assert cert.saturation_ok, theta
        assert cert.delta_spectrum[0] >= -1e-10, theta
        assert cert.spectrum_residual <= 1e-10, theta
        assert cert.fidelity_identity_residual <= 1e-10, theta
        assert cert.proportionality <= 1e-12, theta
        # the two printed forms of the multiplier scale agree with Tr(lam)/2
        assert cert.weights_form_residual <= 1e-12, theta
        assert cert.half_fidelity_residual <= 1e-12, theta
        # the scalar identity pins the smallest closed-form eigenvalue to zero
        assert abs(cert.delta_closed_form[3]) <= 1e-12, theta
        assert len(cert.delta_spectrum) == 8


def test_certificate_spectrum_is_doubly_degenerate():
    cert = certificate(0.9)
    closed_doubled = sorted(
        [cert.delta_closed_form[i] for i in range(4) for _ in range(2)]
    )
    worst = max(abs(s - c) for s, c in zip(cert.delta_spectrum, closed_doubled))
    assert worst < 1e-10


def test_analytic_choi_is_fixed_point_of_the_update():
    # complementary slackness: R chi R = (F/2)^2 chi, so one update step is a no-op
    for theta in (0.4, math.pi / 3, 2.0):
        chi = mpcc_choi(theta)
        score = score_operator(PriorDistribution.mirror(theta))
        f = mpcc_fidelity(theta)
        mid = score @ chi @ score
        assert np.abs(mid - (f / 2.0) ** 2 * chi).max() < 1e-12
        d = trace_over_outputs(mid)
        assert np.abs(d - (f / 2.0) ** 2 * np.eye(2)).max() < 1e-12


def test_random_start_is_feasible_and_reproducible():
    a = random_trace_preserving_choi(np.random.default_rng(9))
    b = random_trace_preserving_choi(np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.abs(trace_over_outputs(a) - np.eye(2)).max() < 1e-12
    w = np.linalg.eigvalsh(a)
    assert w[0] > 1e-6  # Ginibre start is full rank
    assert np.abs(a - a.conj().T).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 3, FIDELITY_MINIMUM_ANGLE, math.pi / 2])
def test_optimizer_reaches_the_closed_form(theta):
    score = score_operator(PriorDistribution.mirror(theta))
    f_ref = mpcc_fidelity(theta)
    for seed in (0, 1):
        res = optimize_map(score, seed=seed)
        assert res.converged
        assert abs(res.f_star - f_ref) < 1e-8
        # feasible iterates can approach the optimum only from below
        assert max(res.fidelity_history) <= f_ref + 1e-9
        check_choi(res.chi_star)
        assert len(res.fidelity_history) == res.iterations + 1
        assert res.f_star == max(res.fidelity_history)


@pytest.mark.parametrize("theta", [0.0, math.pi])
@pytest.mark.parametrize(
    "prior, f_ref",
    [(PriorDistribution.phase_covariant, pcc_fidelity), (PriorDistribution.mirror, mpcc_fidelity)],
)
def test_optimizer_returns_a_channel_at_the_poles(theta, prior, f_ref):
    # the phase-covariant score at a pole ignores one input state entirely;
    # the returned process must still be trace preserving on that input
    res = optimize_map(score_operator(prior(theta)), seed=4)
    check_choi(res.chi_star)
    assert abs(res.f_star - f_ref(theta)) < 1e-6


def test_optimizer_contract_in_the_slow_convergence_band():
    # hardest measured case: near theta = 0.31 the plain fixed-point step
    # gains a factor 1 - 5e-5 per iteration, and this start was still 1.4e-6
    # short after 20000 of them.  The accelerated iteration stops on its
    # step test within a few hundred iterations, inside the accuracy promise.
    theta = 0.31
    score = score_operator(PriorDistribution.mirror(theta))
    res = optimize_map(score, seed=9)
    assert res.converged
    assert res.iterations <= 500
    assert abs(res.f_star - mpcc_fidelity(theta)) <= 1e-7


# (theta, start seed) pairs whose runs crawled for thousands of iterations
# under the plain fixed-point step: the benchmark's slow-band calls, and the
# band edge theta = 0.30 where every start ran into the 60000-iteration cap
SLOW_BAND_RUNS = [
    *((0.47, seed) for seed in (2, 3, 6, 8)),
    *((1.40, seed) for seed in (3, 5, 10)),
    *((0.30, seed) for seed in range(8)),
]


def test_slow_band_runs_converge_in_a_few_hundred_iterations():
    slow = []
    for theta, seed in SLOW_BAND_RUNS:
        res = optimize_map(score_operator(PriorDistribution.mirror(theta)), seed=seed)
        check_choi(res.chi_star)
        if not (res.converged and res.iterations <= 500 and abs(res.f_star - mpcc_fidelity(theta)) <= 1e-6):
            slow.append((theta, seed, res.iterations, res.f_star - mpcc_fidelity(theta)))
    assert slow == []


def _chi_space_step(chi, score):
    """One step chi -> L (R chi R) L taken on chi itself, then symmetrized.

    The reference for the optimizer's step on a Kraus factor of chi.
    """
    op = score @ chi @ score
    h = trace_over_outputs(op)
    tr = np.trace(h).real
    s = np.sqrt(max(np.linalg.det(h).real, 0.0))
    if s <= 1e-12 * tr:
        p = h / tr
        lift = np.kron(p / np.sqrt(tr), np.eye(4))
        out = lift @ op @ lift + np.kron(np.eye(2) - p, np.eye(4)) / 4.0
    else:
        adj = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]])
        lift = np.kron((s * np.eye(2) + adj) / (s * np.sqrt(tr + 2.0 * s)), np.eye(4))
        out = lift @ op @ lift
    return (out + out.conj().T) / 2.0


@pytest.mark.parametrize(
    "prior",
    [PriorDistribution.mirror(0.47), PriorDistribution.universal(), PriorDistribution.phase_covariant(0.0)],
)
def test_first_step_is_the_plain_chi_space_step(prior):
    # the first step has no previous residual, so it takes the plain map; the
    # phase-covariant pole takes the rank-one completion
    score = score_operator(prior)
    for seed in range(3):
        chi = random_trace_preserving_choi(np.random.default_rng(seed))
        res = optimize_map(score, seed=seed, max_iter=1)
        assert res.fidelity_history[1] > res.fidelity_history[0]  # chi_star is the stepped iterate
        assert np.abs(res.chi_star - _chi_space_step(chi, score)).max() <= 1e-13


def test_optimizer_multi_start_consistency():
    # independent random starts must land on the same optimal value
    score = score_operator(PriorDistribution.mirror(math.pi / 3))
    values = [optimize_map(score, seed=seed).f_star for seed in range(5)]
    assert max(values) - min(values) < 1e-8


def test_optimizer_finds_the_analytic_pattern_off_degeneracy():
    # away from the poles and the equator the optimum is unique
    theta = 1.0
    score = score_operator(PriorDistribution.mirror(theta))
    res = optimize_map(score, seed=3)
    assert choi_pattern_defect(res.chi_star, theta) < 1e-3


def test_pattern_defect_zero_on_analytic_matrix():
    for theta in (0.3, 1.2, 2.8):
        assert choi_pattern_defect(mpcc_choi(theta), theta) == 0.0


def test_optimize_map_validation():
    score = score_operator(PriorDistribution.mirror(1.0))
    with pytest.raises(ValueError):
        optimize_map(np.eye(4))
    with pytest.raises(ValueError):
        optimize_map(score, tol=0.0)
    with pytest.raises(ValueError):
        optimize_map(score, max_iter=0)
    for tol in (math.nan, math.inf, -1e-12):
        with pytest.raises(ValueError):
            optimize_map(score, tol=tol, max_iter=3)
    with pytest.raises(ValueError):
        optimize_map(score, max_iter=2.5)
    with pytest.raises(ValueError):
        optimize_map(score, seed=1.5)
    assert optimize_map(score, seed=np.int64(2), max_iter=np.int64(3)).iterations <= 3  # NumPy integers pass
    with pytest.raises(ValueError):
        optimize_map(-np.eye(8), max_iter=200)  # Hermitian but not PSD
    with pytest.raises(ValueError):
        optimize_map(np.full((8, 8), np.nan))
    with pytest.raises(ValueError):
        optimize_map(np.zeros((8, 8)))
    skew = score.astype(complex)
    skew[0, 5] += 1e-3j
    with pytest.raises(ValueError):
        optimize_map(skew)
    with pytest.raises(ValueError):
        optimize_batch(np.stack([score, score]), seeds=[0])


def test_batch_runs_equal_their_lone_calls():
    # finished runs leave the stack at different steps, and the phase-covariant
    # pole takes the kernel completion, yet each run stays bitwise its own
    scores = [
        score_operator(PriorDistribution.mirror(0.47)),
        score_operator(PriorDistribution.phase_covariant(0.0)),
        score_operator(PriorDistribution.universal()),
        score_operator(PriorDistribution.mirror(0.47)),
    ]
    seeds = [2, 4, 7, 11]
    batch = optimize_batch(np.stack(scores), seeds, max_iter=600)
    assert len({res.iterations for res in batch}) > 1
    for score, seed, res in zip(scores, seeds, batch, strict=True):
        alone = optimize_map(score, seed=seed, max_iter=600)
        assert res.chi_star.tobytes() == alone.chi_star.tobytes()
        assert res.f_star == alone.f_star
        assert res.iterations == alone.iterations
        assert res.converged == alone.converged
        assert res.fidelity_history == alone.fidelity_history


def test_run_record_is_python_typed_with_a_numpy_tol():
    # a NumPy tol makes the stop comparison an np.bool_, which the CLI would
    # print as True rather than true
    score = score_operator(PriorDistribution.mirror(1.0))
    for tol, max_iter, stopped in ((np.float64(1e-10), 2, False), (np.float64(1e-2), 50, True)):
        res = optimize_map(score, tol=tol, max_iter=max_iter)
        assert type(res.converged) is bool and res.converged is stopped
        assert type(res.iterations) is int and res.iterations == len(res.fidelity_history) - 1


_PRIORS = {
    "mirror": (PriorDistribution.mirror, mpcc_fidelity),
    "phase_covariant": (PriorDistribution.phase_covariant, pcc_fidelity),
    "universal": (lambda theta: PriorDistribution.universal(), lambda theta: uc_fidelity(2)),
}


@pytest.mark.parametrize("kind", sorted(_PRIORS))
@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.0, math.pi), seed=st.integers(0, 2**32 - 1))
@example(theta=0.0, seed=0)
@example(theta=math.pi / 2, seed=0)
@example(theta=math.pi, seed=0)
@example(theta=FIDELITY_MINIMUM_ANGLE, seed=0)
# near the poles Tr_out(R chi R) is ill-conditioned for phase-covariant priors
@example(theta=0.001953125, seed=0)
@example(theta=math.pi - 1e-3, seed=0)
def test_optimizer_returns_a_channel_below_the_closed_form(kind, theta, seed):
    prior, closed_form = _PRIORS[kind]
    res = optimize_map(score_operator(prior(theta)), seed=seed, max_iter=50)
    check_choi(res.chi_star)
    # feasible iterates can approach the optimum only from below
    assert max(res.fidelity_history) <= closed_form(theta) + 1e-9
