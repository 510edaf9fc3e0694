"""Tests for the optimality certificate and the independent optimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorclone.cloners import (
    FIDELITY_MINIMUM_ANGLE,
    check_choi,
    choi_from_weights,
    mpcc_params,
    mpcc_choi,
    mpcc_fidelity,
    pcc_fidelity,
    uc_fidelity,
)
from mirrorclone.fidelity import PriorDistribution, score_operator
from mirrorclone.optimality import (
    PSD_TOL,
    SATURATION_TOL,
    OptimalityCertificate,
    certificate,
    optimize_batch,
    optimize_map,
    random_trace_preserving_choi,
)
from mirrorclone.qcore import kron, partial_trace

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


def _bits(value):
    """A certificate, a field or a cell, each float by its exact bit pattern."""
    if isinstance(value, OptimalityCertificate):
        return {name: _bits(v) for name, v in vars(value).items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(_bits, value))
    return value.hex() if isinstance(value, float) else value


def _python_cells(cert):
    """Whether a certificate's cells, one angle's or a column's, are Python floats and bools, each spectrum a tuple."""
    cells = {name: field if isinstance(cert.theta, list) else [field] for name, field in vars(cert).items()}
    spectra = cells.pop("delta_spectrum") + cells.pop("delta_closed_form")
    flags = cells.pop("psd_ok") + cells.pop("saturation_ok")
    floats = [x for s in spectra for x in s] + [x for field in cells.values() for x in field]
    types = [{type(s) for s in spectra}, {type(x) for x in flags}, {type(x) for x in floats}]
    return all(t <= {want} for t, want in zip(types, (tuple, bool, float)))


@pytest.mark.parametrize("column", [list, tuple, np.array])
def test_certificate_column_entries_equal_lone_certificates_bit_for_bit(column):
    grid = [0.0, 0.3, FIDELITY_MINIMUM_ANGLE, 1.2, math.pi / 2, 2.0, math.pi - FIDELITY_MINIMUM_ANGLE, math.pi]
    got = certificate(column(grid))
    assert type(got) is OptimalityCertificate and got.theta == grid
    assert all(type(field) is list and len(field) == len(grid) for field in vars(got).values())
    assert _python_cells(got)
    for i, theta in enumerate(grid):
        lone = certificate(theta)
        assert _python_cells(lone)
        assert {name: _bits(field[i]) for name, field in vars(got).items()} == _bits(lone)


def _reference_certificates(thetas):
    """The certificate as first stacked: one score_operator per angle and the
    per-angle scalars in a Python loop.  The oracle for a column certificate."""
    params = [mpcc_params(theta) for theta in thetas]
    score = np.empty((len(params), 8, 8), dtype=np.complex128)
    for i, pr in enumerate(params):
        score[i] = score_operator(PriorDistribution.mirror(pr.theta))
    weights = np.array([(pr.a, pr.b, pr.c) for pr in params]).T

    lam_op = partial_trace(score @ choi_from_weights(*weights), [1])
    traces = np.trace(lam_op, axis1=1, axis2=2).real
    proportionality = np.abs(lam_op - (traces / 2.0)[:, None, None] * np.eye(2)).max(axis=(1, 2))
    delta = kron(lam_op, np.eye(4)) - score
    delta += delta.conj().swapaxes(1, 2)
    delta /= 2.0
    spectra = np.linalg.eigvalsh(delta)

    out = []
    corners = score[:, [0, 1, 0], [0, 1, 5]].real.tolist()
    rows = zip(params, traces.tolist(), proportionality.tolist(), spectra.tolist(), corners)
    for pr, trace, prop, spectrum, (r00, r11, r05) in rows:
        f = pr.fidelity
        lambda_scalar = trace / 2.0
        trace_gap = trace - f
        s1_sq = math.sin(pr.theta) ** 2
        rbar = math.hypot(r00 - r11, math.sqrt(8.0) * r05)
        d1 = 0.5 * (f - 0.5)
        d2 = 0.5 * (f - s1_sq / 2.0)
        d3 = 0.5 * (f - r00 - r11 + rbar)
        d4 = 0.5 * (f - r00 - r11 - rbar)
        closed = sorted((d1, d1, d2, d2, d3, d3, d4, d4))
        cos_sq = math.cos(pr.theta) ** 2
        weights_form = ((1.0 + cos_sq) * pr.a + 2.0 * pr.b + 2.0 * s1_sq * pr.c) / 4.0
        out.append(
            OptimalityCertificate(
                theta=pr.theta,
                lambda_scalar=lambda_scalar,
                trace_gap=trace_gap,
                delta_spectrum=tuple(spectrum),
                delta_closed_form=(d1, d2, d3, d4),
                fidelity_identity_residual=abs(f - r00 - r11 - rbar),
                spectrum_residual=max(abs(s - c) for s, c in zip(spectrum, closed)),
                proportionality=prop,
                weights_form_residual=abs(lambda_scalar - weights_form),
                half_fidelity_residual=abs(lambda_scalar - f / 2.0),
                psd_ok=bool(spectrum[0] >= -PSD_TOL),
                saturation_ok=bool(abs(trace_gap) <= SATURATION_TOL),
            )
        )
    return out


_LANDMARKS = [0.0, math.pi, math.pi / 2, FIDELITY_MINIMUM_ANGLE, math.pi - FIDELITY_MINIMUM_ANGLE]


@settings(max_examples=30, deadline=None)
@given(extra=st.lists(st.floats(0.0, math.pi), max_size=40), seed=st.integers(0, 2**32 - 1))
@example(extra=[], seed=0)
@example(extra=[5e-324, math.nextafter(math.pi, 0.0), 1e-8, math.pi / 4], seed=1)
def test_column_certificate_equals_the_per_angle_loop_bit_for_bit(extra, seed):
    grid = _LANDMARKS + extra
    np.random.default_rng(seed).shuffle(grid)
    got, want = certificate(grid), _reference_certificates(grid)
    for name, field in vars(got).items():
        assert _bits(field) == [_bits(getattr(cert, name)) for cert in want], name
    assert _python_cells(got)


def test_certificate_edge_cases():
    assert all(field == [] for field in vars(certificate([])).values())
    # a column is what mpcc_params reads as one: a dict or a set is one bad angle, not a column
    bad_inputs = ([0.2, -0.1], [math.pi + 1e-9], [float("nan")], ["x"], None, [True], [0.5, np.True_],
                  {}, {0.5: 1.0}, {0.5}, np.array([[0.5]]), (t for t in [0.5]), -0.1, True, "a")
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            certificate(bad)
    # columns carry Python floats, whatever number type each angle came as
    for thetas in (np.array([0.5, 1.0]), [np.float64(0.5), 1], (0.5, np.float32(1.0))):
        got = certificate(thetas)
        assert got.theta == [0.5, 1.0] and _python_cells(got)
    for theta in (np.float64(0.5), np.array(0.5), 1):
        assert type(certificate(theta).theta) is float


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
        d = partial_trace(mid, [1])
        assert np.abs(d - (f / 2.0) ** 2 * np.eye(2)).max() < 1e-12


def test_random_start_is_feasible_and_reproducible():
    a = random_trace_preserving_choi(np.random.default_rng(9))
    b = random_trace_preserving_choi(np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.abs(partial_trace(a, [1]) - np.eye(2)).max() < 1e-12
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
    # step test within a few dozen iterations, inside the accuracy promise.
    theta = 0.31
    score = score_operator(PriorDistribution.mirror(theta))
    res = optimize_map(score, seed=9)
    assert res.converged
    assert res.iterations <= 60
    assert abs(res.f_star - mpcc_fidelity(theta)) <= 1e-7


# (theta, start seed) pairs whose runs crawled for thousands of iterations
# under the plain fixed-point step: the benchmark's slow-band calls, and the
# band edge theta = 0.30 where every start ran into the 60000-iteration cap
SLOW_BAND_RUNS = [
    *((0.47, seed) for seed in (2, 3, 6, 8)),
    *((1.40, seed) for seed in (3, 5, 10)),
    *((0.30, seed) for seed in range(8)),
]


def test_slow_band_runs_converge_in_a_few_dozen_iterations():
    slow = []
    for theta, seed in SLOW_BAND_RUNS:
        res = optimize_map(score_operator(PriorDistribution.mirror(theta)), seed=seed)
        check_choi(res.chi_star)
        if not (res.converged and res.iterations <= 60 and abs(res.f_star - mpcc_fidelity(theta)) <= 1e-6):
            slow.append((theta, seed, res.iterations, res.f_star - mpcc_fidelity(theta)))
    assert slow == []


def _chi_space_step(chi, score):
    """One step chi -> L (R chi R) L taken on chi itself, then symmetrized.

    The reference for the optimizer's step on a Kraus factor of chi.
    """
    op = score @ chi @ score
    h = partial_trace(op, [1])
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
    # magnitudes only, which fixes any per-entry phase freedom
    assert np.abs(np.abs(res.chi_star) - mpcc_choi(theta)).max() < 1e-3


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
    with pytest.raises(ValueError):
        optimize_batch(score[None], seeds=None)  # a scalar where the seed list goes
    with pytest.raises(ValueError):
        optimize_batch(score[None], seeds=0)


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


@pytest.mark.parametrize("max_iter", [2, 3, 4])
def test_runs_ending_before_the_mix_history_fills_match_the_batch(max_iter):
    # until the fourth step some of the mix's difference slots still hold
    # zeros, which must solve to zero weight, and the phase-covariant poles
    # take the kernel completion: each run still returns a channel, bitwise
    # its own in the batch
    scores = [score_operator(p) for p in (PriorDistribution.phase_covariant(0.0),
                                          PriorDistribution.phase_covariant(math.pi), PriorDistribution.mirror(0.47))]
    seeds = [4, 5, 6]
    batch = optimize_batch(np.stack(scores), seeds, max_iter=max_iter)
    for score, seed, res in zip(scores, seeds, batch, strict=True):
        alone = optimize_map(score, seed=seed, max_iter=max_iter)
        check_choi(alone.chi_star)
        assert alone.iterations <= max_iter
        assert res.chi_star.tobytes() == alone.chi_star.tobytes()
        assert res.fidelity_history == alone.fidelity_history
        assert (res.f_star, res.iterations, res.converged) == (alone.f_star, alone.iterations, alone.converged)


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
