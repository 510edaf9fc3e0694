"""Optimality certificates and an independent numerical channel optimizer.

The certificate route: from the closed-form process matrix chi and score
operator R, build the input-space operator lam = Tr_out(R chi).  For the
optimal pair, lam is proportional to the identity; dual feasibility then
requires Delta = lam tensor id - R to be positive semidefinite, and
Tr(lam) must equal the closed-form fidelity.  The spectrum of Delta is
also known in closed form, which pins the whole construction down.

The optimizer route knows none of the closed forms: starting from a
random trace-preserving process matrix it iterates the fixed-point map
chi -> Linv (R chi R) Linv with L = sqrt(Tr_out(R chi R)) tensor id,
which preserves feasibility and climbs the fidelity functional.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cloners import check_choi, choi_from_weights, mpcc_choi, mpcc_params, trace_over_outputs
from .fidelity import PriorDistribution, score_operator

PSD_TOL = 1e-10
SATURATION_TOL = 1e-10


def lagrange_operator(chi: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Input-space multiplier Tr_out(R chi) of a channel/score pair."""
    chi = np.asarray(chi)
    score = np.asarray(score)
    if chi.shape != (8, 8) or score.shape != (8, 8):
        raise ValueError("process and score matrices must be 8x8")
    return trace_over_outputs(score @ chi)


def proportionality_defect(op: np.ndarray) -> float:
    """Distance of a 2x2 operator from the nearest multiple of the identity."""
    op = np.asarray(op)
    scale = complex(np.trace(op)).real / 2.0
    return float(np.abs(op - scale * np.eye(2)).max())


@dataclass(frozen=True)
class OptimalityCertificate:
    """Dual-feasibility record for the mirror machine at one polar angle.

    delta_spectrum is the ascending spectrum of Delta = lam tensor id - R;
    delta_closed_form holds the four analytic eigenvalues (each is doubly
    degenerate).  fidelity_identity_residual checks the scalar identity
    F = R[0,0] + R[1,1] + rbar with rbar^2 = (R[0,0]-R[1,1])^2 + 8 R[0,5]^2,
    which forces the smallest closed-form eigenvalue to zero.  The two
    printed forms of the multiplier scale are recorded as residuals
    against Tr(lam)/2: weights_form_residual for
    ((1+cos^2)a + 2b + 2 sin^2 c)/4 and half_fidelity_residual for F/2.
    The field order is the column order of `mirror-clone certify`.
    """

    theta: float
    lambda_scalar: float
    trace_gap: float
    fidelity_identity_residual: float
    spectrum_residual: float
    proportionality: float
    weights_form_residual: float
    half_fidelity_residual: float
    psd_ok: bool
    saturation_ok: bool
    delta_spectrum: tuple[float, ...]
    delta_closed_form: tuple[float, float, float, float]


def certificate(theta: float) -> OptimalityCertificate:
    """Build and evaluate the optimality certificate at one polar angle.

    Failures are reported in the record's flags, not raised: a false
    psd_ok or saturation_ok is data for the caller to act on.
    """
    pr = mpcc_params(theta)
    chi = choi_from_weights(pr.a, pr.b, pr.c)
    score = score_operator(PriorDistribution.mirror(theta))
    f = pr.fidelity

    lam_op = lagrange_operator(chi, score)
    lambda_scalar = complex(np.trace(lam_op)).real / 2.0
    trace_gap = complex(np.trace(lam_op)).real - f

    delta = _lift(lam_op) - score
    delta = (delta + delta.conj().T) / 2.0
    spectrum = tuple(float(x) for x in np.linalg.eigvalsh(delta))

    s1_sq = math.sin(theta) ** 2
    r00 = float(score[0, 0])
    r11 = float(score[1, 1])
    r05 = float(score[0, 5])
    rbar = math.hypot(r00 - r11, math.sqrt(8.0) * r05)
    d1 = 0.5 * (f - 0.5)
    d2 = 0.5 * (f - s1_sq / 2.0)
    d3 = 0.5 * (f - r00 - r11 + rbar)
    d4 = 0.5 * (f - r00 - r11 - rbar)
    closed = sorted((d1, d1, d2, d2, d3, d3, d4, d4))
    spectrum_residual = max(abs(s - c) for s, c in zip(spectrum, closed))

    cos_sq = math.cos(theta) ** 2
    weights_form = ((1.0 + cos_sq) * pr.a + 2.0 * pr.b + 2.0 * s1_sq * pr.c) / 4.0

    return OptimalityCertificate(
        theta=theta,
        lambda_scalar=lambda_scalar,
        trace_gap=trace_gap,
        delta_spectrum=spectrum,
        delta_closed_form=(d1, d2, d3, d4),
        fidelity_identity_residual=abs(f - r00 - r11 - rbar),
        spectrum_residual=spectrum_residual,
        proportionality=proportionality_defect(lam_op),
        weights_form_residual=abs(lambda_scalar - weights_form),
        half_fidelity_residual=abs(lambda_scalar - f / 2.0),
        psd_ok=bool(spectrum[0] >= -PSD_TOL),
        saturation_ok=bool(abs(trace_gap) <= SATURATION_TOL),
    )


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one fixed-point optimization run.

    chi_star is the best iterate seen and f_star its fidelity; it passes
    check_choi.  iterations counts update steps, and converged says whether
    the last step changed the fidelity by less than tol (otherwise the run
    hit max_iter).  fidelity_history records Tr(chi R) after every
    iteration (the first entry is the random start); its last two entries
    give that last change.
    """

    chi_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    fidelity_history: tuple[float, ...]


_EYE4 = np.eye(4)[:, None, :]


def _lift(m: np.ndarray) -> np.ndarray:
    """m tensor id4 for a 2x2 matrix or a stack of them."""
    return (m[..., :, None, :, None] * _EYE4).reshape(*m.shape[:-2], 8, 8)


def _trace_preserving(op: np.ndarray) -> np.ndarray:
    """Rescale PSD op, or a stack of them, to a trace-preserving map.

    Returns (m tensor id4) op (m tensor id4) with m = h^(-1/2) on the
    support of h = Tr_out(op).  For 2x2 h with s = sqrt(det h) that is the
    closed form m = (s I + adj h) / (s sqrt(tr + 2 s)), with adj h = tr I - h
    read off h's entries: the subtraction would lose the smaller eigenvalue
    when h is ill-conditioned.  When s <= 1e-12 tr the smaller eigenvalue's
    square root is below 1e-12 times the larger one's and counts as an exact
    zero: h = tr P has rank one, m = P / sqrt(tr), and the inputs in the
    kernel, I - P, get the completely depolarizing output (I - P) tensor
    id4 / 4.
    """
    h = trace_over_outputs(op)
    h00, h11 = h[..., :1, :1], h[..., 1:, 1:]  # shaped (..., 1, 1) to broadcast
    tr = (h00 + h11).real
    s = np.sqrt(np.maximum((h00 * h11 - h[..., :1, 1:] * h[..., 1:, :1]).real, 0.0))
    rank_one = (s <= 1e-12 * tr)[..., 0, 0]
    kernel = rank_one.any()
    den = s * np.sqrt(tr + 2.0 * s)
    den[rank_one] = 1.0  # m is replaced there below
    adj = -h
    adj[..., 0, 0], adj[..., 1, 1] = h[..., 1, 1], h[..., 0, 0]
    m = (s * np.eye(2) + adj) / den
    if kernel:
        p = h[rank_one] / tr[rank_one]
        m[rank_one] = p / np.sqrt(tr[rank_one])
    lift = _lift(m)
    out = lift @ op @ lift
    if kernel:
        out[rank_one] += _lift(np.eye(2) - p) / 4.0
    return out


def random_trace_preserving_choi(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank trace-preserving process matrix (Ginibre start)."""
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    w = g @ g.conj().T
    return _trace_preserving(w)


def _check_scores(scores) -> np.ndarray:
    """A non-empty (N, 8, 8) stack of finite, Hermitian, PSD, nonzero scores, as complex."""
    scores = np.asarray(scores, dtype=complex)
    if scores.ndim != 3 or scores.shape[1:] != (8, 8) or len(scores) == 0:
        raise ValueError("score matrices must be 8x8, stacked as (N, 8, 8) with N >= 1")
    if not np.isfinite(scores).all():
        raise ValueError("score matrices must be finite")
    scale = np.abs(scores).max(axis=(1, 2))
    if (np.abs(scores - scores.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12 * scale).any():
        raise ValueError("score matrices must be Hermitian")
    if (np.linalg.eigvalsh(scores)[:, 0] < -1e-12 * scale).any() or not scale.all():
        raise ValueError("score matrices must be positive semidefinite and nonzero")
    return scores


def optimize_batch(
    scores: np.ndarray,
    seeds: list[int],
    tol: float = 1e-12,
    max_iter: int = 60000,
) -> list[OptimizeResult]:
    """Run optimize_map on each (score, seed) pair, all runs stepped together.

    scores is an (N, 8, 8) stack and seeds holds N start seeds; the result
    list is in the same order.  Every run takes the same steps, stop and
    bookkeeping as a lone optimize_map call, and leaves the stack when it
    stops, so its result does not depend on the other runs in the batch.
    Raises ValueError for a score that is not a finite Hermitian PSD
    nonzero 8x8 matrix, a non-integer seed or max_iter, a non-finite or
    nonpositive tol, and if a returned chi_star fails check_choi.
    """
    scores = _check_scores(scores)
    seeds = list(seeds)
    if len(seeds) != len(scores) or not all(isinstance(s, numbers.Integral) for s in seeds):
        raise ValueError("need one integer seed per score matrix")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be finite and positive")
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ValueError("max_iter must be an integer of at least 1")

    n = len(seeds)
    chi = np.array([random_trace_preserving_choi(np.random.default_rng(s)) for s in seeds])
    score_t = scores.swapaxes(1, 2)
    f = (chi * score_t).sum(axis=(1, 2)).real
    best_f = f.copy()
    best_chi = chi.copy()
    history = [[v] for v in f.tolist()]

    active = np.arange(n)
    score = scores
    for _ in range(max_iter):
        chi = _trace_preserving(score @ chi @ score)
        chi = (chi + chi.conj().swapaxes(1, 2)) / 2.0
        f_new = (chi * score_t).sum(axis=(1, 2)).real
        change = np.abs(f_new - f)
        f = f_new
        for k, v in zip(active.tolist(), f_new.tolist()):
            history[k].append(v)
        better = f_new > best_f[active]
        best_f[active[better]] = f_new[better]
        best_chi[active[better]] = chi[better]
        done = change < tol
        if done.any():
            keep = ~done
            active, chi, score, score_t, f = active[keep], chi[keep], score[keep], score_t[keep], f[keep]
            if not active.size:
                break

    results = []
    for k, h in enumerate(history):
        check_choi(best_chi[k])
        results.append(
            OptimizeResult(
                chi_star=best_chi[k],
                f_star=float(best_f[k]),
                iterations=len(h) - 1,
                # the loop's stop test, on the same doubles
                converged=bool(abs(h[-1] - h[-2]) < tol),
                fidelity_history=tuple(h),
            )
        )
    return results


def optimize_map(
    score: np.ndarray,
    seed: int = 0,
    tol: float = 1e-12,
    max_iter: int = 60000,
) -> OptimizeResult:
    """Maximize Tr(chi R) over trace-preserving channels by fixed-point iteration.

    Starts from random_trace_preserving_choi(default_rng(seed)) and stops
    when the per-iteration fidelity change drops below tol.  Each step
    applies the map and rescales the iterate to trace preservation once;
    check_choi certifies the returned channel.  The score must
    be a finite Hermitian PSD nonzero 8x8 matrix, else ValueError.  One run
    of optimize_batch, which steps many runs at once.

    Convergence is linear and becomes very slow in narrow bands around
    theta ~ 0.32 and ~ 1.4 (and their mirrors), where unlucky starts gain
    less than a decade per 10000 iterations.  The default cap keeps the
    worst observed shortfall near 2.3e-7, inside the 1e-6 accuracy
    promise; callers trading accuracy for speed can lower max_iter and
    rely on multi-start.
    """
    return optimize_batch(np.asarray(score)[None], [seed], tol, max_iter)[0]


def choi_pattern_defect(chi: np.ndarray, theta: float) -> float:
    """Entrywise gap between |chi| and the analytic optimal pattern.

    Compares magnitudes only, which fixes any per-entry phase freedom.
    Informative rather than decisive: at polar angles with a degenerate
    optimum the optimizer may land on a different optimal channel.
    """
    chi = np.asarray(chi)
    return float(np.abs(np.abs(chi) - mpcc_choi(theta)).max())
