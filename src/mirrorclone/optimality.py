"""Optimality certificates and an independent numerical channel optimizer.

The certificate route: from the closed-form process matrix chi and score
operator R, build the input-space operator lam = Tr_out(R chi).  For the
optimal pair, lam is proportional to the identity; dual feasibility then
requires Delta = lam tensor id - R to be positive semidefinite, and
Tr(lam) must equal the closed-form fidelity.  The spectrum of Delta is
also known in closed form, which pins the whole construction down.

The optimizer route knows none of the closed forms: it iterates the
fixed-point map chi -> Linv (R chi R) Linv with L = sqrt(Tr_out(R chi R))
tensor id, which preserves feasibility and climbs the fidelity
functional.  It carries a Kraus factor K of chi = K K^dagger, steps
K -> Linv R K, and accelerates the iteration with a safeguarded
Anderson(1) mix of the last two steps (Walker & Ni, SIAM J. Numer. Anal.
49, 1715 (2011)).  The start K is a complex Ginibre draw rescaled to
trace preservation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cloners import check_choi, choi_from_weights, mpcc_choi, mpcc_params, trace_over_outputs
from .fidelity import PriorDistribution, _check_scores, score_operator

PSD_TOL = 1e-10
SATURATION_TOL = 1e-10


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

    lam_op = trace_over_outputs(score @ chi)
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
        proportionality=float(np.abs(lam_op - lambda_scalar * np.eye(2)).max()),
        weights_form_residual=abs(lambda_scalar - weights_form),
        half_fidelity_residual=abs(lambda_scalar - f / 2.0),
        psd_ok=bool(spectrum[0] >= -PSD_TOL),
        saturation_ok=bool(abs(trace_gap) <= SATURATION_TOL),
    )


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one fixed-point optimization run.

    chi_star is the best iterate seen and f_star its fidelity; it passes
    check_choi.  iterations counts accepted update steps (each evaluates
    the map at most twice), and converged says whether the last step
    changed the fidelity by less than tol (otherwise the run hit max_iter).
    fidelity_history records Tr(chi R) after every iteration (the first
    entry is the random start); its last two entries give that last change.
    """

    chi_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    fidelity_history: tuple[float, ...]


_EYE2 = np.eye(2)
_EYE4 = np.eye(4)[:, None, :]


def _lift(m: np.ndarray) -> np.ndarray:
    """m tensor id4 for a 2x2 matrix or a stack of them."""
    return (m[..., :, None, :, None] * _EYE4).reshape(*m.shape[:-2], 8, 8)


def _trace_preserving(k: np.ndarray) -> np.ndarray:
    """Rescale an (N, 8, 8) stack of Kraus factors to trace-preserving maps.

    Returns (m tensor id4) k with m = h^(-1/2) on the support of
    h = Tr_out(k k^dagger), so the process matrix k k^dagger becomes
    (m tensor id4) k k^dagger (m tensor id4).  For 2x2 h with
    s = sqrt(det h) that is the closed form
    m = (s I + adj h) / (s sqrt(tr + 2 s)), with adj h = tr I - h read off
    h's entries: the subtraction would lose the smaller eigenvalue when h is
    ill-conditioned.  When s <= 1e-12 tr the smaller eigenvalue's square
    root is below 1e-12 times the larger one's and counts as an exact zero:
    h = tr P has rank one, m = P / sqrt(tr), and the inputs in the kernel,
    I - P, get the completely depolarizing output (I - P) tensor id4 / 4.
    Its factor ((I - P) tensor id4) / 2 joins k as eight more columns, and
    a QR factorization folds the sixteen columns back into eight.
    """
    rows = k.reshape(-1, 2, 32)  # row i holds the entries of input index i
    h = rows @ rows.conj().swapaxes(1, 2)
    h00, h11 = h[:, :1, :1].real, h[:, 1:, 1:].real  # shaped (N, 1, 1) to broadcast
    tr = h00 + h11
    s = np.sqrt(np.maximum(h00 * h11 - (h[:, :1, 1:] * h[:, 1:, :1]).real, 0.0))
    rank_one = (s <= 1e-12 * tr)[:, 0, 0]
    kernel = rank_one.any()
    den = s * np.sqrt(tr + 2.0 * s)
    den[rank_one] = 1.0  # m is replaced there below
    adj = -h
    adj[:, 0, 0], adj[:, 1, 1] = h[:, 1, 1], h[:, 0, 0]
    m = (s * _EYE2 + adj) / den
    if kernel:
        p = h[rank_one] / tr[rank_one]
        m[rank_one] = p / np.sqrt(tr[rank_one])
    out = (m @ rows).reshape(-1, 8, 8)
    if kernel:
        wide = np.concatenate([out[rank_one], _lift(_EYE2 - p) / 2.0], axis=2)
        out[rank_one] = np.linalg.qr(wide.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    return out


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a^dagger b) for each pair in two (N, 8, 8) stacks."""
    return (a.conj() * b).real.sum(axis=(1, 2))


def _ginibre(rng: np.random.Generator) -> np.ndarray:
    """An 8x8 complex Ginibre draw, the unscaled start Kraus factor."""
    return rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))


def random_trace_preserving_choi(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank trace-preserving process matrix (Ginibre start).

    Returns K K^dagger for the rescaled Ginibre draw K, the Kraus factor
    that optimize_map(score, seed) iterates from when rng is default_rng(seed).
    """
    k = _trace_preserving(_ginibre(rng)[None])[0]
    return k @ k.conj().T


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
    k = _trace_preserving(np.array([_ginibre(np.random.default_rng(s)) for s in seeds]))
    score = scores
    rk = score @ k
    f = _overlap(k, rk)
    best_f = f.copy()
    best_k = k.copy()
    history = [[v] for v in f.tolist()]

    active = np.arange(n)
    for step in range(max_iter):
        g = _trace_preserving(rk)  # the plain step, chi -> L (R chi R) L
        rg = score @ g
        f_new = _overlap(g, rg)
        r = g - k
        k_next, rk_next = g, rg
        if step:
            # Anderson(1): mix the last two plain steps so that their
            # residuals cancel best, and keep the mix only where it scores higher
            dr = r - r_prev
            dr2 = _overlap(dr, dr)
            gamma = np.divide(_overlap(dr, r), dr2, out=np.zeros_like(dr2), where=dr2 > 0.0)
            mix = _trace_preserving(g - gamma[:, None, None] * (g - g_prev))
            r_mix = score @ mix
            f_mix = _overlap(mix, r_mix)
            take = f_mix > f_new
            k_next = np.where(take[:, None, None], mix, g)
            rk_next = np.where(take[:, None, None], r_mix, rg)
            f_new = np.where(take, f_mix, f_new)
        change = np.abs(f_new - f)
        k, rk, f, g_prev, r_prev = k_next, rk_next, f_new, g, r
        for j, v in zip(active.tolist(), f_new.tolist()):
            history[j].append(v)
        better = f_new > best_f[active]
        best_f[active[better]] = f_new[better]
        best_k[active[better]] = k[better]
        done = change < tol
        if done.any():
            keep = ~done
            active, score, k, rk, f = active[keep], score[keep], k[keep], rk[keep], f[keep]
            g_prev, r_prev = g_prev[keep], r_prev[keep]
            if not active.size:
                break

    results = []
    for j, h in enumerate(history):
        chi_star = best_k[j] @ best_k[j].conj().T
        check_choi(chi_star)
        results.append(
            OptimizeResult(
                chi_star=chi_star,
                f_star=float(best_f[j]),
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

    Starts from the channel random_trace_preserving_choi(default_rng(seed))
    returns, carried as its rescaled Ginibre Kraus factor, and stops when
    the per-iteration fidelity change drops below tol.  Each step
    applies the map to a Kraus factor of the iterate and rescales it to
    trace preservation; from the second step on it also rescales an
    Anderson(1) mix of the last two steps and keeps whichever of the two
    scores higher, so every iterate is a channel.  check_choi certifies the
    returned channel.  The score must be a finite Hermitian PSD nonzero
    8x8 matrix, else ValueError.  One run of optimize_batch, which steps
    many runs at once.
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
