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
depth-3 Anderson mix of the last four steps (Walker & Ni, SIAM J. Numer.
Anal. 49, 1715 (2011)).  The start K is a complex Ginibre draw rescaled
to trace preservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import choi_from_weights, mpcc_params
from .fidelity import mirror_scores
from .qcore import check_choi, check_finite, check_int, check_scores, check_sequence, kron, partial_trace

PSD_TOL = 1e-10
SATURATION_TOL = 1e-10
# default step cap of optimize_batch and optimize_map, and so of `mirror-clone optimize`
MAX_ITER = 4000
_EYE2 = np.eye(2)
_EYE4 = np.eye(4)
_DEPTH = 3  # Anderson history: the differences of the last four plain steps and of their residuals


@dataclass(frozen=True)
class OptimalityCertificate:
    """Dual-feasibility record for the mirror machine at one polar angle, or lists of them at a column of angles.

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


def certificate(theta) -> OptimalityCertificate:
    """Build and evaluate the optimality certificate at one polar angle, or at a column of them.

    A column (as mpcc_params reads it) gives one record of lists, entry i
    bit for bit the record at angle i alone.  Each matrix step runs once on
    the stacked chi and R of all angles; an angle outside [0, pi] raises
    ValueError.  A failed check is not raised: a false psd_ok or
    saturation_ok is data for the caller to act on.
    """
    pr = mpcc_params(theta)  # the closed forms as columns, and the one check of the angles
    thetas, a, b, c, f = map(np.ravel, (pr.theta, pr.a, pr.b, pr.c, pr.fidelity))  # one angle as a column of one
    score = mirror_scores(thetas.tolist()).astype(np.complex128)  # complex: no cast in score @ chi
    trig = [(math.sin(t) ** 2, math.cos(t) ** 2) for t in thetas.tolist()]  # by math, as the closed forms
    s1_sq, cos_sq = np.array(trig).reshape(-1, 2).T

    lam_op = partial_trace(score @ choi_from_weights(a, b, c), [1])
    traces = np.trace(lam_op, axis1=1, axis2=2).real
    proportionality = np.abs(lam_op - (traces / 2.0)[:, None, None] * np.eye(2)).max(axis=(1, 2))
    delta = kron(lam_op, _EYE4) - score
    delta += delta.conj().swapaxes(1, 2)  # in place, as the stacks set the peak memory
    delta /= 2.0
    spectra = np.linalg.eigvalsh(delta)

    # the per-angle scalars as columns: NumPy's +, -, *, / and abs round as Python's do
    r00, r11, r05 = score[:, [0, 1, 0], [0, 1, 5]].real.T
    rbar = np.array(list(map(math.hypot, (r00 - r11).tolist(), (math.sqrt(8.0) * r05).tolist())))
    lambda_scalar, trace_gap = traces / 2.0, traces - f
    d = [0.5 * (f - 0.5), 0.5 * (f - s1_sq / 2.0), 0.5 * (f - r00 - r11 + rbar), 0.5 * (f - r00 - r11 - rbar)]
    closed = np.stack(d, axis=1)
    weights_form = ((1.0 + cos_sq) * a + 2.0 * b + 2.0 * s1_sq * c) / 4.0
    columns = (
        thetas, lambda_scalar, trace_gap, np.abs(f - r00 - r11 - rbar),
        np.abs(spectra - np.sort(np.repeat(closed, 2, axis=1), axis=1)).max(axis=1), proportionality,
        np.abs(lambda_scalar - weights_form), np.abs(lambda_scalar - f / 2.0),
        spectra[:, 0] >= -PSD_TOL, np.abs(trace_gap) <= SATURATION_TOL, spectra, closed,
    )  # in OptimalityCertificate's field order
    fields = [col.tolist() if col.ndim == 1 else list(map(tuple, col.tolist())) for col in columns]
    return OptimalityCertificate(*(fields if np.ndim(pr.theta) else [field[0] for field in fields]))


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
    h = np.vecdot(rows[:, None], rows[:, :, None])  # h[i, j] = rows[i] . conj(rows[j])
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
        wide = np.concatenate([out[rank_one], kron(_EYE2 - p, _EYE4) / 2.0], axis=2)
        out[rank_one] = np.linalg.qr(wide.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    return out


def _real(a: np.ndarray) -> np.ndarray:
    """An (N, 8, 8) complex stack as (N, 128) real vectors, a view: Re Tr(a^dagger b) is their dot product."""
    return a.view(np.float64).reshape(-1, 128)


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a^dagger b) for each pair in two (N, 8, 8) stacks."""
    return np.vecdot(_real(a), _real(b))


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
    max_iter: int = MAX_ITER,
) -> list[OptimizeResult]:
    """Run optimize_map on each (score, seed) pair, all runs stepped together.

    scores is an (N, 8, 8) stack and seeds holds N start seeds; the result
    list is in the same order.  Every run takes the same steps, stop and
    bookkeeping as a lone optimize_map call, and leaves the stack when it
    stops, so its result does not depend on the other runs in the batch.
    Raises ValueError for a score that is not a finite Hermitian PSD
    nonzero 8x8 matrix, a seed that is not an integer >= 0, a max_iter that
    is not an integer >= 1, a non-finite or nonpositive tol, a scalar in
    place of the seed list, and if a returned chi_star fails check_choi.
    """
    scores = check_scores(scores)
    seeds = [check_int(s, "seed", 0) for s in check_sequence(seeds, "seeds")]
    if len(seeds) != len(scores):
        raise ValueError("need one integer seed per score matrix")
    if check_finite(tol, "tolerance") <= 0.0:
        raise ValueError("tolerance must be positive")
    max_iter = check_int(max_iter, "max_iter", 1)

    n = len(seeds)
    k = _trace_preserving(np.array([_ginibre(np.random.default_rng(s)) for s in seeds]))
    score = scores
    rk = score @ k
    f = _overlap(k, rk)
    best_f = f.copy()
    best_k = k.copy()
    history = [[v] for v in f.tolist()]

    active = np.arange(n)
    d_g, d_r = np.zeros((2, n, _DEPTH, 128))  # ring buffers of the last differences, zeros until filled
    for step in range(max_iter):
        g = _trace_preserving(rk)  # the plain step, chi -> L (R chi R) L
        rg = score @ g
        f_new = _overlap(g, rg)
        g_vec = _real(g)
        r = g_vec - _real(k)
        k_next, rk_next = g, rg
        if step:
            # depth-3 Anderson: mix the last four plain steps so that their residuals
            # cancel best in least squares, and keep the mix only where it scores higher
            slot = (step - 1) % _DEPTH
            d_g[:, slot], d_r[:, slot] = g_vec - g_prev, r - r_prev
            gram = np.vecdot(d_r[:, :, None], d_r[:, None])
            # Tikhonov term: collinear differences stay solvable, and an empty slot gets gamma = 0
            gram.reshape(-1, _DEPTH * _DEPTH)[:, :: _DEPTH + 1] += 1e-12 * gram.trace(axis1=1, axis2=2)[:, None] + 1e-300
            gamma = np.linalg.solve(gram, np.vecdot(d_r, r[:, None])[..., None])
            mix = (g_vec - (gamma.swapaxes(1, 2) @ d_g)[:, 0]).view(np.complex128).reshape(-1, 8, 8)
            mix = _trace_preserving(mix)
            r_mix = score @ mix
            f_mix = _overlap(mix, r_mix)
            take = f_mix > f_new
            k_next = np.where(take[:, None, None], mix, g)
            rk_next = np.where(take[:, None, None], r_mix, rg)
            f_new = np.where(take, f_mix, f_new)
        change = np.abs(f_new - f)
        k, rk, f, g_prev, r_prev = k_next, rk_next, f_new, g_vec, r
        for j, v in zip(active.tolist(), f_new.tolist()):
            history[j].append(v)
        better = f_new > best_f[active]
        best_f[active[better]] = f_new[better]
        best_k[active[better]] = k[better]
        done = change < tol
        if done.any():
            keep = ~done
            active, score, k, rk, f = active[keep], score[keep], k[keep], rk[keep], f[keep]
            g_prev, r_prev, d_g, d_r = g_prev[keep], r_prev[keep], d_g[keep], d_r[keep]
            if not active.size:
                break

    chi_stars = check_choi(np.array([k @ k.conj().T for k in best_k]))
    capped = set(active.tolist())  # the runs the step test never stopped
    return [
        OptimizeResult(
            chi_star=chi_star,
            f_star=f_star,
            iterations=len(h) - 1,
            converged=j not in capped,
            fidelity_history=tuple(h),
        )
        for j, (chi_star, f_star, h) in enumerate(zip(chi_stars, best_f.tolist(), history))
    ]


def optimize_map(
    score: np.ndarray,
    seed: int = 0,
    tol: float = 1e-12,
    max_iter: int = MAX_ITER,
) -> OptimizeResult:
    """Maximize Tr(chi R) over trace-preserving channels by fixed-point iteration.

    Starts from the channel random_trace_preserving_choi(default_rng(seed))
    returns, carried as its rescaled Ginibre Kraus factor, and stops when
    the per-iteration fidelity change drops below tol.  Each step
    applies the map to a Kraus factor of the iterate and rescales it to
    trace preservation; from the second step on it also rescales a depth-3
    Anderson mix of the last four steps and keeps whichever of the two
    scores higher, so every iterate is a channel.  check_choi certifies the
    returned channel.  The score must be a finite Hermitian PSD nonzero
    8x8 matrix, else ValueError.  One run of optimize_batch, which steps
    many runs at once.
    """
    return optimize_batch(np.asarray(score)[None], [seed], tol, max_iter)[0]
