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
from dataclasses import dataclass

import numpy as np

from .cloners import choi_from_weights, mpcc_choi, mpcc_params, trace_over_outputs
from .fidelity import PriorDistribution, average_fidelity, score_operator

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
    """

    theta: float
    lambda_scalar: float
    trace_gap: float
    delta_spectrum: tuple[float, ...]
    delta_closed_form: tuple[float, float, float, float]
    fidelity_identity_residual: float
    spectrum_residual: float
    proportionality: float
    weights_form_residual: float
    half_fidelity_residual: float
    psd_ok: bool
    saturation_ok: bool


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

    delta = np.kron(lam_op, np.eye(4)) - score
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

    fidelity_history records Tr(chi R) after every iteration (the first
    entry is the random start); max_tp_defect is the worst raw
    trace-preservation deviation seen before renormalization, and
    min_eigenvalue the most negative chi eigenvalue encountered.
    """

    chi_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    residual: float
    fidelity_history: tuple[float, ...]
    max_tp_defect: float
    min_eigenvalue: float


def _inv_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix on its support, and a kernel basis.

    Eigenvalues whose square roots fall below 1e-12 times the largest
    singular value are treated as exact zeros: the inverse square root
    maps them to 0, and their eigenvectors are the kernel basis columns.
    """
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    sigma = np.sqrt(w)
    keep = sigma > 1e-12 * sigma.max()
    out = np.where(keep, np.where(keep, w, 1.0) ** -0.5, 0.0)
    # eigh sorts ascending, so the kernel eigenvectors come first
    return (v * out) @ v.conj().T, v[:, : keep.size - np.count_nonzero(keep)]


def _sandwich_input(m: np.ndarray, op: np.ndarray) -> np.ndarray:
    """(m tensor id4) op (m tensor id4) without forming the Kronecker factors."""
    blocks = op.reshape(2, 4, 2, 4)
    return np.einsum("ac,cidj,db->aibj", m, blocks, m).reshape(8, 8)


def random_trace_preserving_choi(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank trace-preserving process matrix (Ginibre start)."""
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    w = g @ g.conj().T
    d = trace_over_outputs(w)
    s = np.kron(_inv_sqrt(d)[0], np.eye(4))
    return s @ w @ s


def optimize_map(
    score: np.ndarray,
    seed: int = 0,
    tol: float = 1e-12,
    max_iter: int = 60000,
) -> OptimizeResult:
    """Maximize Tr(chi R) over trace-preserving channels by fixed-point iteration.

    Stops when the per-iteration fidelity change drops below tol.  Each
    step renormalizes the iterate back to exact trace preservation; the
    raw defect before renormalization is tracked in the result.

    Convergence is linear and becomes very slow in narrow bands around
    theta ~ 0.32 and ~ 1.4 (and their mirrors), where unlucky starts gain
    less than a decade per 10000 iterations.  The default cap keeps the
    worst observed shortfall near 2.3e-7, inside the 1e-6 accuracy
    promise; callers trading accuracy for speed can lower max_iter and
    rely on multi-start.
    """
    score = np.asarray(score)
    if score.shape != (8, 8):
        raise ValueError("score matrix must be 8x8")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    rng = np.random.default_rng(seed)
    chi = random_trace_preserving_choi(rng)
    f = average_fidelity(chi, score)
    history = [f]
    best_f = f
    best_chi = chi
    max_tp_defect = float(np.abs(trace_over_outputs(chi) - np.eye(2)).max())
    min_eigenvalue = float(np.linalg.eigvalsh(chi)[0])
    converged = False
    residual = math.inf
    iterations = 0

    score_t = score.T.copy()
    eye2 = np.eye(2)

    for iterations in range(1, max_iter + 1):
        mid = score @ chi @ score
        inv, kernel = _inv_sqrt(trace_over_outputs(mid))
        chi = _sandwich_input(inv, mid)
        if kernel.size:
            # inputs the score ignores get the completely depolarizing
            # output, so the iterate stays trace preserving
            chi = chi + np.kron(kernel @ kernel.conj().T, np.eye(4)) / 4.0
        chi = (chi + chi.conj().T) / 2.0

        d = trace_over_outputs(chi)
        defect = float(np.abs(d - eye2).max())
        max_tp_defect = max(max_tp_defect, defect)
        chi = _sandwich_input(_inv_sqrt(d)[0], chi)
        chi = (chi + chi.conj().T) / 2.0

        min_eigenvalue = min(min_eigenvalue, float(np.linalg.eigvalsh(chi)[0]))
        f_new = float((chi * score_t).sum().real)
        residual = abs(f_new - f)
        f = f_new
        history.append(f_new)
        if f_new > best_f:
            best_f = f_new
            best_chi = chi
        if residual < tol:
            converged = True
            break

    return OptimizeResult(
        chi_star=best_chi,
        f_star=best_f,
        iterations=iterations,
        converged=converged,
        residual=residual,
        fidelity_history=tuple(history),
        max_tp_defect=max_tp_defect,
        min_eigenvalue=min_eigenvalue,
    )


def choi_pattern_defect(chi: np.ndarray, theta: float) -> float:
    """Entrywise gap between |chi| and the analytic optimal pattern.

    Compares magnitudes only, which fixes any per-entry phase freedom.
    Informative rather than decisive: at polar angles with a degenerate
    optimum the optimizer may land on a different optimal channel.
    """
    chi = np.asarray(chi)
    return float(np.abs(np.abs(chi) - mpcc_choi(theta)).max())
