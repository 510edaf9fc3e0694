"""Command-line interface.

Subcommands: sweep (fidelity and machine parameters over a polar grid),
bloch (clone Bloch-vector cross sections), certify (optimality
certificates), circuits (both gate realizations against the isometry),
optimize (numerical optimizer against the closed form).  Exit codes:
0 success, 1 a check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import (
    circuit_matrix,
    circuit_mpcc_v1,
    circuit_mpcc_v2,
    equal_up_to_global_phase,
    serialize_circuit,
)
from .cloners import (
    FIDELITY_MINIMUM_ANGLE,
    _check_polar,
    mpcc_fidelity,
    mpcc_isometry_apply,
    mpcc_params,
    pcc_clone_bloch,
    pcc_fidelity,
    uc_clone_bloch,
    uc_fidelity,
    mpcc_clone_bloch,
)
from .fidelity import PriorDistribution, score_operator
# optimize_map is unused here but stays bound: perfbench/selftest.py checks
# that its tracer rebinds mirrorclone.cli.optimize_map
from .optimality import certificate, choi_pattern_defect, optimize_batch, optimize_map  # noqa: F401
from .qcore import haar_random_state

GAP_TOL = 1e-6  # optimizer-vs-analytic acceptance gap
_INPUTS_PER_ANGLE = 5  # random circuit inputs drawn per grid angle
# grid caps: every row is built in a Python loop, and optimize holds all
# (angle, start) runs at once, about 18 kB each
MAX_STEPS = 100_001
MAX_OPTIMIZE_RUNS = 10_000


@dataclass(frozen=True)
class SweepConfig:
    theta_min: float = 0.0
    theta_max: float = math.pi
    steps: int = 181
    tol: float = 1e-10
    seed: int = 42
    fmt: str = "csv"
    output: str | None = None

    def __post_init__(self) -> None:
        _check_polar(self.theta_min)
        _check_polar(self.theta_max)
        if self.theta_min > self.theta_max:
            raise ValueError("need theta-min <= theta-max")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be between 2 and {MAX_STEPS}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def uniform_grid(cfg: SweepConfig) -> np.ndarray:
    """Exactly cfg.steps points, endpoints included."""
    return np.linspace(cfg.theta_min, cfg.theta_max, cfg.steps)


def check_grid(cfg: SweepConfig) -> np.ndarray:
    """Uniform grid plus the fidelity-minimum angles, deduplicated and sorted.

    Used by the checking commands (certify, circuits, optimize) so the
    two irrational angles where the fidelity touches 5/6 are always
    exercised; the data commands emit exactly the requested rows instead.
    """
    extras = [
        a
        for a in (FIDELITY_MINIMUM_ANGLE, math.pi - FIDELITY_MINIMUM_ANGLE)
        if cfg.theta_min <= a <= cfg.theta_max
    ]
    return np.unique(np.concatenate([uniform_grid(cfg), np.array(extras)]))


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _flatten(row: dict) -> dict:
    """CSV cells of a row: a tuple value becomes columns name_0, name_1, ..."""
    flat = {}
    for name, value in row.items():
        if isinstance(value, tuple):
            flat.update((f"{name}_{i}", v) for i, v in enumerate(value))
        else:
            flat[name] = value
    return flat


def _write_rows(rows: list[dict], cfg: SweepConfig) -> None:
    """Write rows to stdout or cfg.output; CSV columns follow the row keys."""
    if cfg.fmt == "csv":
        flat = [_flatten(row) for row in rows]
        lines = [",".join(flat[0])]
        lines += [",".join(_fmt_value(v) for v in row.values()) for row in flat]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if cfg.output is None:
        sys.stdout.write(text)
        return
    with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(cfg: SweepConfig, args: argparse.Namespace) -> int:
    rows = []
    for theta in uniform_grid(cfg):
        theta = float(theta)
        pr = mpcc_params(theta)
        f_mpcc = pr.fidelity
        f_pcc = pcc_fidelity(theta)
        f_uc = uc_fidelity(2)
        if not (0.5 <= f_mpcc <= 1.0 and 0.5 <= f_pcc <= 1.0):
            raise ArithmeticError(f"fidelity outside [1/2, 1] at theta={theta!r}")
        rows.append(
            {
                "theta": theta,
                "F_mpcc": f_mpcc,
                "F_pcc": f_pcc,
                "F_uc": f_uc,
                "Lambda": pr.lam,
                "A": pr.a,
                "B": pr.b,
                "C": pr.c,
            }
        )
    _write_rows(rows, cfg)
    return 0


def cmd_bloch(cfg: SweepConfig, args: argparse.Namespace) -> int:
    phi = args.phi
    _check_polar(0.0, phi)  # before math.cos(inf) raises a bare "math domain error"
    plane = np.array([math.cos(phi), math.sin(phi), 0.0])
    rows = []
    for theta in uniform_grid(cfg):
        theta = float(theta)
        vec_m = mpcc_clone_bloch(theta, phi)
        vec_p = pcc_clone_bloch(theta, phi)
        vec_u = uc_clone_bloch(theta, phi)
        rows.append(
            {
                "theta": theta,
                "rx_mpcc": float(vec_m @ plane),
                "rz_mpcc": float(vec_m[2]),
                "rx_pcc": float(vec_p @ plane),
                "rz_pcc": float(vec_p[2]),
                "rx_uc": float(vec_u @ plane),
                "rz_uc": float(vec_u[2]),
                "rx_perfect": math.sin(theta),
                "rz_perfect": math.cos(theta),
            }
        )
    _write_rows(rows, cfg)
    return 0


def cmd_certify(cfg: SweepConfig, args: argparse.Namespace) -> int:
    rows = []
    failures = []
    for theta in check_grid(cfg):
        theta = float(theta)
        cert = certificate(theta)
        ok = cert.psd_ok and cert.saturation_ok and cert.fidelity_identity_residual <= cfg.tol
        if not ok:
            failures.append(theta)
        rows.append(dict(vars(cert)))
    _write_rows(rows, cfg)
    if failures:
        print(
            "certificate failed at theta: " + ", ".join(f"{t:.17g}" for t in failures),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_circuits(cfg: SweepConfig, args: argparse.Namespace) -> int:
    dump = args.dump
    variants = ("v1", "v2") if args.variant == "both" else (args.variant,)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    dump_chunks = []
    worst = 0.0
    for theta in check_grid(cfg):
        theta = float(theta)
        built = {}
        for name in variants:
            circ = circuit_mpcc_v1(theta) if name == "v1" else circuit_mpcc_v2(theta)
            built[name] = circuit_matrix(circ)
            if dump is not None:
                dump_chunks.append(
                    f"# theta {theta:.17g} variant {name}\n" + serialize_circuit(circ)
                )
        for idx in range(_INPUTS_PER_ANGLE):
            psi_in = haar_random_state(rng)
            target = mpcc_isometry_apply(theta, psi_in)
            start = np.zeros(8, dtype=np.complex128)
            start[0], start[4] = psi_in[0], psi_in[1]  # |q 0 0>
            for name in variants:
                _, residual = equal_up_to_global_phase(built[name] @ start, target)
                worst = max(worst, residual)
                rows.append(
                    {"theta": theta, "variant": name, "input": idx, "residual": residual}
                )
    _write_rows(rows, cfg)
    if dump is not None:
        with open(dump, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(dump_chunks))
    return 0 if worst <= cfg.tol else 1


def cmd_optimize(cfg: SweepConfig, args: argparse.Namespace) -> int:
    seeds = args.seeds
    if seeds < 1:
        raise ValueError("seeds must be at least 1")
    if cfg.steps * seeds > MAX_OPTIMIZE_RUNS:
        raise ValueError(f"steps x seeds must be at most {MAX_OPTIMIZE_RUNS}")
    grid = [float(theta) for theta in check_grid(cfg)]
    scores = [score_operator(PriorDistribution.mirror(theta)) for theta in grid]
    # the cap only bounds the work: at the defaults every run stops on the
    # step test within 130 iterations, the worst best-of-5 gap near 1e-7
    results = optimize_batch(
        np.repeat(scores, seeds, axis=0),
        [cfg.seed + offset for _ in grid for offset in range(seeds)],
        tol=1e-11,
        max_iter=4000,
    )
    rows = []
    ok = True
    for i, theta in enumerate(grid):
        # max() keeps the first of equal values, as the lowest seed wins ties
        best = max(results[i * seeds : (i + 1) * seeds], key=lambda r: r.f_star)
        f_ref = mpcc_fidelity(theta)
        gap = best.f_star - f_ref
        if abs(gap) > GAP_TOL:
            ok = False
        rows.append(
            {
                "theta": theta,
                "F_star": best.f_star,
                "F_mpcc": f_ref,
                "gap": gap,
                "pattern_defect": choi_pattern_defect(best.chi_star, theta),
                "iterations": best.iterations,
                "converged": best.converged,
            }
        )
    _write_rows(rows, cfg)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirror-clone",
        description="Optimal 1-to-2 mirror phase-covariant qubit cloning toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SweepConfig()

    def add_common(p: argparse.ArgumentParser, run, default_fmt: str, tol=False, seed=False) -> None:
        p.set_defaults(run=run)
        p.add_argument("--theta-min", type=float, default=defaults.theta_min)
        p.add_argument("--theta-max", type=float, default=defaults.theta_max)
        p.add_argument("--steps", type=int, default=defaults.steps, help=f"grid size, 2 to {MAX_STEPS}")
        if tol:
            p.add_argument("--tol", type=float, default=defaults.tol)
        if seed:
            p.add_argument("--seed", type=int, default=defaults.seed)
        p.add_argument("--format", choices=("csv", "json"), default=default_fmt)
        p.add_argument("--output", default=None, help="write here instead of stdout")

    add_common(sub.add_parser("sweep", help="fidelities and machine parameters"), cmd_sweep, "csv")
    p_bloch = sub.add_parser("bloch", help="clone Bloch cross sections")
    add_common(p_bloch, cmd_bloch, "csv")
    p_bloch.add_argument("--phi", type=float, default=0.0, help="azimuth of the cut plane")
    add_common(sub.add_parser("certify", help="optimality certificates"), cmd_certify, "json", tol=True)
    p_circ = sub.add_parser("circuits", help="circuit realizations vs the isometry")
    add_common(p_circ, cmd_circuits, "csv", tol=True, seed=True)
    p_circ.add_argument("--variant", choices=("v1", "v2", "both"), default="both")
    p_circ.add_argument("--dump", default=None, help="also write serialized circuits here")
    p_opt = sub.add_parser("optimize", help="numerical optimizer vs the closed form")
    add_common(p_opt, cmd_optimize, "csv", seed=True)
    seeds_help = f"independent random starts per angle (steps x seeds <= {MAX_OPTIMIZE_RUNS})"
    p_opt.add_argument("--seeds", type=int, default=5, help=seeds_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SweepConfig(
            theta_min=args.theta_min,
            theta_max=args.theta_max,
            steps=args.steps,
            tol=getattr(args, "tol", SweepConfig.tol),
            seed=getattr(args, "seed", SweepConfig.seed),
            fmt=args.format,
            output=args.output,
        )
        return args.run(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"mirror-clone: error: {exc}", file=sys.stderr)
        return 2
