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
import os
import sys

import numpy as np

from .circuits import MPCC_VARIANTS, compose_layout, equal_up_to_global_phase, layout_text
from .cloners import (
    FIDELITY_MINIMUM_ANGLE,
    mpcc_fidelity,
    mpcc_isometry_apply,
    mpcc_params,
    pcc_clone_bloch,
    pcc_fidelity,
    uc_clone_bloch,
    uc_fidelity,
    mpcc_clone_bloch,
)
from .fidelity import mirror_scores
# optimize_map is unused here but stays bound: perfbench/selftest.py checks
# that its tracer rebinds mirrorclone.cli.optimize_map
from .optimality import certificate_batch, choi_pattern_defect, optimize_batch, optimize_map  # noqa: F401
from .qcore import check_finite, check_int, check_polar, haar_random_state

GAP_TOL = 1e-6  # optimizer-vs-analytic acceptance gap
CERTIFY_TOL = 1e-10  # certify's bound on the fidelity-identity residual
_INPUTS_PER_ANGLE = 5  # random circuit inputs drawn per grid angle
# rows per C-encoder call of the JSON writer: at certify --steps 100001, 500 peaks at 469 MB RSS
# against 528 MB for one call, at the same speed; closed-form-checks peaks at 52-54 MB either way
_JSON_CHUNK = 500
# grid caps: every subcommand holds one Python dict per row, circuits also (N, 8, 8)
# unitary stacks (peak RSS 172 MB at 20,001 steps), optimize all (angle, start) runs at once, about 18 kB each
MAX_STEPS = 100_001
MAX_OPTIMIZE_RUNS = 10_000


def uniform_grid(args: argparse.Namespace) -> list[float]:
    """Exactly args.steps floats, endpoints included; bad grid flags raise ValueError (exit 2)."""
    if check_polar(args.theta_min) > check_polar(args.theta_max):
        raise ValueError("need theta-min <= theta-max")
    return np.linspace(args.theta_min, args.theta_max, check_int(args.steps, "steps", 2, MAX_STEPS)).tolist()


def check_grid(args: argparse.Namespace) -> list[float]:
    """Uniform grid plus the fidelity-minimum angles, deduplicated and sorted.

    Used by the checking commands (certify, circuits, optimize) so the
    two irrational angles where the fidelity touches 5/6 are always
    exercised; the data commands emit exactly the requested rows instead.
    """
    extras = [
        a
        for a in (FIDELITY_MINIMUM_ANGLE, math.pi - FIDELITY_MINIMUM_ANGLE)
        if args.theta_min <= a <= args.theta_max
    ]
    return np.unique(np.concatenate([uniform_grid(args), extras])).tolist()


def _fmt_value(value) -> str:
    if isinstance(value, float):  # most cells; a bool is never a float
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cells(row: dict) -> list:
    """A row's cells, each tuple value spread into its own."""
    cells = []
    for value in row.values():
        cells += value if isinstance(value, tuple) else (value,)
    return cells


def _layout(row: dict) -> tuple[str, str]:
    """CSV header and JSON %-template of every row with ``row``'s keys and tuple lengths.

    A tuple value becomes the CSV columns name_0, name_1, ...; the template
    lays one row out as json.dumps(rows, indent=2) does.
    """
    names, items = [], []
    for key, value in row.items():
        size = len(value) if isinstance(value, tuple) else None
        names += [key] if size is None else [f"{key}_{i}" for i in range(size)]
        value = "%s" if size is None else "[\n" + ",\n".join(["      %s"] * size) + "\n    ]"
        items.append(f"    {json.dumps(key)}: {value}")
    return ",".join(names), "  {\n" + ",\n".join(items) + "\n  }"


def _json_text(rows: list[dict]) -> str:
    """json.dumps(rows, indent=2) of rows of one layout, each chunk's cells encoded by one C-encoder call.

    ensure_ascii escapes a newline inside a string, so the newlines that join
    the encoded cells split them apart again.  A value that is neither a
    scalar nor a flat tuple of scalars raises TypeError.
    """
    template, parts = _layout(rows[0])[1], []
    for start in range(0, len(rows), _JSON_CHUNK):
        chunk = rows[start : start + _JSON_CHUNK]
        body = json.dumps([cell for row in chunk for cell in _cells(row)], separators=("\n", ":"))[1:-1]
        # an encoded container opens with a bracket, and only a container cell can
        if body.startswith(("[", "{")) or "\n[" in body or "\n{" in body:
            raise TypeError("a row value is neither a scalar nor a flat tuple of scalars")
        parts.append(",\n".join([template] * len(chunk)) % tuple(body.split("\n")))
    return "[\n" + ",\n".join(parts) + "\n]"


def _write_rows(rows: list[dict], args: argparse.Namespace) -> None:
    """Write rows of one layout to stdout or args.output; CSV columns follow the row keys."""
    if args.format == "csv":
        text = "\n".join([_layout(rows[0])[0], *(",".join(map(_fmt_value, _cells(row))) for row in rows), ""])
    else:
        text = _json_text(rows) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for theta in uniform_grid(args):
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
    _write_rows(rows, args)
    return 0


def cmd_bloch(args: argparse.Namespace) -> int:
    grid = uniform_grid(args)
    phi = check_finite(args.phi, "azimuth")  # before math.cos(inf) raises a bare "math domain error"
    plane = np.array([math.cos(phi), math.sin(phi), 0.0])
    rows = []
    for theta in grid:
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
    _write_rows(rows, args)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    certs = certificate_batch(check_grid(args))
    _write_rows([vars(cert) for cert in certs], args)
    ok = [c.psd_ok and c.saturation_ok and c.fidelity_identity_residual <= CERTIFY_TOL for c in certs]
    if not all(ok):
        failed = (f"{c.theta:.17g}" for c, good in zip(certs, ok) if not good)
        print("certificate failed at theta: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_circuits(args: argparse.Namespace) -> int:
    grid = check_grid(args)
    if args.dump and args.output and os.path.realpath(args.dump) == os.path.realpath(args.output):
        raise ValueError("--dump and --output name one file")
    inputs = haar_random_state(np.random.default_rng(args.seed), (len(grid), _INPUTS_PER_ANGLE))
    starts = np.zeros((len(grid), _INPUTS_PER_ANGLE, 8), dtype=np.complex128)
    starts[..., [0, 4]] = inputs  # |q 0 0>
    targets = mpcc_isometry_apply(np.array(grid)[:, None], inputs)
    residuals, dumps, ok = {}, [], True
    for name, (layout, params_at) in MPCC_VARIANTS.items():
        params = [params_at(theta) for theta in grid]
        if args.dump is not None:
            texts = layout_text(layout, params)
            dumps.append([f"# theta {t:.17g} variant {name}\n{text}" for t, text in zip(grid, texts)])
        outputs = (compose_layout(layout, params)[:, None] @ starts[..., None])[..., 0]
        equal, residuals[name] = equal_up_to_global_phase(outputs, targets)
        ok = ok and bool(equal.all())
    del params, inputs, starts, targets, outputs  # let go before the rows: about 40 MB at 20,001 steps
    rows = [
        {"theta": theta, "variant": name, "input": idx, "residual": residual}
        for theta, per_angle in zip(grid, np.stack(list(residuals.values()), axis=-1).tolist())
        for idx, per_input in enumerate(per_angle)
        for name, residual in zip(residuals, per_input)
    ]
    if args.dump is None:
        _write_rows(rows, args)
    else:
        # opened first, so a bad dump path writes no rows, and filled last, so
        # a bad --output leaves it empty
        with open(args.dump, "w", encoding="utf-8", newline="\n") as fh:
            _write_rows(rows, args)
            fh.write("\n".join(chunk for per_angle in zip(*dumps) for chunk in per_angle))
    return 0 if ok else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    grid = check_grid(args)  # first, so a bad --steps gets its own message
    seeds = check_int(args.seeds, "seeds", 1)
    if args.steps * seeds > MAX_OPTIMIZE_RUNS:
        raise ValueError(f"steps x seeds must be at most {MAX_OPTIMIZE_RUNS}")
    results = optimize_batch(
        np.repeat(mirror_scores(grid), seeds, axis=0),
        [args.seed + offset for _ in grid for offset in range(seeds)],
        tol=1e-11,
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
    _write_rows(rows, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirror-clone",
        description="Optimal 1-to-2 mirror phase-covariant qubit cloning toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, summary: str, fmt="csv", seed=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--theta-min", type=float, default=0.0)
        p.add_argument("--theta-max", type=float, default=math.pi)
        p.add_argument("--steps", type=int, default=181, help=f"grid size, 2 to {MAX_STEPS}")
        if seed:
            p.add_argument("--seed", type=int, default=42)
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--output", default=None, help="write here instead of stdout")
        return p

    add_command("sweep", cmd_sweep, "fidelities and machine parameters")
    p_bloch = add_command("bloch", cmd_bloch, "clone Bloch cross sections")
    p_bloch.add_argument("--phi", type=float, default=0.0, help="azimuth of the cut plane")
    add_command("certify", cmd_certify, "optimality certificates", fmt="json")
    p_circ = add_command("circuits", cmd_circuits, "circuit realizations vs the isometry", seed=True)
    p_circ.add_argument("--dump", default=None, help="also write serialized circuits here")
    p_opt = add_command("optimize", cmd_optimize, "numerical optimizer vs the closed form", seed=True)
    seeds_help = f"independent random starts per angle (steps x seeds <= {MAX_OPTIMIZE_RUNS})"
    p_opt.add_argument("--seeds", type=int, default=5, help=seeds_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"mirror-clone: error: {exc}", file=sys.stderr)
        return 2
