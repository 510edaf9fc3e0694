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
from itertools import chain, islice

import numpy as np

from .circuits import MPCC_V1_LAYOUT, MPCC_V2_LAYOUT, compose_layout, equal_up_to_global_phase, layout_text
from .circuits import mpcc_v1_params, mpcc_v2_params
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
from .optimality import certificate, choi_pattern_defect, optimize_batch, optimize_map  # noqa: F401
from .qcore import check_finite, check_int, check_polar, haar_random_state

GAP_TOL = 1e-6  # optimizer-vs-analytic acceptance gap
CERTIFY_TOL = 1e-10  # certify's bound on the fidelity-identity residual
_INPUTS_PER_ANGLE = 5  # random circuit inputs drawn per grid angle
# rows per template fill of the JSON writer: at certify --steps 100001 the writer then peaks below
# certificate (388 MB RSS), where one fill of all rows peaks at 439 MB
_JSON_CHUNK = 500
# grid caps: every subcommand holds its table's columns and each cell's text, circuits also (N, 8, 8)
# unitary stacks (peak RSS 172 MB at 20,001 steps), optimize all (angle, start) runs at once, about 27 kB each
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


def _encode(values: list, fmt: str) -> list[str]:
    """The CSV or JSON text of each value.

    JSON text comes from one json C-encoder call: ensure_ascii escapes a
    newline inside a string, so the newlines that join the encoded values
    split them apart again.  A value that is neither a scalar nor a flat
    tuple of scalars raises TypeError.
    """
    if fmt == "csv":
        return list(map(_fmt_value, values))
    body = json.dumps(values, separators=("\n", ":"))[1:-1]
    # an encoded container opens with a bracket, and only a container cell can
    if body.startswith(("[", "{")) or "\n[" in body or "\n{" in body:
        raise TypeError("a cell is neither a scalar nor a flat tuple of scalars")
    return body.split("\n")


def _table(columns: dict, fmt: str) -> tuple[str, str, list[list[str]]]:
    """CSV header, JSON %-template of one row, and every cell's text, column by column, of named columns.

    A column is a list or a 1-D array of scalars; a column of tuples spreads
    into the columns name_0, name_1, ...  The template lays one row out as
    json.dumps(rows, indent=2) does.  The float columns encode each distinct
    float of the table once, so each of a column's too.  Distinct means
    distinct bits, so -0.0 and 0.0 stay apart; a column with any cell whose
    type is not float (a bool's never is) is encoded cell by cell, so 1, 1.0
    and True stay apart too.
    """
    names, items, cells = [], [], []
    for key, column in columns.items():
        column = column.tolist() if isinstance(column, np.ndarray) else column
        spread = list(zip(*column, strict=True)) if isinstance(column[0], tuple) else None
        names += [key] if spread is None else [f"{key}_{i}" for i in range(len(spread))]
        value = "%s" if spread is None else "[\n" + ",\n".join(["      %s"] * len(spread)) + "\n    ]"
        items.append(f"    {json.dumps(key)}: {value}")
        cells += [column] if spread is None else spread
    floats = [set(map(type, c)) == {float} for c in cells]
    # the bits of every float column at once: each distinct one is encoded once, then indexed per cell
    bits, inverse = np.unique(np.array([c for c, f in zip(cells, floats) if f]).view(np.int64), return_inverse=True)
    distinct, indices = np.array(_encode(bits.view(np.float64).tolist(), fmt), dtype=object), iter(inverse)
    texts = [distinct[next(indices)].tolist() if f else _encode(list(c), fmt) for c, f in zip(cells, floats)]
    return ",".join(names), "  {\n" + ",\n".join(items) + "\n  }", texts


def _json_text(columns: dict) -> str:
    """json.dumps(rows, indent=2) of the table's rows, _JSON_CHUNK rows at a time filled into the template."""
    _, template, texts = _table(columns, "json")
    rows, parts = zip(*texts, strict=True), []  # a column shorter than the others raises ValueError
    while chunk := list(islice(rows, _JSON_CHUNK)):
        parts.append(",\n".join([template] * len(chunk)) % tuple(chain.from_iterable(chunk)))
    del texts, rows  # every cell's text, let go before the join copies the parts
    parts[0] = "[\n" + parts[0]
    parts[-1] += "\n]"
    return ",\n".join(parts)


def _write_table(columns: dict, args: argparse.Namespace) -> None:
    """Write named columns of equal length as rows to stdout or args.output; CSV columns follow the names."""
    if args.format == "csv":
        header, _, texts = _table(columns, "csv")
        text = "\n".join([header, *map(",".join, zip(*texts, strict=True)), ""])
    else:
        text = _json_text(columns) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = uniform_grid(args)
    pr, f_pcc = mpcc_params(grid), pcc_fidelity(grid)
    bad = ~((0.5 <= pr.fidelity) & (pr.fidelity <= 1.0) & (0.5 <= f_pcc) & (f_pcc <= 1.0))
    if bad.any():
        raise ArithmeticError(f"fidelity outside [1/2, 1] at theta={grid[bad.argmax()]!r}")
    columns = {"theta": grid, "F_mpcc": pr.fidelity, "F_pcc": f_pcc, "F_uc": [uc_fidelity(2)] * len(grid),
               "Lambda": pr.lam, "A": pr.a, "B": pr.b, "C": pr.c}
    _write_table(columns, args)
    return 0


def cmd_bloch(args: argparse.Namespace) -> int:
    grid = uniform_grid(args)
    phi = check_finite(args.phi, "azimuth")  # before math.cos(inf) raises a bare "math domain error"
    plane = np.array([math.cos(phi), math.sin(phi), 0.0])
    columns = {"theta": grid}
    for name, bloch in (("mpcc", mpcc_clone_bloch), ("pcc", pcc_clone_bloch), ("uc", uc_clone_bloch)):
        vectors = bloch(grid, phi)
        # vecdot takes each row's dot product as vector @ plane does, bit for bit; a matrix product need not
        columns[f"rx_{name}"], columns[f"rz_{name}"] = np.vecdot(vectors, plane), vectors[:, 2]
    columns["rx_perfect"], columns["rz_perfect"] = [math.sin(t) for t in grid], [math.cos(t) for t in grid]
    _write_table(columns, args)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    cert = certificate(check_grid(args))
    _write_table(vars(cert), args)
    ok = np.array(cert.psd_ok) & cert.saturation_ok & (np.array(cert.fidelity_identity_residual) <= CERTIFY_TOL)
    if not ok.all():
        failed = (f"{t:.17g}" for t, good in zip(cert.theta, ok) if not good)
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
    for name, layout, params_at in (("v1", MPCC_V1_LAYOUT, mpcc_v1_params), ("v2", MPCC_V2_LAYOUT, mpcc_v2_params)):
        params = params_at(grid)
        if args.dump is not None:
            texts = layout_text(layout, params)
            dumps.append([f"# theta {t:.17g} variant {name}\n{text}" for t, text in zip(grid, texts)])
        outputs = (compose_layout(layout, params)[:, None] @ starts[..., None])[..., 0]
        equal, residuals[name] = equal_up_to_global_phase(outputs, targets)
        ok = ok and bool(equal.all())
    del params, inputs, starts, targets, outputs  # let go before the rows: about 40 MB at 20,001 steps
    stack = np.stack(list(residuals.values()), axis=-1)  # one residual per (angle, input, variant), in row order
    angle, index, variant = np.indices(stack.shape).reshape(3, -1)
    columns = {"theta": np.take(grid, angle), "variant": np.take(list(residuals), variant), "input": index,
               "residual": stack.ravel()}
    if args.dump is None:
        _write_table(columns, args)
    else:
        # opened first, so a bad dump path writes no rows, and filled last, so
        # a bad --output leaves it empty
        with open(args.dump, "w", encoding="utf-8", newline="\n") as fh:
            _write_table(columns, args)
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
    # max() keeps the first of equal values, as the lowest seed wins ties
    best = [max(results[i : i + seeds], key=lambda r: r.f_star) for i in range(0, len(results), seeds)]
    f_star, f_ref = np.array([r.f_star for r in best]), mpcc_fidelity(grid)
    gap = f_star - f_ref
    columns = {"theta": grid, "F_star": f_star, "F_mpcc": f_ref, "gap": gap,
               "pattern_defect": choi_pattern_defect(np.array([r.chi_star for r in best]), grid),
               "iterations": [r.iterations for r in best], "converged": [r.converged for r in best]}
    _write_table(columns, args)
    return 1 if (np.abs(gap) > GAP_TOL).any() else 0


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
