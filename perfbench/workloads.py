"""The benchmark's workloads: inputs drawn from a seed, the program work of
one pass, and the checks of its outputs against an independent route.

Each workload has `inputs(seed, small)`, `parts(mc, inputs)` (the program
work as a list of named calls, each timed and, in a traced pass, traced)
and `verify(mc, inputs, raw)` (the checks of the outputs, `raw` mapping each
part's name to what it returned; timed apart from the work and never
traced).  `mc` is the imported mirrorclone package; every program function
is looked up through it at call time, so the tracer's rebinding takes
effect.  `small` shrinks a workload for the self-test only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

GAP_TOL = 1e-6  # the optimizer's accuracy promise against the closed form
ABOVE_TOL = 1e-9  # how far an optimizer value may sit above the optimum
QUAD_TOL = 1e-9  # quadrature route against closed form
CIRCUIT_TOL = 1e-10  # the CLI's default residual tolerance
SHORTFALL_TOL = 1e-5  # widest capped shortfall counted as the known defect below


@dataclass
class PassResult:
    """Outcome of one pass: a digest of every output, and the checks made.

    A check marked `known` tests a documented program defect.  When it
    fails it still counts as failed; it only does not make the run
    incorrect.
    """

    digest: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    known: set[str] = field(default_factory=set)
    rows: int = 0
    worst_gap: float = 0.0

    def check(self, name: str, ok: bool, known: bool = False) -> None:
        self.checks.append((name, bool(ok)))
        if known:
            self.known.add(name)

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]

    @property
    def unexpected(self) -> list[str]:
        return [name for name in self.failures if name not in self.known]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(mc, argv: list[str]) -> tuple[int, str]:
    """`mirror-clone <argv>` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mc.cli.main(argv)
    return code, out.getvalue()


def _check_grid(mc, steps: int) -> np.ndarray:
    """The CLI's checking grid, rebuilt: [0, pi] plus both fidelity-minimum angles."""
    extras = [mc.FIDELITY_MINIMUM_ANGLE, math.pi - mc.FIDELITY_MINIMUM_ANGLE]
    return np.unique(np.concatenate([np.linspace(0.0, math.pi, steps), extras]))


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# CLI seeds for `optimize --steps 19 --seeds 2`: the twelve of seeds 0-78
# whose pass makes a number of iterations closest to the median of all 79
# (49194), at the commit that introduced this benchmark.  They span 48785 to
# 49566, so every pass does nearly the same optimizer work whatever the
# workload seed.  They were picked by iteration count alone: at seed 34 both
# starts at theta = 20 deg and 160 deg stop at the cap short of the 1e-6 gate
# (the known defect below), as at 14 of the 79.  Consecutive workload seeds
# take consecutive entries, so any twelve of them cover the list once.
CLI_SEEDS = (4, 6, 7, 24, 29, 34, 36, 52, 65, 68, 69, 71)


class OptimizeSweep:
    """`mirror-clone optimize` over the full [0, pi] checking grid."""

    name = "optimize-sweep"

    def inputs(self, seed: int, small: bool = False) -> dict:
        steps = 3 if small else 19
        argv = ["optimize", "--steps", str(steps), "--seeds", "2", "--seed", str(CLI_SEEDS[seed % len(CLI_SEEDS)])]
        return {"argv": argv, "steps": steps}

    def parts(self, mc, inputs):
        return [("optimize", lambda: run_cli(mc, inputs["argv"]))]

    def verify(self, mc, inputs, raw) -> PassResult:
        code, text = raw["optimize"]
        res = PassResult(_digest(code, text))
        rows = _csv_rows(text)
        res.rows = len(rows)
        grid = _check_grid(mc, inputs["steps"])
        thetas = [float(r["theta"]) for r in rows]
        res.check("optimize grid", len(thetas) == len(grid) and np.allclose(thetas, grid, atol=1e-15))
        shortfalls, others = 0, 0
        for row in rows:
            # the gap is recomputed against the closed form, not read from the
            # CLI's own gap column; every float is written with 17 digits
            closed = mc.mpcc_fidelity(float(row["theta"]))
            gap = float(row["F_star"]) - closed
            res.worst_gap = max(res.worst_gap, abs(gap))
            same_ref = float(row["F_mpcc"]) == closed
            ok = same_ref and abs(gap) <= GAP_TOL and gap <= ABOVE_TOL
            # Known defect: in the first slow band every start can hit the
            # CLI's 4000-iteration cap, and at some seeds the best of the
            # starts then falls short of the closed form by over 1e-6.
            shortfall = same_ref and row["converged"] == "false" and -SHORTFALL_TOL <= gap < -GAP_TOL
            shortfalls += shortfall
            others += not (ok or shortfall)
            res.check(f"optimize row theta={row['theta']}", ok, known=shortfall)
        # the CLI exits 1 exactly when a row misses the 1e-6 gate
        res.check("optimize exit code", code == 0, known=shortfalls > 0 and not others)
        return res


# Mirror priors in the two slow-convergence bands, as (theta, start seed)
# pairs whose run at API defaults converges only after a long climb: 6862 to
# 7040 iterations at theta = 0.47, the upper edge of the first band, and
# 12056 to 12425 at theta = 1.40 in the second, at the commit that
# introduced this benchmark.  At theta = 0.30 all eight starts tried exhaust
# the 60000-iteration cap, a run too long to repeat within one benchmark run.
# The seed picks one pair per band, so every pass does nearly the same
# optimizer work whatever the seed; a better stopping rule shortens exactly
# these runs.
SLOW_BANDS = (
    ((0.47, 2), (0.47, 3), (0.47, 6), (0.47, 8)),
    ((1.40, 3), (1.40, 5), (1.40, 10)),
)

# Interior phase-covariant angles, run from seeded starts.  Each took 41 to
# 53 iterations from each of twelve starts tried; near theta = pi/2 a run
# can take 500, which would make the short calls' share of a pass depend on
# the seed.
PC_ANGLES = (0.5, 1.0, 2.1, 2.6)


class OptimizeDeep:
    """Direct `optimize_map` calls at API defaults, one at a time."""

    name = "optimize-deep"

    def inputs(self, seed: int, small: bool = False) -> dict:
        rng = np.random.default_rng(seed)
        calls = []  # (label, prior kind, theta, start seed)
        if not small:
            for band in SLOW_BANDS:
                theta, start = band[seed % len(band)]
                calls.append((f"mirror theta={theta!r}", "mirror", theta, start))
        calls.append(("universal", "universal", None, int(rng.integers(2**31))))
        for theta in PC_ANGLES[:1] if small else PC_ANGLES:
            calls.append((f"phase-covariant theta={theta!r}", "phase-covariant", theta, int(rng.integers(2**31))))
        for label, theta in (("0", 0.0), ("pi", math.pi)):
            calls.append((f"phase-covariant theta={label}", "phase-covariant", theta, int(rng.integers(2**31))))
        return {"calls": calls}

    @staticmethod
    def _prior(mc, kind, theta):
        if kind == "mirror":
            return mc.PriorDistribution.mirror(theta)
        if kind == "phase-covariant":
            return mc.PriorDistribution.phase_covariant(theta)
        return mc.PriorDistribution.universal()

    def parts(self, mc, inputs):
        def call(kind, theta, start):
            return mc.optimality.optimize_map(mc.fidelity.score_operator(self._prior(mc, kind, theta)), seed=start)

        return [
            (label, lambda kind=kind, theta=theta, start=start: call(kind, theta, start))
            for label, kind, theta, start in inputs["calls"]
        ]

    def verify(self, mc, inputs, raw) -> PassResult:
        results = [raw[label] for label, *_ in inputs["calls"]]
        res = PassResult(
            _digest(*(f"{r.f_star.hex()} {r.iterations} {r.converged}".encode() + r.chi_star.tobytes() for r in results))
        )
        for (label, kind, theta, _), r in zip(inputs["calls"], results):
            try:
                mc.check_choi(r.chi_star)
                is_channel = True
            except ValueError:
                is_channel = False
            # Known defect: for phase-covariant priors at the poles the
            # optimizer returns a non-channel (trace-preservation defect 1.0).
            pole = kind == "phase-covariant" and theta in (0.0, math.pi)
            res.check(f"check_choi {label}", is_channel, known=pole)
            if kind == "mirror":
                ref = mc.mpcc_fidelity(theta)
            elif kind == "phase-covariant":
                ref = mc.pcc_fidelity(theta)
            else:
                ref = 5.0 / 6.0
            gap = r.f_star - ref
            res.worst_gap = max(res.worst_gap, abs(gap))
            res.check(f"f_star {label}", abs(gap) <= GAP_TOL and gap <= ABOVE_TOL)
        return res


class ClosedFormChecks:
    """CLI sweep, bloch, certify and circuits, plus the quadrature cross-checks."""

    name = "closed-form-checks"

    def inputs(self, seed: int, small: bool = False) -> dict:
        rng = np.random.default_rng(seed)
        n_sweep, n_cert, n_circ, n_quad = (5, 5, 3, 1) if small else (1001, 2001, 241, 4)
        return {
            "sweep": ["sweep", "--steps", str(n_sweep)],
            "bloch": ["bloch", "--steps", str(n_sweep), "--phi", repr(float(rng.uniform(0.0, 2.0 * math.pi)))],
            "certify": ["certify", "--steps", str(n_cert)],
            "circuits": ["circuits", "--steps", str(n_circ), "--seed", str(int(rng.integers(0, 2**31)))],
            "quad_thetas": [float(t) for t in rng.uniform(0.0, math.pi, size=n_quad)],
            "universal": not small,
        }

    def parts(self, mc, inputs):
        fid = mc.fidelity

        def quad(theta):
            prior = mc.PriorDistribution.mirror(theta)
            return (
                fid.score_operator_quadrature(prior),
                fid.average_fidelity_direct(mc.cloners.mpcc_choi(theta), prior),
                fid.average_fidelity_direct(mc.cloners.uc_choi(), prior),
            )

        def universal():
            prior = mc.PriorDistribution.universal()
            return fid.score_operator_quadrature(prior), fid.average_fidelity_direct(mc.cloners.uc_choi(), prior)

        parts = [(k, lambda k=k: run_cli(mc, inputs[k])) for k in ("sweep", "bloch", "certify", "circuits")]
        parts += [(f"quad {i}", lambda t=t: quad(t)) for i, t in enumerate(inputs["quad_thetas"])]
        if inputs["universal"]:
            parts.append(("universal", universal))
        return parts

    def verify(self, mc, inputs, raw) -> PassResult:
        raw = dict(raw, quad=[raw[f"quad {i}"] for i in range(len(inputs["quad_thetas"]))])
        quad_bytes = [m.tobytes() + f"{a.hex()} {b.hex()}".encode() for m, a, b in raw["quad"]]
        if "universal" in raw:
            quad_bytes.append(raw["universal"][0].tobytes() + raw["universal"][1].hex().encode())
        res = PassResult(
            _digest(*(f"{raw[k][0]}\n{raw[k][1]}" for k in ("sweep", "bloch", "certify", "circuits")), *quad_bytes)
        )
        for k in ("sweep", "bloch", "certify", "circuits"):
            res.check(f"{k} exit code", raw[k][0] == 0)

        # sweep: hierarchy 5/6 <= F_mpcc <= F_pcc, and F_mpcc = Tr(chi R) of the closed-form channel
        for row in _csv_rows(raw["sweep"][1]):
            theta, f_mpcc = float(row["theta"]), float(row["F_mpcc"])
            functional = mc.average_fidelity(mc.mpcc_choi(theta), mc.score_operator(mc.PriorDistribution.mirror(theta)))
            res.check(
                f"sweep row theta={row['theta']}",
                5.0 / 6.0 - 1e-12 <= f_mpcc <= float(row["F_pcc"]) + 1e-12
                and abs(f_mpcc - functional) <= QUAD_TOL
                and float(row["F_uc"]) == 5.0 / 6.0,
            )
            res.rows += 1

        # bloch: the mirror clone's Bloch vector, rebuilt by sending the state through the channel
        phi = float(inputs["bloch"][-1])
        plane = np.array([math.cos(phi), math.sin(phi)])
        for row in _csv_rows(raw["bloch"][1]):
            theta = float(row["theta"])
            _, rho1, _ = mc.clone(mc.ket_from_angles(theta, phi), mc.mpcc_choi(theta))
            r = np.array([2 * rho1[0, 1].real, -2 * rho1[0, 1].imag, (rho1[0, 0] - rho1[1, 1]).real])
            res.check(
                f"bloch row theta={row['theta']}",
                abs(float(row["rx_mpcc"]) - r[:2] @ plane) <= QUAD_TOL and abs(float(row["rz_mpcc"]) - r[2]) <= QUAD_TOL,
            )
            res.rows += 1

        for row in json.loads(raw["certify"][1]):
            res.check(f"certify row theta={row['theta']!r}", row["psd_ok"] is True and row["saturation_ok"] is True)
            res.rows += 1

        for row in _csv_rows(raw["circuits"][1]):
            res.check(
                f"circuits row theta={row['theta']} {row['variant']} {row['input']}",
                float(row["residual"]) <= CIRCUIT_TOL,
            )
            res.rows += 1

        for theta, (score_q, f_mpcc_direct, f_uc_direct) in zip(inputs["quad_thetas"], raw["quad"]):
            closed = mc.score_operator(mc.PriorDistribution.mirror(theta))
            res.check(f"score quadrature theta={theta!r}", np.abs(score_q - closed).max() <= QUAD_TOL)
            res.check(f"direct mpcc theta={theta!r}", abs(f_mpcc_direct - mc.mpcc_fidelity(theta)) <= QUAD_TOL)
            res.check(f"direct uc theta={theta!r}", abs(f_uc_direct - 5.0 / 6.0) <= QUAD_TOL)
        if "universal" in raw:
            score_q, f_uc_direct = raw["universal"]
            closed = mc.score_operator(mc.PriorDistribution.universal())
            res.check("score quadrature universal", np.abs(score_q - closed).max() <= QUAD_TOL)
            res.check("direct uc universal", abs(f_uc_direct - 5.0 / 6.0) <= QUAD_TOL)
        return res


WORKLOADS = {w.name: w for w in (OptimizeSweep(), OptimizeDeep(), ClosedFormChecks())}
