"""mirrorclone benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Passes of the workload repeat until
the next one would end after --seconds; every pass is checked against an
independent route, and the checks are timed apart from the program work.
With --trace 0 a fresh-interpreter set-up probe follows every pass, and the
last line of stdout is a JSON object carrying the end-to-end metrics: a
pass time is the sum over the workload's parts of each part's median time
in the run, and the set-up time the median probe.  With
--trace 1 untraced and traced passes alternate, at least two of them
traced, and the line carries the per-layer metrics.  A full record (every
sample, failed checks, machine facts, and the spans of one traced pass)
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layertrace as tracing
from workloads import WORKLOADS

SETUP_PROBES = 12  # at least this many per untraced run, one after each pass
SETUP_PROBE = (
    "import mirrorclone as m; "
    "m.optimize_map(m.score_operator(m.PriorDistribution.mirror(1.0)), max_iter=1)"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

# Per-layer metrics: name -> unit.  Counts repeat exactly between runs at
# one seed; a function a workload never calls reports 0.
CALLS = [
    "cli.cmd_optimize",
    "cli.cmd_sweep",
    "cli.cmd_bloch",
    "cli.cmd_certify",
    "cli.cmd_circuits",
    "cli.check_grid",
    "optimality.optimize_map",
    "optimality.random_trace_preserving_choi",
    "optimality.certificate",
    "optimality.lagrange_operator",
    "optimality.choi_pattern_defect",
    "cloners.mpcc_params",
    "cloners.mpcc_fidelity",
    "cloners.mpcc_choi",
    "cloners.choi_from_weights",
    "cloners.uc_choi",
    "cloners.clone",
    "cloners.mpcc_isometry_apply",
    "cloners.mpcc_clone_bloch",
    "cloners.pcc_fidelity",
    "fidelity.score_operator",
    "fidelity.r_theta",
    "fidelity.average_fidelity",
    "fidelity.average_fidelity_direct",
    "fidelity.score_operator_quadrature",
    "circuits.circuit_matrix",
    "circuits.gate_matrix",
    "circuits.circuit_mpcc_v1",
    "circuits.circuit_mpcc_v2",
    "circuits.equal_up_to_global_phase",
    "qcore.partial_trace",
    "qcore.fidelity_pure",
    "qcore.ket_from_angles",
    "qcore.haar_random_state",
]
PER_LAYER = {
    "optimality.iter_us": "us",
    "optimality.iterations.total": "count",
    "optimality.iterations.p50": "count",
    "optimality.cap_hits": "count",
    "optimality.non_channel": "count",
    "optimality.worst_gap": "fidelity",
    "optimality.optimize_map.ms_p50": "ms",
    "optimality.optimize_map.ms_max": "ms",
    "optimality.certificate.us_p50": "us",
    "circuits.circuit_matrix.us_p50": "us",
    "cloners.clone.us_p50": "us",
    "fidelity.score_operator.us_p50": "us",
    "fidelity.average_fidelity_direct.ms_p50": "ms",
    "fidelity.score_operator_quadrature.ms_p50": "ms",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "cli.rows": "count",
    "fail_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    **{f"{name}.calls": "count" for name in CALLS},
}
COUNT_METRICS = {name for name, unit in PER_LAYER.items() if unit == "count"}


def load_package():
    if not (SRC / "mirrorclone" / "__init__.py").is_file():
        sys.exit(f"run.py: no mirrorclone source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mirrorclone
    import mirrorclone.cli  # not imported by the package itself

    if Path(mirrorclone.__file__).resolve().parent != SRC / "mirrorclone":
        sys.exit(f"run.py: imported mirrorclone from {mirrorclone.__file__}, not {SRC}")
    return mirrorclone


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import mirrorclone and finish a first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def machine_facts(mc, workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k.startswith(("OPENBLAS", "OMP_", "MKL_"))
        },
        "mirrorclone": mc.__version__,
        "git_commit": commit,
        "platform": platform.platform(),
    }


class OptimizerObserver:
    """Reads each optimize_map result as it leaves the traced call."""

    def __init__(self, check_choi):
        self.check_choi = check_choi
        self.iterations: list[int] = []
        self.cap_hits = 0
        self.non_channel = 0

    def __call__(self, result) -> None:
        self.iterations.append(result.iterations)
        # the loop ends unconverged only when it runs out of iterations
        self.cap_hits += not result.converged
        try:
            self.check_choi(result.chi_star)
        except ValueError:
            self.non_channel += 1


class Pass(NamedTuple):
    result: object  # workloads.PassResult
    wall_s: dict  # part name -> seconds of program work
    cpu_s: dict
    verify_s: float  # the benchmark's own checks, timed apart
    trace: tuple | None  # (Tracer, OptimizerObserver) of a traced pass


def run_parts(parts) -> tuple[dict, dict, dict]:
    """Runs each named part once; returns its outputs, wall times and CPU times."""
    raw, wall, cpu = {}, {}, {}
    for name, call in parts:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw[name] = call()
        wall[name], cpu[name] = time.perf_counter() - wall0, time.process_time() - cpu0
    return raw, wall, cpu


def run_pass(mc, wl, inputs, traced: bool) -> Pass:
    """One pass: the program work, timed part by part (and traced), then its checks, timed apart."""
    trace = None
    parts = wl.parts(mc, inputs)
    gc.collect()  # start every pass from the same heap, untimed
    if traced:
        observer = OptimizerObserver(mc.check_choi)
        tracer = tracing.Tracer({"optimality.optimize_map": observer})
        trace = (tracer, observer)
        replaced = tracing.install(tracer, mc)
        try:
            raw, wall, cpu = run_parts(parts)
        finally:
            tracing.uninstall(replaced)
    else:
        raw, wall, cpu = run_parts(parts)
    verify0 = time.perf_counter()
    result = wl.verify(mc, inputs, raw)
    return Pass(result, wall, cpu, time.perf_counter() - verify0, trace)


def typical(times: list[dict]) -> float:
    """Sum over the parts of each part's median time among the passes.

    Host contention slows the whole machine for seconds to minutes at a
    time.  A part's median over the passes is its cost at the run's typical
    contention, which a slow stretch covering less than half the run does
    not move.
    """
    return sum(statistics.median(t[part] for t in times) for part in times[0])


def layer_metrics(tracer, observer, result) -> dict:
    s = tracing.summarise(tracer.spans)
    calls, p50, total = s["calls"], s["p50_ns"], s["total_ns"]
    its = observer.iterations
    opt = "optimality.optimize_map"
    m = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
    m.update({f"{layer}.self_s": ns / 1e9 for layer, ns in s["layer_self_ns"].items()})
    m.update(
        {
            "optimality.iter_us": total.get(opt, 0) / 1e3 / sum(its) if its else 0.0,
            "optimality.iterations.total": sum(its),
            "optimality.iterations.p50": statistics.median(its) if its else 0,
            "optimality.cap_hits": observer.cap_hits,
            "optimality.non_channel": observer.non_channel,
            "optimality.worst_gap": result.worst_gap,
            "optimality.optimize_map.ms_p50": p50.get(opt, 0) / 1e6,
            "optimality.optimize_map.ms_max": s["max_ns"].get(opt, 0) / 1e6,
            "optimality.certificate.us_p50": p50.get("optimality.certificate", 0) / 1e3,
            "circuits.circuit_matrix.us_p50": p50.get("circuits.circuit_matrix", 0) / 1e3,
            "cloners.clone.us_p50": p50.get("cloners.clone", 0) / 1e3,
            "fidelity.score_operator.us_p50": p50.get("fidelity.score_operator", 0) / 1e3,
            "fidelity.average_fidelity_direct.ms_p50": p50.get("fidelity.average_fidelity_direct", 0) / 1e6,
            "fidelity.score_operator_quadrature.ms_p50": p50.get("fidelity.score_operator_quadrature", 0) / 1e6,
            "cli.rows": result.rows,
            "fail_frac": len(result.failures) / len(result.checks),
            "trace.spans": len(tracer.spans),
        }
    )
    return m


def spans_record(tracer) -> dict:
    names = sorted({sp[0] for sp in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0
    return {
        "names": names,
        "columns": ["name", "start_ns", "end_ns", "parent"],
        "spans": [[index[n], a - t0, b - t0, p] for n, a, b, p in tracer.spans],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    mc = load_package()
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup: list[float] = []

    # warm-up: first calls into NumPy and the package, untimed
    small = wl.inputs(args.seed, small=True)
    wl.verify(mc, small, run_parts(wl.parts(mc, small))[0])

    plain, traced, problems = [], [], []
    reference = None

    def compare(p: Pass) -> Pass:
        nonlocal reference
        if reference is None:
            reference = p.result
        elif (p.result.digest, p.result.checks) != (reference.digest, reference.checks):
            problems.append("a pass gave different outputs or verdicts from the first")
        # only the times are kept, so memory does not grow with the pass count
        return p._replace(result=None)

    def traced_pass():
        p = run_pass(mc, wl, inputs, traced=True)
        # the per-layer figures are read now, while the pass's result is at hand
        kept = compare(p) if not traced else compare(p)._replace(trace=None)  # spans of the first only
        traced.append((kept, layer_metrics(*p.trace, p.result)))
        left = tracing.leftover_wrappers(mc)
        if left:
            problems.append(f"wrappers left bound after a traced pass: {left}")

    start = time.perf_counter()
    while True:
        unit0 = time.perf_counter()
        plain.append(compare(run_pass(mc, wl, inputs, traced=False)))
        if args.trace:
            traced_pass()
        else:
            setup.append(measure_setup())
        now = time.perf_counter()
        if now - start + (now - unit0) > args.seconds:
            break
    if args.trace and len(traced) < 2:
        # counts are compared between traced passes, so there must be two,
        # even when that runs past --seconds
        traced_pass()
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(measure_setup())

    unexpected = reference.unexpected
    if unexpected:
        problems.append(f"unexpected failed checks: {unexpected[:10]}")

    walls = [p.wall_s for p in plain]
    cpus = [p.cpu_s for p in plain]
    traced_walls = [p.wall_s for p, _ in traced]
    attempted, failed = len(reference.checks), len(reference.failures)
    if args.trace == 0:
        values = {
            "wall_s": typical(walls),
            "cpu_s": typical(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        per_pass = [m for _, m in traced]
        values = {}
        for name in PER_LAYER.keys() - {"trace.overhead_s"}:
            samples = [m[name] for m in per_pass]
            if name in COUNT_METRICS:
                if len(set(samples)) != 1:
                    problems.append(f"count {name} differs between traced passes: {samples}")
                values[name] = samples[0]
            else:
                values[name] = statistics.median(samples)
        values["trace.overhead_s"] = typical(traced_walls) - typical(walls)
        units = PER_LAYER

    record = {
        "facts": machine_facts(mc, args.workload, args.seed),
        "args": vars(args),
        "inputs": inputs,
        "passes": {
            "untraced_wall_s": walls,
            "untraced_cpu_s": cpus,
            "traced_wall_s": traced_walls,
            "verify_s": [p.verify_s for p in plain + [p for p, _ in traced]],
            "setup_s": setup,
        },
        "attempted": attempted,
        "failed_checks": reference.failures,
        "problems": problems,
        "metrics": values,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, default=str) + "\n")
    if traced:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump(spans_record(traced[0][0].trace[0]), fh)

    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
