"""Fast self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Checks that the metric names and units match BENCHMARK.json, that the
tracer's rebinding is fully undone, that a traced pass gives the same
outputs and verdicts as an untraced one, and that the count metrics
repeat exactly between two traced passes at one seed.  Uses the small
form of each workload.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import layertrace as tracing
import run
from workloads import WORKLOADS


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("workload names differ from BENCHMARK.json")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            fail(f"{key} metrics differ from BENCHMARK.json: {sorted(set(listed) ^ set(table))}")


def check_rebinding(mc) -> None:
    spaces = tracing.namespaces(mc)
    before = [dict(vars(space)) for space in spaces]
    replaced = tracing.install(tracing.Tracer(), mc)
    for probe in ("cli.optimize_map", "optimality.mpcc_params", "cloners.partial_trace", "cloners.mpcc_params"):
        module, attr = probe.split(".")
        if not hasattr(getattr(getattr(mc, module), attr), "__perfbench_original__"):
            fail(f"mirrorclone.{probe} was not rebound")
    tracing.uninstall(replaced)
    if tracing.leftover_wrappers(mc):
        fail(f"wrappers left bound: {tracing.leftover_wrappers(mc)}")
    for space, snapshot in zip(spaces, before):
        changed = [k for k, v in snapshot.items() if vars(space).get(k) is not v]
        if changed:
            fail(f"{space.__name__} not restored: {changed}")


def check_passes(mc) -> None:
    for name, wl in WORKLOADS.items():
        inputs = wl.inputs(7, small=True)
        plain = run.run_pass(mc, wl, inputs, traced=False).result
        passes = [run.run_pass(mc, wl, inputs, traced=True) for _ in range(2)]
        if tracing.leftover_wrappers(mc):
            fail(f"{name}: wrappers left bound after a traced pass")
        for p in passes:
            if (p.result.digest, p.result.checks) != (plain.digest, plain.checks):
                fail(f"{name}: traced pass differs from untraced pass")
        first, second = (run.layer_metrics(*p.trace, p.result) for p in passes)
        moved = [k for k in run.COUNT_METRICS if first[k] != second[k]]
        if moved:
            fail(f"{name}: counts differ between traced passes: {moved}")
        if not any(first[f"{c}.calls"] for c in run.CALLS):
            fail(f"{name}: traced pass recorded no calls")
        print(f"selftest: {name}: {len(plain.checks)} checks, {first['trace.spans']} spans, counts repeat")


def main() -> int:
    mc = run.load_package()
    check_metric_names()
    check_rebinding(mc)
    check_passes(mc)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
