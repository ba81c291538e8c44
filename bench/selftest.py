"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each report names exactly the metrics of BENCHMARK.json with their units and
that every answer passes.  Then checks that a corrupted Kunneth entry is
counted as a failure, that a predicted layer without spans stops the traced
run, and that the wrappers replaced the names other modules import.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import run  # noqa: E402


def expect(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok  {message}")


def main():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    listed = [w["name"] for w in spec["workloads"]]
    expect(set(listed) <= set(run.WORKLOADS), "run.py runs every workload BENCHMARK.json lists")
    for trace in (0, 1):
        for name in run.WORKLOADS:
            result, lines = run.measure(name, 1, 0.05, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{name} trace={trace} reports every metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={trace} metric values are numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace} answers all pass ({result['attempted']} checked)")
            expect(any("fail_ratio" in line for line in lines),
                   f"{name} trace={trace} prints fail_ratio")

    import expected
    import homology_workload

    corrupted = copy.deepcopy(expected.KUNNETH)
    pair = homology_workload.TINY_PRODUCTS[0]
    betti, torsion = corrupted[pair]["homology"][1]
    corrupted[pair]["homology"][1] = (betti + 1, torsion)
    result, lines = run.measure("homology", 1, 0.05, 0, tiny=True, expected=corrupted)
    expect(result["failed"] >= 1 and not result["correct"],
           f"a corrupted Kunneth entry is counted in fail_ratio ({result['failed']} failed)")

    for name, budgets, status in (("homology", common.PASS_BUDGET_S, "timeout"),
                                  ("cli", common.OP_BUDGET_S, "ok")):
        saved = budgets[name]
        budgets[name] = 0.001
        try:
            result, lines = run.measure(name, 1, 0.05, 0, tiny=True)
        finally:
            budgets[name] = saved
        expect(result["failed"] >= 1 and not result["correct"]
               and any(f"(status {status})" in line for line in lines),
               f"{name} work over its budget is failed ({result['failed']} failed, "
               f"status {status})")

    import layers
    import tracer as tracing

    try:
        layers.compute(tracing.Tracer(), "algebra", 1)
    except layers.MissingLayer:
        missing_stops = True
    else:
        missing_stops = False
    expect(missing_stops, "a predicted layer with no spans stops the traced run")

    import diffchar.cli  # noqa: F401  loads every module the cli workload traces
    from diffchar import characters, exact_linalg, fixtures, simplicial

    tracer = tracing.Tracer()
    tracing.install(tracer)
    for module, attr, original in (
        (simplicial, "smith_normal_form", exact_linalg.smith_normal_form),
        (simplicial, "cycle_splitting", exact_linalg.cycle_splitting),
        (simplicial, "_homology_engine", exact_linalg.homology),
        (characters, "j", characters.flat_character),
    ):
        expect(getattr(module, attr) is original and hasattr(original, "__wrapped__"),
               f"{module.__name__}.{attr} is rebound to the wrapper")
    expect(all(hasattr(f, "__wrapped__") for f in fixtures._COMPLEXES.values()),
           "fixture name tables hold the wrappers")
    tracer.enabled = True
    fixtures.complex_by_name("S1_3")
    tracer.enabled = False
    expect("fixtures.circle" in {tracer.names[i] for i in tracer.name},
           "fixture lookups through the name tables record spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
