"""diffchar benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {homology,algebra,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is always loaded from
``src/``.  A run sets up several times (the median is `setup_s`), then runs
timed passes over the workload's fixed operation list until `--seconds`
have elapsed, and checks every answer after each pass.  Each workload is a
closed loop with one client.  The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of bench/layers.py.  The lines before it repeat each metric with its
unit and sample count, plus the failure ratio and pass status.

The traced run first makes one untraced pass, then installs the span
wrappers and makes traced passes; per-layer values are per traced pass and
`trace.overhead_ratio` is traced over untraced pass wall time.  Spans are
written to ``.bench_out/trace-<workload>-seed<N>.bin.gz`` when the run ends.

Workload choice (see BENCHMARK.json for the one-line reasons):
  homology  fresh staircase products of seeded vertex relabelings; dense
            SNF, the V*B product and solves carry nearly all the work.
  algebra   a seeded stream of character operations on small fixtures whose
            factorizations are cached during set-up; cochain, characters and
            products carry the work, exact_linalg only reads.
  cli       one `diffchar` process per request, cold: interpreter start,
            import, fixtures, io and SNF with no warm cache.
algebra is not listed in BENCHMARK.json: on the 2-vCPU host it was built
on, its run-to-run timings moved by up to 65% between minutes-long periods
of host contention, more than the largest bound allowed.  It stays runnable
and in bench/selftest.py.  T2_9 x RP2_6 is left out of homology: its homology
did not finish in 11 minutes with the dense engine.  The baseline in
CHANGES.md was measured with seeds 1-10.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import OverBudget, now  # noqa: E402

WORKLOADS = ("homology", "algebra", "cli")


def _load(name):
    if name == "homology":
        import homology_workload as module
    elif name == "algebra":
        import algebra_workload as module
    else:
        import cli_workload as module
    return module.Workload


def run_pass(wl, ops, deadline, tracer=None, traced=False):
    """Execute one pass; returns wall time, latencies, raw results, status.

    An in-process pass runs under one alarm at its deadline (a timer per
    operation would cost a system call pair per operation); an operation
    that took longer than its budget is failed afterwards.  A cli request
    is killed at its budget by the workload itself.
    """
    op_budget = common.OP_BUDGET_S[wl.name]
    start = now()
    pass_deadline = min(start + common.PASS_BUDGET_S[wl.name], deadline)
    latencies = []
    results = []
    status = "ok"
    alarm = common.Alarm(pass_deadline - start) if wl.in_process else contextlib.nullcontext()
    try:
        with alarm:
            for label, fn in ops:
                remaining = pass_deadline - now()
                if remaining <= 0:
                    raise OverBudget()
                if tracer is not None:
                    tracer.op_id = wl.op_counter
                    tracer.enabled = traced and wl.in_process
                wl.op_counter += 1
                error = None
                result = None
                t0 = now()
                try:
                    result = wl.execute(fn, min(op_budget, remaining), traced)
                except OverBudget:
                    # A failed request still made its client wait.
                    latencies.append(now() - t0)
                    results.append((label, None, "over budget"))
                    if wl.in_process or now() >= pass_deadline:
                        raise
                    continue
                except Exception as exc:  # a failing operation is recorded, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.enabled = False
                elapsed = now() - t0
                if error is None and elapsed > op_budget:
                    error = f"over budget: {elapsed:.1f} s"
                latencies.append(elapsed)
                results.append((label, result, error))
    except OverBudget:
        status = "timeout"
        results.extend((label, None, "pass over budget") for label, _ in ops[len(results):])
    return {"wall": now() - start, "latencies": latencies, "results": results,
            "status": status}


def check_pass(wl, record, failures):
    attempted = failed = 0
    for label, result, error in record["results"]:
        attempted += 1
        if error is None:
            try:
                error = wl.check(label, result)
            except Exception as exc:  # a check that crashes is a failed answer
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{label}: {error}")
    return attempted, failed


def measure(workload, seed, seconds, trace, tiny=False, expected=None):
    """Run one workload; returns (result dict, report lines)."""
    run_start = now()
    deadline = run_start + common.RUN_DEADLINE_S
    common.require_source()
    Workload = _load(workload)
    import_s = now() - run_start
    wl = Workload(seed, tiny=tiny)
    if expected is not None:
        wl.expected = expected
    try:
        setup_times = []
        with common.Alarm(common.SETUP_BUDGET_S):
            for _ in range(wl.setup_reps):
                t0 = now()
                wl.setup()
                setup_times.append(now() - t0)
        failures = list(wl.setup_failures)
        attempted, failed = wl.setup_attempted, len(wl.setup_failures)
        lines = []
        tracer = None
        untraced_wall = None
        if trace:
            record = run_pass(wl, wl.ops(), deadline)
            untraced_wall = record["wall"]
            a, f = check_pass(wl, record, failures)
            attempted, failed = attempted + a, failed + f
            del record
            import tracer as tracing

            tracer = tracing.Tracer()
            if wl.in_process:
                tracing.install(tracer)
            wl.tracer = tracer
        phase_start = now()
        passes = []
        while True:
            if passes or trace:
                wl.prepare_pass()
            # Built per pass, so the callables bind to the traced functions.
            record = run_pass(wl, wl.ops(), deadline, tracer, traced=bool(trace))
            a, f = check_pass(wl, record, failures)
            attempted, failed = attempted + a, failed + f
            # Free the pass's answers (complexes hold reference cycles through
            # their caches), so one pass's memory does not outlive its checks.
            record["results"] = None
            gc.collect()
            if not passes:
                # Peak memory through set-up and the first pass: later passes
                # reuse a fragmented heap, so their peak depends on the pass count.
                peak_rss = wl.peak_rss()
            passes.append(record)
            if record["status"] != "ok" or now() - phase_start >= seconds or now() >= deadline:
                break
    finally:
        wl.finish()
    status = "timeout" if any(p["status"] == "timeout" for p in passes) else "ok"
    walls = [p["wall"] for p in passes]
    lat_ms = [x * 1000.0 for p in passes for x in p["latencies"]]
    if trace:
        import layers

        overhead = statistics.median(walls) / untraced_wall
        metrics, shares = layers.compute(
            tracer, workload, len(passes), wl.child_records, overhead
        )
        common.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(
            common.OUT_DIR / f"trace-{workload}-seed{seed}.bin.gz",
            {"workload": workload, "seed": seed, "passes": len(passes)},
        )
        total_self = sum(shares.values()) or 1.0
        for layer, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"share {layer}.self_s {value / len(passes):.4f} s "
                         f"({100.0 * value / total_self:.1f}% of traced self time)")
        samples = {
            name: f"per pass, {len(passes)} traced passes; should move "
                  f"{layers.prediction(name) or 'nothing'}"
            for name in metrics
        }
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": common.percentile(lat_ms, 90), "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
        }
        samples = {
            "setup_s": f"n={len(setup_times)} set-ups, import once",
            "wall_s": f"n={len(walls)} passes",
            "op_p50_ms": f"n={len(lat_ms)} operations",
            "op_p90_ms": f"n={len(lat_ms)} operations, "
                         f"{sum(1 for x in lat_ms if x > metrics['op_p90_ms']['value'])} beyond",
            "peak_rss_mib": ("largest child process" if wl.name == "cli" else "this process")
                            + ", set-up and first pass",
        }
    for name, m in metrics.items():
        lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']} ({samples[name]})")
    lines.append(f"{workload} fail_ratio = {failed}/{attempted} "
                 f"= {failed / max(attempted, 1):.4f} ratio (status {status})")
    for message in failures:
        lines.append(f"FAILED {message}")
    result = {
        "correct": failed == 0 and status == "ok",
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except common.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except OverBudget:
        print(f"bench: set-up ran over {common.SETUP_BUDGET_S} s", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
