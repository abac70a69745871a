"""Benchmark entry point for mvops.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md in this directory) as a single closed-loop
client: the next operation starts when the previous one returns.  BLAS is
held to one thread, so the process computes on one thread in total.

With --trace 0 it measures end to end and prints the end-to-end metrics;
with --trace 1 it runs the same operations twice, untraced and then
traced, and prints per-layer metrics together with the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
from time import perf_counter

import stats

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MAX_DECADES = 16.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def thread_count() -> int:
    """Threads of this process, read from /proc (1 when unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trusted_degree(results) -> int:
    """Highest degree N of the run such that every graded verdict at a
    degree <= N is right; 0 when the lowest degree already has a wrong one."""
    by_degree: dict[int, bool] = {}
    for r in results:
        if r.op.graded:
            ok = r.outcome is not None and r.outcome.right
            by_degree[r.op.N] = by_degree.get(r.op.N, True) and ok
    trusted = 0
    for N in sorted(by_degree):
        if not by_degree[N]:
            break
        trusted = N
    return trusted


def margin_logs(outcome) -> list[float]:
    """log10(value / bound) of an outcome's residual checks with a positive
    bound and a non-zero value; NaN or infinite values count as infinite."""
    out = []
    for value, bound in outcome.margins:
        if bound is None or not bound > 0:
            continue
        value = float(value)
        if math.isnan(value) or value == math.inf:
            out.append(math.inf)
        elif value > 0:
            out.append(math.log10(value / bound))
    return out


def headroom_decades(results) -> float:
    """Median over right operations of their worst check's headroom,
    -log10(value / bound), capped at MAX_DECADES."""
    worst = [max(logs) for r in results
             if r.outcome is not None and r.outcome.right
             for logs in [margin_logs(r.outcome)] if logs]
    if not worst:
        return MAX_DECADES
    return min(MAX_DECADES, -stats.median(worst))


def worst_margin_log10(results) -> float:
    """Largest log10(value / bound) over every check of every operation."""
    return max((v for r in results if r.outcome is not None
                for v in margin_logs(r.outcome)), default=-MAX_DECADES)


def reference_s(r) -> float:
    """An operation's latency in reference seconds (see calibrate.py)."""
    import calibrate
    return r.seconds * calibrate.REFERENCE_S / r.kernel_s


def end_to_end(results, setup_s: float, tail_p: float) -> dict:
    secs = [reference_s(r) for r in results]
    n = len(results)
    right = sum(1 for r in results if r.outcome is not None and r.outcome.right)
    coef = [r.outcome.coef_err for r in results
            if r.outcome is not None and r.outcome.right and r.outcome.coef_err is not None]
    worst_coef = max(coef, default=0.0)
    return {
        "setup_s": setup_s,
        "op_p50_ref_s": stats.harrell_davis(secs, 50.0),
        "op_tail_ref_s": stats.harrell_davis(secs, tail_p),
        "ops_per_ref_s": n / sum(secs),
        "right_ratio": right / n,
        "margin_decades": headroom_decades(results),
        "trusted_degree_min": float(trusted_degree(results)),
        "coef_digits": (min(MAX_DECADES, -math.log10(worst_coef))
                        if worst_coef > 0 else MAX_DECADES),
        "peak_rss_mb": peak_rss_mb(),
    }


UNITS = {
    "setup_s": "s", "op_p50_ref_s": "ref_s", "op_tail_ref_s": "ref_s", "ops_per_ref_s": "1/ref_s",
    "right_ratio": "ratio", "margin_decades": "decades", "trusted_degree_min": "degree",
    "coef_digits": "digits", "peak_rss_mb": "MB",
}


# per-layer metrics of a traced run; values are per traced operation unless
# the unit says otherwise
LAYER_UNITS = {
    "moments.calls": "count/op", "moments.distinct": "count/op",
    "moments.memo_hit_ratio": "ratio", "moments.self_s": "s/op",
    "indexing.self_s": "s/op", "indexing.setup_self_s": "s",
    "matrixkit.solve_calls": "count/op", "matrixkit.svd_calls": "count/op",
    "matrixkit.lstsq_calls": "count/op", "matrixkit.self_s": "s/op",
    "matrixkit.format_s": "s/op", "matrixkit.parse_s": "s/op",
    "matrixkit.bytes_formatted": "B/op", "matrixkit.bytes_parsed": "B/op",
    "construct.pair_calls": "count/op", "construct.pair_flops_computed": "flop/op",
    "construct.pair_s": "s/op", "construct.gram_schmidt_s": "s/op",
    "construct.koornwinder_s": "s/op", "construct.gram_cond_log10": "log10",
    "construct.self_s": "s/op",
    "ttr.compute_s": "s/op", "ttr.rank_s": "s/op", "ttr.generate_s": "s/op",
    "ttr.generate_resid_log10": "log10", "ttr.self_s": "s/op",
    "linrel.relation_s": "s/op", "linrel.checks_s": "s/op", "linrel.partner_s": "s/op",
    "linrel.self_s": "s/op",
    "families.self_s": "s/op", "families.records": "count/op",
    "mpoly.self_s": "s/op",
    "serialize.read_s": "s/op", "serialize.write_s": "s/op",
    "serialize.bytes_read": "B/op", "serialize.bytes_written": "B/op",
    "serialize.self_s": "s/op",
    "cli.self_s": "s/op", "cli.exit_mismatch": "count/op",
    "bench.self_s": "s/op", "trace.self_s": "s/op", "trace.spans": "count/op",
    "trace.overhead_ratio": "ratio",
}


def report_end_to_end(wl, results, metrics: dict, setup: dict, kernel: list,
                      rounds: int, wall_s: float) -> None:
    n = len(results)
    crashed = [r for r in results if r.outcome is None]
    wrong = [r for r in results if r.outcome is not None and not r.outcome.right]
    coef = [r.outcome.coef_err for r in results
            if r.outcome is not None and r.outcome.right and r.outcome.coef_err is not None]
    p = wl.tail_percentile
    wall = [r.seconds for r in results]
    beyond = stats.samples_beyond(n, p)
    print(f"workload {wl.name}: {rounds} rounds, {n} operations in {wall_s:.2f} s, "
          f"threads {thread_count()}")
    print(f"  calibration kernel: median {stats.median(kernel) * 1e3:.3f} ms over "
          f"{len(kernel)} samples (range {min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms); "
          "ref_s = seconds scaled to the reference kernel time")
    print(f"  {'setup_s':22s} {metrics['setup_s']:.4f} s (reference)  wall: imports "
          f"{setup['import_wall']:.3f} s + median of set-ups "
          f"{[round(t, 3) for t in setup['wall']]} s")
    print(f"  {'op_p50_s':22s} {metrics['op_p50_ref_s']:.6f} ref_s  (wall "
          f"{stats.harrell_davis(wall, 50.0):.6f} s; Harrell-Davis estimates)")
    print(f"  {'op_p%g_s' % p:22s} {metrics['op_tail_ref_s']:.6f} ref_s  (wall "
          f"{stats.harrell_davis(wall, p):.6f} s; p{p:g} of {n} samples, {beyond} beyond it"
          + ("" if stats.supports(n, p) else "; FEWER THAN 10 BEYOND") + ")")
    print(f"  {'ops_per_s':22s} {metrics['ops_per_ref_s']:.4f} 1/ref_s  (operations per "
          f"second of program time; wall {n / sum(wall):.4f} 1/s)")
    print(f"  {'fail_ratio':22s} {(len(wrong) + len(crashed)) / n:.4f}  "
          f"({len(wrong)} wrong outcomes, {len(crashed)} crashed, of {n}; "
          f"reported as right_ratio {metrics['right_ratio']:.4f})")
    print(f"  {'worst_margin_log10':22s} {worst_margin_log10(results):+.3f}  (all operations; "
          f"median over right operations {-metrics['margin_decades']:+.3f}, reported as "
          "margin_decades)")
    print(f"  {'trusted_degree_min':22s} {metrics['trusted_degree_min']:.0f}")
    if coef:
        print(f"  {'coef_err_log10':22s} {-metrics['coef_digits']:+.3f}  "
              f"({len(coef)} checked operations; reported as coef_digits)")
    else:
        print(f"  {'coef_err_log10':22s} n/a (no operation with a reference)")
    print(f"  {'peak_rss_mb':22s} {metrics['peak_rss_mb']:.1f} MB")
    bad: dict[str, set] = {}
    for r in wrong + crashed:
        detail = r.error if r.outcome is None else r.outcome.detail
        key = f"{r.op.config} {r.op.label}".strip()
        bad.setdefault(key, set()).add(f"N={r.op.N}: {detail[:90]}")
    if bad:
        print("  wrong or crashed operations:")
        for key in sorted(bad):
            for line in sorted(bad[key]):
                print(f"    {key}  {line}")


def run_rounds(wl, seconds: float, cal) -> tuple[list, int]:
    """Whole rounds until `seconds` of wall time have passed and the samples
    leave at least stats.MIN_BEYOND beyond the workload's tail percentile.
    Returns the results and the number of rounds."""
    results: list = []
    rounds = 0
    start = perf_counter()
    while perf_counter() - start < seconds or not stats.supports(len(results),
                                                                 wl.tail_percentile):
        results += run_ops(wl.next_round(), cal)
        rounds += 1
    return results, rounds


def run_ops(ops, cal, tracer=None) -> list:
    """Run operations with the calibration kernel sampled in between; each
    result gets the kernel time at its midpoint."""
    import workloads
    results = []
    for i, op in enumerate(ops):
        cal.keep_fresh()
        idx = tracer.begin_op(i) if tracer else None
        results.append(workloads.run_op(op))
        if tracer:
            tracer.end_op(idx)
    cal.sample()
    for r in results:
        r.kernel_s = cal.at(r.started + r.seconds / 2.0)
    return results


def traced_run(wl, seconds: float, seed: int, setup_once, cal) -> tuple[list, dict]:
    """Untraced pass, then the same operations traced; per-layer metrics."""
    import tracer as tracing
    import workloads
    untraced, _ = run_rounds(wl, seconds / 2.0, cal)
    tr = tracing.Tracer()
    tr.install(extra_modules=[workloads])
    try:
        setup_once()
        setup_indexing = tr.setup_self("indexing")
        tr.reset_counters()
        traced = run_ops([r.op for r in untraced], cal, tr)
    finally:
        tr.uninstall()
    layers = tr.layer_table(len(traced))
    layers["indexing.setup_self_s"] = setup_indexing
    layers["cli.exit_mismatch"] = sum(
        1 for r in traced if r.outcome is not None and r.outcome.exit_mismatch
    ) / max(len(traced), 1)
    layers["trace.overhead_ratio"] = (sum(map(reference_s, traced))
                                      / sum(map(reference_s, untraced)))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.npz")
    count = tr.write_spans(path)
    print(f"traced {len(traced)} operations, {count} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    return traced, layers


def report_layers(wl, layers: dict) -> None:
    print(f"per-layer metrics for {wl.name} (per traced operation):")
    for name in sorted(layers):
        print(f"  {name:34s} {layers[name]:.6g} {LAYER_UNITS[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mvops", "__init__.py")):
        print(f"error: mvops sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    start = perf_counter()
    import mvops  # noqa: F401  (timed: imports belong to set-up)
    import mvops.cli  # noqa: F401
    import_wall = perf_counter() - start
    import calibrate
    import workloads
    cal = calibrate.Calibrator()
    import_s = cal.to_reference(import_wall, cal.sample())

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    def setup_once() -> tuple[float, float]:
        """Wall and reference seconds of one cold set-up."""
        before = cal.sample()
        workloads.clear_basis_cache()
        t = perf_counter()
        wl.setup()
        wall = perf_counter() - t
        return wall, cal.to_reference(wall, (before + cal.sample()) / 2.0)

    try:
        setups = [setup_once() for _ in range(SETUP_REPS)]
        setup_s = import_s + stats.median([ref for _, ref in setups])
        wl.build_references()
        if args.trace:
            results, layers = traced_run(wl, args.seconds, args.seed, setup_once, cal)
            report_layers(wl, layers)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        else:
            start = perf_counter()
            results, rounds = run_rounds(wl, args.seconds, cal)
            wall_s = perf_counter() - start
            values = end_to_end(results, setup_s, wl.tail_percentile)
            setup = {"import_wall": import_wall, "wall": [w for w, _ in setups]}
            report_end_to_end(wl, results, values, setup, cal.samples, rounds, wall_s)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    crashed = sum(1 for r in results if r.outcome is None)
    print(json.dumps({"correct": crashed == 0, "attempted": len(results),
                      "failed": crashed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
