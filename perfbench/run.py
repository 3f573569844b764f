#!/usr/bin/env python3
"""End-to-end benchmark of the paper's workloads.

Builds the benchmark driver from the repository's sources, runs one workload,
checks its outputs against the stored oracle and prints the metrics; the
last line of stdout is one JSON object.

  python3 perfbench/run.py --workload fig7_coverage_t1 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 10]
  python3 perfbench/run.py --capture-oracle

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from one extra traced iteration. --all runs every workload both ways and
exits non-zero on any oracle mismatch. See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402
import layers  # noqa: E402

# Workloads, metric names and units: BENCHMARK.json beside perfbench/.
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

# One run (set-up launches plus the measured process) ends within this.
RUN_TIMEOUT_S = 170
# Driver launches per untraced run that only set the workload up; setup_s is
# the median of their set-up times from process start, at the reference speed.
SETUP_LAUNCHES = 25

NET_KINDS = ("transfer", "calibrate", "coverage", "rmin", "sta")
# Per-layer units that are times, reported at the reference host speed.
TIME_UNITS = ("s", "us")

# Counts that must repeat exactly from iteration to iteration (and run to
# run) on the single-threaded workload: the deterministic-simulator rule.
DETERMINISTIC_COUNTERS = (
    "spice.transient.runs",
    "spice.transient.steps",
    "spice.transient.rejected_steps",
    "spice.newton.solves",
    "cache.solve.hit",
    "cache.solve.miss",
)


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# Build and run the driver


def build_dir(root):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def build(root):
    """Configure (once) and build ppd_perfbench; returns the binary path."""
    out = build_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "ppd_perfbench"])
    with open(log, "w", encoding="utf-8") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text(encoding="utf-8").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "ppd_perfbench"


def run_driver(exe, root, args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {exe.name} {' '.join(args)}")
    proc = subprocess.run([str(exe)] + args, cwd=root, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{exe.name} {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def setup_seconds(exe, root, workload, seed, deadline):
    """Process start to the end of set-up (netlist and factory build; for
    served_mix server start, connect and upload), timed from outside, at the
    reference speed of the reference kernel the driver runs right after.
    The driver prints the CLOCK_MONOTONIC instant its set-up ended, the
    clock time.monotonic_ns() reads."""
    start_ns = time.monotonic_ns()
    records = run_driver(exe, root, [f"--workload={workload}", f"--seed={seed}",
                                     "--setup-only"], deadline)
    seconds = (records_of(records, "setup")[0]["ready_ns"] - start_ns) * 1e-9
    if not 0.0 < seconds < RUN_TIMEOUT_S:
        raise BenchError(f"set-up time {seconds} s: the driver's clock is not "
                         f"CLOCK_MONOTONIC")
    reference = records_of(records, "reference")[0]["seconds"]
    return seconds * benchmath.reference_factor(reference, reference)


# --------------------------------------------------------------------------
# Output oracle


def load_oracle(workload):
    with open(HERE / "oracle" / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


def counter_signature(it):
    return tuple(it["counters"].get(c, 0) for c in DETERMINISTIC_COUNTERS)


def check_outputs(workload, records, oracle):
    """Every mismatch against the oracle, as human-readable lines."""
    problems = []
    setup = records_of(records, "setup")[0]
    iterations = records_of(records, "iteration")
    if workload == "served_mix":
        digests = oracle["digests"]
        for it in iterations:
            bodies = it["outputs"]["bodies"]
            missing = sorted(set(digests) - set(bodies))
            if missing:
                problems.append(f"iteration {it['index']}: {len(missing)} of "
                                f"{len(digests)} queries never answered, "
                                f"first '{missing[0]}'")
            for spec, digest in bodies.items():
                if digests.get(spec) != digest:
                    problems.append(f"iteration {it['index']}: body of '{spec}' "
                                    f"is {digest}, oracle {digests.get(spec)}")
            if it["failed"]:
                problems.append(f"iteration {it['index']}: {it['failed']} of "
                                f"{it['attempted']} queries failed, were "
                                f"refused BUSY or were never sent")
            if it["detail"].get("client_errors"):
                problems.append(f"iteration {it['index']}: client errors "
                                f"{it['detail']['client_errors']}")
        checks = records_of(records, "finish")[0]["checks"]
        if checks["direct_checked"] == 0 or checks["direct_mismatched"]:
            problems.append(f"served vs direct run_query: {checks}")
        return problems
    expected = oracle["variants"][str(setup["variant"])]["outputs"]
    for it in iterations:
        if it["outputs"] != expected:
            problems.append(f"iteration {it['index']}: outputs differ from "
                            f"the oracle (variant {setup['variant']})")
    if workload == "fig7_coverage_t1":
        signatures = {counter_signature(it) for it in iterations}
        if len(signatures) != 1:
            problems.append(f"simulated counts differ between iterations: "
                            f"{sorted(signatures)}")
    return problems


def counts_match_oracle(records, oracle):
    setup = records_of(records, "setup")[0]
    ref = oracle["variants"][str(setup["variant"])]["counters"]
    it = records_of(records, "iteration")[0]
    return all(it["counters"].get(c, 0) == ref.get(c, 0)
               for c in DETERMINISTIC_COUNTERS)


# --------------------------------------------------------------------------
# Metrics


def records_of(records, kind):
    return [r for r in records if r.get("type") == kind]


def attach_reference_factors(records):
    """Give every iteration its "ref_factor" from the reference-kernel
    records the driver prints just before and just after it."""
    for i, r in enumerate(records):
        if r.get("type") != "iteration":
            continue
        before = records[i - 1] if i > 0 else {}
        after = records[i + 1] if i + 1 < len(records) else {}
        if before.get("type") != "reference" or after.get("type") != "reference":
            raise BenchError(f"iteration {r['index']} is not between two "
                             f"reference-kernel records")
        r["ref_factor"] = benchmath.reference_factor(before["seconds"],
                                                     after["seconds"])


def untraced(records):
    """The timed iterations: neither the warm-up nor the traced one."""
    return [r for r in records_of(records, "iteration")
            if not r["traced"] and not r["warmup"]]


def at_reference(it, key):
    return it[key] * it["ref_factor"]


def end_to_end(workload, records, setups):
    iters = untraced(records)
    wall_s = statistics.median(at_reference(it, "wall_s") for it in iters)
    m = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": wall_s,
        "cpu_ref_s": statistics.median(at_reference(it, "cpu_s") for it in iters),
        "peak_rss_mb": records_of(records, "summary")[0]["peak_rss_mb"],
    }
    if workload != "served_mix":
        # No served queries. Every end-to-end metric is reported on every
        # workload, so here the query metrics restate wall_ref_s (one
        # request is one iteration) and carry nothing of their own.
        m.update(query_p50_ref_ms=wall_s * 1e3, query_p90_ref_ms=wall_s * 1e3,
                 throughput_ref_qps=1.0 / wall_s)
        return m, "no served queries: query_p50_ref_ms, query_p90_ref_ms " \
                  "and throughput_ref_qps restate wall_ref_s"
    latencies_ms = [x * 1e3 * it["ref_factor"] for it in iters
                    for x in it["request_s"]]
    q = benchmath.tail_quantile(len(latencies_ms), 0.90)
    m.update(query_p50_ref_ms=benchmath.percentile(latencies_ms, 0.5),
             query_p90_ref_ms=benchmath.percentile(latencies_ms, q),
             throughput_ref_qps=statistics.median(
                 len(it["request_s"]) / at_reference(it, "wall_s") for it in iters))
    return m, (f"requests={len(latencies_ms)} query_p90_ref_ms reports "
               f"quantile {q:.4f}")


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def net_metrics(iterations):
    """Medians of the per-result timing fields of every answered query, each
    at the reference speed of its iteration."""
    rows = [[q[0], *(x * it["ref_factor"] for x in q[1:5]), q[5]]
            for it in iterations for q in it["detail"].get("queries", [])]
    done = [q for q in rows if not q[5]]
    out = {
        "net.queue_s": median_or_zero(q[2] for q in done),
        "net.execute_s": median_or_zero(q[3] for q in done),
        "net.serialize_s": median_or_zero(q[4] for q in done),
        "net.wire_s": median_or_zero(q[1] - q[2] - q[3] - q[4] for q in done),
        "net.busy": sum(q[5] for q in rows),
    }
    for kind in NET_KINDS:
        out[f"net.execute_s.{kind}"] = median_or_zero(
            q[3] for q in done if q[0] == kind)
    return out


def cache_counts(it):
    c = it["counters"]
    return (c.get("cache.solve.hit", 0), c.get("cache.solve.miss", 0),
            c.get("cache.solve.evictions", 0))


def per_layer(workload, records, trace_path):
    traced = [r for r in records_of(records, "iteration") if r["traced"]][-1]
    spans = layers.load_trace(trace_path)
    # One lane: wall-clock self times add up to the wall. Several lanes:
    # thread-CPU self times, summed across lanes, add up to the process CPU.
    # The benchmark's spans around public calls are always wall time: what
    # the caller waits for.
    basis = "wall" if workload == "fig7_coverage_t1" else "cpu"
    c = traced["counters"]
    h = traced["histograms"]
    steps = c.get("spice.transient.steps", 0)
    transient_self = layers.total_self(spans, "spice.run_transient", basis)
    op_solves = c.get("spice.op.solves", 0)
    hits, misses, evictions = cache_counts(traced)
    outputs = traced["outputs"]
    self_by_layer = layers.layer_self(spans, basis)
    base = traced["wall_s"] if basis == "wall" else traced["cpu_s"]

    m = {
        "spice.op_s": layers.total(spans, "spice.run_op", basis),
        "spice.transient_self_s": transient_self,
        "spice.transient.runs": c.get("spice.transient.runs", 0),
        "spice.transient.steps": steps,
        "spice.transient.rejected_steps": c.get("spice.transient.rejected_steps", 0),
        "spice.newton.iterations": round(
            h.get("spice.newton.iterations", {}).get("sum", 0.0)),
        "spice.us_per_step": transient_self / steps * 1e6 if steps else 0.0,
        "spice.op.fallbacks": c.get("spice.op.gmin_fallbacks", 0)
        + c.get("spice.op.source_fallbacks", 0),
        "spice.warm_start_ratio":
            c.get("spice.newton.warm_start.hit", 0) / op_solves if op_solves else 0.0,
        "core.calibrate_s": layers.total(spans, "core.calibrate", "wall"),
        "core.coverage_s": layers.total(spans, "core.coverage", "wall"),
        "core.rmin_s": layers.total(spans, "core.rmin", "wall"),
        "core.self_s": self_by_layer["core"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": evictions,
        "cache.bytes": traced["cache"]["bytes"],
        **layers.exec_metrics(spans, layers.main_tid(spans), traced["wall_s"]),
        "sta.select_s": layers.total(spans, "sta.select", "wall"),
        "sta.kept_ratio": outputs["kept"] / outputs["candidates"]
        if outputs.get("candidates") else 0.0,
        "unattributed_s": base - sum(self_by_layer.values()),
    }
    # The traced iteration's span times, at the reference speed like every
    # reported time; the net medians scale per iteration.
    for name in m:
        if PER_LAYER[name] in TIME_UNITS:
            m[name] *= traced["ref_factor"]
    iters = untraced(records)
    m.update(net_metrics(records_of(records, "iteration")))
    m["obs.trace_overhead"] = at_reference(traced, "wall_s") / statistics.median(
        at_reference(it, "wall_s") for it in iters) - 1.0
    m["host.wall_s"] = statistics.median(it["wall_s"] for it in iters)
    m["host.reference_s"] = statistics.median(
        r["seconds"] for r in records_of(records, "reference"))
    return m, f"span time basis: {basis}"


# --------------------------------------------------------------------------
# Entry points


def measure(exe, root, workload, seed, seconds, trace):
    """Run one workload; returns (result dict, info lines)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    seed %= 2**64
    setups = [] if trace else [setup_seconds(exe, root, workload, seed, deadline)
                               for _ in range(SETUP_LAUNCHES)]
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    trace_path = None
    if trace:
        trace_path = build_dir(root) / f"trace-{workload}.json"
        args.append(f"--trace={trace_path}")
    records = run_driver(exe, root, args, deadline)
    attach_reference_factors(records)
    oracle = load_oracle(workload)
    problems = check_outputs(workload, records, oracle)
    iterations = (records_of(records, "iteration") if trace else untraced(records))
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    setup = records_of(records, "setup")[0]
    checks = records_of(records, "finish")[0]["checks"]
    hits, misses, evictions = (sum(x) for x in zip(*map(cache_counts, iterations)))

    info = [f"workload={workload} seed={seed} variant={setup['variant']} "
            f"iterations={len(untraced(records))} in-process set-up "
            f"{setup['seconds']:.6f} s",
            f"failed_ratio={failed / attempted if attempted else 0.0} "
            f"({failed} of {attempted} operations)",
            f"cache hit_ratio={hits / (hits + misses) if hits + misses else 0.0:.4f} "
            f"({hits} hits, {misses} misses, {evictions} evictions)"]
    references = [r["seconds"] for r in records_of(records, "reference")]
    info.append(f"host time: wall_s median "
                f"{statistics.median(it['wall_s'] for it in untraced(records)):.6f} s; "
                f"reference kernel on {records_of(records, 'reference')[0]['threads']} "
                f"thread(s) {min(references):.6f} .. {max(references):.6f} s, "
                f"reported times are at {benchmath.REFERENCE_S} s")
    if setups:
        info.append(f"setup_s is the median of {len(setups)} launches at the "
                    f"reference speed, "
                    f"{min(setups):.6f} .. {max(setups):.6f} s")
    if workload == "served_mix":
        info.append(f"sequence_hash={checks['sequence_hash']} "
                    f"queries={checks['queries']} fresh={checks['fresh']} "
                    f"clients={checks['clients']} direct_checked="
                    f"{checks['direct_checked']} direct_mismatched="
                    f"{checks['direct_mismatched']}")
    if workload == "fig7_coverage_t1":
        it0 = records_of(records, "iteration")[0]
        info.append("simulated counts " + " ".join(
            f"{c}={it0['counters'].get(c, 0)}" for c in DETERMINISTIC_COUNTERS)
            + f" newton_iterations="
            f"{round(it0['histograms'].get('spice.newton.iterations', {}).get('sum', 0))}"
            + f" match_oracle={counts_match_oracle(records, oracle)}")

    if trace:
        values, note = per_layer(workload, records, trace_path)
        units = PER_LAYER
    else:
        values, note = end_to_end(workload, records, setups)
        units = END_TO_END
    info.append(note)
    info.extend(f"problem: {p}" for p in problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info


def capture_oracle(exe, root):
    for workload in WORKLOADS:
        records = run_driver_capture(exe, root, workload)
        if workload == "served_mix":
            data = {"workload": workload,
                    "digests": {r["spec"]: r["digest"] for r in records}}
        else:
            data = {"workload": workload, "variants": {
                str(r["variant"]): {
                    "outputs": r["iteration"]["outputs"],
                    "counters": {c: r["iteration"]["counters"].get(c, 0)
                                 for c in DETERMINISTIC_COUNTERS}}
                for r in records}}
        path = HERE / "oracle" / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {path.relative_to(root)}")


def run_driver_capture(exe, root, workload):
    proc = subprocess.run([str(exe), f"--workload={workload}", "--capture"],
                          cwd=root, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise BenchError(f"capture of {workload} failed:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--capture-oracle", action="store_true",
                        help="rewrite perfbench/oracle/*.json from this build")
    args = parser.parse_args()
    if not (args.workload or args.all or args.capture_oracle):
        parser.error("give --workload, --all or --capture-oracle")

    root = Path.cwd()
    try:
        exe = build(root)
        if args.capture_oracle:
            capture_oracle(exe, root)
            return 0
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result, info = measure(exe, root, workload, args.seed,
                                           args.seconds, trace)
                    ok = ok and result["correct"]
                    for line in info:
                        print(f"# {line}")
                    for name, m in result["metrics"].items():
                        print(f"{workload:18} {name:32} {m['value']:>16.6g} {m['unit']}")
                    print(f"{workload:18} {'correct':32} {str(result['correct']):>16}")
            return 0 if ok else 1
        result, info = measure(exe, root, args.workload, args.seed,
                               args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for line in info:
        print(f"# {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
