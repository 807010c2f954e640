#!/usr/bin/env python3
"""Layered benchmark of the reachability stack: one command, five workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh child
interpreters (``compute.py``, ``serve_load.py``, ``batch_load.py``) and
repeats its fixed op set, in the order the seed picks, for about
``--seconds``.  Every op's verdict is checked against ``oracle.json``
(explicit-state search, never the engines under test), every count must
repeat exactly across the passes of the run, and no process of the run
may outlive it.

The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is repeated under the
layer wrappers of ``layers.py`` and the metrics are the per-layer ones.
See ``NOTES.md`` for why each workload and metric was chosen.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Every child must be done by then, so the run ends inside 180 s.
DEADLINE_S = 170.0

#: Environment variable that marks every process a run starts; a process
#: still carrying the mark after the run is a leak.
MARK = "PERFBENCH_RUN"

COUNTS = ("completed", "failure", "iterations", "num_states",
          "peak_live_nodes", "reached_nodes")


class BenchError(Exception):
    """The run could not produce a result."""


def child_env(mark):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One hash seed for every run, so dict and set layouts repeat.
    env["PYTHONHASHSEED"] = "0"
    env[MARK] = mark
    return env


def run_child(argv, env, started):
    """Run one child interpreter; returns its final JSON line."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before %s" % argv[0])
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s ran past the deadline" % argv[0])
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (argv[0], proc.returncode))
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % argv[0])
    return json.loads(lines[-1])


def survivors(mark):
    """Live pids whose environment carries this run's mark."""
    needle = ("%s=%s" % (MARK, mark)).encode() + b"\0"
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/environ" % entry, "rb") as handle:
                if needle in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def assert_no_survivors(mark):
    deadline = time.monotonic() + 10
    while survivors(mark):
        if time.monotonic() > deadline:
            raise BenchError("leaked processes: %r" % survivors(mark))
        time.sleep(0.05)


def stop_survivors(mark):
    """Kill every process of a failed run and wait until all are gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        pids = survivors(mark)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def collect(args, scratch, mark):
    """Run the workload's children; returns the merged child output."""
    env = child_env(mark)
    started = time.monotonic()
    base = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace = []
    if args.trace:
        trace = ["--trace-out", os.path.join(
            ROOT, ".perfbench", "spans-%s.jsonl.gz" % args.workload)]
    workload = args.workload
    if workload in workloads.COMPUTE:
        script = ["perfbench/compute.py", workload]
    elif workload == "batch-fanout":
        script = ["perfbench/batch_load.py", "--scratch", scratch]
    else:
        script = ["perfbench/serve_load.py", workload, "--scratch", scratch]
        out = run_child(script + base + trace, env, started)
        assert_no_survivors(mark)
        return out
    # The traced run reports no set-up time, so it takes no samples.
    setups = [
        run_child(script + base + ["--setup-only"], env, started)
        for _ in range(0 if args.trace else workloads.setup_samples(
            workload) - 1)
    ]
    out = run_child(script + base + trace, env, started)
    assert_no_survivors(mark)
    out["setup_samples"] = [
        (setup["setup_s"], setup["ref_setup_s"]) for setup in setups + [out]
    ]
    return out


def load_oracle():
    with open(os.path.join(HERE, "oracle.json")) as handle:
        return json.load(handle)


def verdict_ok(op, oracle):
    """True iff the op finished and agrees with the explicit oracle."""
    expected = oracle[op["circuit"]]
    if not op["completed"]:
        return False
    if op.get("count_states", True) and op["num_states"] != expected["states"]:
        return False
    if op["engine"] in workloads.LEVEL_ENGINES:
        return op["iterations"] == expected["depth"] + 1
    return 1 <= op["iterations"] <= expected["depth"]


def check(out, oracle):
    """(attempted, failed, counts-repeat) over every op the run made."""
    groups = list(out.get("fills", [])) + list(out["passes"])
    if "traced" in out:
        groups.append(out["traced"])
    attempted = failed = 0
    seen = {}
    repeat = True
    for group in groups:
        for op in group["ops"]:
            attempted += 1
            if not verdict_ok(op, oracle):
                failed += 1
                print("MISMATCH %s: %s" % (op["key"], json.dumps(
                    {k: op.get(k) for k in COUNTS})), file=sys.stderr)
            counts = tuple(op.get(k) for k in COUNTS)
            if seen.setdefault(op["key"], counts) != counts:
                repeat = False
                print("COUNT DRIFT %s" % op["key"], file=sys.stderr)
    return attempted, failed, repeat


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(values, q):
    """Percentile ``q`` (in tenths) of ``values``, interpolated.

    The inclusive method stays inside the samples, which matters for the
    five-cell ``bfv-control``; on hundreds of samples both methods agree.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def median_per_op(passes, field):
    """Each op's median ``field`` over the run's passes."""
    values = {}
    for record in passes:
        for op in record["ops"]:
            values.setdefault(op["key"], []).append(op[field])
    return [statistics.median(v) for v in values.values()]


def times(passes, ref):
    """(cpu_s, ops_per_s, p50_ms, p90_ms) of a run, raw or at ref speed.

    Each op keeps its median time over the run's passes, and the latency
    percentiles are taken over those per-op medians.  Where one op's CPU
    is observable (the in-process compute workloads) CPU and throughput
    are sums over per-op medians too.  For serve and batch they come from
    the faster half of the passes: the server's CPU is read in 10 ms
    ticks and two batch workers overlap.
    """
    prefix = "ref_" if ref else ""
    latencies = median_per_op(passes, prefix + "wall_ms")
    if "cpu_s" in passes[0]["ops"][0]:
        cpu_s = sum(median_per_op(passes, prefix + "cpu_s"))
        ops_per_s = len(latencies) * 1000.0 / sum(latencies)
    else:
        faster = sorted(passes, key=lambda p: p[prefix + "wall_s"])
        faster = faster[: (len(faster) + 1) // 2]
        cpu_s = statistics.mean(p[prefix + "cpu_s"] for p in faster)
        ops_per_s = sum(len(p["ops"]) for p in faster) / sum(
            p[prefix + "wall_s"] for p in faster)
    return (cpu_s, ops_per_s, statistics.median(latencies),
            quantile(latencies, 9))


def end_to_end(out):
    """End-to-end metrics; times are read at the host's reference speed.

    The host's speed drifts by up to 2x between runs (see NOTES.md), so
    the gated times are scaled by samples of a fixed loop taken around
    each op (``common.Calibrator``), and each set-up sample by samples
    taken as it ends.  The raw times are printed on the line before the
    result.  Counts come from the first pass: ``check``
    has asserted that every pass repeats them.
    """
    passes = out["passes"]
    raw = times(passes, ref=False)
    cpu_s, ops_per_s, p50_ms, p90_ms = times(passes, ref=True)
    first = {op["key"]: op for op in passes[0]["ops"]}.values()
    print("samples: setup %d, passes %d, ops per pass %d, distinct ops %d"
          % (len(out["setup_samples"]), len(passes), len(passes[0]["ops"]),
             len(first)))
    raw_setup, ref_setup = zip(*out["setup_samples"])
    print("raw: setup_s %.4f, cpu_s %.4f, ops_per_s %.4f, p50_ms %.4f, "
          "p90_ms %.4f" % ((statistics.median(raw_setup),) + raw))
    return {
        "setup_s": metric(statistics.median(ref_setup), "s"),
        "ref_cpu_s": metric(cpu_s, "s"),
        "ref_ops_per_s": metric(ops_per_s, "1/s"),
        "ref_p50_ms": metric(p50_ms, "ms"),
        "ref_p90_ms": metric(p90_ms, "ms"),
        "peak_rss_mb": metric(out["maxrss_kb"] / 1024.0, "MB"),
        "peak_live_nodes": metric(
            sum(op["peak_live_nodes"] for op in first), "count"),
        "reached_nodes": metric(
            sum(op["reached_nodes"] for op in first), "count"),
    }


#: reach.* metric -> engine tracer phase.
PHASES = ("image", "reparam", "union", "fixpoint_test", "gc", "saturate")


def per_layer(out):
    """Per-layer metrics from the traced pass (zero where unexercised)."""
    traced = out["traced"]
    ops = traced["ops"]
    spans = traced.get("spans", {})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    hits = sum(op.get("cache_hits", 0) for op in ops)
    misses = sum(op.get("cache_misses", 0) for op in ops)
    phase = {name: 0.0 for name in PHASES}
    for op in ops:
        for name, seconds in ((op.get("obs") or {}).get(
                "phase_self_seconds") or {}).items():
            if name in phase:
                phase[name] += seconds
    fires = skips = 0
    for op in ops:
        saturation = op.get("saturation") or {}
        fires += sum(saturation.get("fires", ()))
        skips += sum(saturation.get("skips", ()))
    fresh = [op for op in ops if not op.get("cached")]
    if "cpu_s" in ops[0]:
        untraced_cpu = sum(median_per_op(out["passes"], "cpu_s"))
        traced_cpu = sum(op["cpu_s"] for op in ops)
    else:
        untraced_cpu = statistics.mean(p["cpu_s"] for p in out["passes"])
        traced_cpu = traced["cpu_s"]
    m = {
        "bdd.kernel_ops": metric(sum(op.get("kernel_ops", 0) for op in ops),
                                 "count"),
        "bdd.cache_misses": metric(misses, "count"),
        "bdd.cache_probes": metric(hits + misses, "count"),
        "bdd.cache_hit_rate": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "bdd.not_calls": metric(calls("bdd.not"), "count"),
        "bdd.gc_count": metric(sum(op.get("gc_count", 0) for op in ops),
                               "count"),
        "bdd.peak_nodes": metric(sum(op.get("peak_nodes", 0) for op in ops),
                                 "count"),
        "bfv.eliminate_params_calls": metric(
            calls("bfv.eliminate_params"), "count"),
        "bfv.raw_union_calls": metric(calls("bfv.raw_union"), "count"),
        "reach.iterations": metric(
            sum(op["iterations"] or 0 for op in fresh), "count"),
        "reach.sat_steps": metric(fires + skips, "count"),
        "reach.sat_skip_ratio": metric(
            skips / (fires + skips) if fires + skips else 0.0, "ratio"),
        "obs.untraced_cpu_s": metric(untraced_cpu, "s"),
        "obs.traced_cpu_s": metric(traced_cpu, "s"),
        "obs.trace_overhead": metric(traced_cpu / untraced_cpu, "ratio"),
        "obs.spans": metric(traced.get("span_count", 0), "count"),
    }
    for name in ("bdd.not", "bdd.and", "bdd.or", "bdd.cofactors",
                 "bdd.rename", "bdd.and_exists", "bdd.exists", "bdd.gc",
                 "sim.next_state", "bfv.eliminate_params", "bfv.raw_union",
                 "bfv.union", "circuits.build", "order.order",
                 "reach.space"):
        m[name + "_s"] = metric(self_s(name), "s")
    for name in PHASES:
        m["reach.%s_s" % name] = metric(phase[name], "s")

    # Dispatch layers: serve and batch only.
    latency_s = sum(op["wall_ms"] for op in fresh) / 1000.0
    engine_s = sum(op["engine_s"] for op in fresh)
    dispatch = sorted(op["wall_ms"] / 1000.0 - op["engine_s"] for op in fresh)
    dispatching = "attempts" in traced and bool(dispatch)
    m["harness.dispatch_s"] = metric(
        dispatch[len(dispatch) // 2] if dispatching else 0.0, "s")
    m["harness.engine_share"] = metric(
        engine_s / latency_s if dispatching else 0.0, "ratio")
    m["harness.attempts"] = metric(traced.get("attempts", 0), "count")
    m["harness.retries"] = metric(traced.get("retries", 0), "count")
    m["harness.checkpoint_bytes"] = metric(
        traced.get("checkpoint_bytes", 0), "B")
    # A serve worker is busy for the engine's time; a batch worker thread
    # for its whole supervised attempt.
    busy_s = engine_s if "serve_requests" in traced else latency_s
    m["harness.worker_busy_ratio"] = metric(
        busy_s / (2 * traced["wall_s"]) if dispatching else 0.0, "ratio")
    lookups = traced.get("serve_requests", 0)
    m["serve.cache_lookups"] = metric(lookups, "count")
    m["serve.cache_hit_ratio"] = metric(
        traced.get("serve_cache_hits", 0) / lookups if lookups else 0.0,
        "ratio")
    m["serve.request_s.cold"] = metric(traced.get("request_s_cold", 0.0), "s")
    m["serve.request_s.cache_hit"] = metric(
        traced.get("request_s_cache_hit", 0.0), "s")
    m["serve.shed"] = metric(traced.get("serve_shed", 0), "count")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: no program under %s/src; run from a checkout"
                 % ROOT)
    mark = "%d-%d" % (os.getpid(), time.time_ns())
    scratch = os.path.join(ROOT, ".perfbench", "run-%s" % mark)
    os.makedirs(scratch)

    def terminated(signum, frame):
        raise BenchError("terminated by signal %d" % signum)

    # A run stopped from outside still stops what it started.
    signal.signal(signal.SIGTERM, terminated)
    try:
        out = collect(args, scratch, mark)
    except BenchError as error:
        stop_survivors(mark)
        sys.exit("perfbench: %s" % error)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, repeat = check(out, load_oracle())
    metrics = per_layer(out) if args.trace else end_to_end(out)
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
