"""Child process for ``batch-fanout``: the parallel batch scheduler.

Runs about 200 small cells through :class:`repro.harness.scheduler.
BatchScheduler` (the class behind ``run_scheduled_batch``) at jobs=2,
with a per-iteration checkpoint directory that is fresh for every pass.
Set-up is from interpreter start until the scheduler is built and ready
to dispatch.  A cell's latency is one call of the supervisor's public
``run`` -- fork, engine, result -- timed from this file.  The last line
of standard output is one JSON object for ``run.py``.

    python3 perfbench/batch_load.py --seed N --seconds S --scratch DIR
        [--setup-only] [--trace-out PATH]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from common import (  # noqa: E402
    Calibrator,
    dir_bytes,
    own_cpu_s,
    peak_rss_kb,
    speed_now,
)

JOBS = 2

#: Host-speed samples taken on each side of a pass.
SPEED_SAMPLES = 3


def make_scheduler(circuits, scratch, tag, journal=None, recorder=None):
    """A ready-to-dispatch scheduler, its cell spans and speed samples.

    A worker on its way to its next cell samples the host's speed (at
    most every ``Calibrator.INTERVAL_S``, one worker at a time) while the
    other worker's cell runs on the other core.  So the samples cover the
    pass, and the sample itself is outside every cell's latency.
    """
    from repro.harness.scheduler import BatchScheduler
    from repro.harness.supervisor import Supervisor

    supervisor = Supervisor()
    spans = {}
    calibrator = Calibrator()
    sampling = threading.Lock()
    run = supervisor.run
    if recorder is not None:
        run = recorder.wrap("harness.attempt", run)

    def timed_run(spec, **kwargs):
        if sampling.acquire(blocking=False):
            try:
                calibrator.sample()
            finally:
                sampling.release()
        if recorder is not None:
            recorder.cell = spec.checkpoint_dir
        start = time.perf_counter()
        try:
            return run(spec, **kwargs)
        finally:
            spans[spec.checkpoint_dir] = (start, time.perf_counter())

    supervisor.run = timed_run
    checkpoints = os.path.join(scratch, "ckpt-%s" % tag)
    shutil.rmtree(checkpoints, ignore_errors=True)
    scheduler = BatchScheduler(
        circuits,
        engine="bfv",
        order="S1",
        jobs=JOBS,
        max_live_nodes=workloads.MAX_LIVE_NODES,
        checkpoint_dir=checkpoints,
        fallback=False,
        count_states=True,
        journal=journal,
        supervisor=supervisor,
    )
    return scheduler, spans, checkpoints, calibrator


def run_pass(scheduler, spans, checkpoints, calibrator):
    """Run the batch once; returns the pass record."""
    from repro.harness.scheduler import job_key

    for _ in range(SPEED_SAMPLES):
        calibrator.sample(force=True)
    cpu0 = own_cpu_s()
    sampled0 = calibrator.sampled_s()
    wall0 = time.perf_counter()
    report = scheduler.run()
    wall1 = time.perf_counter()
    # The in-pass samples are the benchmark's work, not the program's.
    cpu_s = own_cpu_s() - cpu0 - (calibrator.sampled_s() - sampled0)
    for _ in range(SPEED_SAMPLES):
        calibrator.sample(force=True)
    factor = calibrator.factor(wall0, wall1)
    wall_s = wall1 - wall0
    ops = []
    for job in report.jobs:
        result = job.outcome
        spec_dir = os.path.join(checkpoints, job_key(job.index, job.circuit))
        start, end = spans.get(spec_dir, (0.0, 0.0))
        wall_ms = (end - start) * 1000.0
        cache = {} if result is None else result.extra.get("cache", {})
        ops.append(
            {
                "key": "%d/%s" % (job.index, job.circuit),
                "circuit": job.circuit,
                "engine": "bfv",
                "completed": bool(result and result.completed),
                "failure": None if result is None else result.failure,
                "iterations": None if result is None else result.iterations,
                "num_states": None if result is None else result.num_states,
                "peak_live_nodes": (
                    0 if result is None else result.peak_live_nodes
                ),
                "reached_nodes": 0 if result is None else result.reached_size,
                "wall_ms": wall_ms,
                "ref_wall_ms": (
                    wall_ms * calibrator.factor(start, end) if end else 0.0
                ),
                "engine_s": 0.0 if result is None else result.seconds,
                "cache_hits": cache.get("total", {}).get("hits", 0),
                "cache_misses": cache.get("total", {}).get("misses", 0),
            }
        )
    record = {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "ref_cpu_s": cpu_s * factor,
        "ref_wall_s": wall_s * factor,
        "ops": ops,
        "checkpoint_bytes": dir_bytes(checkpoints),
    }
    shutil.rmtree(checkpoints, ignore_errors=True)
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    os.makedirs(args.scratch, exist_ok=True)

    circuits = workloads.ordered_ops("batch-fanout", args.seed)
    made = make_scheduler(circuits, args.scratch, 0)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "ref_setup_s": setup_s * speed_now()}
    if args.setup_only:
        print(json.dumps(out))
        return

    passes = []
    started = time.perf_counter()
    salt = 0
    while True:
        passes.append(run_pass(*made))
        if args.trace_out is not None or not workloads.another_pass(
            started, passes[-1]["wall_s"], args.seconds
        ):
            break
        salt += 1
        circuits = workloads.ordered_ops("batch-fanout", args.seed, salt)
        made = make_scheduler(circuits, args.scratch, salt)
    out["passes"] = passes

    if args.trace_out is not None:
        from layers import SpanRecorder

        recorder = SpanRecorder()
        journal = os.path.join(args.scratch, "journal.jsonl")
        made = make_scheduler(
            circuits, args.scratch, "traced", journal, recorder
        )
        traced = run_pass(*made)
        with open(journal) as handle:
            events = [json.loads(line).get("event") for line in handle]
        traced["attempts"] = events.count("attempt")
        traced["retries"] = events.count("retry")
        traced["spans"] = {
            name: list(value) for name, value in recorder.totals().items()
        }
        traced["span_count"] = len(recorder.spans)
        recorder.write(args.trace_out)
        out["traced"] = traced

    out["maxrss_kb"] = peak_rss_kb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
