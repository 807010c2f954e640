"""Child process for the in-process compute workloads.

``bfv-control`` and ``chi-sweep`` run their engines in this one fresh
interpreter.  Set-up is importing the program plus building every
circuit, order and :class:`ReachSpace` the workload needs; the timed
phase runs the cells in seeded order, pass after pass, while another
pass is expected to end within the requested seconds.  The last line of
standard output is one JSON object for ``run.py``.

    python3 perfbench/compute.py WORKLOAD --seed N --seconds S
        [--setup-only] [--trace-out PATH]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from common import Calibrator, pin_to_one_cpu, speed_now  # noqa: E402


def build(cells, recorder=None):
    """Circuit, order and space for every cell (the set-up work)."""
    from repro.circuits import catalog
    from repro.order import order_for
    from repro.reach import ReachSpace

    def timed(name, func, *args):
        if recorder is None:
            return func(*args)
        return recorder.span(name, func, *args)

    built = []
    for circuit_name, engine, order in cells:
        circuit = timed("circuits.build", catalog.resolve, circuit_name)
        slots = timed("order.order", order_for, circuit, order)
        space = timed("reach.space", ReachSpace, circuit, slots)
        built.append((circuit, slots, space))
    return built


def run_pass(cells, built, tracer_factory=None, recorder=None):
    """Run every cell once; returns the pass record."""
    from repro.reach import ReachLimits

    limits = ReachLimits(
        max_live_nodes=workloads.MAX_LIVE_NODES,
        max_iterations=workloads.MAX_ITERATIONS,
    )
    calibrator = Calibrator()
    calibrator.sample(force=True)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    # Cells run for up to 10 s, and the host's speed switches within
    # that, so a timer samples it while they run.  Not in the traced
    # pass: its spans would hold the samples.
    timer = calibrator.interrupting()
    if recorder is not None:
        timer = contextlib.nullcontext()
    with timer:
        records = [
            run_cell(cell, built_cell, limits, tracer_factory, recorder)
            for cell, built_cell in zip(cells, built)
        ]
    cpu1 = time.process_time()
    wall1 = time.perf_counter()
    calibrator.sample(force=True)
    for record in records:
        # The samples' own time is taken out of the cell's times.
        start, end = record.pop("span")
        stolen_wall, stolen_cpu = calibrator.stolen(start, end)
        record["wall_ms"] = (end - start - stolen_wall) * 1000.0
        record["cpu_s"] -= stolen_cpu
        factor = calibrator.factor(start, end)
        record["ref_wall_ms"] = record["wall_ms"] * factor
        record["ref_cpu_s"] = record["cpu_s"] * factor
    return {
        "cpu_s": cpu1 - cpu0,
        "wall_s": wall1 - wall0,
        "ops": records,
    }


def run_cell(cell, built_cell, limits, tracer_factory, recorder):
    """Run one cell; returns its record with the raw span and CPU time."""
    from repro.reach import ENGINES

    circuit_name, engine, order = cell
    circuit, slots, space = built_cell
    key = "%s/%s/%s" % (circuit_name, engine, order)
    options = {}
    if tracer_factory is not None:
        options["tracer"] = tracer_factory()
    if recorder is not None:
        recorder.cell = key
    cpu_start = time.process_time()
    start = time.perf_counter()
    result = ENGINES[engine](
        circuit,
        slots=slots,
        limits=limits,
        order_name=order,
        count_states=True,
        space=space,
        **options,
    )
    end = time.perf_counter()
    cpu_s = time.process_time() - cpu_start
    bdd = space.bdd
    cache = result.extra.get("cache", {}).get("total", {})
    return {
        "key": key,
        "circuit": circuit_name,
        "engine": engine,
        "completed": result.completed,
        "failure": result.failure,
        "iterations": result.iterations,
        "num_states": result.num_states,
        "peak_live_nodes": result.peak_live_nodes,
        "reached_nodes": result.reached_size,
        "span": (start, end),
        "cpu_s": cpu_s,
        "engine_s": result.seconds,
        "kernel_ops": bdd.op_count,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "peak_nodes": bdd.peak_nodes,
        "gc_count": bdd.gc_count,
        "obs": result.extra.get("obs"),
        "saturation": result.extra.get("saturation"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.COMPUTE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    # Ops and the host-speed samples that scale them share one core.
    pin_to_one_cpu()

    cells = workloads.ordered_ops(args.workload, args.seed)
    built = build(cells)
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "ref_setup_s": setup_s * speed_now()}
    if args.setup_only:
        print(json.dumps(out))
        return

    passes = []
    started = time.perf_counter()
    salt = 0
    while True:
        passes.append(run_pass(cells, built))
        if args.trace_out is not None or not workloads.another_pass(
            started, passes[-1]["wall_s"], args.seconds
        ):
            break
        salt += 1
        cells = workloads.ordered_ops(args.workload, args.seed, salt)
        built = build(cells)
    out["passes"] = passes

    if args.trace_out is not None:
        from layers import SpanRecorder, install
        from repro.obs import Tracer

        # One traced run per distinct cell: per-layer figures count a
        # cell once, like the end-to-end ones.
        cells = list(dict.fromkeys(cells))
        recorder = SpanRecorder()
        undo = install(recorder)
        try:
            traced_built = build(cells, recorder)
            traced = run_pass(
                cells,
                traced_built,
                tracer_factory=lambda: Tracer(
                    measure_rss=False, count_live=False
                ),
                recorder=recorder,
            )
        finally:
            undo()
        traced["spans"] = {
            name: list(value) for name, value in recorder.totals().items()
        }
        traced["span_count"] = len(recorder.spans)
        recorder.write(args.trace_out)
        out["traced"] = traced

    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["maxrss_kb"] = usage.ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
