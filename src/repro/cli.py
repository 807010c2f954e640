"""Command-line interface: reachability analysis from the shell.

``python -m repro reach <circuit> [options]`` runs one of the eight
engines on a built-in circuit (surrogate suite, generator families,
s27) or on an ISCAS'89 ``.bench`` file, and prints the Table-2-style
statistics.  Long runs can be made fault-tolerant with
``--checkpoint-dir`` / ``--resume`` / ``--isolate`` / ``--fallback``
(see :mod:`repro.harness`); ``python -m repro batch`` runs a whole
circuit suite resiliently, and ``--jobs N`` spreads its cells over a
parallel worker pool (see :mod:`repro.harness.scheduler`).  ``--trace-dir`` records per-iteration
telemetry (see :mod:`repro.obs`) and ``python -m repro trace`` renders
it as size-trajectory and phase-time tables (``--follow`` tails it
live; ``python -m repro top`` shows a live per-run table from a trace
directory or a server subscription).  ``python -m repro serve``
exposes the whole stack as a fault-tolerant TCP service with a
checkpoint-resuming result cache (see :mod:`repro.serve`).
``python -m repro list`` shows the built-in circuits.
"""

from __future__ import annotations

import argparse
import os
import sys

from .circuits.catalog import builtin_circuits
from .circuits.catalog import resolve as _resolve
from .circuits.netlist import Circuit
from .order import FAMILIES, order_for
from .reach import ENGINES, ReachLimits, ReachResult, format_table2


def resolve_circuit(name: str) -> Circuit:
    """Find a circuit by built-in name or ``.bench`` file path."""
    if name in builtin_circuits() or os.path.exists(name):
        return _resolve(name)
    raise SystemExit(
        "unknown circuit %r (not a built-in name or .bench path); "
        "try `python -m repro list`" % name
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Boolean-functional-vector symbolic reachability "
            "(Goel & Bryant, DATE 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reach = sub.add_parser("reach", help="run reachability analysis")
    reach.add_argument("circuit", help="built-in name or .bench file")
    reach.add_argument(
        "--engine",
        choices=list(ENGINES) + ["all"],
        default="bfv",
        help="reachability engine (default: bfv, the paper's Figure 2)",
    )
    reach.add_argument(
        "--order",
        choices=list(FAMILIES),
        default="S1",
        help="variable-order family (default: S1)",
    )
    reach.add_argument(
        "--max-seconds", type=float, default=300.0, help="time budget"
    )
    reach.add_argument(
        "--max-nodes", type=int, default=1_000_000, help="live-node budget"
    )
    reach.add_argument(
        "--max-iterations", type=int, default=None, help="iteration budget"
    )
    reach.add_argument(
        "--no-count",
        action="store_true",
        help="skip the exact state count (avoids building chi)",
    )
    _add_harness_arguments(reach)

    batch = sub.add_parser(
        "batch",
        help="run a circuit suite resiliently (checkpoints + fallback)",
    )
    batch.add_argument(
        "circuits",
        nargs="*",
        default=["traffic", "s27"],
        help="built-in names or .bench files (default: traffic s27)",
    )
    batch.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="bfv",
        help="first-choice engine (default: bfv)",
    )
    batch.add_argument(
        "--order",
        choices=list(FAMILIES),
        default="S1",
        help="first-choice variable-order family (default: S1)",
    )
    batch.add_argument(
        "--max-seconds",
        type=float,
        default=300.0,
        help="per-circuit time budget, split across fallback attempts",
    )
    batch.add_argument(
        "--max-nodes", type=int, default=1_000_000, help="live-node budget"
    )
    batch.add_argument(
        "--no-count",
        action="store_true",
        help="skip the exact state count (avoids building chi)",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker pool size: run up to N cells (circuit x engine x "
            "order rungs) concurrently in supervised child processes "
            "(default: 1; implies --isolate when > 1)"
        ),
    )
    batch.add_argument(
        "--total-seconds",
        type=float,
        default=None,
        metavar="S",
        help=(
            "global wall budget for the whole batch on top of the "
            "per-circuit --max-seconds; on expiry, running cells are "
            "cancelled and unstarted ones skipped"
        ),
    )
    batch.add_argument(
        "--total-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "global RSS budget summed over all worker children; the "
            "largest child is cancelled until the pool fits"
        ),
    )
    batch.add_argument(
        "--report",
        metavar="FILE",
        help=(
            "write the merged deterministic batch report (JSON, input-"
            "ordered; byte-identical across --jobs levels) to FILE"
        ),
    )
    batch.add_argument(
        "--bench-baseline",
        metavar="FILE",
        default=None,
        help=(
            "BENCH_reach.json timings used to schedule longest-expected "
            "cells first (default: BENCH_reach.json at the repo root if "
            "present)"
        ),
    )
    _add_harness_arguments(batch, batch_defaults=True)

    info = sub.add_parser("info", help="print circuit statistics")
    info.add_argument("circuit", help="built-in name or .bench file")

    check = sub.add_parser(
        "check", help="check that an output can never be raised (AG !out)"
    )
    check.add_argument("circuit", help="built-in name or .bench file")
    check.add_argument("output", help="primary output net to check")
    check.add_argument(
        "--max-seconds", type=float, default=300.0, help="time budget"
    )
    check.add_argument(
        "--max-nodes", type=int, default=1_000_000, help="live-node budget"
    )
    check.add_argument(
        "--vcd", metavar="FILE", help="write the counterexample as a VCD waveform"
    )

    equiv = sub.add_parser(
        "equiv", help="check sequential equivalence of two circuits"
    )
    equiv.add_argument("left", help="built-in name or .bench file")
    equiv.add_argument("right", help="built-in name or .bench file")
    equiv.add_argument(
        "--max-seconds", type=float, default=300.0, help="time budget"
    )
    equiv.add_argument(
        "--max-nodes", type=int, default=1_000_000, help="live-node budget"
    )

    serve = sub.add_parser(
        "serve",
        help="run the reachability service (NDJSON over TCP)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=9559,
        help="TCP port; 0 picks an ephemeral port (default: 9559)",
    )
    serve.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help=(
            "content-addressed result + checkpoint cache; identical "
            "requests are answered from here, and timed-out requests "
            "resume from their checkpoints"
        ),
    )
    serve.add_argument(
        "--pool",
        type=int,
        default=2,
        metavar="N",
        help="supervised attempts run concurrently (default: 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help=(
            "requests allowed to wait beyond the pool; excess load is "
            "shed with a retry_after hint (default: 16)"
        ),
    )
    serve.add_argument(
        "--default-budget-seconds",
        type=float,
        default=60.0,
        metavar="S",
        help="engine time budget when the request names none (default: 60)",
    )
    serve.add_argument(
        "--max-budget-seconds",
        type=float,
        default=600.0,
        metavar="S",
        help="ceiling on any request's time budget (default: 600)",
    )
    serve.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-attempt RSS watchdog ceiling (default: off)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        metavar="N",
        help="iterations between cache checkpoints (default: 1)",
    )
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        help=(
            "write serve telemetry + per-attempt traces here; inspect "
            "with `python -m repro trace DIR`"
        ),
    )
    serve.add_argument(
        "--journal",
        metavar="FILE",
        help="append retry/backoff records to this JSONL journal",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "also serve a Prometheus text exposition endpoint "
            "(GET /metrics) on this port; 0 picks an ephemeral port "
            "(default: off)"
        ),
    )

    trace = sub.add_parser(
        "trace",
        help="render a run's trace JSONL as iteration/phase tables",
    )
    trace.add_argument(
        "path",
        help=(
            "trace file, or a --trace-dir directory of trace-*.jsonl files"
        ),
    )
    trace.add_argument(
        "--follow",
        action="store_true",
        help=(
            "tail the trace live, printing one line per arriving "
            "record (like tail -f)"
        ),
    )
    trace.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="--follow poll interval in seconds (default: 0.5)",
    )
    trace.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="stop --follow after this long (default: until ^C)",
    )

    top = sub.add_parser(
        "top",
        help="live per-run status table (tail a trace dir, or subscribe)",
    )
    top.add_argument(
        "target",
        help=(
            "a --trace-dir directory to tail, or HOST:PORT of a running "
            "`repro serve` instance to subscribe to"
        ),
    )
    top.add_argument(
        "--key",
        default=None,
        metavar="FINGERPRINT",
        help="server mode: fingerprint to subscribe to",
    )
    top.add_argument(
        "--circuit",
        default=None,
        help="server mode: subscribe by circuit name instead of --key",
    )
    top.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="bfv",
        help="server mode: engine of the subscribed request",
    )
    top.add_argument(
        "--order",
        choices=list(FAMILIES),
        default="S1",
        help="server mode: order family of the subscribed request",
    )
    top.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="trace-dir mode poll interval in seconds (default: 0.5)",
    )
    top.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="trace-dir mode: stop after this long (default: until ^C)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append snapshots instead of repainting the screen",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific static checks (rules R001-R004; "
        "--deep adds the interprocedural R101-R204 families)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the flow-sensitive interprocedural analyzer "
        "(handle lifetimes R101-R104, concurrency/fork safety R201-R204)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of accepted findings to subtract (deep mode); "
        "stale entries are reported so they can be deleted",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current deep findings to FILE as a baseline "
        "and exit 0",
    )

    sub.add_parser("list", help="list built-in circuits")
    return parser


def _add_harness_arguments(parser, batch_defaults: bool = False) -> None:
    """Fault-tolerance options shared by ``reach`` and ``batch``."""
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="snapshot engine state here every --checkpoint-interval iterations",
    )
    group.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        metavar="N",
        help="iterations between checkpoints (default: 1)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir",
    )
    group.add_argument(
        "--fallback",
        choices=["none", "auto"],
        default="auto" if batch_defaults else "none",
        help=(
            "on failure, retry with other order families, then other "
            "engines (default: %s)" % ("auto" if batch_defaults else "none")
        ),
    )
    if batch_defaults:
        group.add_argument(
            "--no-isolate",
            dest="isolate",
            action="store_false",
            help="run engines in-process instead of supervised children",
        )
        parser.set_defaults(isolate=True)
    else:
        group.add_argument(
            "--isolate",
            action="store_true",
            help=(
                "run each attempt in a supervised child process "
                "(crashes/hangs become tagged failures)"
            ),
        )
    group.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="kill an attempt whose RSS exceeds this (implies --isolate)",
    )
    group.add_argument(
        "--journal",
        metavar="FILE",
        help="append one JSONL record per attempt to FILE",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-dir",
        metavar="DIR",
        help=(
            "write per-iteration trace JSONL here (one file per "
            "engine/order/circuit); inspect with `python -m repro trace DIR`"
        ),
    )
    obs.add_argument(
        "--sanitize",
        nargs="?",
        const=1.0,
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "audit BDD/BFV invariants on a sampled fraction of "
            "iterations (bare flag: every iteration); violations abort "
            "with the failing invariant's name; the REPRO_SANITIZE env "
            "var supplies a default rate (see docs/analysis.md)"
        ),
    )


def _sanitize_rate(args: argparse.Namespace):
    """The run's sanitizer rate: ``--sanitize`` or ``REPRO_SANITIZE``."""
    if args.sanitize is not None:
        return args.sanitize
    raw = os.environ.get("REPRO_SANITIZE")
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(
            "unparsable REPRO_SANITIZE value %r (want a rate in (0, 1])"
            % raw
        )


def _result_line(result: ReachResult) -> str:
    """One human-readable status line for a finished attempt."""
    if result.completed:
        line = (
            "%-5s completed in %.2fs: %d iterations, "
            "peak %d live nodes"
            % (
                result.engine,
                result.seconds,
                result.iterations,
                result.peak_live_nodes,
            )
        )
        if result.reached_size is not None:
            line += ", representation %d nodes" % result.reached_size
        if result.num_states is not None:
            line += ", %d reachable states" % result.num_states
        if "resumed_from" in result.extra:
            line += " (resumed from iteration %d)" % result.extra["resumed_from"]
    else:
        line = "%-5s did not complete: %s after %.2fs" % (
            result.engine,
            result.status,
            result.seconds,
        )
        progress = result.extra.get("iteration")
        if progress:
            line += " (reached iteration %d)" % progress
    return line


def _wants_harness(args: argparse.Namespace) -> bool:
    return bool(
        args.checkpoint_dir
        or args.resume
        or args.fallback != "none"
        or args.isolate
        or args.journal
        or args.max_rss_mb is not None
    )


def cmd_reach(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    engines = list(ENGINES) if args.engine == "all" else [args.engine]
    results = []
    if _wants_harness(args):
        from .harness import RunJournal, resilient_reach

        journal = RunJournal(args.journal) if args.journal else None
        for engine_name in engines:
            outcome, attempts = resilient_reach(
                args.circuit,
                engine=engine_name,
                order=args.order,
                max_seconds=args.max_seconds,
                max_live_nodes=args.max_nodes,
                max_iterations=args.max_iterations,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_interval=args.checkpoint_interval,
                resume=args.resume,
                count_states=not args.no_count,
                fallback=args.fallback == "auto" and args.engine != "all",
                isolate=args.isolate or args.max_rss_mb is not None,
                max_rss_mb=args.max_rss_mb,
                journal=journal,
                total_seconds=(
                    args.max_seconds if args.fallback == "auto" else None
                ),
                trace_dir=args.trace_dir,
                sanitize=args.sanitize,
            )
            results.append(outcome)
            if len(attempts) > 1:
                for attempt in attempts[:-1]:
                    print(
                        "attempt %s/%s failed: %s; falling back"
                        % (attempt.engine, attempt.order, attempt.status)
                    )
            print(_result_line(outcome))
    else:
        slots = order_for(circuit, args.order)
        limits = ReachLimits(
            max_seconds=args.max_seconds,
            max_live_nodes=args.max_nodes,
            max_iterations=args.max_iterations,
        )
        for engine_name in engines:
            tracer = None
            if args.trace_dir:
                from .obs import file_tracer

                tracer = file_tracer(
                    args.trace_dir, engine_name, args.order, circuit.name
                )
            try:
                result = ENGINES[engine_name](
                    circuit,
                    slots=slots,
                    limits=limits,
                    order_name=args.order,
                    count_states=not args.no_count,
                    tracer=tracer,
                    sanitize=_sanitize_rate(args),
                )
            finally:
                if tracer is not None:
                    tracer.close()
            results.append(result)
            print(_result_line(result))
    print()
    shown = tuple(dict.fromkeys(result.engine for result in results))
    print(format_table2(results, engines=shown))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from .harness import FallbackPolicy, run_scheduled_batch

    for name in args.circuits:
        resolve_circuit(name)  # fail fast on typos, before any long run
    policy = None if args.fallback == "auto" else FallbackPolicy(max_attempts=1)
    bench_path = args.bench_baseline
    if bench_path is None and os.path.exists("BENCH_reach.json"):
        bench_path = "BENCH_reach.json"
    report = run_scheduled_batch(
        args.circuits,
        engine=args.engine,
        order=args.order,
        jobs=args.jobs,
        max_seconds=args.max_seconds,
        max_live_nodes=args.max_nodes,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        fallback=args.fallback == "auto",
        policy=policy,
        isolate=args.isolate,
        max_rss_mb=args.max_rss_mb,
        journal=args.journal,
        count_states=not args.no_count,
        trace_dir=args.trace_dir,
        sanitize=args.sanitize,
        total_seconds=args.total_seconds,
        total_rss_mb=args.total_rss_mb,
        bench_path=bench_path,
    )
    results = []
    for job in report.jobs:
        label = "%-12s" % job.circuit
        if job.outcome is None:
            print(label, "no attempt ran (budget exhausted)")
            continue
        results.append(job.outcome)
        print(
            "%s %s (%d attempt%s)"
            % (label, _result_line(job.outcome), len(job.attempts),
               "s" if len(job.attempts) != 1 else "")
        )
    if results:
        print()
        shown = tuple(dict.fromkeys(result.engine for result in results))
        print(format_table2(results, engines=shown))
    if args.report:
        directory = os.path.dirname(os.path.abspath(args.report))
        os.makedirs(directory, exist_ok=True)
        with open(args.report, "w") as handle:
            handle.write(report.to_json())
        print("merged report written to", args.report)
    return 0 if report.failures == 0 else 1


def cmd_info(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    stats = circuit.stats()
    print("circuit:", circuit.name)
    for key in ("inputs", "outputs", "latches", "gates"):
        print("  %-8s %d" % (key, stats[key]))
    print("  state nets:", ", ".join(circuit.state_nets[:12]) + (
        " ..." if circuit.num_latches > 12 else ""))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .mc import check_invariant, output_never_high

    circuit = resolve_circuit(args.circuit)
    limits = ReachLimits(
        max_seconds=args.max_seconds, max_live_nodes=args.max_nodes
    )
    result = check_invariant(
        circuit, output_never_high(args.output), limits=limits
    )
    if not result.completed:
        print("inconclusive: budget exhausted (%s)" % result.failure)
        return 2
    if result.holds:
        print(
            "HOLDS: output %r can never be raised (proved over %d images)"
            % (args.output, result.iterations)
        )
        return 0
    trace = result.counterexample
    print(
        "VIOLATED: output %r is reachable after %d cycles"
        % (args.output, len(trace))
    )
    for cycle, step in enumerate(trace.inputs):
        values = ", ".join(
            "%s=%d" % (net, int(value)) for net, value in sorted(step.items())
        )
        print("  cycle %d: %s" % (cycle, values))
    if args.vcd:
        from .vcd import save_trace

        save_trace(circuit, trace, args.vcd)
        print("waveform written to", args.vcd)
    return 1


def cmd_equiv(args: argparse.Namespace) -> int:
    from .mc import check_equivalence

    left = resolve_circuit(args.left)
    right = resolve_circuit(args.right)
    limits = ReachLimits(
        max_seconds=args.max_seconds, max_live_nodes=args.max_nodes
    )
    result = check_equivalence(left, right, limits=limits)
    if not result.completed:
        print("inconclusive: budget exhausted (%s)" % result.failure)
        return 2
    if result.holds:
        print(
            "EQUIVALENT: %s and %s agree on every input sequence"
            % (left.name, right.name)
        )
        return 0
    print("NOT EQUIVALENT; distinguishing input sequence:")
    trace = result.counterexample
    for cycle, step in enumerate(trace.inputs):
        values = ", ".join(
            "%s=%d" % (net, int(value)) for net, value in sorted(step.items())
        )
        print("  cycle %d: %s" % (cycle, values))
    print(
        "  (after %d cycles, some output differs for a suitable input)"
        % len(trace)
    )
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from .serve import AdmissionPolicy, ReachServer

    policy = AdmissionPolicy(
        max_queue=args.max_queue,
        default_budget_seconds=args.default_budget_seconds,
        max_budget_seconds=args.max_budget_seconds,
        max_rss_mb=args.max_rss_mb,
    )
    server = ReachServer(
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        pool_size=args.pool,
        policy=policy,
        trace_dir=args.trace_dir,
        journal_path=args.journal,
        checkpoint_interval=args.checkpoint_interval,
        metrics_port=args.metrics_port,
    )

    async def _main() -> None:
        await server.start()
        # The resolved port matters with --port 0; tests parse this line.
        print(
            "serving on %s:%d (pid %d)"
            % (server.host, server.port, os.getpid()),
            flush=True,
        )
        if server.metrics_port is not None:
            print(
                "metrics on http://%s:%d/metrics"
                % (server.host, server.metrics_port),
                flush=True,
            )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.report import render_trace_path

    if not os.path.exists(args.path):
        raise SystemExit("no such trace file or directory: %r" % args.path)
    if args.follow:
        from .obs.top import follow_trace

        try:
            follow_trace(
                args.path, poll=args.poll, max_seconds=args.max_seconds
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        return 0
    text = render_trace_path(args.path)
    if not text.strip():
        print("no trace records found in %s" % args.path)
        return 1
    print(text)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .obs import top as _top

    if os.path.exists(args.target):
        try:
            _top.run_tail_top(
                args.target,
                poll=args.poll,
                max_seconds=args.max_seconds,
                plain=args.plain,
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        return 0
    host, sep, port = args.target.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            "top target %r is neither an existing trace directory nor "
            "HOST:PORT" % args.target
        )
    request: dict = {}
    if args.key is not None:
        request["key"] = args.key
    elif args.circuit is not None:
        request.update(
            circuit=args.circuit, engine=args.engine, order=args.order
        )
    else:
        raise SystemExit("server mode needs --key or --circuit")
    try:
        _top.run_serve_top(
            host or "127.0.0.1", int(port), request, plain=args.plain
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint as _lint

    deep = bool(args.deep or args.baseline or args.write_baseline)
    if args.list_rules:
        catalog = dict(_lint.RULES)
        if deep:
            from .analysis import dataflow as _dataflow

            catalog.update(_dataflow.DEEP_RULES)
        for rule, summary in sorted(catalog.items()):
            print("%s  %s" % (rule, summary))
        return 0
    if not deep:
        findings = _lint.run_lint(tuple(args.paths))
    else:
        from .analysis import dataflow as _dataflow

        findings = _dataflow.run_deep_lint(tuple(args.paths))
        if args.write_baseline:
            _dataflow.write_baseline(
                findings, args.write_baseline, root=os.getcwd()
            )
            print(
                "wrote %d suppression%s to %s"
                % (
                    len(findings),
                    "s" if len(findings) != 1 else "",
                    args.write_baseline,
                )
            )
            return 0
        if args.baseline:
            entries = _dataflow.load_baseline(args.baseline)
            findings, stale = _dataflow.apply_baseline(findings, entries)
            for entry in stale:
                print(
                    "stale baseline entry (fixed? delete it): "
                    "%s:%s %s" % (entry.get("path"), entry.get("line"),
                                  entry.get("rule"))
                )
            if stale and not findings:
                return 1
    for finding in findings:
        print(finding.render())
    if findings:
        print("%d finding%s" % (len(findings), "s" if len(findings) != 1 else ""))
        return 1
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("built-in circuits:")
    for name, factory in sorted(builtin_circuits().items()):
        circuit = factory()
        stats = circuit.stats()
        print(
            "  %-10s %3d FFs, %3d inputs, %4d gates"
            % (name, stats["latches"], stats["inputs"], stats["gates"])
        )
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "reach": cmd_reach,
        "batch": cmd_batch,
        "info": cmd_info,
        "check": cmd_check,
        "equiv": cmd_equiv,
        "serve": cmd_serve,
        "trace": cmd_trace,
        "top": cmd_top,
        "lint": cmd_lint,
        "list": cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
