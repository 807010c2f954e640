"""Attempt execution: one engine run described by a picklable spec.

:class:`AttemptSpec` is the unit of work the harness schedules — it
names a circuit (built-in name or ``.bench`` path, resolved on the
worker side so no netlist crosses the process boundary), an engine, an
order family, resource limits, and checkpoint/fault settings.
:func:`run_attempt` executes one spec in the current process;
:func:`child_main` is the :class:`repro.harness.supervisor.Supervisor`'s
child-process entry point, reporting the result as a JSON file.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..circuits.catalog import resolve
from ..obs import file_tracer
from ..order import order_for
from ..persist import fsync_dir
from ..reach import ENGINES, ReachLimits, ReachResult
from ..reach.common import RunMonitor
from . import faults as _faults
from .checkpoint import Checkpointer

#: Exit status of a child that noticed its supervisor vanished.
ORPHAN_EXIT_CODE = 86

#: Env var carrying a sanitizer rate across the supervised-child
#: boundary (mirrors how ``trace_dir`` rides the spec): a float in
#: (0, 1], or ``1`` for every-iteration auditing.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"


def sanitize_rate_for(spec: AttemptSpec, environ=None) -> Optional[float]:
    """The spec's sanitizer rate, falling back to ``REPRO_SANITIZE``."""
    if spec.sanitize is not None:
        return spec.sanitize
    environ = os.environ if environ is None else environ
    raw = environ.get(SANITIZE_ENV_VAR)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            "unparsable %s value %r (want a rate in (0, 1])"
            % (SANITIZE_ENV_VAR, raw)
        )


@dataclass
class AttemptSpec:
    """One reachability attempt, serializable across processes."""

    circuit: str
    engine: str = "bfv"
    order: str = "S1"
    max_seconds: Optional[float] = None
    max_live_nodes: Optional[int] = None
    max_iterations: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 1
    keep_checkpoints: int = 3
    resume: bool = False
    count_states: bool = True
    #: Directory for per-iteration trace JSONL (see :mod:`repro.obs`);
    #: None disables tracing (the engines see the null tracer).
    trace_dir: Optional[str] = None
    #: Sanitizer sampling rate in (0, 1] (see
    #: :mod:`repro.analysis.sanitizer`); None disables auditing.  The
    #: ``REPRO_SANITIZE`` env var supplies a fallback rate on the
    #: worker side, crossing the supervised-child boundary.
    sanitize: Optional[float] = None
    #: Fault plan installed before the run (tests only); see
    #: :mod:`repro.harness.faults`.
    faults: Optional[List[Dict[str, object]]] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AttemptSpec":
        names = {spec.name for spec in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in data.items() if k in names})


def checkpointer_for(spec: AttemptSpec, circuit_name: str) -> Optional[Checkpointer]:
    """The spec's checkpointer, or None when checkpointing is off."""
    if not spec.checkpoint_dir:
        return None
    return Checkpointer(
        spec.checkpoint_dir,
        engine=spec.engine,
        circuit=circuit_name,
        order=spec.order,
        interval=spec.checkpoint_interval,
        keep=spec.keep_checkpoints,
        resume=spec.resume,
    )


def run_attempt(spec: AttemptSpec, registry=None) -> ReachResult:
    """Execute one attempt in the current process.

    Budget exhaustion comes back as a tagged :class:`ReachResult` (the
    engines convert ``ResourceLimitError`` internally); anything else —
    a hard ``MemoryError``, a wedged iteration, a killed process — is
    the supervisor's job to absorb.  ``registry`` (a
    :class:`repro.obs.MetricsRegistry`) feeds live histograms/gauges for
    *in-process* attempts; supervised children keep their own process's
    registry, which dies with them — their live signal is the trace
    JSONL the parent tails.
    """
    if spec.engine not in ENGINES:
        raise ValueError("unknown engine %r" % spec.engine)
    plan = _faults.FaultPlan(spec.faults).install() if spec.faults else None
    tracer = None
    try:
        circuit = resolve(spec.circuit)
        slots = order_for(circuit, spec.order)
        limits = ReachLimits(
            max_seconds=spec.max_seconds,
            max_live_nodes=spec.max_live_nodes,
            max_iterations=spec.max_iterations,
        )
        checkpointer = checkpointer_for(spec, circuit.name)
        if spec.trace_dir:
            tracer = file_tracer(
                spec.trace_dir,
                spec.engine,
                spec.order,
                circuit.name,
                registry=registry,
            )
        elif registry is not None:
            from ..obs import Tracer

            tracer = Tracer(registry=registry)
            tracer.bind(
                engine=spec.engine, order=spec.order, circuit=circuit.name
            )
        result = ENGINES[spec.engine](
            circuit,
            slots=slots,
            limits=limits,
            order_name=spec.order,
            count_states=spec.count_states,
            checkpointer=checkpointer,
            tracer=tracer,
            sanitize=sanitize_rate_for(spec),
        )
        if checkpointer is not None and checkpointer.skipped:
            result.extra["checkpoints_skipped"] = [
                path for path, _ in checkpointer.skipped
            ]
        return result
    finally:
        if tracer is not None:
            tracer.close()
        if plan is not None:
            plan.uninstall()


def install_orphan_guard() -> None:
    """Exit the child if its supervising parent process disappears.

    Supervised children are daemonic, but ``SIGKILL`` of the parent
    (e.g. the serve process dying mid-run, or the kill-resume soak test)
    skips the multiprocessing atexit cleanup and would leave the engine
    running forever under init.  This registers a per-iteration hook
    that notices the re-parenting (``getppid`` changed) and exits with
    :data:`ORPHAN_EXIT_CODE` — the last checkpoint written is exactly
    the state the restarted server resumes from.
    """
    parent = os.getppid()

    def _orphan_guard(monitor: RunMonitor, iteration: int) -> None:
        if os.getppid() != parent:
            os._exit(ORPHAN_EXIT_CODE)

    RunMonitor.iteration_hooks.append(_orphan_guard)


def _close_inherited_sockets() -> None:
    """Close every socket fd a forked engine child inherited.

    An engine child needs no network, but ``fork`` duplicates the
    serving process's listener and accepted-connection fds into it.
    Those duplicates keep TCP connections half-open for as long as an
    attempt runs: a client that disconnects is not seen to disconnect
    (its FIN is ignored while a dup of the socket survives here), and
    a closed server keeps its port busy.  Only sockets are closed —
    multiprocessing's pipes and the result/checkpoint files stay up.

    Each socket fd is overwritten with ``/dev/null`` (``dup2``) rather
    than closed: the parent's socket *objects* live on in the child's
    copy of memory, and when one is finalized it closes its fd number.
    A closed number is reused by the next file the child opens (its
    trace file), which that finalizer would then close underneath it.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - no /proc
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                continue
    finally:
        os.close(devnull)


def _disarm_inherited_executors() -> None:
    """Drop executor shutdown hooks a forked child inherited.

    A child forked from a ``ThreadPoolExecutor`` dispatcher thread (the
    serve layer's worker pool) inherits the executor's atexit hook,
    which joins worker threads at interpreter shutdown — but after the
    fork the dispatcher thread *is* this child's main thread, so the
    join raises ``cannot join current thread`` and turns every clean
    exit into exitcode 1.  The inherited threads do not exist in the
    child anyway; forget them.
    """
    try:
        import concurrent.futures.thread as cf_thread

        cf_thread._threads_queues.clear()
    except (ImportError, AttributeError):  # pragma: no cover - stdlib drift
        pass


def child_main(spec_dict: Dict[str, object], result_path: str) -> None:
    """Supervisor child entry: run the attempt, report JSON, exit.

    Crashes simply propagate — a nonzero exit status (or a kill signal)
    is itself the report, which the supervisor converts into a tagged
    failure result.
    """
    _disarm_inherited_executors()
    _close_inherited_sockets()
    _faults.install_from_env()
    install_orphan_guard()
    spec = AttemptSpec.from_dict(spec_dict)
    result = run_attempt(spec)
    tmp = result_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(result.to_dict(), handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, result_path)
    fsync_dir(result_path)
