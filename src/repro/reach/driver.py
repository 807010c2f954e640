"""One fix-point driver for every reachability engine.

The paper's Figures 1 and 2 are one loop — image, union, fix-point test
— over different set representations.  :func:`run_fixpoint` owns its
harness (tracer, monitor, restore, telemetry, checkpoint / budget /
audit ticks, failure annotation, finalize, timing); an engine supplies
a :class:`FixpointStep`.  Breadth-first steps are ticked once per
iteration; *chained* steps (the saturation pair) tick once per fire, so
a budget, fault or checkpoint can cut them mid-chain, and every round
ends with a budget check and an audit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import ResourceLimitError
from ..obs import NULL_TRACER, ensure_tracer
from .common import ReachLimits, ReachResult, ReachSpace, RunMonitor


class FixpointStep:
    """One engine's part of the loop that :func:`run_fixpoint` drives.

    ``setup`` builds relations and the initial set; ``restore`` adopts a
    snapshot and returns the iteration to continue from (None: nothing
    to resume); ``iterate(n, tick)`` runs iteration ``n`` with its own
    phase spans and returns True at the fix point, leaving a
    breadth-first step's sets untouched then (a chained step calls
    ``tick(self.fires)`` after each fire); ``payload`` / ``audit_roots``
    are the keyword arguments of :meth:`RunMonitor.save_state` /
    :meth:`RunMonitor.audit`; ``sizes`` and ``trace_round`` feed the
    iteration record; ``finish`` fills the result inside ``finalize``,
    then ``release`` drops the step's pins — after the final live-node
    count, except on what the result hands to the caller.
    """

    engine = "?"
    bdd: Any  # the manager the monitor budgets and the tracer samples
    tracer: Any = NULL_TRACER  # set by run_fixpoint before setup()
    chained = False
    fires = 0

    def setup(self) -> None:
        pass

    def restore(self, snapshot) -> Optional[int]:
        return snapshot.iteration

    def iterate(self, iteration: int, tick: Callable[[int], None]) -> bool:
        raise NotImplementedError

    def payload(self) -> Dict[str, Any]:
        return {}

    def audit_roots(self) -> Dict[str, Any]:
        return {}

    def sizes(self) -> Dict[str, object]:
        return {}

    def trace_round(self, tracer, iteration: int) -> None:
        pass

    def finish(self, result: ReachResult, monitor: RunMonitor) -> None:
        pass

    def release(self, completed: bool) -> None:
        pass


class BddStep(FixpointStep):
    """A step over a :class:`ReachSpace` holding ``reached`` / ``frontier``.

    Engine options (declared on the subclass) become attributes; sets
    are sized and counted in vector form unless overridden; ``simulation``
    and ``relation`` own pins that :meth:`release` drops.
    """

    result_key = "reached"
    reached: Any = None
    frontier: Any = None
    simulation: Any = None
    relation: Any = None

    def __init__(
        self, space: ReachSpace, count_states=True, initial_points=None,
        selection=True, **options,
    ) -> None:
        self.space = space
        self.bdd = space.bdd
        self.count_states = count_states
        self.initial_points = initial_points
        self.selection = selection
        vars(self).update(options)

    def size(self, value) -> int:
        return value.shared_size()

    def count(self, value) -> int:
        return value.count()

    def sizes(self) -> Dict[str, object]:
        return {
            "frontier_size": self.size(self.frontier),
            "reached_size": self.size(self.reached),
        }

    def finish(self, result: ReachResult, monitor: RunMonitor) -> None:
        bdd = self.bdd
        bdd.collect_garbage()
        result.peak_live_nodes = max(monitor.peak_live, bdd.count_live())
        result.extra["cache"] = bdd.cache_stats()
        result.reached_size = self.size(self.reached)
        if result.completed:
            result.extra["space"] = self.space
            result.extra[self.result_key] = self.reached
            if self.count_states:
                result.num_states = self.count(self.reached)

    def release(self, completed: bool) -> None:
        if self.simulation is not None:
            self.simulation.release()
        if self.relation is not None:
            self.relation.release()


class ChiStep(BddStep):
    """Characteristic functions of ``s``, each pinned once; a completed
    run's reached set keeps its pin, which the caller then owns."""

    result_key = "reached_chi"

    def __init__(self, space: ReachSpace, *args, **options) -> None:
        super().__init__(space, *args, **options)
        self.reached = self.frontier = self.bdd.false

    def size(self, node: int) -> int:
        return self.bdd.dag_size(node)

    def count(self, node: int) -> int:
        return self.space.states_of(node)

    def sizes(self) -> Dict[str, object]:
        sizes = super().sizes()
        sizes["chi_size"] = sizes["reached_size"]
        return sizes

    def start(self, init: int) -> None:
        self.reached = self.bdd.incref(init)
        self.frontier = self.bdd.incref(init)

    def restore(self, snapshot) -> Optional[int]:
        # The restored handles arrive with their own pins.
        self.bdd.decref(self.reached)
        self.bdd.decref(self.frontier)
        self.reached = snapshot.functions["reached"]
        self.frontier = snapshot.functions["frontier"]
        return snapshot.iteration

    def absorb(self, image: int) -> bool:
        """Fix-point test and union of an image over ``s``."""
        bdd = self.bdd
        with self.tracer.span("fixpoint_test"):
            new = bdd.diff(image, self.reached)
            if new == bdd.false:
                return True
        with self.tracer.span("union"):
            self.accumulate(image, new)
        return False

    def accumulate(self, image: int, new: int) -> None:
        """Union ``image`` in; the next frontier is what it added (``new``)
        or, when the selection heuristic finds it smaller, all of it."""
        bdd = self.bdd
        previous = self.reached
        self.reached = bdd.incref(bdd.or_(previous, image))
        bdd.decref(previous)
        bdd.decref(self.frontier)
        if self.selection and bdd.dag_size(new) > bdd.dag_size(self.reached):
            self.frontier = bdd.incref(self.reached)
        else:
            self.frontier = bdd.incref(new)

    def payload(self) -> Dict[str, Any]:
        return {"functions": {"reached": self.reached, "frontier": self.frontier}}

    def audit_roots(self) -> Dict[str, Any]:
        return {"roots": (self.reached, self.frontier)}

    def release(self, completed: bool) -> None:
        super().release(completed)
        self.bdd.decref(self.frontier)
        if not completed:
            self.bdd.decref(self.reached)
        self.reached = self.frontier = self.bdd.false


def run_fixpoint(
    step: FixpointStep,
    circuit: str,
    order_name: str = "?",
    limits: Optional[ReachLimits] = None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Drive ``step`` to its fix point; returns a :class:`ReachResult`.

    A ``ResourceLimitError`` or ``RecursionError`` (``depth``) anywhere
    from set-up on ends the run as a budget failure.
    """
    tracer = step.tracer = ensure_tracer(tracer)
    tracer.attach(step.bdd)
    tracer.bind(engine=step.engine, circuit=circuit, order=order_name)
    monitor = RunMonitor(
        step.bdd, limits, checkpointer, tracer=tracer, sanitize=sanitize
    )
    result = ReachResult(
        engine=step.engine, circuit=circuit, order=order_name, completed=False
    )
    chained = step.chained
    iteration = 0
    ready = False

    def tick(count: int) -> None:
        if monitor.want_checkpoint(count):
            monitor.save_state(count, **step.payload())
        monitor.checkpoint((), count)

    try:
        with tracer.span("setup"):
            step.setup()
        ready = True
        snapshot = monitor.restore()
        if snapshot is not None:
            resumed = step.restore(snapshot)
            if resumed is not None:
                iteration = resumed
                result.extra["resumed_from"] = snapshot.iteration
        while True:
            iteration += 1
            tracer.begin_iteration(iteration)
            fixed = step.iterate(iteration, tick)
            if chained or not fixed:
                if chained:
                    # Also at round boundaries: a round of pure
                    # frontier-avoidance skips fires nothing.
                    monitor.checkpoint((), step.fires)
                else:
                    tick(iteration)
                if monitor.sanitizer is not None:
                    count = step.fires if chained else iteration
                    monitor.audit(count, **step.audit_roots())
            if tracer.enabled:
                with tracer.span("telemetry"):
                    sizes = step.sizes()
                step.trace_round(tracer, iteration)
                if fixed or chained:
                    sizes["fixpoint"] = fixed
                tracer.end_iteration(iteration, **sizes)
            if fixed:
                break
        result.completed = True
    except ResourceLimitError as error:
        monitor.annotate(result, error, iteration)
    except RecursionError:
        monitor.annotate(
            result,
            ResourceLimitError("depth", "recursion limit exceeded"),
            iteration,
        )
    result.iterations = iteration
    with tracer.span("finalize"):
        if ready:  # finish() reads what setup() built
            step.finish(result, monitor)
        if monitor.sanitizer is not None:
            result.extra["sanitizer"] = monitor.sanitizer.snapshot()
        step.release(result.completed)
    # Captured after the finalize span: every engine reports the same
    # window, and traced phase self-times can never exceed it.
    result.seconds = monitor.elapsed
    if tracer.enabled:
        result.extra["obs"] = tracer.summary()
        tracer.finish(result)
    return result
