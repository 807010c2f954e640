"""Adapter from :class:`~repro.backends.protocol.SetBackend` to an engine.

:func:`backend_engine` wraps a backend class in a function with the
standard ``repro.reach.ENGINES`` signature that drives a backend step
through the shared fix-point driver
(:func:`~repro.reach.driver.run_fixpoint`), so non-BDD set
representations inherit the whole harness for free:
resource budgets and T.O./M.O./I.O. reporting, per-iteration
checkpoints with kill-resume (set payloads ride the checkpoint
container's ``meta.extra`` slot as JSON), fault-injection hooks,
sanitizer cadence, per-iteration tracing, and the fallback ladder /
scheduler integration that keys off ``ENGINES`` membership.

The loop is the Kleene iteration ``R <- R | image(R)``, stopping when
the union changes nothing — so ``result.iterations`` counts every pass
including the final fix-point-confirming one, directly comparable to
the BDD engines' counting.  Imaging the **full reached set** (not a
frontier) is what keeps the loop sound for over-approximating
backends: a zonotope union is an affine *hull*, so ``reached`` holds
states no frontier ever held, and a frontier-only image would declare
a "fix point" without ever computing their successors.  For exact
backends the fix point lands at the same iteration as frontier-based
BFS (``image(reached_k)`` adds a state iff some distance-``k`` state
has a new successor), so the bitset engine's iteration count still
equals BFS depth; the extra per-state image work is absorbed by the
backend's successor memoization.

On completion ``result.extra`` carries:

* ``"backend"`` — the backend's registry name;
* ``"exact"`` — the reached handle's exactness flag (JSON-safe, so it
  survives the supervisor process boundary);
* ``"reached_states"`` — the reached set as a *set* of
  declaration-order state tuples when small enough to enumerate
  (intentionally non-JSON, so it is available to in-process
  differential tests but dropped from cross-process results).

The monitor runs against a throwaway empty BDD manager: budgets, the
checkpoint container, and the sanitizer all expect one, and an empty
manager gives them a well-formed no-op target (node budgets simply
never trip — backend feasibility is enforced structurally by
``from_circuit``'s caps instead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence, Type

from ..bdd import BDD
from .protocol import SetBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reach.common import ReachLimits, ReachResult

#: Largest reached-set cardinality enumerated into
#: ``extra["reached_states"]`` — differential-comparison-sized spaces
#: only.
ENUMERATION_CAP = 4096


def backend_engine(backend_cls: Type[SetBackend]):
    """An ``ENGINES``-compatible engine function for ``backend_cls``."""
    # Imported here, not at module scope: ``repro.reach`` imports this
    # module to register the backend engines, so a top-level import of
    # ``repro.reach.driver`` would be circular when ``repro.backends``
    # is imported first.  For the same reason the step class, whose
    # base lives there, is defined per backend in here.
    from ..reach.driver import FixpointStep, run_fixpoint

    class BackendStep(FixpointStep):
        """The Kleene iteration ``R <- R | image(R)`` over one backend."""

        engine = backend_cls.name

        def __init__(self, circuit, initial_points, count_states, options):
            self.bdd = BDD()  # the monitor's scratch manager
            self.circuit = circuit
            self.initial_points = initial_points
            self.count_states = count_states
            self.options = options
            self.backend: Any = None
            self.reached: Any = None
            self.image_size = self.reached_size = self.peak_size = 0

        def setup(self):
            # Infeasible circuits (over the backend's structural caps)
            # raise ResourceLimitError here: an M.O. result, not a crash.
            self.backend = backend_cls.from_circuit(self.circuit, **self.options)
            self.reached = self.backend.initial(self.initial_points)

        def restore(self, snapshot):
            payload = snapshot.meta.get("extra")
            if not (isinstance(payload, dict) and "reached" in payload):
                return None
            self.reached = self.backend.from_payload(payload["reached"])
            return snapshot.iteration

        def iterate(self, iteration, tick):
            backend = self.backend
            tracer = self.tracer
            with tracer.span("image"):
                image = backend.image(self.reached)
            with tracer.span("union"):
                new_reached = backend.union(self.reached, image)
            with tracer.span("fixpoint_test"):
                fixed = backend.equal(new_reached, self.reached)
            # On the fix point keep ``reached``: a final over-approximate
            # image absorbed by the union must not taint the flag — the
            # fix point certifies reached contains its own (true) image,
            # so its exactness stands on its own construction history.
            if not fixed:
                self.reached = new_reached
            self.image_size = backend.size(image)
            self.reached_size = backend.size(self.reached)
            if not fixed:
                self.peak_size = max(
                    self.peak_size, self.reached_size + self.image_size
                )
            return fixed

        def payload(self):
            return {"meta": {"reached": self.backend.to_payload(self.reached)}}

        def sizes(self):
            return {
                "frontier_size": self.image_size,
                "reached_size": self.reached_size,
                "chi_size": self.reached_size,
            }

        def finish(self, result, monitor):
            if not result.completed:
                return
            backend = self.backend
            reached = self.reached
            # peak_live_nodes is the cross-engine "peak representation"
            # statistic; for backends that is the largest
            # reached+frontier footprint any iteration held.
            result.peak_live_nodes = max(self.peak_size, self.reached_size)
            result.reached_size = self.reached_size
            result.extra["backend"] = backend.name
            result.extra["exact"] = bool(getattr(reached, "exact", True))
            states = backend.count(reached)
            if self.count_states:
                result.num_states = states
            if states <= ENUMERATION_CAP:
                result.extra["reached_states"] = set(
                    backend.enumerate_states(reached, ENUMERATION_CAP)
                )

    def engine(
        circuit,
        slots: Optional[Sequence[str]] = None,
        limits: Optional[ReachLimits] = None,
        count_states: bool = True,
        order_name: str = "?",
        space: Any = None,
        initial_points=None,
        checkpointer=None,
        tracer=None,
        sanitize=None,
        **options: Any,
    ) -> ReachResult:
        # ``slots`` / ``space`` are BDD-layout concerns with no backend
        # analogue; accepted (the harness passes them) and ignored.
        del slots, space
        step = BackendStep(circuit, initial_points, count_states, options)
        return run_fixpoint(
            step, circuit.name, order_name, limits, checkpointer, tracer,
            sanitize,
        )

    engine.__name__ = "%s_reachability" % backend_cls.name
    engine.__qualname__ = engine.__name__
    engine.__doc__ = (
        "Breadth-first reachability over the %r backend "
        "(generated by repro.backends.engine.backend_engine)."
        % backend_cls.name
    )
    return engine
