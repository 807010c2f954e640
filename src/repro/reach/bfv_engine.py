"""Reachability with Boolean functional vectors (paper Figure 2).

The paper's flow: the reached set is held as a canonical BFV over the
current-state choice variables; each iteration

1. **symbolic simulation** — drive the circuit's state nets with the
   from-set's components and its inputs with fresh variables, producing
   the raw next-state vector over (state-choice, input) parameters;
2. **re-parameterization** (Sec 2.6) — existentially eliminate those
   parameters over the next-state choice variables, yielding the
   canonical image, then rename next-state choices back to current;
3. **set union** (Sec 2.3) — accumulate into the reached set;
4. **fix-point test** — canonical vectors are compared componentwise.

No characteristic function is ever constructed.  The *selection
heuristic* of Figures 1/2 picks the representation-smaller of the image
and the reached set as the next from-set.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..bfv import BFV
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import BddStep, run_fixpoint
from .image import SimulationImage


class BfvStep(BddStep):
    """The Figure-2 loop; :meth:`wrap` / :meth:`unwrap` convert between a
    vector and the reached set's form (here the same BFV)."""

    engine = "bfv"
    schedule: str
    # The last image (vector and reached-set form), held like the sets:
    # the pinned vectors alive at a collection decide what it frees.
    image_vec: Any = None
    image: Any = None

    def wrap(self, vector):
        return vector

    def unwrap(self, reached):
        return reached

    def setup(self):
        space = self.space
        self.simulation = SimulationImage(space, self.schedule)
        self.frontier = BFV.from_points(
            self.bdd, space.s_vars, space.initial_point_set(self.initial_points)
        )
        self.reached = self.wrap(self.frontier)

    def restore(self, snapshot):
        self.reached = self.wrap(snapshot.vectors["reached"])
        self.frontier = snapshot.vectors["frontier"]
        return snapshot.iteration

    def iterate(self, iteration, tick):
        self.image_vec = self.simulation.image(self.tracer, self.frontier)
        with self.tracer.span("union"):
            self.image = image = self.wrap(self.image_vec)
            new_reached = image.union(self.reached)
        with self.tracer.span("fixpoint_test"):
            if new_reached == self.reached:
                return True
        self.reached = new_reached
        if self.selection and image.shared_size() < new_reached.shared_size():
            self.frontier = self.image_vec
        else:
            self.frontier = self.unwrap(new_reached)
        return False

    def payload(self):
        vectors = {"reached": self.unwrap(self.reached), "frontier": self.frontier}
        return {"vectors": vectors}

    def audit_roots(self):
        return {"vectors": (self.reached, self.frontier)}


def bfv_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run Figure 2 reachability; returns a :class:`ReachResult`.

    ``result.extra['space']`` / ``['reached']`` hold the
    :class:`ReachSpace` and final reached :class:`BFV` for
    cross-validation (when the run completes).  With a ``checkpointer``
    (see :mod:`repro.harness.checkpoint`) the reached/frontier vectors
    are snapshotted every iteration and the run resumes from the latest
    valid snapshot.  With a ``tracer`` (see :mod:`repro.obs`) every
    iteration emits a metric record and the loop phases are timed;
    ``result.extra['obs']`` carries the phase summary.  With a
    ``sanitize`` rate (see :mod:`repro.analysis.sanitizer`) sampled
    iterations audit manager and vector invariants;
    ``result.extra['sanitizer']`` carries the audit counts.
    """
    step = BfvStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, schedule=schedule,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )
