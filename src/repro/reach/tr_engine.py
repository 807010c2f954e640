"""Characteristic-function reachability (the paper's VIS/IWLS95 baseline).

Classic breadth-first symbolic traversal: the reached set is one BDD
over the current-state variables; images are computed through an
IWLS95-style partitioned transition relation with early quantification
(:mod:`repro.reach.iwls95`); the frontier (newly reached states) —
or the reached set, when smaller — feeds the next iteration.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import ReachLimits, ReachResult, ReachSpace
from .driver import ChiStep, run_fixpoint
from .image import transition_relation


class TrStep(ChiStep):
    engine = "tr"
    cluster_threshold: int

    def setup(self):
        self.relation = transition_relation(self.space, self.cluster_threshold)
        self.start(self.space.initial_chi(self.initial_points))

    def iterate(self, iteration, tick):
        with self.tracer.span("image"):
            image = self.space.t_to_s(self.relation.image(self.frontier))
        return self.absorb(image)


def tr_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    cluster_threshold: int = 800,
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run IWLS95-style reachability; returns a :class:`ReachResult`.

    ``result.extra['space']`` / ``['reached_chi']`` hold the layout and
    the reached characteristic function for cross-validation.  With a
    ``checkpointer`` the reached/frontier characteristic functions are
    snapshotted every iteration and the run resumes from the latest
    valid snapshot.  With a ``sanitize`` rate sampled iterations audit
    manager invariants (no vectors exist in this flow);
    ``result.extra['sanitizer']`` carries the audit counts.
    """
    step = TrStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, cluster_threshold=cluster_threshold,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )
