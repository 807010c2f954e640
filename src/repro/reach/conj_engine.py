"""Reachability on McMillan's conjunctive decomposition (paper Sec 2.7).

The paper notes that when the component order equals the BDD variable
order (as in all its experiments, and ours), it is more efficient to run
the Figure 2 flow with the set manipulation carried out on the
conjunctive decomposition, "as explained in Section 2.7".  This engine
does exactly that: image computation is still symbolic simulation +
re-parameterization, but the reached set is a
:class:`repro.bfv.conjunctive.ConjunctiveDecomposition` and the union is
performed on the constraint view.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bfv.conjunctive import ConjunctiveDecomposition
from .bfv_engine import BfvStep
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import run_fixpoint


class ConjStep(BfvStep):
    engine = "conj"
    result_key = "reached_cd"

    def wrap(self, vector):
        return ConjunctiveDecomposition.from_bfv(vector)

    def unwrap(self, reached):
        return reached.to_bfv()

    def audit_roots(self):
        return {
            "vectors": (self.image_vec, self.frontier),
            "decompositions": (self.reached,),
        }


def conj_reachability(
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
    """Run Figure 2 with conjunctive-decomposition set manipulation.

    With a ``sanitize`` rate sampled iterations audit the image vector,
    the frontier, and the reached decomposition's constraint-view
    invariants; ``result.extra['sanitizer']`` carries the audit counts.
    """
    step = ConjStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, schedule=schedule,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )
