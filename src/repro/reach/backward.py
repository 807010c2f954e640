"""Backward reachability: which states can reach a target set?

The dual of the forward engines: iterate the *pre-image* of a target
set until a fix point.  Useful on its own (error-state diagnosis,
"can this assertion ever fire?") and as a powerful cross-check — a
target intersects the forward reachable set iff the initial state lies
in the backward reachable set of the target (exploited in the tests).

Characteristic-function based (pre-image needs complements and the BFV
form has no negation operator, as the paper notes).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..errors import ResourceLimitError
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import ChiStep, run_fixpoint
from .image import transition_relation


class BackwardStep(ChiStep):
    engine = "backward"
    result_key = "backward_chi"
    target_states: Iterable[Sequence[bool]]
    cluster_threshold: int

    def setup(self):
        space = self.space
        bdd = self.bdd
        self.relation = transition_relation(space, self.cluster_threshold)
        declaration = list(space.circuit.latches)
        index = {net: i for i, net in enumerate(declaration)}
        target = bdd.false
        for point in self.target_states:
            cube = {
                space.state_var[net]: bool(point[index[net]])
                for net in space.state_order
            }
            target = bdd.or_(target, bdd.cube(cube))
        self.start(target)

    def iterate(self, iteration, tick):
        bdd = self.bdd
        space = self.space
        # Lift the frontier to next-state variables and step back.
        frontier_t = bdd.rename(
            self.frontier, dict(zip(space.s_vars, space.t_vars))
        )
        predecessors = self.relation.pre_image(
            frontier_t, space.t_vars, space.x_vars
        )
        new = bdd.diff(predecessors, self.reached)
        if new == bdd.false:
            return True
        self.accumulate(new, new)
        return False

    def finish(self, result, monitor):
        # Only the reached set outlives the run, so the frontier's pin
        # goes before the final sweep.
        self.bdd.decref(self.frontier)
        self.frontier = self.bdd.false
        super().finish(result, monitor)


def backward_reachability(
    circuit,
    target_states: Iterable[Sequence[bool]],
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    cluster_threshold: int = 800,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
) -> ReachResult:
    """States that can reach any of ``target_states`` (in any #steps).

    ``target_states`` are given in latch declaration order.  Returns a
    :class:`ReachResult` whose ``extra['backward_chi']`` holds the
    characteristic function (over current-state variables) of the
    backward-reachable set, including the targets themselves.
    """
    step = BackwardStep(
        space or ReachSpace(circuit, slots), count_states, selection=False,
        target_states=target_states, cluster_threshold=cluster_threshold,
    )
    return run_fixpoint(step, circuit.name, order_name, limits)


def can_reach(
    circuit,
    target_states: Iterable[Sequence[bool]],
    limits: Optional[ReachLimits] = None,
) -> bool:
    """True iff some target state is reachable from the reset state.

    Decided *backwards*: the reset state must lie in the backward
    reachable set of the targets.
    """
    result = backward_reachability(
        circuit, target_states, limits=limits, count_states=False
    )
    if not result.completed:
        raise ResourceLimitError(
            result.failure or "time", "backward traversal exhausted budget"
        )
    space = result.extra["space"]
    chi = result.extra["backward_chi"]
    assignment = dict(zip(space.s_vars, space.initial_point))
    return space.bdd.evaluate(chi, assignment)
