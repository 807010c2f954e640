"""Saturation reachability: chained image steps over disjunctive partitions.

Every other engine in this package computes one monolithic image per
breadth-first iteration.  The two engines here instead *chain* smaller
image steps and run each to a local fix point — structural saturation
in the style of the biodivine/LTSmin family, adapted to synchronous
circuits:

* the transition relation is split **disjunctively** by cofactoring the
  next-state functions against cubes over a few primary inputs
  (``T = OR_c  T|_{x=c}``), which is exact for synchronous semantics —
  unlike per-latch *asynchronous* firing, every disjunct still updates
  all latches at once;
* inside each disjunct the relation stays **per-latch conjunctive**
  (one ``t_i <-> delta_i|_c`` conjunct per latch) and is clustered and
  early-quantified by the IWLS95 machinery
  (:class:`~repro.reach.iwls95.PartitionedRelation`), so each chained
  step is itself a chain of per-latch ``and_exists`` products;
* a **chaining schedule** orders the disjuncts (static IWLS95-flavoured
  scoring: cheapest relation chain first, with an optional round-robin
  rotation as the fallback schedule) and each partition is saturated to
  a **local fix point** before the chain moves on, feeding newly found
  states straight back into the current round instead of parking them
  for the next breadth-first wave;
* **frontier-avoidance** keeps re-fires cheap: each partition tracks a
  *pending* delta (states discovered since it last fired) and is
  skipped while that delta is empty; on top of that, the pending set is
  projected onto the partition's state-variable support and fired only
  if the projection adds anything over what the partition has already
  seen — the image of a partition depends only on that projection, so
  states that look identical to a partition never trigger a re-fire.

:func:`sat_reachability` (engine ``sat``) runs this over characteristic
functions; :func:`bfv_sat_reachability` (engine ``bfv-sat``) is the
hybrid that saturates *inside* the BFV flow of Figure 2: each partition
fires by symbolic simulation with the cube's inputs driven constant,
re-parameterizes over the remaining parameters, and accumulates into
the reached set by BFV union — no characteristic function is built.

Saturation changes the meaning of ``ReachResult.iterations``: it counts
**macro rounds** (full sweeps of the chaining schedule), not images.
Every round dominates one breadth-first image over the whole reached
set, so ``1 <= rounds <= bfs_depth`` — the differential campaign in
``tests/test_fuzz.py`` pins exactly this contract.  The fine-grained
progress unit is the *fire* (one chained image step); fires drive the
budget/fault/checkpoint tick so kill-resume can cut the run mid-chain,
and the chaining position (round, schedule index, fire count) rides in
the checkpoint metadata to make resume exact.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..bfv import BFV
from ..errors import CircuitError
from ..sim.symbolic import SymbolicSimulator
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import BddStep, ChiStep, run_fixpoint
from .image import SimulationImage, next_state_functions
from .iwls95 import PartitionedRelation

#: Chaining schedules: ``static`` fires the IWLS95-scored order every
#: round; ``round-robin`` rotates the starting partition per round (the
#: fallback when the static scoring has no signal, e.g. all-equal
#: chains).
CHAIN_SCHEDULES = ("static", "round-robin")

#: Default number of input variables to split the relation on.  0 keeps
#: one disjunct (pure chaining + frontier-avoidance, the fastest
#: setting on the Table-2 surrogates); positive values trade more,
#: simpler partitions for more fires — worthwhile when cofactoring
#: collapses the next-state logic.
DEFAULT_SPLIT_INPUTS = 0

#: Default IWLS95 clustering threshold for the chi-based saturation
#: engine.  Finer than ``tr``'s 800: chained fires are many and small,
#: so smaller clusters (earlier quantification, cheaper and_exists
#: steps) amortize better — on the Table-2 surrogates 400 beats 800 on
#: four of the five circuits and flips s1512s from a tie with ``tr``
#: into a clear win.
DEFAULT_SAT_CLUSTER_THRESHOLD = 400

#: The BFV hybrid defaults to splitting one input: each cube then
#: drives that input constant during symbolic simulation, shrinking the
#: parameter set the re-parameterization has to eliminate.
DEFAULT_BFV_SPLIT_INPUTS = 1


def split_input_vars(
    bdd, deltas: Dict[str, int], state_order: Sequence[str], x_vars, cap: int
) -> Tuple[List[int], List[int]]:
    """Choose up to ``cap`` input variables to split the relation on.

    Ranks inputs by how many next-state functions mention them (most
    shared first — cofactoring those simplifies the most per-latch
    logic); inputs mentioned by no delta are never split on.  Returns
    ``(split, unsplit)`` with ``unsplit`` in declaration order.
    """
    occurrence: Dict[int, int] = {}
    for net in state_order:
        for var in bdd.support(deltas[net]):
            occurrence[var] = occurrence.get(var, 0) + 1
    ranked = sorted(
        (v for v in x_vars if occurrence.get(v)),
        key=lambda v: (-occurrence[v], v),
    )
    split = ranked[: max(0, cap)]
    unsplit = [v for v in x_vars if v not in split]
    return split, unsplit


class _Partition:
    """One disjunct of the split relation plus its saturation state."""

    __slots__ = (
        "cube", "relation", "support", "nonsupport", "pending", "fired",
        "fires", "skips",
    )

    def __init__(self, cube, relation, support, nonsupport):
        self.cube = cube  # {input var: bool} (empty for the unsplit case)
        self.relation = relation
        self.support = support  # s-vars the relation actually reads
        self.nonsupport = nonsupport  # s-vars it ignores (projected away)
        self.pending: Any = None  # chi node or BFV; None/false = clean
        self.fired: Any = None  # chi engines: projection already fired on
        self.fires = 0
        self.skips = 0


def chain_order(bdd, partitions: Sequence[_Partition]) -> List[int]:
    """Static chaining order: cheapest relation chain first.

    The IWLS95-flavoured score: partitions whose clustered chain is
    smaller fire first, so early fires (which run to a local fix point
    and feed everyone else's pending set) are the cheap ones.  Ties
    break on cube index, keeping the order deterministic.
    """
    def cost(index: int) -> Tuple[int, int]:
        chain = partitions[index].relation.clusters
        return (sum(bdd.dag_size(c) for c in chain), index)

    return sorted(range(len(partitions)), key=cost)


def sweep_order(order: Sequence[int], round_number: int, schedule: str) -> List[int]:
    """The firing order for one macro round under a chaining schedule."""
    if schedule == "static" or len(order) < 2:
        return list(order)
    shift = (round_number - 1) % len(order)
    return list(order[shift:]) + list(order[:shift])


class _Saturating(BddStep):
    """The chaining shared by both saturation steps.

    One driver iteration is one macro round: each partition, in the
    round's sweep order, is saturated to a local fix point by
    :meth:`saturate`, which ticks the driver after each fire.  The
    chaining position rides in every checkpoint's metadata, so a resume
    re-enters the sweep where the snapshot left it.
    """

    chained = True
    chain_schedule: str
    split_inputs: int
    round = position = resume_position = 0

    def __init__(self, space, *args, **options):
        super().__init__(space, *args, **options)
        if self.chain_schedule not in CHAIN_SCHEDULES:
            raise CircuitError(
                "unknown chain schedule %r (want one of %s)"
                % (self.chain_schedule, ", ".join(CHAIN_SCHEDULES))
            )
        self.partitions: List[_Partition] = []
        self.order: List[int] = []
        self.split: List[int] = []

    def split_inputs_of(self) -> Tuple[Dict[str, int], List[int]]:
        """The transition functions, and the inputs left unsplit."""
        space = self.space
        by_net = next_state_functions(
            space, SymbolicSimulator(self.bdd, space.circuit)
        )
        self.split, unsplit = split_input_vars(
            self.bdd, by_net, space.state_order, space.x_vars,
            self.split_inputs,
        )
        return by_net, unsplit

    def restore_chain(self, snapshot) -> int:
        chain = snapshot.meta.get("extra", {}).get("sat", {})
        self.resume_position = int(chain.get("position", 0))
        self.fires = int(chain.get("fires", snapshot.iteration))
        return max(0, int(chain.get("round", 1)) - 1)

    def chain_meta(self) -> Dict[str, object]:
        return {
            "sat": {
                "round": self.round,
                "position": self.position,
                "fires": self.fires,
                "order": list(self.order),
            }
        }

    def iterate(self, iteration, tick):
        self.round = iteration
        sweep = sweep_order(self.order, iteration, self.chain_schedule)
        with self.tracer.span("saturate"):
            for position in range(self.resume_position, len(sweep)):
                self.position = position
                self.saturate(self.partitions[sweep[position]], tick)
        self.resume_position = 0
        return self.clean()

    def saturate(self, part: _Partition, tick: Callable[[int], None]) -> None:
        raise NotImplementedError

    def clean(self) -> bool:
        raise NotImplementedError

    def trace_round(self, tracer, iteration):
        tracer.event(
            "saturate",
            iteration=iteration,
            fires=[p.fires for p in self.partitions],
            skips=[p.skips for p in self.partitions],
            partitions=len(self.partitions),
        )

    def finish(self, result, monitor):
        super().finish(result, monitor)
        result.extra["saturation"] = {
            "partitions": len(self.partitions),
            "split_vars": len(self.split),
            "schedule": self.chain_schedule,
            "order": list(self.order),
            "fires": [p.fires for p in self.partitions],
            "skips": [p.skips for p in self.partitions],
            "total_fires": self.fires,
        }


class SatStep(_Saturating, ChiStep):
    engine = "sat"
    cluster_threshold: int

    def setup(self):
        space = self.space
        bdd = self.bdd
        by_net, unsplit = self.split_inputs_of()
        quantify = list(space.s_vars) + unsplit
        for bits in itertools.product((False, True), repeat=len(self.split)):
            cube = dict(zip(self.split, bits))
            parts = []
            for net in space.state_order:
                delta = by_net[net]
                if cube:
                    delta = bdd.cofactor_cube(delta, cube)
                parts.append(
                    bdd.equiv(bdd.var(space.next_var[net]), delta)
                )
            relation = PartitionedRelation(
                bdd, parts, quantify, cluster_threshold=self.cluster_threshold
            )
            read = set()
            for cluster in relation.clusters:
                read |= set(bdd.support(cluster))
            support = sorted(set(space.s_vars) & read)
            nonsupport = sorted(set(space.s_vars) - read)
            self.partitions.append(
                _Partition(cube, relation, support, nonsupport)
            )
        self.order = chain_order(bdd, self.partitions)

        init = space.initial_chi(self.initial_points)
        self.reached = bdd.incref(init)
        for part in self.partitions:
            part.pending = bdd.incref(init)
            part.fired = bdd.false

    def set_slot(self, part, attr, node):
        self.bdd.incref(node)
        self.bdd.decref(getattr(part, attr))
        setattr(part, attr, node)

    def restore(self, snapshot):
        bdd = self.bdd
        bdd.decref(self.reached)
        self.reached = snapshot.functions["reached"]
        for i, part in enumerate(self.partitions):
            bdd.decref(part.pending)
            part.pending = snapshot.functions["pend%02d" % i]
            bdd.decref(part.fired)
            part.fired = snapshot.functions["fired%02d" % i]
        return self.restore_chain(snapshot)

    def saturate(self, part, tick):
        bdd = self.bdd
        tracer = self.tracer
        while part.pending != bdd.false:
            with tracer.span("image"):
                if self.selection:
                    frontier = part.pending
                    if part.nonsupport:
                        frontier = bdd.exists(part.nonsupport, frontier)
                    frontier = bdd.diff(frontier, part.fired)
                    self.set_slot(part, "pending", bdd.false)
                    if frontier == bdd.false:
                        part.skips += 1
                        return
                    self.set_slot(part, "fired", bdd.or_(part.fired, frontier))
                else:
                    frontier = part.pending
                    self.set_slot(part, "pending", bdd.false)
                image = self.space.t_to_s(part.relation.image(frontier))
            part.fires += 1
            self.fires += 1
            with tracer.span("fixpoint_test"):
                new = bdd.diff(image, self.reached)
            if new != bdd.false:
                with tracer.span("union"):
                    old = self.reached
                    self.reached = bdd.incref(bdd.or_(old, new))
                    bdd.decref(old)
                    for other in self.partitions:
                        if other is part:
                            self.set_slot(part, "pending", new)
                        else:
                            self.set_slot(
                                other, "pending", bdd.or_(other.pending, new)
                            )
            tick(self.fires)

    def clean(self):
        return all(p.pending == self.bdd.false for p in self.partitions)

    def payload(self):
        functions = {"reached": self.reached}
        for i, part in enumerate(self.partitions):
            functions["pend%02d" % i] = part.pending
            functions["fired%02d" % i] = part.fired
        return {"functions": functions, "meta": self.chain_meta()}

    def audit_roots(self):
        return {
            "roots": [self.reached]
            + [p.pending for p in self.partitions]
            + [p.fired for p in self.partitions]
        }

    def sizes(self):
        bdd = self.bdd
        pending_union = bdd.false
        for part in self.partitions:
            pending_union = bdd.or_(pending_union, part.pending)
        frontier_size = bdd.dag_size(pending_union)
        reached_size = bdd.dag_size(self.reached)
        return {
            "frontier_size": frontier_size,
            "reached_size": reached_size,
            "chi_size": reached_size,
        }

    def release(self, completed):
        super().release(completed)
        for part in self.partitions:
            part.relation.release()
            self.bdd.decref(part.pending)
            self.bdd.decref(part.fired)


class BfvSatStep(_Saturating):
    engine = "bfv-sat"
    schedule: str
    # The last fire's from-vector and image, held like the sets: the
    # pinned vectors alive at a collection decide what it frees.
    from_vec: Any = None
    image: Any = None

    def setup(self):
        space = self.space
        bdd = self.bdd
        _, unsplit = self.split_inputs_of()
        var_to_net = {v: net for net, v in space.input_var.items()}
        self.simulation = SimulationImage(space, self.schedule, unsplit)
        for bits in itertools.product((False, True), repeat=len(self.split)):
            constants = {
                var_to_net[v]: (bdd.true if value else bdd.false)
                for v, value in zip(self.split, bits)
            }
            self.partitions.append(_Partition(constants, None, None, None))
        self.order = list(range(len(self.partitions)))

        self.reached = BFV.from_points(
            bdd, space.s_vars, space.initial_point_set(self.initial_points)
        )
        for part in self.partitions:
            part.pending = self.reached

    def restore(self, snapshot):
        self.reached = snapshot.vectors["reached"]
        for i, part in enumerate(self.partitions):
            pending = snapshot.vectors["pend%02d" % i]
            part.pending = None if pending.is_empty else pending
        return self.restore_chain(snapshot)

    def saturate(self, part, tick):
        tracer = self.tracer
        while part.pending is not None:
            self.from_vec = part.pending
            part.pending = None
            self.image = image = self.simulation.image(
                tracer, self.from_vec, part.cube
            )
            part.fires += 1
            self.fires += 1
            with tracer.span("union"):
                new_reached = image.union(self.reached)
            with tracer.span("fixpoint_test"):
                grew = new_reached != self.reached
            if grew:
                self.reached = new_reached
                for other in self.partitions:
                    if other is part:
                        if (
                            self.selection
                            and new_reached.shared_size() < image.shared_size()
                        ):
                            part.pending = new_reached
                        else:
                            part.pending = image
                    elif other.pending is None:
                        other.pending = image
                    else:
                        other.pending = other.pending.union(image)
            tick(self.fires)

    def clean(self):
        return all(p.pending is None for p in self.partitions)

    def payload(self):
        empty = BFV.empty(self.bdd, self.space.s_vars)
        vectors = {"reached": self.reached}
        for i, part in enumerate(self.partitions):
            vectors["pend%02d" % i] = (
                empty if part.pending is None else part.pending
            )
        return {"vectors": vectors, "meta": self.chain_meta()}

    def audit_roots(self):
        return {
            "vectors": [self.reached]
            + [p.pending for p in self.partitions if p.pending is not None]
        }

    def sizes(self):
        frontier_size = sum(
            p.pending.shared_size()
            for p in self.partitions
            if p.pending is not None
        )
        return {
            "frontier_size": max(1, frontier_size),
            "reached_size": self.reached.shared_size(),
        }


def sat_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    cluster_threshold: int = DEFAULT_SAT_CLUSTER_THRESHOLD,
    split_inputs: int = DEFAULT_SPLIT_INPUTS,
    chain_schedule: str = "static",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Saturation reachability over characteristic functions.

    ``result.extra['space']`` / ``['reached_chi']`` hold the layout and
    reached set for cross-validation; ``result.extra['saturation']``
    carries the per-partition fire/skip counts, the chaining order and
    the split variables.  ``selection_heuristic`` toggles the
    projection-based frontier-avoidance (off, partitions fire on their
    raw pending deltas — same result, more work).  With a
    ``checkpointer`` the reached set, every pending/fired set and the
    chaining position are snapshotted at every fire, and the run
    resumes mid-chain from the latest valid snapshot.
    """
    step = SatStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, chain_schedule=chain_schedule,
        split_inputs=split_inputs, cluster_threshold=cluster_threshold,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )


def bfv_sat_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    split_inputs: int = DEFAULT_BFV_SPLIT_INPUTS,
    chain_schedule: str = "static",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """The BFV hybrid: saturation inside the reparameterization loop.

    Same disjunctive chaining as :func:`sat_reachability`, but every
    fire is one Figure-2 step: symbolic simulation with the partition's
    split inputs driven *constant* (so the cube never becomes a
    parameter), re-parameterization over the remaining (choice +
    unsplit-input) parameters, and BFV union into the reached set.
    Pending deltas are BFVs; a partition is clean when its pending
    vector is ``None``.  ``result.extra['reached']`` holds the final
    BFV.  ``selection_heuristic`` picks the smaller of the fire's image
    and its raw pending vector as the partition's next local frontier.
    """
    step = BfvSatStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, chain_schedule=chain_schedule,
        split_inputs=split_inputs, schedule=schedule,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )
