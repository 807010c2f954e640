"""Image building blocks the engines share.

``transition_relation`` is the clustered ``AND_i (t_i <-> delta_i)`` the
``tr`` and ``backward`` engines image through; :class:`SimulationImage`
is the paper's Figure-2 image, used by every BFV-producing engine and
the invariant checker.  ``eliminate_params`` is looked up on
:mod:`repro.bfv.reparam` at call time, so a wrapper installed there (a
profiler, a span recorder) sees every call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..bfv import BFV, reparam
from ..sim.symbolic import SymbolicSimulator
from .common import ReachSpace
from .iwls95 import PartitionedRelation


def next_state_functions(space: ReachSpace, simulator) -> Dict[str, int]:
    """Transition function ``delta_i(s, x)`` per state net."""
    deltas = simulator.transition_functions(
        dict(space.input_var), dict(space.state_var)
    )
    return dict(zip(space.circuit.latches, deltas))


def transition_relation(
    space: ReachSpace, cluster_threshold: int
) -> PartitionedRelation:
    """The clustered relation ``AND_i (t_i <-> delta_i)`` (clusters pinned)."""
    bdd = space.bdd
    by_net = next_state_functions(
        space, SymbolicSimulator(bdd, space.circuit)
    )
    parts = [
        bdd.equiv(bdd.var(space.next_var[net]), by_net[net])
        for net in space.state_order
    ]
    quantify = list(space.s_vars) + list(space.x_vars)
    return PartitionedRelation(
        bdd, parts, quantify, cluster_threshold=cluster_threshold
    )


class SimulationImage:
    """Figure 2's image: drive the symbolic simulator with a from-vector's
    components, re-parameterize (Sec 2.6), rename ``t`` back to ``s``.

    Inputs outside ``free_inputs`` (default: all stay parameters) must
    be driven constant per call — the saturation hybrid's split inputs.
    The free inputs' literal drivers are pinned until :meth:`release`.
    """

    def __init__(
        self,
        space: ReachSpace,
        schedule: str,
        free_inputs: Optional[Sequence[int]] = None,
    ) -> None:
        bdd = space.bdd
        free = set(space.x_vars if free_inputs is None else free_inputs)
        self.space = space
        self.simulator = SymbolicSimulator(bdd, space.circuit)
        self.schedule = schedule
        self.input_drivers = {
            net: bdd.incref(bdd.var(v))
            for net, v in space.input_var.items()
            if v in free
        }
        self.params = list(space.s_vars) + [
            v for v in space.x_vars if v in free
        ]
        self.rename_map = dict(zip(space.t_vars, space.s_vars))

    def simulate(self, components, constants=None) -> List[int]:
        """Raw next-state vector (component order) over the parameters."""
        space = self.space
        drivers = dict(self.input_drivers)
        if constants:
            drivers.update(constants)
        for net, comp in zip(space.state_order, components):
            drivers[net] = comp
        by_net = dict(
            zip(space.circuit.latches, self.simulator.next_state(drivers))
        )
        return [by_net[n] for n in space.state_order]

    def reparameterize(self, raw: Sequence[int]) -> BFV:
        """The canonical image of ``raw`` over the choice variables."""
        space = self.space
        bdd = space.bdd
        image_t = reparam.eliminate_params(
            bdd, space.t_vars, raw, self.params, self.schedule
        )
        components = [bdd.rename(f, self.rename_map) for f in image_t]
        return BFV(bdd, space.s_vars, components, validate=False)

    def image(self, tracer, from_vec: BFV, constants=None) -> BFV:
        """Both halves, timed as the ``image`` and ``reparam`` phases."""
        with tracer.span("image"):
            raw = self.simulate(from_vec.components, constants)
        with tracer.span("reparam"):
            image = self.reparameterize(raw)
        return image

    def release(self) -> None:
        for node in self.input_drivers.values():
            self.space.bdd.decref(node)
        self.input_drivers = {}
