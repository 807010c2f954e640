"""Invariant checking with counterexample traces.

``check_invariant`` runs a Figure-2-style traversal that keeps the
*onion rings* ``R_0 = {init}``, ``R_k = image(R_{k-1})`` as canonical
BFVs, testing each new ring against the bad states by vector
intersection.  On a violation, a concrete input trace is reconstructed
by walking the rings backwards (one SAT query per step over the
transition functions) and re-validated with the gate-level simulator,
so a returned counterexample is guaranteed real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bfv import BFV, from_characteristic, to_characteristic
from ..bfv.ops import intersect
from ..errors import ReproError, ResourceLimitError
from ..reach.common import ReachLimits, ReachSpace, RunMonitor
from ..reach.image import SimulationImage, next_state_functions
from ..sim.concrete import ConcreteSimulator
from ..sim.symbolic import SymbolicSimulator


@dataclass
class Trace:
    """A concrete counterexample: ``states[0]`` is the initial state,
    ``inputs[j]`` drives the step from ``states[j]`` to ``states[j+1]``,
    and the final state violates the invariant."""

    states: List[Dict[str, bool]]
    inputs: List[Dict[str, bool]]

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass
class CheckResult:
    """Outcome of an invariant check."""

    holds: bool
    completed: bool = True
    failure: Optional[str] = None
    iterations: int = 0
    seconds: float = 0.0
    num_states: Optional[int] = None
    counterexample: Optional[Trace] = None
    extra: Dict[str, object] = field(default_factory=dict)


class OutputProperty:
    """AG(output stays low): no reachable state lets any input raise it."""

    def __init__(self, net: str) -> None:
        self.net = net


def output_never_high(net: str) -> OutputProperty:
    """Property: primary output ``net`` is never high, for any input."""
    return OutputProperty(net)


def _bad_states_chi(space: ReachSpace, simulator, prop) -> int:
    """Characteristic function of the states violating the property."""
    bdd = space.bdd
    if isinstance(prop, OutputProperty):
        drivers = {net: bdd.var(v) for net, v in space.input_var.items()}
        drivers.update(
            {net: bdd.var(v) for net, v in space.state_var.items()}
        )
        outputs = simulator.outputs(drivers)
        if prop.net not in outputs:
            raise ReproError("no such output net %r" % prop.net)
        return bdd.exists(space.x_vars, outputs[prop.net])
    good = prop(bdd, dict(space.state_var))
    return bdd.not_(good)


def check_invariant(
    circuit,
    prop,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    produce_trace: bool = True,
    count_states: bool = False,
) -> CheckResult:
    """Check ``AG(prop)`` on ``circuit`` from its initial state.

    ``prop`` is either a property callable ``(bdd, state_var_of) ->
    good-states chi`` (see :mod:`repro.mc.properties`) or an
    :class:`OutputProperty`.  Returns a :class:`CheckResult`; when the
    invariant fails and ``produce_trace`` is set, the result carries a
    simulator-validated counterexample :class:`Trace`.
    """
    space = ReachSpace(circuit, slots)
    bdd = space.bdd
    simulator = SymbolicSimulator(bdd, circuit)
    monitor = RunMonitor(bdd, limits)
    result = CheckResult(holds=True)

    bad_chi = bdd.incref(_bad_states_chi(space, simulator, prop))
    if bad_chi == bdd.false:
        # Property holds vacuously over the whole state space.
        return result
    bad_vec = from_characteristic(bdd, space.s_vars, bad_chi)
    simulation = SimulationImage(space, schedule)

    rings: List[BFV] = [BFV.point(bdd, space.s_vars, space.initial_point)]
    reached = rings[0]
    violation_point = None
    try:
        while True:
            ring = rings[-1]
            hit = intersect(ring, bad_vec)
            if not hit.is_empty:
                result.holds = False
                violation_point = next(hit.enumerate())
                break
            # Image of the current ring (Fig 2: simulate, reparameterize).
            image = simulation.reparameterize(simulation.simulate(ring.components))
            result.iterations += 1
            new_reached = image.union(reached)
            if new_reached == reached:
                break  # fix point: every reachable state is good
            reached = new_reached
            rings.append(image)
            monitor.checkpoint((), result.iterations)
    except ResourceLimitError as error:
        result.completed = False
        result.failure = error.kind
        result.holds = False  # unknown, conservatively not proven
    simulation.release()
    bdd.decref(bad_chi)
    result.seconds = monitor.elapsed
    if count_states:
        result.num_states = reached.count()
    result.extra["space"] = space
    result.extra["reached"] = reached
    if violation_point is not None and produce_trace:
        result.counterexample = _reconstruct_trace(
            space, circuit, rings, violation_point
        )
    return result


def _reconstruct_trace(
    space: ReachSpace, circuit, rings: Sequence[BFV], violation_point
) -> Trace:
    """Walk the onion rings backwards to a concrete input trace."""
    bdd = space.bdd
    by_net = next_state_functions(space, SymbolicSimulator(bdd, circuit))
    deltas = [by_net[n] for n in space.state_order]

    target = tuple(violation_point)
    depth = len(rings) - 1
    states = [dict(zip(space.state_order, target))]
    inputs: List[Dict[str, bool]] = []
    for step in range(depth, 0, -1):
        # Find (s in ring_{step-1}, x) with delta(s, x) == target.
        constraint = to_characteristic(rings[step - 1])
        for delta, value in zip(deltas, target):
            literal = delta if value else bdd.not_(delta)
            constraint = bdd.and_(constraint, literal)
        model = bdd.pick_model(
            constraint, care_vars=list(space.s_vars) + list(space.x_vars)
        )
        if model is None:  # pragma: no cover - rings guarantee a predecessor
            raise ReproError("trace reconstruction failed")
        state = {
            net: model["s_" + net] for net in space.state_order
        }
        step_inputs = {
            net: model["x_" + net] for net in space.input_var
        }
        states.append(state)
        inputs.append(step_inputs)
        target = tuple(state[net] for net in space.state_order)
    states.reverse()
    inputs.reverse()
    trace = Trace(states=states, inputs=inputs)
    _validate_trace(circuit, space, trace, violation_point)
    return trace


def _validate_trace(circuit, space, trace: Trace, violation_point) -> None:
    """Replay the trace on the gate-level simulator (defense in depth)."""
    simulator = ConcreteSimulator(circuit)
    declaration = list(circuit.latches)
    current = tuple(trace.states[0][net] for net in declaration)
    if current != circuit.initial_state:
        raise ReproError("counterexample does not start at the initial state")
    for step_inputs, next_state in zip(trace.inputs, trace.states[1:]):
        current = simulator.step(current, step_inputs)
        expected = tuple(next_state[net] for net in declaration)
        if current != expected:
            raise ReproError("counterexample failed simulator replay")
    final = dict(zip(declaration, current))
    expected_final = {
        net: value
        for net, value in zip(space.state_order, violation_point)
    }
    if any(final[net] != expected_final[net] for net in expected_final):
        raise ReproError("counterexample does not end in the bad state")
