"""Synthesis: BDDs back to gate-level netlists, and don't-care minimization.

Closing the loop from the symbolic world to circuits:

* :func:`bdd_to_gates` — emit a BDD as a shared multiplexer network
  inside a :class:`Circuit` (one mux per internal node, simplified at
  constant children, shared nodes emitted once);
* :func:`resynthesize` — rebuild a circuit's next-state and output
  logic from its transition BDDs;
* :func:`minimize_with_reachability` — the classic application of
  reachability analysis to logic optimization: states outside the
  reachable set are don't-cares, so each next-state function can be
  minimized against the reached characteristic function with the
  Coudert-Madre ``restrict`` operator.  The result is *sequentially
  equivalent from reset* (verified with our own equivalence checker in
  the tests), often with a smaller BDD footprint.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .bdd import BDD
from .circuits.netlist import Circuit
from .errors import ReproError
from .reach.common import ReachLimits, ReachSpace
from .reach.image import next_state_functions
from .reach.tr_engine import tr_reachability
from .sim.symbolic import SymbolicSimulator


def bdd_to_gates(
    bdd: BDD,
    node: int,
    circuit: Circuit,
    net_of_var: Dict[int, str],
    prefix: str,
    memo: Optional[Dict[int, Tuple[str, bool]]] = None,
) -> str:
    """Emit ``node`` as gates in ``circuit``; returns the output net.

    ``net_of_var`` maps BDD variable indices to circuit nets.  Shared
    BDD nodes become shared nets (pass one ``memo`` across calls to
    share across multiple roots).  Constant roots synthesize
    ``x AND NOT x`` style constants from an arbitrary mapped net.
    """
    if memo is None:
        memo = {}

    def net_for(current: int) -> Tuple[str, Optional[bool]]:
        """Net computing ``current``, or (None, constant) for terminals."""
        if current == bdd.false:
            return "", False
        if current == bdd.true:
            return "", True
        if current in memo:
            return memo[current][0], None
        var = bdd.node_var(current)
        if var not in net_of_var:
            raise ReproError(
                "BDD depends on unmapped variable %r" % bdd.var_name(var)
            )
        select = net_of_var[var]
        lo, hi = bdd.node_children(current)
        lo_net, lo_const = net_for(lo)
        hi_net, hi_const = net_for(hi)
        out = "%s_n%d" % (prefix, current)
        inverted = out + "_ns"
        # Simplified mux forms at constant children.
        if lo_const is False and hi_const is True:
            circuit.add_gate(out, "BUF", (select,))
        elif lo_const is True and hi_const is False:
            circuit.not_(out, select)
        elif hi_const is True:
            circuit.or_(out, select, lo_net)
        elif hi_const is False:
            circuit.not_(inverted, select)
            circuit.and_(out, inverted, lo_net)
        elif lo_const is True:
            circuit.not_(inverted, select)
            circuit.or_(out, inverted, hi_net)
        elif lo_const is False:
            circuit.and_(out, select, hi_net)
        else:
            circuit.not_(inverted, select)
            circuit.and_(out + "_a", select, hi_net)
            circuit.and_(out + "_b", inverted, lo_net)
            circuit.or_(out, out + "_a", out + "_b")
        memo[current] = (out, False)
        return out, None

    net, const = net_for(node)
    if const is None:
        return net
    # Constant root: synthesize from any mapped net.
    if not net_of_var:
        raise ReproError("cannot synthesize a constant with no nets")
    source = next(iter(net_of_var.values()))
    out = "%s_const%d" % (prefix, int(const))
    if out in circuit.gates:
        return out
    circuit.not_(out + "_inv", source)
    if const:
        circuit.or_(out, source, out + "_inv")
    else:
        circuit.and_(out, source, out + "_inv")
    return out


def resynthesize(
    circuit: Circuit,
    delta_overrides: Optional[Dict[str, int]] = None,
    space: Optional[ReachSpace] = None,
    name: Optional[str] = None,
) -> Circuit:
    """Rebuild ``circuit`` from its (optionally overridden) BDDs.

    Computes each latch's next-state function and each primary output
    as a BDD over the input/state variables, applies
    ``delta_overrides`` (state net -> replacement BDD), and emits a
    fresh netlist with the same interface and initial state.
    """
    if space is None:
        space = ReachSpace(circuit)
    bdd = space.bdd
    simulator = SymbolicSimulator(bdd, circuit)
    drivers = {net: bdd.var(v) for net, v in space.input_var.items()}
    drivers.update(
        {net: bdd.var(v) for net, v in space.state_var.items()}
    )
    values = simulator.evaluate_nets(drivers)
    overrides = delta_overrides or {}

    result = Circuit(name or (circuit.name + "_synth"))
    for net in circuit.inputs:
        result.add_input(net)
    for latch in circuit.latches.values():
        result.add_latch(latch.output, "synth_d_" + latch.output, latch.init)
    net_of_var: Dict[int, str] = {
        v: net for net, v in space.input_var.items()
    }
    net_of_var.update({v: net for net, v in space.state_var.items()})
    memo: Dict[int, Tuple[str, bool]] = {}
    for latch in circuit.latches.values():
        node = overrides.get(latch.output, values[latch.data])
        net = bdd_to_gates(
            bdd, node, result, net_of_var, "f_" + latch.output, memo
        )
        result.add_gate("synth_d_" + latch.output, "BUF", (net,))
    for out in circuit.outputs:
        if out in result.nets():
            # Output is an input or latch net: already present by name.
            result.add_output(out)
            continue
        node = values[out]
        net = bdd_to_gates(bdd, node, result, net_of_var, "o_" + out, memo)
        result.add_gate(out, "BUF", (net,))
        result.add_output(out)
    result.validate()
    return result


def minimize_with_reachability(
    circuit: Circuit,
    limits: Optional[ReachLimits] = None,
    name: Optional[str] = None,
) -> Tuple[Circuit, Dict[str, int]]:
    """Minimize next-state logic against the reachable-state care set.

    Runs (characteristic-function) reachability, then replaces every
    next-state BDD ``delta_i`` by ``restrict(delta_i, reached)`` —
    free to differ on unreachable states — and resynthesizes.  Returns
    the minimized circuit and a statistics dict with the summed BDD
    sizes before and after.

    The result is sequentially equivalent from reset: both machines
    start in the (reachable) initial state and their next-state
    functions agree on every reachable state, so the trajectories never
    diverge.
    """
    space = ReachSpace(circuit)
    bdd = space.bdd
    result = tr_reachability(
        circuit, limits=limits, count_states=False, space=space
    )
    if not result.completed:
        raise ReproError(
            "reachability did not complete (%s); cannot minimize"
            % result.status
        )
    reached = result.extra["reached_chi"]
    by_net = next_state_functions(space, SymbolicSimulator(bdd, circuit))
    overrides: Dict[str, int] = {}
    before = after = 0
    for net, delta in by_net.items():
        minimized = bdd.restrict(delta, reached)
        before += bdd.dag_size(delta)
        after += bdd.dag_size(minimized)
        overrides[net] = minimized
    minimized_circuit = resynthesize(
        circuit,
        delta_overrides=overrides,
        space=space,
        name=name or (circuit.name + "_min"),
    )
    stats = {"bdd_size_before": before, "bdd_size_after": after}
    return minimized_circuit, stats
