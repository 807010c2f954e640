#!/usr/bin/env python3
"""Regenerate ``oracle.json``: expected verdicts for every benchmark circuit.

The table holds, per circuit, the number of reachable states and the BFS
depth (the largest distance from the reset state), computed by explicit
search with :func:`repro.sim.concrete.explicit_reachable` and its
:class:`~repro.sim.concrete.ConcreteSimulator` -- never with the symbolic
engines the benchmark measures.  The depth comes from a level-by-level
search whose final set must equal ``explicit_reachable``'s.

``s3271s`` is out of reach for explicit search (16 inputs times 2^18
states), so its entry is derived from its two parts: the surrogate merges
``coupled_pairs(14)`` with ``counter(4)``, two machines with disjoint
inputs that can both hold their state, so the reachable set is the
product of the parts' sets and the depth is the larger depth.  The
script checks each step of that argument by explicit search at reduced
scale before it extrapolates the pairs to 14.

Run from the repository root (about a minute):

    python3 perfbench/make_oracle.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.circuits import catalog, generators, surrogates  # noqa: E402
from repro.sim.concrete import (  # noqa: E402
    ConcreteSimulator,
    explicit_reachable,
)

#: Every circuit a workload runs: the Table 2 surrogates plus the small
#: builtins the serve and batch workloads draw from.
CIRCUITS = list(surrogates.SUITE) + [
    "s27", "traffic", "johnson8", "ring8", "coupled8", "arbiter5", "msi3",
    "handshake3",
]


def bfs_levels(circuit):
    """(reachable states, depth) by level-synchronous explicit search."""
    sim = ConcreteSimulator(circuit)
    inputs = circuit.inputs
    vectors = [
        {net: bool(mask >> i & 1) for i, net in enumerate(inputs)}
        for mask in range(1 << len(inputs))
    ]
    seen = {tuple(circuit.initial_state)}
    level = list(seen)
    depth = 0
    while True:
        nxt = []
        for state in level:
            for vector in vectors:
                succ = sim.step(state, vector)
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        if not nxt:
            break
        depth += 1
        level = nxt
    if seen != explicit_reachable(circuit, max_states=1 << 20):
        raise SystemExit("level search disagrees with explicit_reachable")
    return len(seen), depth


def s3271s_entry():
    """Product-of-parts verdict for s3271s, checked at reduced scale."""
    for pairs in range(1, 6):
        states, depth = bfs_levels(generators.coupled_pairs(pairs))
        if (states, depth) != (2 ** pairs, 1):
            raise SystemExit("coupled_pairs(%d) breaks 2^k / depth 1" % pairs)
    counter = generators.counter(4, with_enable=True)
    c_states, c_depth = bfs_levels(counter)
    small = surrogates._merge("mini", generators.coupled_pairs(3), counter)
    if bfs_levels(small) != (2 ** 3 * c_states, max(1, c_depth)):
        raise SystemExit("product rule fails on the reduced merge")
    return {
        "states": 2 ** 14 * c_states,
        "depth": max(1, c_depth),
        "method": "product of parts, each part and the rule checked "
        "by explicit search at reduced scale",
    }


def main():
    table = {}
    for name in CIRCUITS:
        if name == "s3271s":
            table[name] = s3271s_entry()
        else:
            states, depth = bfs_levels(catalog.resolve(name))
            table[name] = {"states": states, "depth": depth,
                           "method": "explicit"}
        print(name, table[name], flush=True)
    path = os.path.join(HERE, "oracle.json")
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
