"""The Coudert-Berthet-Madre flow (paper Figure 1) — the motivation baseline.

Image computation is done with Boolean functional vectors, but all *set
manipulation* happens on characteristic functions, so every iteration
pays representation conversions.  Two historical image methods are
provided (``image_method``):

* ``"simulate"`` — the original CBM flow [6]: convert the from-set chi
  to a BFV, drive the symbolic simulator with its components, and
  re-parameterize (two conversions per iteration);
* ``"constrain"`` — the follow-up flow of Coudert & Madre [7], which
  the paper quotes as "replac[ing] the symbolic simulation with a range
  computation by constraining the transition functions with the
  characteristic function": each transition function is generalized
  cofactored (``constrain``) by the from-set and the image is the range
  of the constrained vector — avoiding the chi-to-BFV conversion.

The per-iteration conversion time is recorded separately
(``result.conversion_seconds``) — the cost the paper's direct BFV
algorithms eliminate (compare Figures 1 and 2).
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

from ..bfv import from_characteristic, to_characteristic
from .common import ReachLimits, ReachResult, ReachSpace
from .driver import ChiStep, run_fixpoint
from .image import SimulationImage, next_state_functions


class CbmStep(ChiStep):
    engine = "cbm"
    schedule: str
    image_method: str
    deltas: Sequence[int] = ()
    conversion = 0.0
    # The last iteration's vectors, held like the sets: the pinned
    # vectors alive at a collection decide what it frees.
    from_vec: Any = None
    image_vec: Any = None

    def setup(self):
        space = self.space
        self.simulation = SimulationImage(space, self.schedule)
        if self.image_method == "constrain":
            by_net = next_state_functions(space, self.simulation.simulator)
            self.deltas = [self.bdd.incref(by_net[n]) for n in space.state_order]
        self.start(space.initial_chi(self.initial_points))

    def convert(self, function, *args):
        """``function(*args)``, timed as a representation conversion."""
        with self.tracer.span("chi_conversion"):
            t0 = time.monotonic()
            converted = function(*args)
            self.conversion += time.monotonic() - t0
        return converted

    def iterate(self, iteration, tick):
        bdd = self.bdd
        if self.image_method == "simulate":
            # chi -> BFV conversion (the cost Figure 2 avoids).
            self.from_vec = self.convert(
                from_characteristic, bdd, self.space.s_vars, self.frontier
            )
            self.image_vec = self.simulation.image(self.tracer, self.from_vec)
        else:
            # Range computation [7]: generalized cofactor of each
            # transition function by the from-set; the image is the
            # range of the constrained vector.
            with self.tracer.span("image"):
                raw = [bdd.constrain(d, self.frontier) for d in self.deltas]
            with self.tracer.span("reparam"):
                self.image_vec = self.simulation.reparameterize(raw)
        # BFV -> chi conversion.
        return self.absorb(self.convert(to_characteristic, self.image_vec))

    def audit_roots(self):
        roots = super().audit_roots()
        roots["vectors"] = (self.image_vec,)
        return roots

    def finish(self, result, monitor):
        result.conversion_seconds = self.conversion
        super().finish(result, monitor)

    def release(self, completed):
        super().release(completed)
        for delta in self.deltas:
            self.bdd.decref(delta)
        self.deltas = ()


def cbm_reachability(
    circuit,
    slots: Optional[Sequence[str]] = None,
    limits: Optional[ReachLimits] = None,
    schedule: str = "support",
    selection_heuristic: bool = True,
    count_states: bool = True,
    order_name: str = "?",
    space: Optional[ReachSpace] = None,
    initial_points=None,
    image_method: str = "simulate",
    checkpointer=None,
    tracer=None,
    sanitize=None,
) -> ReachResult:
    """Run the Figure 1 flow; returns a :class:`ReachResult`.

    With a ``tracer`` the per-iteration representation conversions the
    paper's Figure 2 eliminates show up as ``chi_conversion`` spans,
    directly comparable against the BFV engine's phase profile.  With a
    ``sanitize`` rate sampled iterations audit manager invariants and
    the reparameterized image vector; ``result.extra['sanitizer']``
    carries the audit counts.
    """
    if image_method not in ("simulate", "constrain"):
        raise ValueError("unknown image_method %r" % image_method)
    step = CbmStep(
        space or ReachSpace(circuit, slots), count_states, initial_points,
        selection_heuristic, schedule=schedule, image_method=image_method,
    )
    return run_fixpoint(
        step, circuit.name, order_name, limits, checkpointer, tracer, sanitize
    )
