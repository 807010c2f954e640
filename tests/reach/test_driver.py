"""The shared fix-point driver: handle pins and the step contract.

Every BDD engine runs through :func:`repro.reach.driver.run_fixpoint`,
which releases the pins a step owns once the final statistics are
taken.  After a completed run, with the result dropped, the manager
must hold no pin but the one on the returned characteristic function;
after a budget failure it must hold none at all.
"""

import gc

import pytest

from repro.circuits.catalog import resolve
from repro.reach import ENGINES, ReachLimits, ReachSpace, backward_reachability
from repro.reach.driver import FixpointStep, run_fixpoint

BDD_ENGINES = ("tr", "bfv", "cbm", "conj", "sat", "bfv-sat")


def stray_pins(space, kept=None):
    """Pins held in ``space``'s manager beyond one on ``kept``."""
    pins = dict(space.bdd._extref)
    if kept is not None and kept > 1:
        assert pins.get(kept, 0) >= 1, "the returned set lost its pin"
        pins[kept] -= 1
    return sum(pins.values())


@pytest.mark.parametrize("circuit", ("s27", "traffic"))
@pytest.mark.parametrize("engine", BDD_ENGINES)
def test_completed_run_keeps_only_the_result_pin(engine, circuit):
    c = resolve(circuit)
    space = ReachSpace(c)
    result = ENGINES[engine](c, space=space)
    assert result.completed
    kept = result.extra.get("reached_chi")
    del result
    gc.collect()
    assert stray_pins(space, kept) == 0


@pytest.mark.parametrize("engine", BDD_ENGINES)
def test_failed_run_keeps_no_pin(engine):
    c = resolve("traffic")
    space = ReachSpace(c)
    result = ENGINES[engine](
        c, space=space, limits=ReachLimits(max_iterations=2)
    )
    assert result.failure == "iterations"
    del result
    gc.collect()
    assert stray_pins(space) == 0


@pytest.mark.parametrize("circuit", ("s27", "traffic"))
def test_backward_keeps_only_the_result_pin(circuit):
    c = resolve(circuit)
    space = ReachSpace(c)
    result = backward_reachability(c, [c.initial_state], space=space)
    assert result.completed
    kept = result.extra["backward_chi"]
    del result
    gc.collect()
    assert stray_pins(space, kept) == 0


@pytest.mark.parametrize("engine", BDD_ENGINES)
def test_resumed_run_keeps_only_the_result_pin(engine, tmp_path):
    from repro.harness import Checkpointer

    c = resolve("traffic")

    def run(resume, limits=None):
        space = ReachSpace(c)
        ckpt = Checkpointer(
            str(tmp_path), engine=engine, circuit=c.name, resume=resume
        )
        result = ENGINES[engine](
            c, space=space, checkpointer=ckpt, limits=limits
        )
        return space, result

    run(False, ReachLimits(max_iterations=3))
    space, result = run(True)
    assert result.completed and result.extra["resumed_from"] == 3
    kept = result.extra.get("reached_chi")
    del result
    gc.collect()
    assert stray_pins(space, kept) == 0


class _Countdown(FixpointStep):
    """A minimal step: reaches its fix point after ``depth`` images."""

    engine = "countdown"

    def __init__(self, depth):
        from repro.bdd import BDD

        self.bdd = BDD()
        self.depth = depth
        self.calls = []

    def setup(self):
        self.calls.append("setup")

    def iterate(self, iteration, tick):
        self.calls.append(iteration)
        return iteration > self.depth

    def sizes(self):
        return {"frontier_size": 1, "reached_size": 1}

    def finish(self, result, monitor):
        self.calls.append("finish")

    def release(self, completed):
        self.calls.append(("release", completed))


def test_driver_counts_the_confirming_pass():
    step = _Countdown(3)
    result = run_fixpoint(step, "toy")
    assert result.completed and result.iterations == 4
    assert step.calls == ["setup", 1, 2, 3, 4, "finish", ("release", True)]


def test_driver_reports_budget_failures():
    step = _Countdown(10)
    result = run_fixpoint(step, "toy", limits=ReachLimits(max_iterations=2))
    assert not result.completed and result.failure == "iterations"
    assert result.extra["iteration"] == 2
    assert step.calls[-2:] == ["finish", ("release", False)]


def test_setup_failure_is_a_budget_outcome():
    from repro.errors import ResourceLimitError

    class Infeasible(_Countdown):
        def setup(self):
            raise ResourceLimitError("memory", "too big")

    step = Infeasible(1)
    result = run_fixpoint(step, "toy")
    assert result.failure == "memory" and result.iterations == 0
    # finish() reads state setup() never built, so it is skipped.
    assert step.calls == [("release", False)]
