"""Workload definitions: the fixed op sets and their seeded orders.

Every workload is a fixed *set* of ops; the seed only permutes the order
in which they run (cells in ``chi-sweep`` and ``batch-fanout``, requests
in ``serve-cold`` and ``serve-warm``).  Keeping the set fixed is what
makes every count metric identical across seeds.  This module imports
nothing from the program, so ``run.py`` can use it before it has checked
that the program is there.
"""

import random
import time

#: Table 2 surrogates (the paper's control- and datapath-style circuits).
SURROGATES = ("s1269s", "s1512s", "s3271s", "s3330s", "s4863s")

#: Small builtins whose requests all take 10-60 ms, so serve and batch
#: latency measures dispatch, not the engines.  ``counter8``, ``lfsr8``
#: and ``fifo3`` are left out: their 16-256 iterations, each with a
#: checkpoint, put them at 0.2-1.3 s, and a second size band makes the
#: p90 jump between bands.
SMALL = (
    "s27", "traffic", "johnson8", "ring8", "coupled8", "arbiter5", "msi3",
    "handshake3",
)

#: Engines whose iteration count is BFS depth + 1 (one image per level
#: plus the iteration that detects the fix point).  The saturation
#: engines chain images inside a round, so they only promise
#: ``rounds <= depth``.
LEVEL_ENGINES = ("bfv", "tr")

#: Deterministic budgets: a live-node ceiling and an iteration ceiling,
#: never a time budget, so verdicts do not depend on host speed.  The
#: node budget also fixes the engines' collection schedule, so it is
#: part of the workload definition.
MAX_LIVE_NODES = 60_000
MAX_ITERATIONS = 1_000

#: Held-out seed: never used while the benchmark was tuned; reserve it
#: for confirming a claimed gain.
HELD_OUT_SEED = 20030310

BFV_CONTROL = (
    ("s1512s", "bfv", "S1"),
    ("s1269s", "bfv", "S1"),
    ("s3271s", "bfv", "S1"),
    ("s4863s", "bfv", "S1"),
    ("s1269s", "bfv-sat", "S1"),
)

#: The two control cells take about 10 s each, so a run holds one pass
#: of ``bfv-control``.  The three short cells run three times in it,
#: before, between and after the long ones, so their latency is a median
#: of three samples some 10 s apart, like the repeated passes of the
#: other workloads.  Every metric counts a cell once.
BFV_CONTROL_LONG = BFV_CONTROL[:2]
BFV_CONTROL_SHORT = BFV_CONTROL[2:]

#: One order family, D (sifted): the costliest to build, so set-up is
#: real work.  Each further family adds 2-4 s to a pass, and a pass must
#: stay short enough to repeat several times in one run on a noisy host
#: (see NOTES.md).  Order O runs out of any sane budget on s3271s with
#: both engines.
CHI_ORDERS = ("D",)
CHI_SWEEP = tuple(
    (circuit, engine, order)
    for circuit in SURROGATES
    for order in CHI_ORDERS
    for engine in ("tr", "sat")
)

#: Distinct serve requests: circuit x order x engine x count_states.
SERVE_ORDERS = ("S1", "S2", "D", "P")
SERVE_REQUESTS = tuple(
    {
        "circuit": circuit,
        "engine": engine,
        "order": order,
        "count_states": count,
    }
    for circuit in SMALL
    for order in SERVE_ORDERS
    for engine in ("tr", "bfv")
    for count in (True, False)
)

#: Batch jobs: every small builtin, repeated to 200 cells.
BATCH_REPEATS = 25
BATCH_CIRCUITS = tuple(SMALL) * BATCH_REPEATS

COMPUTE = ("bfv-control", "chi-sweep")
SERVE = ("serve-cold", "serve-warm")
ALL = COMPUTE + SERVE + ("batch-fanout",)


def another_pass(started, last_pass_s, seconds):
    """True while one more pass is expected to end by the deadline."""
    return time.perf_counter() - started + last_pass_s <= seconds


def setup_samples(workload):
    """Set-up samples per run; a run reports their median.

    A ``chi-sweep`` set-up is about 1 s of builds, the others' 0.1-0.3 s,
    so they can afford more samples within the run's time.
    """
    return 5 if workload == "chi-sweep" else 7


def shuffled(items, seed, salt=0):
    """``items`` in the order the seed picks (same seed, same order)."""
    order = list(items)
    random.Random("%s/%s" % (seed, salt)).shuffle(order)
    return order


def ordered_ops(workload, seed, salt=0):
    """The workload's op list in seeded order.

    ``bfv-control`` keeps its fixed order: its five cells are the
    ROADMAP's hot path and their order does not change what they do.
    """
    if workload == "bfv-control":
        first, second = BFV_CONTROL_LONG
        short = list(BFV_CONTROL_SHORT)
        return short + [first] + short + [second] + short
    if workload == "chi-sweep":
        return shuffled(CHI_SWEEP, seed, salt)
    if workload in SERVE:
        return shuffled(SERVE_REQUESTS, seed, salt)
    if workload == "batch-fanout":
        return shuffled(BATCH_CIRCUITS, seed, salt)
    raise ValueError("unknown workload %r" % workload)
