"""Span recording for the traced run: wrappers around each layer's API.

The traced run measures each layer from outside the program: it replaces
the public functions the layers call each other through with wrappers
that record one span per call -- name, start, end, parent span and the
id of the cell or request the call belongs to.  Spans stay in memory and
are written out once, at the end.  No program file changes: the wrappers
are installed on the imported modules and classes of this process only.

Self time is a span's duration minus the time its child spans cover;
because the calls nest, a child lies inside its parent and siblings do
not overlap, so the covered time is the sum of the children's durations.
"""

import functools
import gzip
import json
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store with a per-thread stack for parent links."""

    def __init__(self):
        #: One ``[name, start, end, parent, cell]`` list per span.
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def cell(self):
        """Id of the cell or request the calling thread works on."""
        return getattr(self._local, "cell", None)

    @cell.setter
    def cell(self, value):
        self._local.cell = value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func):
        """``func`` with one span recorded around every call."""
        spans = self.spans
        lock = self._lock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.cell]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[1] = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()

        return traced

    def span(self, name, func, *args, **kwargs):
        """Call ``func`` once under a span named ``name``."""
        return self.wrap(name, func)(*args, **kwargs)

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        exclusive = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            exclusive[name] += end - start - child[index]
        return {
            name: (calls[name], inclusive[name], exclusive[name])
            for name in calls
        }

    def write(self, path):
        """Write every span as one compressed JSON line.

        Lines are formatted by hand: a traced ``bfv-control`` run holds
        about two million spans, and ``json.dumps`` per span takes
        seconds.  Span names are plain identifiers; ids are encoded once.
        """
        ids = {}
        for cell in {span[4] for span in self.spans}:
            ids[cell] = json.dumps(cell)
        line = '{"name": "%s", "start": %r, "end": %r, "parent": %d, "id": %s}'
        with gzip.open(path, "wb", compresslevel=1) as handle:
            for first in range(0, len(self.spans), 10_000):
                chunk = self.spans[first:first + 10_000]
                handle.write("".join(
                    line % (name, start, end, parent, ids[cell]) + "\n"
                    for name, start, end, parent, cell in chunk
                ).encode())


#: (span name, method) for every wrapped ``BDD`` method.  The program's
#: modules are imported only inside :func:`install`.
_BDD_METHODS = (
    ("bdd.not", "not_"),
    ("bdd.and", "and_"),
    ("bdd.or", "or_"),
    ("bdd.cofactors", "cofactors"),
    ("bdd.rename", "rename"),
    ("bdd.and_exists", "and_exists"),
    ("bdd.exists", "exists"),
    ("bdd.gc", "collect_garbage"),
)

#: Modules that bind ``eliminate_params`` by name at import time and that
#: a workload runs; the wrapper has to replace it where it is looked up.
_ELIMINATE_SITES = (
    "repro.bfv.reparam",
    "repro.reach.bfv_engine",
    "repro.reach.sat_engine",
)


def install(recorder):
    """Wrap the layer entry points; returns an undo callable."""
    import importlib

    from repro.bdd import BDD
    from repro.bfv import ops
    from repro.bfv.vector import BFV
    from repro.sim.symbolic import SymbolicSimulator

    saved = []

    def patch(owner, attr, name):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original))

    for name, attr in _BDD_METHODS:
        patch(BDD, attr, name)
    patch(SymbolicSimulator, "next_state", "sim.next_state")
    patch(ops, "raw_union", "bfv.raw_union")
    patch(BFV, "union", "bfv.union")
    # One wrapper shared by every lookup site, so a call is one span.
    reparam = importlib.import_module("repro.bfv.reparam")
    original = reparam.eliminate_params
    wrapped = recorder.wrap("bfv.eliminate_params", original)
    for module_name in _ELIMINATE_SITES:
        module = importlib.import_module(module_name)
        saved.append((module, "eliminate_params", original))
        module.eliminate_params = wrapped

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
