"""Small helpers shared by the benchmark's child processes."""

import bisect
import contextlib
import gc
import os
import resource
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid):
    """CPU seconds of ``pid`` plus its reaped children, from /proc."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime are fields 14-17 of proc(5); after
    # the command name they sit at offsets 11-14.
    return sum(int(value) for value in fields[11:15]) / _TICK


def own_cpu_s():
    """CPU seconds of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb():
    """Largest resident set of this process or any reaped descendant."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def dir_bytes(root, part=None):
    """Bytes of the files under ``root`` (only in ``part`` dirs if set)."""
    total = 0
    for path, _, names in os.walk(root):
        if part is not None and part not in path.split(os.sep):
            continue
        for name in names:
            try:
                total += os.path.getsize(os.path.join(path, name))
            except OSError:
                pass
    return total


class Calibrator:
    """Samples the host's speed so op times can be read at a fixed speed.

    The host's speed drifts by up to 2x between runs (see NOTES.md), so
    a raw time says as much about the host as about the program.  A
    sample times one fixed pure-Python loop, independent of the program,
    on the same core as the ops.  An op's *reference* time is its raw
    time x ``REF_S`` / (mean of the samples around it, see
    :meth:`factor`): what the op would take on a host whose loop takes
    ``REF_S``.
    """

    #: The loop's duration on a quiet core of the host the benchmark was
    #: tuned on (a 2-vCPU Sapphire Rapids KVM guest).
    REF_S = 0.0165

    #: Least seconds between samples; ops shorter than this share them.
    INTERVAL_S = 0.25

    #: Samples this close to an op count towards its speed.
    WINDOW_S = 1.0

    def __init__(self):
        self.samples = []  # (perf_counter at the sample's end, seconds)
        #: (wall start, wall end, CPU seconds) of each sample the timer
        #: of :meth:`interrupting` took; see :meth:`stolen`.
        self.interruptions = []

    @staticmethod
    def loop_s():
        """Wall seconds of one run of the fixed reference loop.

        The cyclic collector is off during the loop, so a sample taken
        inside an op never collects the op's heap.  The loop's tuples
        form no cycles and are freed with the table.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for i in range(60_000):
                key = ((i * 2654435761) & 0xFFFF, i & 7)
                table[key] = table.get(key, 0) + 1
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()

    def sample(self, force=False):
        """Take a sample unless one was taken within ``INTERVAL_S``."""
        since = time.perf_counter() - (
            self.samples[-1][0] if self.samples else float("-inf")
        )
        if force or since >= self.INTERVAL_S:
            seconds = self.loop_s()
            self.samples.append((time.perf_counter(), seconds))

    def factor(self, start, end):
        """``REF_S`` / the host's loop time over the span [start, end].

        Averages the samples within ``WINDOW_S`` of the span, and always
        the last one before it and the first one after it: one 17 ms
        sample is itself noisy, and the host's speed holds for seconds.
        """
        times = [t for t, _ in self.samples]
        first = bisect.bisect_left(times, start - self.WINDOW_S)
        first = min(first, max(bisect.bisect_right(times, start) - 1, 0))
        last = bisect.bisect_right(times, end + self.WINDOW_S)
        last = max(last, bisect.bisect_left(times, end) + 1)
        around = [s for _, s in self.samples[first:last]]
        return self.REF_S * len(around) / sum(around)

    @contextlib.contextmanager
    def interrupting(self, interval_s=INTERVAL_S):
        """Inside the block, also sample every ``interval_s`` of wall time.

        A timer signal runs the sample on the main thread, between two
        bytecodes of whatever runs there, so an op that lasts seconds is
        sampled while it runs, on its own core.  The time the samples
        take is recorded for :meth:`stolen`.  Call nothing else of this
        calibrator inside the block.
        """

        def handler(signum, frame):
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            self.sample(force=True)
            self.interruptions.append(
                (wall0, time.perf_counter(), time.process_time() - cpu0)
            )

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def stolen(self, start, end):
        """(wall, CPU) seconds the timer's samples took within [start, end].

        A sample runs between two bytecodes, so it lies wholly inside or
        wholly outside a span timed with ``perf_counter``.
        """
        inside = [
            (wall1 - wall0, cpu)
            for wall0, wall1, cpu in self.interruptions
            if start <= wall0 and wall1 <= end
        ]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def sampled_s(self):
        """Seconds this calibrator has spent in its own loop."""
        return sum(s for _, s in self.samples)


def speed_now(samples=4):
    """``REF_S`` / the mean of ``samples`` loop times taken right now.

    Scales a set-up span that has just ended: the host's speed holds for
    seconds, and set-up spans last 0.1-1 s.
    """
    calibrator = Calibrator()
    for _ in range(samples):
        calibrator.sample(force=True)
    return Calibrator.REF_S * samples / calibrator.sampled_s()


def pin_to_one_cpu():
    """Keep this process (and what it forks) on one core, the lowest."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
