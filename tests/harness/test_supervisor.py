"""Process isolation: child crashes never take the parent down."""

import glob
import json
import os
import signal

import pytest

from repro.harness import AttemptSpec, Supervisor, rss_bytes, run_attempt


@pytest.fixture(scope="module")
def supervisor():
    return Supervisor(poll_interval=0.02)


class TestIsolation:
    def test_success_round_trips_the_result(self, supervisor):
        result = supervisor.run(AttemptSpec(circuit="traffic"))
        assert result.completed
        assert result.num_states == 16
        info = result.extra["supervisor"]
        assert info["isolated"] is True
        assert info["exitcode"] == 0

    def test_sigkilled_child_becomes_crash(self, supervisor):
        result = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                faults=[{"kind": "die", "at_iteration": 2}],
            )
        )
        assert not result.completed
        assert result.failure == "crash"
        assert result.extra["supervisor"]["signal"] == signal.SIGKILL

    def test_hard_alloc_crash_is_absorbed(self, supervisor):
        result = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                faults=[{"kind": "alloc", "after_nodes": 100, "hard": True}],
            )
        )
        assert not result.completed
        assert result.failure == "crash"
        assert result.extra["supervisor"]["exitcode"] not in (0, None)

    def test_hung_child_hits_the_watchdog(self, supervisor):
        result = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                faults=[{"kind": "hang", "at_iteration": 1, "seconds": 60}],
            ),
            budget_seconds=0.5,
        )
        assert not result.completed
        assert result.failure == "time"
        assert result.extra["supervisor"]["killed"] == "time"
        assert result.seconds < 30

    def test_rss_guard_kills_fat_child(self, supervisor):
        result = supervisor.run(
            AttemptSpec(circuit="traffic"), max_rss_bytes=1024
        )
        assert not result.completed
        assert result.failure == "memory"
        assert result.extra["supervisor"]["killed"] == "memory"

    def test_rss_bytes_reads_own_process(self):
        rss = rss_bytes(os.getpid())
        if rss is None:
            pytest.skip("/proc VmRSS unavailable on this platform")
        assert rss > 1024 * 1024

    def test_soft_failures_round_trip_extra(self, supervisor):
        result = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                faults=[{"kind": "timeout", "at_iteration": 2}],
            )
        )
        assert not result.completed
        assert result.failure == "time"
        assert result.extra["iteration"] == 2
        assert result.extra["supervisor"]["exitcode"] == 0


class TestCrashResume:
    """The ISSUE acceptance scenario: SIGKILL mid-run, resume, same answer."""

    def test_killed_run_resumes_to_exact_state_count(
        self, supervisor, tmp_path
    ):
        baseline = run_attempt(AttemptSpec(circuit="traffic"))
        assert baseline.completed

        crashed = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                checkpoint_dir=str(tmp_path),
                faults=[{"kind": "die", "at_iteration": 3}],
            )
        )
        assert not crashed.completed
        assert crashed.failure == "crash"
        # The child checkpointed before dying; files survived the SIGKILL.
        assert glob.glob(str(tmp_path / "*.rbdd"))

        resumed = supervisor.run(
            AttemptSpec(
                circuit="traffic",
                checkpoint_dir=str(tmp_path),
                resume=True,
            )
        )
        assert resumed.completed
        assert resumed.extra["resumed_from"] == 3
        assert resumed.num_states == baseline.num_states
        assert resumed.iterations == baseline.iterations
        assert resumed.reached_size == baseline.reached_size

    def test_fault_env_reaches_the_child(self, supervisor, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            json.dumps([{"kind": "timeout", "at_iteration": 1}]),
        )
        result = supervisor.run(AttemptSpec(circuit="s27"))
        assert not result.completed
        assert result.failure == "time"


class TestInheritedSockets:
    def test_stale_socket_objects_cannot_close_new_files(self, tmp_path):
        """A forked child shuts the sockets it inherited; the parent's
        socket objects, finalized later in the child, must not close a
        file the child opened in between (its trace file)."""
        import multiprocessing
        import socket

        from repro.harness.worker import _close_inherited_sockets

        left, right = socket.socketpair()
        path = str(tmp_path / "trace.txt")

        def child():
            _close_inherited_sockets()
            with open(path, "w") as handle:
                left.close()
                right.close()
                handle.write("ok")
                handle.flush()

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(30)
        left.close()
        right.close()
        assert process.exitcode == 0
        with open(path) as handle:
            assert handle.read() == "ok"
