"""Checkpoint round-trips: kill a run, resume it, get identical results.

For each of the eight engines: run under an iteration budget (the
interrupt), resume from the checkpoint directory, and require the final
reached-set statistics to match an uninterrupted run exactly — the
harness acceptance criterion.  Corrupt/torn files must be skipped in
favor of the previous valid checkpoint.
"""

import glob
import os

import pytest

from repro.bdd import BDD
from repro.errors import CheckpointError
from repro.harness import AttemptSpec, Checkpointer, run_attempt
from repro.harness.faults import corrupt_file

#: For the saturation engines the interrupt tick is the *fire* count
#: (chained image steps), not the macro round — the budget interrupts
#: them mid-chain, which is exactly the resume path worth testing.  The
#: backend engines checkpoint their set payload in the metadata.
ENGINES = ("bfv", "conj", "cbm", "tr", "sat", "bfv-sat", "bitset", "zono")
CIRCUIT = "traffic"  # 16 reachable states over 16 iterations: room to interrupt


def attempt(tmp_path=None, **kw):
    kw.setdefault("circuit", CIRCUIT)
    if tmp_path is not None:
        kw.setdefault("checkpoint_dir", str(tmp_path))
    return run_attempt(AttemptSpec(**kw))


def signature(result):
    return (result.num_states, result.iterations, result.reached_size)


class TestRoundTrips:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interrupt_resume_matches_uninterrupted(self, engine, tmp_path):
        baseline = attempt(engine=engine)
        assert baseline.completed

        interrupted = attempt(tmp_path, engine=engine, max_iterations=3)
        assert not interrupted.completed
        assert interrupted.failure == "iterations"
        assert glob.glob(str(tmp_path / "*.rbdd"))

        resumed = attempt(tmp_path, engine=engine, resume=True)
        assert resumed.completed
        assert resumed.extra["resumed_from"] == 3
        assert signature(resumed) == signature(baseline)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corrupted_newest_falls_back_to_previous(self, engine, tmp_path):
        baseline = attempt(engine=engine)
        attempt(tmp_path, engine=engine, max_iterations=3)
        files = sorted(glob.glob(str(tmp_path / "*.rbdd")))
        assert len(files) == 3
        corrupt_file(files[-1], mode="truncate")

        resumed = attempt(tmp_path, engine=engine, resume=True)
        assert resumed.completed
        assert resumed.extra["resumed_from"] == 2
        assert resumed.extra["checkpoints_skipped"] == [files[-1]]
        assert signature(resumed) == signature(baseline)

    def test_garbage_record_is_also_skipped(self, tmp_path):
        baseline = attempt()
        attempt(tmp_path, max_iterations=3)
        files = sorted(glob.glob(str(tmp_path / "*.rbdd")))
        corrupt_file(files[-1], mode="garbage")
        resumed = attempt(tmp_path, resume=True)
        assert resumed.completed
        assert resumed.extra["resumed_from"] == 2
        assert signature(resumed) == signature(baseline)

    def test_all_checkpoints_corrupt_starts_fresh(self, tmp_path):
        baseline = attempt()
        attempt(tmp_path, max_iterations=3)
        for path in glob.glob(str(tmp_path / "*.rbdd")):
            corrupt_file(path, mode="truncate")
        resumed = attempt(tmp_path, resume=True)
        assert resumed.completed
        assert "resumed_from" not in resumed.extra
        assert signature(resumed) == signature(baseline)

    def test_resume_after_completed_run_is_stable(self, tmp_path):
        baseline = attempt(tmp_path)
        assert baseline.completed
        resumed = attempt(tmp_path, resume=True)
        assert resumed.completed
        assert signature(resumed) == signature(baseline)


class TestQuarantine:
    """Corrupt checkpoints are renamed aside, not retried forever."""

    def restorer(self, tmp_path):
        return Checkpointer(
            str(tmp_path),
            engine="bfv",
            circuit=CIRCUIT,
            order="S1",
            resume=True,
        )

    def test_corrupt_newest_is_renamed_with_evidence(self, tmp_path, recwarn):
        attempt(tmp_path, max_iterations=3)
        files = sorted(glob.glob(str(tmp_path / "*.rbdd")))
        corrupt_file(files[-1], mode="truncate")
        ckpt = self.restorer(tmp_path)
        snapshot = ckpt.restore(BDD())
        assert snapshot is not None and snapshot.iteration == 2
        assert not os.path.exists(files[-1])
        assert os.path.exists(files[-1] + ".corrupt")
        assert ckpt.quarantined == [files[-1] + ".corrupt"]
        assert any(
            "quarantined corrupt checkpoint" in str(w.message)
            for w in recwarn.list
        )

    def test_quarantined_file_cannot_wedge_the_next_retry(
        self, tmp_path, recwarn
    ):
        attempt(tmp_path, max_iterations=3)
        files = sorted(glob.glob(str(tmp_path / "*.rbdd")))
        corrupt_file(files[-1], mode="garbage")
        first = attempt(tmp_path, resume=True)
        assert first.completed
        # The second resume sees only valid files: nothing skipped.
        ckpt = self.restorer(tmp_path)
        assert ckpt.restore(BDD()) is not None
        assert ckpt.skipped == []
        assert ckpt.quarantined == []

    def test_mislabeled_foreign_state_is_skipped_not_quarantined(
        self, tmp_path
    ):
        # A valid checkpoint of another flavor wearing this tag's file
        # name: provenance mismatch, not corruption — left in place.
        maker = Checkpointer(
            str(tmp_path), engine="tr", circuit=CIRCUIT, order="S1"
        )
        bdd = BDD(["a"])
        path = maker.save(bdd, 1, functions={"f": bdd.var("a")})
        disguised = os.path.join(
            str(tmp_path), os.path.basename(path).replace("-tr-", "-bfv-")
        )
        os.rename(path, disguised)
        ckpt = self.restorer(tmp_path)
        assert ckpt.restore(BDD()) is None
        assert os.path.exists(disguised)
        assert ckpt.quarantined == []
        assert ckpt.skipped and ckpt.skipped[0][0] == disguised


class TestCheckpointer:
    def make(self, tmp_path, **kw):
        kw.setdefault("engine", "bfv")
        kw.setdefault("circuit", "c")
        kw.setdefault("order", "S1")
        return Checkpointer(str(tmp_path), **kw)

    def save_one(self, ckpt, iteration, value=None):
        bdd = BDD(["a", "b"])
        f = bdd.and_(bdd.var("a"), bdd.var("b")) if value is None else value
        return ckpt.save(bdd, iteration, functions={"f": f})

    def test_interval_gates_saves(self, tmp_path):
        ckpt = self.make(tmp_path, interval=3)
        assert not ckpt.due(1) and not ckpt.due(2) and ckpt.due(3)
        bdd = BDD(["a"])
        assert not ckpt.maybe_save(bdd, 2, functions={"f": bdd.var("a")})
        assert ckpt.maybe_save(bdd, 3, functions={"f": bdd.var("a")})
        assert ckpt.saves == 1

    def test_prune_keeps_newest(self, tmp_path):
        ckpt = self.make(tmp_path, keep=2)
        for i in (1, 2, 3, 4):
            self.save_one(ckpt, i)
        iterations = [i for i, _ in ckpt.files()]
        assert iterations == [4, 3]

    def test_restore_off_by_default(self, tmp_path):
        ckpt = self.make(tmp_path)
        self.save_one(ckpt, 1)
        assert ckpt.restore(BDD()) is None

    def test_tag_mismatch_is_not_resumed(self, tmp_path):
        self.save_one(self.make(tmp_path), 1)
        other = self.make(tmp_path, engine="tr", resume=True)
        assert other.restore(BDD()) is None

    def test_meta_mismatch_raises(self, tmp_path):
        ckpt = self.make(tmp_path)
        path = self.save_one(ckpt, 1)
        # Same tag on disk, different expectation at load time.
        liar = self.make(tmp_path, order="S2")
        with pytest.raises(CheckpointError):
            liar.load(path, BDD())

    def test_loaded_snapshot_restores_function(self, tmp_path):
        ckpt = self.make(tmp_path, resume=True)
        self.save_one(ckpt, 7)
        bdd = BDD()
        snapshot = ckpt.restore(bdd)
        assert snapshot.iteration == 7
        f = snapshot.functions["f"]
        assert bdd.evaluate(f, {"a": True, "b": True})
        assert not bdd.evaluate(f, {"a": True, "b": False})

    def test_truncation_detected(self, tmp_path):
        ckpt = self.make(tmp_path, resume=True)
        path = self.save_one(ckpt, 1)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])  # drop the end trailer
        with pytest.raises(CheckpointError, match="truncated"):
            ckpt.load(path, BDD())
        assert ckpt.restore(BDD()) is None
        assert ckpt.skipped and ckpt.skipped[0][0] == path

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        ckpt = self.make(tmp_path)
        self.save_one(ckpt, 1)
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestCounterCarryover:
    """Resumed runs report monotonic, not reset, manager statistics."""

    def make(self, tmp_path, **kw):
        kw.setdefault("engine", "bfv")
        kw.setdefault("circuit", "c")
        kw.setdefault("order", "S1")
        return Checkpointer(str(tmp_path), **kw)

    def test_save_embeds_counter_snapshot(self, tmp_path):
        ckpt = self.make(tmp_path, resume=True)
        bdd = BDD(["a", "b"])
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        ckpt.save(bdd, 1, functions={"f": f})
        snapshot = ckpt.restore(BDD(["a", "b"]))
        counters = snapshot.meta["counters"]
        assert counters["op_count"] == bdd.op_count > 0
        assert counters["gc_count"] == bdd.gc_count
        assert len(counters["cache"]) > 0

    def test_monitor_restore_makes_counters_monotonic(self, tmp_path):
        from repro.reach import RunMonitor

        ckpt = self.make(tmp_path, resume=True)
        first = BDD(["a", "b"])
        f = first.and_(first.var("a"), first.var("b"))
        for _ in range(5):
            first.or_(first.var("a"), first.var("b"))
        ckpt.save(first, 1, functions={"f": f})
        ops_before_crash = first.op_count

        # A fresh interpreter (fresh manager) resumes the run.
        second = BDD(["a", "b"])
        monitor = RunMonitor(second, None, ckpt)
        snapshot = monitor.restore()
        assert snapshot is not None
        assert second.op_count >= ops_before_crash
        baseline = second.op_count
        second.xor(second.var("a"), second.var("b"))
        assert second.op_count > baseline  # still counting forward

    def test_end_to_end_resume_reports_cumulative_ops(self, tmp_path):
        interrupted = attempt(tmp_path, max_iterations=3)
        assert not interrupted.completed
        interrupted_hits = interrupted.extra["cache"]["total"]["hits"]
        resumed = attempt(tmp_path, resume=True)
        assert resumed.completed
        # The resumed attempt's totals include the interrupted run's.
        assert resumed.extra["cache"]["total"]["hits"] >= interrupted_hits
