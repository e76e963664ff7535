"""Checkpointed resume: the value codec, the store, and the ETL
engine's restore-from-frontier behaviour (resume equals fresh)."""

import datetime
import os

import pytest

from repro import config
from repro.data.dataset import Dataset
from repro.errors import ExecutionError, SerializationError
from repro.etl import EtlEngine
from repro.obs import Observability
from repro.resilience import (
    CheckpointStore,
    format_row,
    resolve_checkpoint,
)
from repro.resilience.checkpoint import decode_value, encode_value
from repro.schema.model import relation
from repro.workloads import build_faulty_job, generate_faulty_instance


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "text",
            [1, "two", None],
            datetime.date(2008, 4, 7),
            datetime.datetime(2008, 4, 7, 12, 30, 15),
            {"nested": {"deep": [datetime.date(2008, 4, 7)]}},
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuples_come_back_as_lists(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_unencodable_values_fail_loudly(self):
        with pytest.raises(SerializationError):
            encode_value(object())

    def test_unrecognized_tagged_dict_fails(self):
        with pytest.raises(SerializationError):
            decode_value({"$mystery": 1})


class TestCheckpointStore:
    @staticmethod
    def _dataset(n=3):
        rel = relation("R", ("id", "int", False), ("v", "float"))
        return Dataset(rel, [{"id": i, "v": i * 1.5} for i in range(n)])

    def test_save_and_load_frontier(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        data = self._dataset()
        store.save_stage(job, "ComputeUnit", [("units", data)])
        frontier = store.load_frontier(job)
        outputs, delivered = frontier["ComputeUnit"]
        assert delivered is None
        assert [format_row(r) for r in outputs["units"].rows] == [
            format_row(r) for r in data.rows
        ]

    def test_delivered_dataset_round_trips(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        data = self._dataset()
        store.save_stage(job, "tgt_Premium", [], delivered=data)
        _outputs, delivered = store.load_frontier(job)["tgt_Premium"]
        assert len(delivered) == len(data)

    def test_clear_removes_the_job_directory(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        store.save_stage(job, "ComputeUnit", [("units", self._dataset())])
        assert os.path.isdir(os.path.join(str(tmp_path), store.fingerprint(job)))
        store.clear(job)
        assert store.load_frontier(job) == {}
        assert not os.path.isdir(
            os.path.join(str(tmp_path), store.fingerprint(job))
        )

    def test_corrupt_snapshot_is_treated_as_not_done(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        store.save_stage(job, "ComputeUnit", [("units", self._dataset())])
        job_dir = os.path.join(str(tmp_path), store.fingerprint(job))
        (entry,) = os.listdir(job_dir)
        with open(os.path.join(job_dir, entry), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.load_frontier(job) == {}

    def test_fingerprint_tracks_job_structure(self):
        assert CheckpointStore.fingerprint(build_faulty_job()) == \
            CheckpointStore.fingerprint(build_faulty_job())
        edited = build_faulty_job()
        next(s for s in edited.stages if s.name == "ComputeUnit").on_error = \
            "skip"
        assert CheckpointStore.fingerprint(edited) != \
            CheckpointStore.fingerprint(build_faulty_job())
        assert CheckpointStore.fingerprint(
            build_faulty_job(with_reject_link=True)
        ) != CheckpointStore.fingerprint(build_faulty_job())

    def test_resolve_triad(self, tmp_path, monkeypatch):
        assert resolve_checkpoint(None) is None
        store = CheckpointStore(str(tmp_path))
        assert resolve_checkpoint(store) is store
        assert resolve_checkpoint(str(tmp_path)).directory == str(tmp_path)
        with config.overriding(checkpoint_dir=str(tmp_path)):
            assert resolve_checkpoint(None).directory == str(tmp_path)
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
        assert resolve_checkpoint(None).directory == str(tmp_path / "env")


class TestEngineResume:
    def test_resume_equals_fresh_after_target_crash(self, tmp_path, monkeypatch):
        instance, _ = generate_faulty_instance(n=40, seed=11, poison=3)
        job = build_faulty_job()
        fresh = EtlEngine(on_error="skip").execute(
            build_faulty_job(), instance
        )

        target = next(s for s in job.stages if s.name == "tgt_Premium")

        def crash(data, trusted=False, errors=None):
            raise ExecutionError("disk full", stage="tgt_Premium")

        monkeypatch.setattr(target, "load", crash)
        engine = EtlEngine(on_error="skip", checkpoint=str(tmp_path))
        with pytest.raises(ExecutionError, match="disk full"):
            engine.run(job, instance)
        # the completed frontier survived the crash
        frontier = engine.checkpoint.load_frontier(job)
        assert "src_Orders" in frontier and "ComputeUnit" in frontier

        monkeypatch.undo()
        obs = Observability(stats=True)
        resumed_engine = EtlEngine(
            obs=obs, on_error="skip", checkpoint=str(tmp_path)
        )
        resumed = resumed_engine.execute(job, instance)
        assert sorted(map(format_row, resumed.dataset("Premium").rows)) == \
            sorted(map(format_row, fresh.dataset("Premium").rows))
        assert "src_Orders" in resumed_engine.last_run.restored_stages
        assert obs.metrics.counter("exec.checkpoint.restored") >= 2
        # a successful run clears its snapshots
        assert resumed_engine.checkpoint.load_frontier(job) == {}

    def test_successful_run_leaves_no_snapshots(self, tmp_path):
        instance, _ = generate_faulty_instance(n=10, seed=2)
        engine = EtlEngine(checkpoint=str(tmp_path))
        engine.run(build_faulty_job(), instance)
        assert engine.checkpoint.load_frontier(build_faulty_job()) == {}
        assert engine.last_run.restored_stages == []

    def test_saved_metric_counts_stages(self, tmp_path, monkeypatch):
        instance, _ = generate_faulty_instance(n=10, seed=2)
        job = build_faulty_job()
        target = next(s for s in job.stages if s.name == "tgt_Premium")
        monkeypatch.setattr(
            target,
            "load",
            lambda data, trusted=False, errors=None: (_ for _ in ()).throw(
                ExecutionError("boom")
            ),
        )
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, checkpoint=str(tmp_path))
        with pytest.raises(ExecutionError):
            engine.run(job, instance)
        assert obs.metrics.counter("exec.checkpoint.saved") >= 2
        engine.checkpoint.clear(job)

    def test_edited_job_ignores_stale_snapshots(self, tmp_path, monkeypatch):
        instance, _ = generate_faulty_instance(n=10, seed=2)
        job = build_faulty_job()
        target = next(s for s in job.stages if s.name == "tgt_Premium")

        def crash(data, trusted=False, errors=None):
            raise ExecutionError("boom")

        monkeypatch.setattr(target, "load", crash)
        engine = EtlEngine(checkpoint=str(tmp_path))
        with pytest.raises(ExecutionError):
            engine.run(job, instance)
        monkeypatch.undo()
        # a structurally different job must not pick up the old frontier
        edited = build_faulty_job()
        next(
            s for s in edited.stages if s.name == "ComputeUnit"
        ).on_error = "skip"
        resumed_engine = EtlEngine(checkpoint=str(tmp_path))
        resumed_engine.run(edited, instance)
        assert resumed_engine.last_run.restored_stages == []


class TestTornWriteHardening:
    """Snapshots carry a checksum and survive torn writes: any
    truncated, tampered, or type-mangled file is treated as absent —
    the stage silently re-runs — never as a parse error."""

    @staticmethod
    def _dataset(n=3):
        rel = relation("R", ("id", "int", False), ("v", "float"))
        return Dataset(rel, [{"id": i, "v": i * 1.5} for i in range(n)])

    def _snapshot_path(self, store, job, tmp_path):
        job_dir = os.path.join(str(tmp_path), store.fingerprint(job))
        (entry,) = os.listdir(job_dir)
        return os.path.join(job_dir, entry)

    def test_truncated_snapshot_is_treated_as_not_done(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        store.save_stage(job, "ComputeUnit", [("units", self._dataset())])
        path = self._snapshot_path(store, job, tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        # tear the file mid-write: keep only the first half of the bytes
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        assert store.load_frontier(job) == {}

    def test_checksum_mismatch_is_treated_as_not_done(self, tmp_path):
        import json as jsonlib

        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        store.save_stage(job, "ComputeUnit", [("units", self._dataset())])
        path = self._snapshot_path(store, job, tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            record = jsonlib.load(handle)
        # valid JSON, wrong content: flip a value under the checksum
        record["payload"]["outputs"][0]["rows"][0]["id"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            jsonlib.dump(record, handle)
        assert store.load_frontier(job) == {}

    def test_non_object_snapshot_is_treated_as_not_done(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        store.save_stage(job, "ComputeUnit", [("units", self._dataset())])
        path = self._snapshot_path(store, job, tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["not", "a", "snapshot"]')
        assert store.load_frontier(job) == {}

    def test_intact_snapshot_still_loads(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        job = build_faulty_job()
        data = self._dataset()
        store.save_stage(job, "ComputeUnit", [("units", data)])
        outputs, _ = store.load_frontier(job)["ComputeUnit"]
        assert [format_row(r) for r in outputs["units"].rows] == [
            format_row(r) for r in data.rows
        ]
