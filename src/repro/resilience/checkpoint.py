"""Checkpointed resume for the ETL engine.

The engine snapshots every completed stage's output datasets (and, for
targets, the delivered table) into a :class:`CheckpointStore`. When a
run fails partway, re-running the same job against the same store
restores the completed frontier from disk and executes only the stages
past it; a successful run clears its checkpoints.

Layout: ``<dir>/<job-fingerprint>/<stage-file>.json`` — one JSON file
per completed stage, written atomically (temp file + rename). The
fingerprint hashes the job's *structure* (stage names, types, configs,
links), so editing the job invalidates old checkpoints; it does not
hash the input instance — resuming against different input data is the
caller's responsibility, as with any restartable ETL tool.

Snapshots are torn-write hardened: each file embeds a sha256 checksum
of its payload and is fsynced before the atomic rename, and a snapshot
that fails to parse or to verify is treated as absent (the stage simply
re-runs) rather than poisoning the resume.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import re
from typing import Dict, List, Optional, Tuple

from repro import config
from repro.data.dataset import Dataset
from repro.errors import SerializationError

# the stage modules already own a JSON relation codec; checkpoints reuse
# it so schema round-tripping has exactly one implementation
from repro.etl.stages.access import _relation_from_config, _relation_to_config


def resolve_checkpoint(explicit) -> Optional["CheckpointStore"]:
    """An engine's effective checkpoint store: a :class:`CheckpointStore`
    is used as-is, a string becomes a store at that directory, ``None``
    defers to the ``checkpoint_dir`` option (off when that is unset)."""
    if isinstance(explicit, CheckpointStore):
        return explicit
    if explicit is not None:
        if hasattr(explicit, "save_stage") and hasattr(
            explicit, "load_frontier"
        ):
            # store-like proxy (e.g. the fault harness's CrashingStore)
            return explicit
        return CheckpointStore(explicit)
    path = config.resolve("checkpoint_dir")
    return CheckpointStore(path) if path else None


def _checksum(body: str) -> str:
    """The integrity digest embedded in every snapshot file."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# -- value codec --------------------------------------------------------------

def encode_value(value):
    """JSON-encode one cell value, tagging non-JSON types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime.datetime):
        return {"$datetime": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"$record": {k: encode_value(v) for k, v in value.items()}}
    raise SerializationError(
        f"cannot checkpoint value of type {type(value).__name__}: {value!r}"
    )


def decode_value(value):
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if "$datetime" in value:
            return datetime.datetime.fromisoformat(value["$datetime"])
        if "$date" in value:
            return datetime.date.fromisoformat(value["$date"])
        if "$record" in value:
            return {k: decode_value(v) for k, v in value["$record"].items()}
        raise SerializationError(f"unrecognized checkpoint value {value!r}")
    return value


def _encode_dataset(dataset: Dataset) -> dict:
    return {
        "relation": _relation_to_config(dataset.relation),
        "rows": [
            {k: encode_value(v) for k, v in row.items()}
            for row in dataset.rows
        ],
    }


def _decode_dataset(payload: dict) -> Dataset:
    relation = _relation_from_config(payload["relation"])
    rows = [
        {k: decode_value(v) for k, v in row.items()}
        for row in payload["rows"]
    ]
    # checkpointed rows were validated when first produced
    return Dataset.adopt(relation, rows)


class CheckpointStore:
    """Completed-stage snapshots for one or more jobs under a directory."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- identity -------------------------------------------------------------

    @staticmethod
    def fingerprint(job) -> str:
        """A structural digest of the job: stages (name, type, config)
        and links (endpoints, ports, name, kind)."""
        stages = sorted(
            (
                s.uid,
                s.STAGE_TYPE,
                getattr(s, "on_error", None) or "",
                json.dumps(s.to_config(), sort_keys=True, default=str),
            )
            for s in job.nodes
        )
        links = sorted(
            (e.src, e.src_port, e.dst, e.dst_port, e.name, e.kind)
            for e in job.edges
        )
        blob = json.dumps([job.name, stages, links], default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _job_dir(self, job) -> str:
        return os.path.join(self.directory, self.fingerprint(job))

    @staticmethod
    def _stage_file(stage_uid: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", stage_uid)[:60]
        digest = hashlib.sha256(stage_uid.encode("utf-8")).hexdigest()[:8]
        return f"{safe}-{digest}.json"

    # -- writing --------------------------------------------------------------

    def save_stage(
        self,
        job,
        stage_uid: str,
        outputs: List[Tuple[str, Dataset]],
        delivered: Optional[Dataset] = None,
    ) -> None:
        """Snapshot one completed stage: ``outputs`` maps output link
        name → dataset; ``delivered`` is a target stage's loaded table."""
        job_dir = self._job_dir(job)
        os.makedirs(job_dir, exist_ok=True)
        payload = {
            "stage": stage_uid,
            "outputs": [
                {"link": name, **_encode_dataset(data)}
                for name, data in outputs
            ],
            "delivered": (
                None if delivered is None else _encode_dataset(delivered)
            ),
        }
        body = json.dumps(payload, sort_keys=True)
        record = {"checksum": _checksum(body), "payload": payload}
        path = os.path.join(job_dir, self._stage_file(stage_uid))
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(record, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- reading --------------------------------------------------------------

    def load_frontier(
        self, job
    ) -> Dict[str, Tuple[Dict[str, Dataset], Optional[Dataset]]]:
        """All completed stages of this job on disk:
        ``{stage_uid: ({link_name: dataset}, delivered_or_None)}``.
        Unreadable snapshot files are ignored (treated as not done)."""
        job_dir = self._job_dir(job)
        if not os.path.isdir(job_dir):
            return {}
        frontier = {}
        known = {s.uid for s in job.nodes}
        for entry in sorted(os.listdir(job_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(job_dir, entry)
            try:
                with open(path, "r") as handle:
                    record = json.load(handle)
                payload = record["payload"]
                body = json.dumps(payload, sort_keys=True)
                if record.get("checksum") != _checksum(body):
                    continue  # torn or tampered snapshot: re-run the stage
                stage_uid = payload["stage"]
                if stage_uid not in known:
                    continue
                outputs = {
                    out["link"]: _decode_dataset(out)
                    for out in payload["outputs"]
                }
                delivered = (
                    None
                    if payload.get("delivered") is None
                    else _decode_dataset(payload["delivered"])
                )
            except (
                OSError,
                ValueError,
                KeyError,
                TypeError,
                AttributeError,
                SerializationError,
            ):
                continue
            frontier[stage_uid] = (outputs, delivered)
        return frontier

    def clear(self, job) -> None:
        """Remove this job's snapshots (called after a successful run)."""
        job_dir = self._job_dir(job)
        if not os.path.isdir(job_dir):
            return
        for entry in os.listdir(job_dir):
            if entry.endswith(".json") or entry.endswith(".tmp"):
                try:
                    os.remove(os.path.join(job_dir, entry))
                except OSError:
                    pass
        try:
            os.rmdir(job_dir)
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"CheckpointStore({self.directory!r})"


__all__ = [
    "CheckpointStore",
    "resolve_checkpoint",
    "encode_value",
    "decode_value",
]
