"""Fault-tolerant execution: error policies, retry, checkpoints.

DataStage jobs survive dirty rows and flaky endpoints; this package
gives the reproduction the same tier, shared by all three runtimes:

* :mod:`repro.resilience.policy` — the per-stage/per-operator row error
  policy (``fail_fast`` | ``skip`` | ``reject``), the standard reject
  relation, and :class:`ErrorContext`, the per-stage collector the
  engines and kernels route row-level failures through;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff with a deadline behind an injectable clock/sleep;
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointStore`, the
  ETL engine's completed-stage snapshots for restartable runs.

The ``on_error``, ``max_retries`` and ``checkpoint_dir`` options are
rows of :mod:`repro.config`. See ``docs/robustness.md``.
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CheckpointStore,
    resolve_checkpoint,
)
from repro.resilience.policy import (
    FAIL_FAST,
    POLICIES,
    REJECT,
    SKIP,
    ErrorContext,
    RejectedRow,
    check_policy,
    format_row,
    reject_relation,
    rejects_dataset,
)
from repro.resilience.retry import (
    RetryPolicy,
    resolve_retry,
)

__all__ = [
    "FAIL_FAST",
    "SKIP",
    "REJECT",
    "POLICIES",
    "check_policy",
    "reject_relation",
    "rejects_dataset",
    "format_row",
    "RejectedRow",
    "ErrorContext",
    "RetryPolicy",
    "resolve_retry",
    "CheckpointStore",
    "resolve_checkpoint",
]
