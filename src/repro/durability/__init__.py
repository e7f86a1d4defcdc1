"""Durable serving: write-ahead tick journals and whole-process recovery.

The layers above this package keep a serving process *internally*
robust — torn-write detection, checkpoint/restore, the recovery
ladder.  This package makes the process *externally* robust: a
``SIGKILL`` at any instant loses no acknowledged tick, and a restarted
process rebuilds its streams and models from the durable root instead
of from scratch.

* :class:`~repro.durability.journal.TickJournal` — the crc-framed,
  fsync'd append-only WAL (per stream).
* :class:`~repro.durability.recovery.RecoveryManager` /
  :class:`~repro.durability.recovery.RecoveryReport` — scan a durable
  root, replay journals, report what was rebuilt.
* :class:`~repro.durability.store.DurableModelStore` — compiled-model
  artifacts (tree + baseline checkpoint) for warm registry restarts.
"""

from repro.durability.journal import (
    JOURNAL_MAGIC,
    JournalError,
    TickJournal,
    atomic_write_bytes,
    atomic_write_text,
    decode_delta,
    encode_delta,
    fsync_dir,
)
from repro.durability.recovery import (
    ModelRecovery,
    RecoveryError,
    RecoveryManager,
    RecoveryReport,
    StreamRecovery,
)
from repro.durability.store import DurableModelStore

__all__ = [
    "JOURNAL_MAGIC",
    "JournalError",
    "TickJournal",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_delta",
    "encode_delta",
    "fsync_dir",
    "ModelRecovery",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "StreamRecovery",
    "DurableModelStore",
]
