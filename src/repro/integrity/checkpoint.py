"""Checkpoint/restore for a calibrated :class:`PropagationState`.

Format: one ``.npz`` archive with exactly two entries — a
``__manifest__`` JSON document and a single ``__tables__`` float64
vector: the state's table buffer, in
:func:`repro.tasks.layout.table_layout` order, with every intermediate
no task wrote packed as zeros (a state may run on a reused buffer whose
unwritten slots still hold another propagation's bytes; the archive
never carries them, so its bytes do not depend on the buffer's history).
One packed vector instead of one npz entry per table matters: a
serving-scale tree holds thousands of small tables, and the per-entry
zip + npy-header overhead of reading them individually costs more than
the whole restore is allowed to (warm restart must beat recalibration
by a wide margin).  A fully written state's vector *is* its buffer, so
saving packs nothing, and restoring adopts the loaded vector through
the same layout the live state uses.
The manifest records:

* the checkpoint format version (``3``: layout-ordered buffer with no
  ``extended`` slot for a pipeline whose target clique is wide; a
  format-``2`` archive, which has one, and a format-``1`` archive,
  packed in sorted-key order, are refused like any other foreign
  format),
* :func:`tree_signature` of the junction tree the state was calibrated
  on (clique scopes, topology *and* prior potentials — a checkpoint is
  only valid against the exact tree it came from; the layout is a
  function of the same scopes and topology),
* the table index: which pipeline intermediates were computed (as
  positions in the layout's ``inter`` order — the stored child messages
  the incremental planner needs are among them; a slot no task wrote
  stays absent after restore),
* the hard evidence and soft-evidence weight vectors, with their
  canonical :func:`evidence_signature`,
* a whole-state crc32 over the table index and the packed bytes.

``float64`` round-trips through npz bit-exactly, so a state restored
by :func:`load_state` answers queries *bit-identically* to the state
that was saved.  Loading validates everything it can and refuses with a
typed error instead of returning a silently-wrong state:
:class:`CheckpointMismatch` for a foreign tree, format or inconsistent
evidence record, :class:`CheckpointCorrupt` for bytes that fail the
whole-state checksum or a structurally broken archive.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.tasks.layout import table_layout

CHECKPOINT_FORMAT = 3

_MANIFEST_KEY = "__manifest__"
_TABLES_KEY = "__tables__"


class CheckpointError(RuntimeError):
    """Base class for checkpoint save/load refusals."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint belongs to a different tree or evidence record."""


class CheckpointCorrupt(CheckpointError):
    """The checkpoint's bytes fail validation (truncated/tampered/torn)."""


def tree_signature(jt) -> str:
    """Canonical fingerprint of a junction tree *including* its priors.

    Covers clique scopes and cardinalities, the parent vector (hence the
    root and every separator), and the bytes of each clique's prior
    potential — two trees agree on this signature exactly when a
    propagation state calibrated on one is meaningful on the other.
    """
    h = hashlib.sha256()
    h.update(f"cliques:{jt.num_cliques};root:{jt.root}".encode())
    for clique in jt.cliques:
        h.update(
            f"|{clique.index}:{clique.variables}:{clique.cardinalities}".encode()
        )
    h.update(f"|parent:{tuple(jt.parent)}".encode())
    for i in range(jt.num_cliques):
        values = np.ascontiguousarray(jt.potential(i).values, dtype=np.float64)
        h.update(f"|pot:{i}:".encode())
        h.update(values.tobytes())
    return h.hexdigest()


def evidence_signature(
    evidence: Mapping[int, int], soft_evidence: Mapping[int, np.ndarray]
) -> str:
    """Canonical fingerprint of an evidence record (hard + soft).

    Mirrors :meth:`repro.inference.evidence.Evidence.signature`'s
    canonical ordering, rendered as a string so it survives a JSON
    manifest round-trip unchanged.
    """
    hard = tuple(sorted((int(v), int(s)) for v, s in evidence.items()))
    soft = tuple(
        (int(v), tuple(float(w) for w in np.asarray(weights).reshape(-1)))
        for v, weights in sorted(
            soft_evidence.items(), key=lambda item: int(item[0])
        )
    )
    return repr((hard, soft))


def _state_checksum(computed: List[int], packed: np.ndarray) -> int:
    """crc32 over the table index and the packed table bytes.

    Two crc updates total, not two per table: the computed-intermediate
    index (which slots hold a message is part of what the checksum
    protects) followed by the whole packed vector.
    """
    crc = zlib.crc32(",".join(map(str, computed)).encode())
    return zlib.crc32(np.ascontiguousarray(packed, dtype=np.float64), crc)


# --------------------------------------------------------------------- #
# Save / load
# --------------------------------------------------------------------- #


def save_state(state, path) -> Dict[str, object]:
    """Write ``state`` (a calibrated :class:`PropagationState`) to ``path``.

    ``path`` may be a filesystem path or a binary file-like object (the
    session pool checkpoints into a ``BytesIO`` baseline).  Returns the
    manifest that was embedded.

    Filesystem writes are **crash-atomic**: the archive is written to a
    temp file, fsync'd, then ``os.replace``'d over the target, so a
    process killed mid-save leaves either the previous checkpoint or
    the new one — never a torn archive at the target path.
    """
    layout = table_layout(state.jt)
    present = state._inter
    computed = [
        index for index, key in enumerate(layout.inter) if key in present
    ]
    packed = state.buffer
    if len(computed) < len(layout.inter):
        # An absent slot holds whatever its buffer last held (a reused
        # buffer: another evidence case's intermediates), so it packs as
        # zeros: the bytes never depend on the buffer's history.
        packed = packed.copy()
        for key, slot in layout.inter.items():
            if key not in present:
                packed[slot.start:slot.start + slot.size] = 0.0
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "tree_signature": tree_signature(state.jt),
        "evidence": {str(v): int(s) for v, s in state.evidence.items()},
        "soft_evidence": {
            str(v): [float(w) for w in np.asarray(weights).reshape(-1)]
            for v, weights in state.soft_evidence.items()
        },
        "evidence_signature": evidence_signature(
            state.evidence, state.soft_evidence
        ),
        "state_checksum": _state_checksum(computed, packed),
        "computed": computed,
        "tables": len(layout.potentials) + len(layout.separators)
        + len(computed),
    }
    entries = {
        _MANIFEST_KEY: np.array(json.dumps(manifest)),
        _TABLES_KEY: packed,
    }
    if hasattr(path, "write"):
        np.savez(path, **entries)
        return manifest
    # Replicate np.savez's suffix behavior before building the temp
    # name, so the atomic replace lands on the same final path.
    target = str(path)
    if not target.endswith(".npz"):
        target += ".npz"
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **entries)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    dir_fd = os.open(os.path.dirname(target) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return manifest


def read_manifest(path) -> Dict[str, object]:
    """The embedded manifest of a checkpoint, without loading its tables."""
    with np.load(path, allow_pickle=False) as data:
        if _MANIFEST_KEY not in data:
            raise CheckpointCorrupt("checkpoint has no manifest")
        return json.loads(str(data[_MANIFEST_KEY][()]))


def load_state(
    jt,
    path,
    expect_evidence_signature: Optional[str] = None,
):
    """Load a checkpoint against ``jt``; returns the restored state.

    Validation, cheapest first: format version, :func:`tree_signature`
    match (:class:`CheckpointMismatch` on a foreign tree), whole-state
    checksum over the table bytes (:class:`CheckpointCorrupt`), and the
    manifest's own evidence record against its recorded signature.  Pass
    ``expect_evidence_signature`` to additionally pin the checkpoint to
    a specific evidence set (the engine does not by default — restoring
    *adopts* the checkpoint's evidence).
    """
    from repro.tasks.state import PropagationState

    try:
        with np.load(path, allow_pickle=False) as data:
            if _MANIFEST_KEY not in data:
                raise CheckpointCorrupt("checkpoint has no manifest")
            manifest = json.loads(str(data[_MANIFEST_KEY][()]))
            if _TABLES_KEY not in data:
                raise CheckpointCorrupt(
                    "checkpoint has no packed table vector"
                )
            packed = np.asarray(data[_TABLES_KEY], dtype=np.float64)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointCorrupt(
            f"unreadable checkpoint: {type(exc).__name__}: {exc}"
        ) from exc

    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointMismatch(
            f"checkpoint format {manifest.get('format')!r} != "
            f"{CHECKPOINT_FORMAT} (this build)"
        )
    expected_tree = manifest.get("tree_signature")
    actual_tree = tree_signature(jt)
    if expected_tree != actual_tree:
        raise CheckpointMismatch(
            "checkpoint was calibrated on a different junction tree "
            f"(checkpoint {str(expected_tree)[:12]}…, "
            f"this tree {actual_tree[:12]}…)"
        )
    layout = table_layout(jt)
    index = manifest.get("computed")
    if not isinstance(index, list) or packed.shape != (layout.size,):
        raise CheckpointCorrupt(
            f"table index {type(index).__name__} / packed vector of shape "
            f"{packed.shape}: the tree's layout needs a list and "
            f"({layout.size},)"
        )
    recorded = manifest.get("state_checksum")
    actual = _state_checksum(index, packed)
    if recorded != actual:
        raise CheckpointCorrupt(
            f"whole-state checksum mismatch (recorded {recorded}, "
            f"recomputed {actual}); refusing to load a torn checkpoint"
        )
    evidence = {int(v): int(s) for v, s in manifest.get("evidence", {}).items()}
    soft_evidence = {
        int(v): np.asarray(weights, dtype=np.float64)
        for v, weights in manifest.get("soft_evidence", {}).items()
    }
    recorded_sig = manifest.get("evidence_signature")
    if recorded_sig != evidence_signature(evidence, soft_evidence):
        raise CheckpointMismatch(
            "manifest evidence record does not match its recorded signature"
        )
    if (
        expect_evidence_signature is not None
        and recorded_sig != expect_evidence_signature
    ):
        raise CheckpointMismatch(
            "checkpoint evidence signature does not match the expected one"
        )

    keys = list(layout.inter)
    try:
        computed = [keys[i] for i in index]
    except (TypeError, IndexError) as exc:
        raise CheckpointCorrupt(
            "manifest table index does not name intermediates of this tree"
        ) from exc
    # ``packed`` is a fresh array this call owns outright, already in
    # layout order: the restored state adopts it as its buffer, so warm
    # restart builds views and copies nothing.
    return PropagationState.over(
        jt, packed, evidence, soft_evidence, computed=computed
    )
