"""Durable artifacts for registered models.

The :class:`~repro.registry.registry.ModelRegistry` pays its biggest
cost exactly once per model — moralize, triangulate, build and
calibrate the junction tree.  :class:`DurableModelStore` keeps the two
artifacts that make a *fresh process* skip that cost:

* the rerooted junction tree (structure + potentials) as JSON, via
  :mod:`repro.io.json_io`;
* the baseline :mod:`repro.integrity` checkpoint bytes the pool's
  engines rehydrate from.

Layout under ``<root>/models/``::

    manifest.json        model_id -> {tree, checkpoint, ...} index
    <slug>.tree.json     the tree artifact
    <slug>.ckpt.npz      the checkpoint artifact

All writes go through the same temp-file + fsync + ``os.replace``
discipline as the journal, and the manifest is rewritten *after* both
artifacts land, so a crash mid-save leaves either the previous
manifest (orphan artifact files are harmless and overwritten on the
next save) or the new one — never a manifest pointing at a torn file.
Adoption validates the pair before trusting it: the checkpoint's
recorded tree signature must match the loaded tree, reusing the
integrity layer's end-to-end validation chain.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from typing import Dict, Optional, Tuple

from repro.durability.journal import atomic_write_bytes, atomic_write_text
from repro.integrity.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointMismatch,
    read_manifest,
    tree_signature,
)
from repro.io.json_io import tree_from_dict, tree_to_dict

_SLUG_OK = re.compile(r"[^A-Za-z0-9._-]")


def _slug(model_id: str) -> str:
    """Filesystem-safe stem for a model id, collision-proofed by hash."""
    clean = _SLUG_OK.sub("_", model_id)[:48]
    if clean == model_id:
        return clean
    digest = hashlib.sha256(model_id.encode("utf-8")).hexdigest()[:12]
    return f"{clean}-{digest}"


class DurableModelStore:
    """Reads and writes a durable root's ``models/`` directory."""

    def __init__(self, root: str):
        self.dir = os.path.join(root, "models")
        self.manifest_path = os.path.join(self.dir, "manifest.json")
        os.makedirs(self.dir, exist_ok=True)

    def manifest(self) -> Dict[str, Dict[str, object]]:
        if not os.path.isfile(self.manifest_path):
            return {}
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except ValueError:
            return {}
        return doc if isinstance(doc, dict) else {}

    def model_ids(self):
        return sorted(self.manifest())

    def save(
        self,
        model_id: str,
        junction_tree,
        baseline: bytes,
        compile_seconds: float = 0.0,
    ) -> None:
        """Durably persist one compiled model's artifacts.

        Artifacts first, manifest last — the manifest only ever points
        at files that are fully on disk.
        """
        stem = _slug(model_id)
        tree_name = f"{stem}.tree.json"
        ckpt_name = f"{stem}.ckpt.npz"
        tree_doc = tree_to_dict(junction_tree, include_potentials=True)
        atomic_write_text(
            os.path.join(self.dir, tree_name),
            json.dumps(tree_doc, separators=(",", ":")),
        )
        atomic_write_bytes(os.path.join(self.dir, ckpt_name), bytes(baseline))
        manifest = self.manifest()
        manifest[model_id] = {
            "tree": tree_name,
            "checkpoint": ckpt_name,
            "checkpoint_bytes": len(baseline),
            "compile_seconds": float(compile_seconds),
        }
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True)
        )

    def load(
        self, model_id: str
    ) -> Optional[Tuple[object, bytes, Dict[str, object]]]:
        """Load and validate one model's artifacts.

        Returns ``(junction_tree, baseline_bytes, meta)`` or ``None``
        when the model has no durable artifacts (or they are missing on
        disk).  Raises :class:`~repro.integrity.checkpoint.CheckpointError`
        when artifacts exist but fail validation — callers treat that
        as "recompile cold", never as silent adoption of bad state.
        """
        meta = self.manifest().get(model_id)
        if meta is None:
            return None
        tree_path = os.path.join(self.dir, str(meta["tree"]))
        ckpt_path = os.path.join(self.dir, str(meta["checkpoint"]))
        if not (os.path.isfile(tree_path) and os.path.isfile(ckpt_path)):
            return None
        with open(tree_path, "r", encoding="utf-8") as handle:
            junction_tree = tree_from_dict(json.load(handle))
        with open(ckpt_path, "rb") as handle:
            baseline = handle.read()
        recorded = read_manifest(io.BytesIO(baseline))
        if recorded.get("format") != CHECKPOINT_FORMAT:
            # Written by a build with another table layout: recompile
            # cold now, not fail the restore at first acquire.
            raise CheckpointMismatch(
                f"durable checkpoint for {model_id!r} has format "
                f"{recorded.get('format')!r}, this build reads "
                f"{CHECKPOINT_FORMAT}"
            )
        expected = tree_signature(junction_tree)
        if recorded.get("tree_signature") != expected:
            raise CheckpointMismatch(
                f"durable checkpoint for {model_id!r} was written against a "
                f"different tree (signature {recorded.get('tree_signature')!r}"
                f" != {expected!r})"
            )
        return junction_tree, baseline, dict(meta)
