"""Torn-write detection primitives for the shared-memory arena.

A pool worker that executes a task (or chunk) stamps a crc32 over the
flat arena regions it wrote; the master recomputes the crc over the same
regions when the result future resolves and raises
:class:`TornWriteError` on mismatch.  The task DAG guarantees no other
writer touches those regions between the worker's stamp and the
master's verify (successors only become ready once the result is
absorbed), so a mismatch can mean only one thing: the bytes in the
arena are not the bytes the worker computed — a torn write, a stray
writer, or memory corruption.

crc32 (:func:`zlib.crc32`) is the right tool here: it is not
cryptographic, but the adversary is a SIGKILL mid-``memcpy``, not an
attacker, and it runs at memory bandwidth so stamping every dispatch
stays off the critical path.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

import numpy as np

from repro.sched.faults import TaskExecutionError


class TornWriteError(TaskExecutionError):
    """The arena bytes do not match the checksum the worker stamped.

    Carries full task attribution (tid, kind, phase, edge, chunk) via
    :class:`~repro.sched.faults.TaskExecutionError`, so a torn chunk in
    a 200-clique run is pinned to its exact write range.  Once the arena
    disagrees with what a worker computed, every table downstream of the
    tear is suspect, so the run fails at once and the recovery ladder
    (:class:`~repro.sched.resilient.ResilientExecutor`) rolls the state
    back and re-runs it on the next tier instead.
    """


def crc32_array(
    values: np.ndarray, lo: Optional[int] = None, hi: Optional[int] = None
) -> int:
    """crc32 over one array's bytes, optionally restricted to ``[lo:hi)``
    of its flat index space."""
    flat = np.ascontiguousarray(values).reshape(-1)
    if lo is not None:
        flat = flat[lo:hi]
    return zlib.crc32(np.ascontiguousarray(flat).tobytes())


def crc32_regions(
    regions: Sequence[np.ndarray],
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> int:
    """Rolling crc32 over several flat regions (same ``[lo:hi)`` slice of
    each).

    Region order matters and callers on both sides of the process
    boundary must use the same one — :func:`repro.sched.process._written_flat`
    is the single source of that order.
    """
    crc = 0
    for region in regions:
        flat = np.ascontiguousarray(region).reshape(-1)
        if lo is not None:
            flat = flat[lo:hi]
        crc = zlib.crc32(np.ascontiguousarray(flat).tobytes(), crc)
    return crc
