"""Fork-warmed shard executor for GreeDi-style distributed selection.

The sharded greedy backends solve S independent sub-problems (one per
shard) before their exact merge round.  This module runs those
sub-solves, in parallel when the platform makes it cheap: like the
experiment engine, the parent process stashes the heavy shared
state — the solve function, the index and every shard's description —
in a module global *before* creating a fork-based
``ProcessPoolExecutor``, so workers inherit it copy-on-write and each
task payload is a single shard number.  Nothing heavyweight is ever
pickled.

When forking is unavailable (non-fork start method), ``jobs <= 1`` or
there is only one shard, the shards are solved serially in-process —
same results, since every shard solve is deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

#: Parent-process payload inherited copy-on-write by forked workers:
#: ``{"solve", "parts", "path", "index"}``.  When ``path`` is set (the
#: index was opened from an ``.npz`` checkpoint), ``index`` is ``None``
#: in the parent and each forked worker lazily re-opens its *own*
#: mapping of the checkpoint — the worker then touches only the pages of
#: its shard, so resident memory per worker is O(shard), not O(n).  Set
#: only for the lifetime of one executor; the parent clears it.
_PARENT: dict | None = None


def normalize_jobs(jobs: int | None) -> int:
    """``None``/``0``/negative → every core; otherwise ``jobs``."""
    if not jobs or jobs < 1:
        return os.cpu_count() or 1
    return jobs


def _fork_available() -> bool:
    try:
        return multiprocessing.get_start_method(allow_none=True) in (
            "fork",
            None,
        ) and hasattr(os, "fork")
    except ValueError:  # pragma: no cover - defensive
        return False


def _solve_shard(shard: int):
    """Worker entry point: solve one shard from the inherited payload."""
    payload = _PARENT
    assert payload is not None, "worker forked without parent payload"
    index = payload["index"]
    if index is None and payload["path"] is not None:
        from .persistence import open_index_npz

        # The parent already verified the checkpoint when it opened it;
        # re-verifying per worker would stream the whole file S times.
        index = open_index_npz(payload["path"], verify=False)
        payload["index"] = index  # cached for this worker's later tasks
    return payload["solve"](index, payload["parts"][shard])


def solve_shards(
    solve: Callable,
    index,
    parts: Sequence,
    jobs: int | None = 1,
) -> list:
    """Apply ``solve(index, part)`` to every shard, fanning out when safe.

    ``solve`` must be deterministic (every sharded backend's sub-solves
    are), so serial and parallel execution return identical lists and
    the parallel path is purely a wall-clock optimization.  Results come
    back in shard order regardless of completion order.  When the index
    carries a source checkpoint path
    (:func:`repro.core.persistence.open_index_npz` attaches one), forked
    workers do not reuse the parent's mapping at all: each re-opens the
    checkpoint lazily and pages in only its own shard, keeping the whole
    process tree's unique resident memory at O(shard) per worker.
    In-RAM indexes are inherited copy-on-write.
    """
    parts = list(parts)
    jobs = normalize_jobs(jobs)
    if jobs <= 1 or len(parts) <= 1 or not _fork_available():
        return [solve(index, part) for part in parts]

    from .persistence import index_source_path

    path = index_source_path(index)
    global _PARENT
    _PARENT = {
        "solve": solve,
        "parts": parts,
        "path": path,
        "index": None if path is not None else index,
    }
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(parts)), mp_context=context
        ) as executor:
            return list(executor.map(_solve_shard, range(len(parts))))
    finally:
        _PARENT = None
