"""Optional multiprocessing over sentences, capped by GEC_XFORM_THREADS."""

from __future__ import annotations

import os

ENV_THREADS = "GEC_XFORM_THREADS"


def thread_cap() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _pool_size(n_items: int) -> int:
    """Worker processes for ``n_items``: the thread cap, at most one per item and per CPU."""
    return min(thread_cap(), n_items, os.cpu_count() or 1)


def map_ordered(fn, items: list) -> list:
    """Apply ``fn`` to every item, preserving input order.

    Runs serially unless the pool size allows more; ``fn`` must be picklable
    and pure. ``multiprocessing`` is imported only for a pool, so serial runs
    never load it.
    """
    n = _pool_size(len(items))
    if n <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    chunk = max(1, len(items) // (n * 4))
    with multiprocessing.Pool(processes=n) as pool:
        return pool.map(fn, items, chunksize=chunk)
