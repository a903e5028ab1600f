"""Optional multiprocessing over sentences, capped by GEC_XFORM_THREADS."""

from __future__ import annotations

import multiprocessing
import os

ENV_THREADS = "GEC_XFORM_THREADS"


def thread_cap() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_ordered(fn, items: list) -> list:
    """Apply ``fn`` to every item, preserving input order.

    Runs serially unless the thread cap allows more; ``fn`` must be picklable
    and pure.
    """
    n = min(thread_cap(), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (n * 4))
    with multiprocessing.Pool(processes=n) as pool:
        return pool.map(fn, items, chunksize=chunk)
