"""The one process-pool map of the engine."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

J = TypeVar("J")
R = TypeVar("R")

CHUNKSIZE = 8


def parallel_map(fn: Callable[[J], R], jobs: Iterable[J], workers: int) -> Iterator[R]:
    """fn over jobs, yielding the results in job order: in this process
    when workers <= 1, otherwise on a pool of `workers` processes.  `fn`
    must be a module-level function so the pool can pickle it."""
    if workers <= 1:
        yield from map(fn, jobs)
        return
    # imported here so that serial runs do not load it (~0.8 MB of RSS)
    import multiprocessing
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, jobs, chunksize=CHUNKSIZE)
