"""The one process-pool map of the engine."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")

# jobs per pool task: each task costs the parent process ~0.5 ms of CPU
# to send and collect.  A 2985-t sweep on two workers spent 0.26 s of
# parent CPU at 8 and 0.11 s at 64 (0.80 s and 0.63 s wall); 128 saved
# no more.
CHUNKSIZE = 64


def parallel_map(fn: Callable[[J], R], jobs: Sequence[J], workers: int) -> Iterator[R]:
    """fn over jobs, yielding the results in job order: on a pool of
    min(workers, len(jobs)) processes, or in this process when that is
    at most 1, in tasks of at most CHUNKSIZE jobs and at least four tasks
    per worker where the jobs allow.  `fn` must be a module-level
    function so the pool can pickle it."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    # imported here so that serial runs do not load it (~0.8 MB of RSS)
    import multiprocessing
    chunksize = max(1, min(CHUNKSIZE, len(jobs) // (4 * workers)))
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, jobs, chunksize=chunksize)
