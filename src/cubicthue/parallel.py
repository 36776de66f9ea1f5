"""The one process-pool map of the engine, and the job streams it takes."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, TypeVar

J = TypeVar("J")
R = TypeVar("R")

# jobs per pool task: each task costs the parent process ~0.5 ms of CPU
# to send and collect.  A 2985-t sweep on two workers spent 0.26 s of
# parent CPU at 8 and 0.11 s at 64 (0.80 s and 0.63 s wall); 128 saved
# no more.
CHUNKSIZE = 64


class Jobs:
    """The items of a few sized pieces (ranges, tuples) in turn: sized and
    re-iterable like their list, but holding only the pieces, so a range of
    any length costs the parent process the same few bytes and the pool's
    forked workers inherit no list of it."""

    __slots__ = ("pieces",)

    def __init__(self, *pieces):
        self.pieces = pieces

    def __len__(self) -> int:
        return sum(map(len, self.pieces))

    def __iter__(self) -> Iterator:
        return itertools.chain.from_iterable(self.pieces)


def parallel_map(fn: Callable[[J], R], jobs: Iterable[J], workers: int) -> Iterator[R]:
    """fn over jobs, yielding the results in job order: on a pool of
    min(workers, len(jobs)) processes, or in this process when that is
    at most 1, in tasks of at most CHUNKSIZE jobs and at least four tasks
    per worker where the jobs allow.  `jobs` may be any sized iterable,
    such as `Jobs`; the pool is fed from it lazily, a task at a time, so
    no list of them is built.  `fn` must be a module-level function (or a
    partial of one) so the pool can pickle it."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    # imported here so that serial runs do not load it (~0.8 MB of RSS)
    import multiprocessing
    chunksize = max(1, min(CHUNKSIZE, len(jobs) // (4 * workers)))
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, jobs, chunksize=chunksize)
