"""The one process-pool map, on which the CLI runs its t-ranges, and the
job streams it takes."""

from __future__ import annotations

import collections
import itertools
import sys
from typing import Callable, Iterable, Iterator, TypeVar

J = TypeVar("J")
R = TypeVar("R")

# jobs per task: each pool task costs the calling process ~0.6 ms of CPU
# to send and collect, plus ~5 us per sweep outcome and ~25 us per t of
# kappa rows (a pool of one process returning results made before it
# forked, 400 tasks of 8 and of 64 jobs).  At 64 that is ~3% of the
# task's own work, ~29 ms for the sweep and ~64 ms for the kappas.
CHUNKSIZE = 64
# pool tasks in flight per pool process: one running and two queued, so
# a pool process does not wait while the caller runs a task of its own
LEAD = 3
# the pool's task and result threads run in the caller's process and wait
# for its GIL while it computes.  At the default 5 ms switch interval a
# pool process sat idle 10-19% of a run, waiting for its next task or
# blocked on a result the pipe cannot hold (64 t of kappa rows, ~135 KB);
# at 0.5 ms, and LEAD 3 rather than 2, 3-6%.
SWITCH_INTERVAL_S = 0.0005


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


def _map_list(fn, task):
    return list(map(fn, task))


class _Ran:
    """A task the caller ran, held like a pool task's AsyncResult until the
    tasks before it are yielded: its results, or the exception it raised."""

    __slots__ = ("results", "error")

    def __init__(self, fn, task):
        self.results, self.error = None, None
        try:
            self.results = _map_list(fn, task)
        except Exception as exc:
            self.error = exc

    def ready(self) -> bool:
        return True

    def get(self) -> list:
        if self.error is not None:
            raise self.error
        return self.results


def parallel_map(fn: Callable[[J], R], jobs: Iterable[J], workers: int) -> Iterator[R]:
    """fn over jobs, yielding the results (or raising an exception fn
    raised) in job order, on min(workers, len(jobs)) computing processes:
    this one and a pool of the others, or this one alone when that is at
    most 1.  The jobs go in tasks of at most CHUNKSIZE jobs and at least
    four tasks per computing process where the jobs allow.  The pool is
    fed LEAD tasks per process ahead; while the oldest of them is not
    done, this process runs the next task itself, and holds at most as
    many tasks' results again, so a stalled pool process costs no more
    memory than that.  `jobs` may be any sized iterable, such as `Jobs`;
    it is read a task at a time, so no list of it is built.  `fn` must be
    a module-level function (or a partial of one) so the pool can pickle
    it.  Closing the iterator stops the pool."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    # imported here so that serial runs do not load it (~0.8 MB of RSS)
    import multiprocessing
    chunksize = max(1, min(CHUNKSIZE, len(jobs) // (4 * workers)))
    it = iter(jobs)
    tasks = iter(lambda: list(itertools.islice(it, chunksize)), [])
    task = next(tasks, None)        # the next task not yet sent or run
    pending, in_pool, ahead = collections.deque(), 0, LEAD * (workers - 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, SWITCH_INTERVAL_S))
    try:
        with multiprocessing.Pool(workers - 1) as pool:
            while pending or task is not None:
                while task is not None and in_pool < ahead:
                    pending.append(pool.apply_async(_map_list, (fn, task)))
                    in_pool += 1
                    task = next(tasks, None)
                if task is not None and len(pending) < 2 * ahead and not pending[0].ready():
                    pending.append(_Ran(fn, task))
                    task = next(tasks, None)
                    continue
                done = pending.popleft()
                in_pool -= done.__class__ is not _Ran
                yield from done.get()
    finally:
        sys.setswitchinterval(interval)
