import collections
import functools
import multiprocessing
import os
import sys
import time

import pytest

from cubicthue.parallel import CHUNKSIZE, LEAD, parallel_map

pytestmark = pytest.mark.usefixtures("hang_watchdog")


def test_pool_tasks_are_capped_and_a_short_list_is_still_split(monkeypatch):
    """CHUNKSIZE jobs per task on a long list; a short one keeps at
    least four tasks per computing process, so it is not run by one; the
    caller computes too, so the pool has one process fewer than the
    computing processes, and no more of those than there are jobs."""
    pools = []

    class Done:
        def __init__(self, value):
            self.value = value

        def ready(self):
            return True

        def get(self):
            return self.value

    class RecordingPool:
        def __init__(self, processes):
            self.tasks = collections.Counter()
            pools.append((processes, self.tasks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            self.tasks[len(args[1])] += 1
            return Done(fn(*args))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for n, workers in ((7, 2), (59, 2), (2985, 2), (2985, 64), (3, 8)):
        assert list(parallel_map(abs, range(-n, 0), workers)) == list(range(n, 0, -1))
    assert pools == [(1, {1: 7}), (1, {7: 8, 3: 1}), (1, {CHUNKSIZE: 46, 41: 1}),
                     (63, {11: 271, 4: 1}), (2, {1: 3})]
    # one job, or none, runs in this process whatever the workers asked
    for jobs in ([-3], []):
        assert list(parallel_map(abs, jobs, 8)) == [abs(j) for j in jobs]
    assert list(parallel_map(abs, [-3, 2], 1)) == [3, 2] and len(pools) == 5


def _uneven(job):
    """The job and the process that ran it, after a sleep of 0-12 ms that
    is longest for the first task's jobs, so this process takes tasks."""
    time.sleep(0.05 if job < 5 else 0.003 * (job * 7 % 5))
    return job, os.getpid()


def test_job_order_is_kept_across_the_caller_and_the_pool():
    jobs = range(60)
    results = list(parallel_map(_uneven, jobs, 2))
    assert [job for job, _ in results] == list(jobs)
    pids = {pid for _, pid in results}
    assert os.getpid() in pids and len(pids) == 2
    assert multiprocessing.active_children() == []


def _fails_at(job, bad):
    if job == bad:
        raise ValueError(os.getpid())
    return _uneven(job)


@pytest.mark.parametrize("bad, in_caller", [(2, False), (5 * LEAD + 2, True)])
def test_an_exception_reaches_the_consumer_from_either_process(bad, in_caller):
    """Five jobs a task: the first LEAD go to the pool, and while the
    first sleeps this process runs the next one.  The consumer gets the
    results of the tasks before the failing one first."""
    got = []
    with pytest.raises(ValueError) as err:
        for job, _ in parallel_map(functools.partial(_fails_at, bad=bad), range(40), 2):
            got.append(job)
    assert (err.value.args[0] == os.getpid()) == in_caller
    assert got == list(range(bad - bad % 5))
    assert multiprocessing.active_children() == []


_RUN_HERE = []


def _stalls_first_task(job):
    if job < 5:
        time.sleep(0.1)
    _RUN_HERE.append(job)       # in a pool process, to its own copy
    return job


def test_a_stalled_pool_task_bounds_the_results_held():
    """Five jobs a task, the first LEAD to the pool: while the first
    stalls, this process runs LEAD tasks more and then waits for it."""
    _RUN_HERE.clear()
    results = parallel_map(_stalls_first_task, range(40), 2)
    assert next(results) == 0
    assert _RUN_HERE == list(range(5 * LEAD, 10 * LEAD))
    assert list(results) == list(range(1, 40))


def test_closing_the_map_mid_stream_stops_the_pool():
    interval = sys.getswitchinterval()
    results = parallel_map(_uneven, range(200), 2)
    assert [next(results)[0] for _ in range(7)] == list(range(7))
    assert multiprocessing.active_children() != []
    results.close()
    assert multiprocessing.active_children() == []
    assert sys.getswitchinterval() == interval

