import multiprocessing

from cubicthue.parallel import CHUNKSIZE, parallel_map


def test_pool_tasks_are_capped_and_a_short_list_is_still_split(monkeypatch):
    """CHUNKSIZE jobs per task on a long list; a short one keeps at
    least four tasks per worker, so it is not run by one worker; and the
    pool has no more processes than there are jobs."""
    sizes = []

    class RecordingPool:
        def __init__(self, workers):
            self.workers = workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize):
            sizes.append((self.workers, chunksize))
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for n, workers in ((7, 2), (59, 2), (2985, 2), (2985, 64), (3, 8)):
        assert list(parallel_map(abs, range(-n, 0), workers)) == list(range(n, 0, -1))
    assert sizes == [(2, 1), (2, 7), (2, CHUNKSIZE), (64, 11), (3, 1)]
    # one job, or none, runs in this process whatever the workers asked
    for jobs in ([-3], []):
        assert list(parallel_map(abs, jobs, 8)) == [abs(j) for j in jobs]
    assert list(parallel_map(abs, [-3, 2], 1)) == [3, 2] and len(sizes) == 5
