"""Independent fits on one table, as jobs of a pool of forked processes.

A ``FitPool`` holds one table, a matrix X and its 0/1 labels, and runs jobs
on it. A job is a module-level function, called as ``job(X, labels, *args)``
with plain numbers for ``args``. The pool forks its workers when the first
job is submitted: one per CPU this process may run on
(``os.sched_getaffinity``), at most one per job. The workers inherit the
table through the fork, unpickled; only a job's function (by name), its
numbers and its result cross between processes. Workers take the jobs in
the order they were submitted, and each result is read from the job's own
handle, so the results do not depend on which worker ran which job. With
one worker, or where ``fork`` is unavailable, each job runs in the calling
process when it is submitted, in the same order.

A job that raises raises the same exception from its handle's ``result``
(in the calling process, from ``submit``). A worker that dies makes every
job not yet done raise ``BrokenProcessPool``. Leaving the pool's ``with``
block waits for the workers to end, and a block left by an exception first
cancels the jobs no worker has started. On Linux the workers are killed
with their parent, so a killed run leaves none behind. Importing this
module loads neither ``multiprocessing`` nor ``concurrent.futures``; a pool
that forks imports them.
"""
from __future__ import annotations

import os

from .dataset import as_labels, as_matrix


class FitPool:
    """Runs jobs on the table ``(X, y)``: in ``_n_workers(n_jobs)`` forked
    processes, or in this process when that is 1."""

    def __init__(self, X, y, n_jobs: int):
        self.X = as_matrix(X)
        self.labels = as_labels(y, n_rows=self.X.shape[0])
        self._executor = None
        workers = _n_workers(n_jobs)
        if workers > 1:
            # imported here, so that importing the package does not load them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            # with fork, the pool forks all its workers at the first submit,
            # before it starts a thread
            self._executor = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
                initargs=(os.getpid(), (self.X, self.labels)))

    def submit(self, job, *args):
        """A handle whose ``result()`` is ``job(X, labels, *args)``."""
        if self._executor is None:
            return _Done(job(self.X, self.labels, *args))
        return self._executor.submit(_run, job, args)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=kind is not None)


class _Done:
    """The handle of a job run in the calling process."""

    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


def _n_workers(n_jobs: int) -> int:
    """Processes to run ``n_jobs`` jobs in: one per CPU this process may run
    on, at most one per job, and 1 (the calling process) without ``fork``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs)


# (X, labels) of the pool a worker serves; set only in worker processes
_worker_table = None


def _start_worker(parent, table):
    global _worker_table
    _worker_table = table
    # a worker waits on its task queue while the queue's pipe is open, and
    # every worker holds it open: a parent killed mid-run would leave its
    # workers waiting forever. On Linux they are killed with it.
    try:
        import ctypes
        import signal
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:  # the parent died before the prctl
        os._exit(1)


def _run(job, args):
    return job(*_worker_table, *args)
