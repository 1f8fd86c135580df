"""One fork pool for the pipeline's independent work.

A :class:`Scheduler` runs tasks ``fn(shared, item)`` on forked worker
processes, one per CPU this process may run on (its CPU affinity), as they
become ready. A task may carry a ``then`` callback that runs here with the
task's :class:`Outcome` and may submit further tasks, so one pool runs a
whole task graph: :func:`gits.harness.run_experiment` queues each seed's
pilot, the pilot's return queues that seed's scoring chunks, and the last
chunk's return selects the seed's pilot-based cells and queues their
trainings, while trainings that need no pilot already run on the other
workers.

At most one task is in flight per worker. Whenever a worker is free, the
scheduler hands it the ready task of the lowest priority number, and tasks
of one priority run in the order they were submitted. So a task that
becomes ready late but matters more (a scoring chunk that a selection
waits for) is not stuck behind tasks queued before it (trainings).
``gits select`` and ``gits train`` run one seed's pilot and scoring chunks
on a pool of their own (:func:`gits.harness.pilot_gradients`).

Every task, wherever it runs, passes through :func:`_call`, which holds
the one failure and timing policy: an exception a task raises becomes the
outcome's error text (:func:`error_text`), and the outcome carries the
task's ``time.perf_counter`` start and end. That clock is system-wide, so a
span timed in a worker compares with one timed here. An exception in a
``then`` callback, or a worker that dies, still raises from
:meth:`Scheduler.run`.

The workers inherit ``shared`` through fork, so only each task's item and
outcome are pickled, and ``fn`` by its import path. They fork when the run
starts, so ``shared`` must be complete by then; arrays from
:func:`shared_zeros` in it carry the workers' writes back without pickling.
With one worker the same tasks run in this process, in the same order, so
``taskset -c 0 gits run ...`` is a serial run. Each task runs the same
arithmetic in the same order wherever it runs, so the outputs do not
depend on the worker count.

Scoring hands each worker one contiguous chunk of candidates
(``pilot_scoring.score_chunks``), which the worker scores in stacks of
several candidates per surrogate call (``pilot_scoring.stack_size``: 8 at
the long_axis_select bench shape, 1 at the default grid's). A stack is cut
at the end of a chunk, and stacking does not change any candidate's
arithmetic, so the chunking does not change the outputs either.

The workers are forked rather than spawned: a spawned worker would import
the package again and receive the dataset by pickling.
"""

from __future__ import annotations

import heapq
import itertools
import mmap
import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, NamedTuple

import numpy as np

_shared = None  # the scheduler's shared object, inside a worker


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def worker_count(tasks: int) -> int:
    """Workers for ``tasks`` independent tasks: one per CPU, at most one per task."""
    return max(1, min(cpu_count(), tasks))


def shared_zeros(shape) -> np.ndarray:
    """A float64 array of zeros that forked workers write into and this process reads.

    It lives in a shared anonymous mapping, so results written into it by
    the workers come back without being pickled or copied.
    """
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * count), dtype=np.float64,
                         count=count).reshape(shape)


def error_text(exc: Exception) -> str:
    """How a failure is recorded: type, message, short traceback."""
    return f"{type(exc).__name__}: {exc}\n" + traceback.format_exc(limit=3)


class Outcome(NamedTuple):
    """What one task returned, or its error text, and its ``perf_counter`` span."""

    value: Any
    error: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _call(fn, shared, item) -> Outcome:
    """Run ``fn(shared, item)`` and time it; an exception becomes the outcome's error."""
    start = time.perf_counter()
    try:
        value, error = fn(shared, item), None
    except Exception as exc:  # the task failure policy: record and continue
        value, error = None, error_text(exc)
    return Outcome(value, error, start, time.perf_counter())


def _install(shared) -> None:
    global _shared
    _shared = shared


def _run(fn, item) -> Outcome:
    return _call(fn, _shared, item)


class Scheduler:
    """Runs tasks ``fn(shared, item)`` by priority as they become ready.

    :meth:`submit` queues a task; :meth:`run` runs every queued task, and
    every task that a ``then`` callback submits, until none is left.
    ``workers`` is the pool size; with 1 every task runs in this process.
    """

    def __init__(self, shared, workers: int):
        self.shared = shared
        self.workers = workers
        self._ready: list = []  # heap of (priority, submission number, fn, item, then)
        self._submitted = itertools.count()

    def submit(self, priority: int, fn, item, then=None) -> None:
        """Queue ``fn(shared, item)``; ``then(outcome)`` runs here when it returns.

        A lower ``priority`` runs first; within one, the first submitted.
        """
        heapq.heappush(self._ready, (priority, next(self._submitted), fn, item, then))

    def _pop(self):
        return heapq.heappop(self._ready)[1:]

    def run(self) -> None:
        """Run the tasks until none is ready or in flight.

        A task's exception is its :class:`Outcome`'s error and stops no
        other task. An exception raised by a callback, or a dead worker, is
        raised here once the tasks in flight have returned.
        """
        if self.workers == 1:
            while self._ready:
                _, fn, item, then = self._pop()
                outcome = _call(fn, self.shared, item)
                if then is not None:
                    then(outcome)
            return
        with ProcessPoolExecutor(self.workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install, initargs=(self.shared,)) as pool:
            running = {}  # future -> (submission number, then)
            while self._ready or running:
                while self._ready and len(running) < self.workers:
                    number, fn, item, then = self._pop()
                    running[pool.submit(_run, fn, item)] = (number, then)
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda f: running[f][0]):
                    _, then = running.pop(future)
                    outcome = future.result()
                    if then is not None:
                        then(outcome)
