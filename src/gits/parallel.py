"""One fork pool for the pipeline's independent work.

A :class:`Scheduler` runs tasks on forked worker processes, one per CPU
this process may run on (its CPU affinity), as they become ready. Every
call is ``fn(shared, items)``: ``fn`` takes a list of items and returns a
list of one value per item, so a lone task is a call of one item and a
stack of tasks is one call of all their items. A task may carry a
``then`` callback that runs here with the task's :class:`Outcome` and may
submit further tasks, so one pool runs a whole task graph:
:func:`gits.harness.run_experiment` queues each seed's pilot, the pilot's
return queues that seed's scoring chunks, the last chunk's return queues
the seed's pilot-based selections, and each selection's return queues its
training, while the selections and trainings that need no pilot already
run on the other workers.

At most one task is in flight per worker. Whenever a worker is free, the
scheduler hands it the ready task of the lowest priority number, and tasks
of one priority run in the order they were submitted. So a task that
becomes ready late but matters more (a scoring chunk that a selection
waits for) is not stuck behind tasks queued before it (trainings).
``gits select`` and ``gits train`` run one cell's pilot, scoring chunks
and selection on a pool of their own (:func:`gits.harness.select_starts`).

Tasks submitted with a stack key run stacked when they wait for a worker:
the free worker that takes one takes other ready tasks of its key, and
one call of ``fn`` gets all their items.
The ready tasks of a key are shared out among the free workers and the
workers busy with tasks of the same or a later priority, which will come
back for more; a worker busy with more urgent work (a pilot, a scoring
chunk) gets no share. So a task runs alone whenever a worker is free for
it, and trainings stack while pilots and scoring hold the other workers.
The grid's trainings of one pair count share a key, and a stack of them
steps its minibatches in one surrogate call
(:func:`gits.surrogate.train_stack`). Each slice of a stack computes what
it computes alone, so how the tasks were stacked does not change the
outputs.

Every call, wherever it runs, passes through :func:`_call`, which holds
the one failure and timing policy: an exception the call raises becomes
the error text (:func:`error_text`) of each of its items, an exception
that ``fn`` returns as an item's value becomes that item's, and each
item's outcome carries the call's ``time.perf_counter`` start and end.
That clock is system-wide, so a span timed in a worker compares with one
timed here. An exception in a ``then`` callback, or a worker that dies,
still raises from :meth:`Scheduler.run`.

The workers inherit ``shared`` through fork, so only each call's items and
outcomes are pickled, and ``fn`` by its import path. They fork when the run
starts, so ``shared`` must be complete by then; arrays from
:func:`shared_zeros` in it carry the workers' writes back without pickling.
With one worker the same tasks run in this process, in the same order, so
``taskset -c 0 gits run ...`` is a serial run. Each task runs the same
arithmetic in the same order wherever it runs, so the outputs do not
depend on the worker count.

Scoring hands each worker one contiguous chunk of candidates, which the
worker scores with ``surrogate.start_loss_grads`` in stacks of several
candidates per surrogate call (``surrogate.stack_size``: 8 at the
long_axis_select bench shape, 1 at the default grid's). A stack is cut at
the end of a chunk, and stacking does not change any candidate's
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


def error_text(exc: BaseException) -> str:
    """How a failure is recorded: type, message, and the short traceback of
    where it was raised, if it was raised."""
    trace = traceback.format_exception(exc, limit=3) if exc.__traceback__ is not None else []
    return f"{type(exc).__name__}: {exc}\n" + "".join(trace)


class Outcome(NamedTuple):
    """What one task returned, or its error text, and its ``perf_counter`` span."""

    value: Any
    error: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _call(fn, shared, items: list) -> list[Outcome]:
    """Run ``fn(shared, items)`` and time it: the outcome of each item.

    Each item's outcome has the call's span and its own entry of the
    returned list as its value, or as its error if that entry is an
    exception; an exception the call raises is every item's error.
    """
    start = time.perf_counter()
    try:
        values = fn(shared, items)
    except Exception as exc:  # the task failure policy: record and continue
        values = [exc] * len(items)
    end = time.perf_counter()
    return [Outcome(None, error_text(value), start, end) if isinstance(value, Exception)
            else Outcome(value, None, start, end) for value in values]


class _Call(NamedTuple):
    """One call of a task's ``fn``: one task, or a stack of them."""

    priority: int
    number: int  # the submission number of its first task
    fn: Any
    items: list  # each task's item
    thens: list  # each task's callback


def _install(shared) -> None:
    global _shared
    _shared = shared


def _run(fn, items: list) -> list[Outcome]:
    return _call(fn, _shared, items)


class Scheduler:
    """Runs tasks ``fn(shared, items)`` by priority as they become ready.

    :meth:`submit` queues a task; :meth:`run` runs every queued task, and
    every task that a ``then`` callback submits, until none is left.
    ``workers`` is the pool size; with 1 every task runs in this process.
    """

    def __init__(self, shared, workers: int):
        self.shared = shared
        self.workers = workers
        self._ready: list = []  # heap of (priority, submission number, fn, item, then, stack)
        self._submitted = itertools.count()

    def submit(self, priority: int, fn, item, then=None, stack=None) -> None:
        """Queue ``item`` for ``fn``; ``then(outcome)`` runs here when it returns.

        ``fn(shared, items)`` returns a list with one value per item, where
        an exception is that item's failure; a task without a ``stack`` key
        is the call ``fn(shared, [item])``. A lower ``priority`` runs first;
        within one, the first submitted. Tasks of one ``fn`` and one
        ``stack`` key (not None) run stacked: the worker that takes one
        takes ready tasks of that key with it, as :meth:`_take` shares them
        out, and runs them as one call ``fn(shared, [item, ...])``. With a
        free worker for each, every task runs alone. Each task's ``then``
        gets its own :class:`Outcome`.
        """
        heapq.heappush(self._ready, (priority, next(self._submitted), fn, item, then, stack))

    def _take(self, free: int, busy: list[int]) -> list[_Call]:
        """The calls that ``free`` free workers take next.

        That is the ready task of the lowest priority alone or, if it has a
        stack key, with the other ready tasks of its function and key. Those
        n tasks are shared out, in submission order, among the free workers
        and the busy ones whose task has this priority or a later one
        (``busy`` holds the priority of each task in flight): each free
        worker's share is one call, and a busy worker's share stays queued
        for the next worker that frees up. A worker busy with more urgent
        work gets no share, as more urgent work may follow it.
        """
        first = heapq.heappop(self._ready)
        priority, number, fn, item, then, stack = first
        if stack is None:
            return [_Call(priority, number, fn, [item], [then])]
        tasks = sorted([first] + [e for e in self._ready if e[2] is fn and e[5] == stack],
                       key=lambda entry: entry[1])
        self._ready = [e for e in self._ready if not (e[2] is fn and e[5] == stack)]
        heapq.heapify(self._ready)
        later = sum(p >= priority for p in busy)
        shares = np.array_split(np.arange(len(tasks)), min(len(tasks), free + later))
        for share in shares[free:]:
            for i in share:
                heapq.heappush(self._ready, tasks[i])
        return [_Call(priority, tasks[share[0]][1], fn, [tasks[i][3] for i in share],
                      [tasks[i][4] for i in share]) for share in shares[:free]]

    def run(self) -> None:
        """Run the tasks until none is ready or in flight.

        A task's exception is its :class:`Outcome`'s error and stops no
        other task. An exception raised by a callback, or a dead worker, is
        raised here once the tasks in flight have returned.
        """
        if self.workers == 1:
            while self._ready:
                for call in self._take(1, []):
                    self._returned(call, _call(call.fn, self.shared, call.items))
            return
        with ProcessPoolExecutor(self.workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install, initargs=(self.shared,)) as pool:
            running = {}  # future -> call
            while self._ready or running:
                while self._ready and len(running) < self.workers:
                    busy = [call.priority for call in running.values()]
                    for call in self._take(self.workers - len(running), busy):
                        running[pool.submit(_run, call.fn, call.items)] = call
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda f: running[f].number):
                    self._returned(running.pop(future), future.result())

    @staticmethod
    def _returned(call: _Call, outcomes: list[Outcome]) -> None:
        for then, outcome in zip(call.thens, outcomes):
            if then is not None:
                then(outcome)
