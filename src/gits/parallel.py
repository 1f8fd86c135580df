"""One fork pool for the pipeline's independent loops.

Two loops of the pipeline have iterations that do not depend on each
other: the pilot's per-candidate losses and gradients, and the downstream
training and evaluation of each distinct selection. :func:`fork_map` runs
such a loop on forked worker processes, one per CPU this process may run
on (its CPU affinity), and never more than there are tasks. The workers
inherit the loop's shared inputs through fork, so only the tasks and their
results are pickled. With one worker the same map runs in this process, so
``taskset -c 0 gits run ...`` is a serial run. Each task runs the same
arithmetic in the same order wherever it runs, so the outputs do not
depend on the worker count.

Scoring hands each worker one contiguous chunk of candidates, which the
worker scores in stacks of several candidates per surrogate call
(``pilot_scoring.stack_size``: 8 at the long_axis_select bench shape, 1 at
the default grid's). A stack is cut at the end of a chunk, and stacking
does not change any candidate's arithmetic, so the chunking does not
change the outputs either.

The workers are forked rather than spawned: a spawned worker would import
the package again and receive the dataset and the pilot by pickling.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

_installed = None  # (fn, shared) inside a worker


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


def _install(fn, shared) -> None:
    global _installed
    _installed = (fn, shared)


def _run(item):
    fn, shared = _installed
    return fn(shared, item)


def fork_map(fn, shared, items) -> list:
    """``[fn(shared, item) for item in items]``, on forked workers when there are several.

    ``fn`` and ``shared`` reach the workers by fork, not by pickling; each
    item and each result is pickled. An exception raised by ``fn`` is raised
    here; a caller that wants one task's failure not to stop the others
    catches it inside ``fn``.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(shared, item) for item in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(fn, shared)) as pool:
        return list(pool.map(_run, items))
