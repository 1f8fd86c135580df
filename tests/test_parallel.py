import functools
import os
import time

import numpy as np
import pytest

from gits import harness, parallel
from gits.pde_data import SolverConfig, generate_dataset
from gits.pilot_scoring import build_candidates


def use_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "cpu_count", lambda: n)


@pytest.mark.parametrize("cpus, tasks, workers", [(1, 5, 1), (2, 5, 2), (4, 3, 3), (2, 1, 1),
                                                  (2, 0, 1)])
def test_worker_count_follows_cpus_capped_at_tasks(monkeypatch, cpus, tasks, workers):
    use_workers(monkeypatch, cpus)
    assert parallel.worker_count(tasks) == workers


def test_cpu_count_is_the_affinity_set():
    assert parallel.cpu_count() == len(os.sched_getaffinity(0)) >= 1


def _tag(shared, item):
    return shared, item * item, os.getpid()


def run_outcomes(fn, shared, items) -> list:
    """Run ``fn(shared, item)`` for every item on one Scheduler; each ``then``
    stores its outcome at its item's submission number."""
    items = list(items)
    outcomes = [None] * len(items)
    scheduler = parallel.Scheduler(shared, parallel.worker_count(len(items)))
    for i, item in enumerate(items):
        scheduler.submit(0, fn, item, then=functools.partial(outcomes.__setitem__, i))
    scheduler.run()
    return outcomes


def run_each(fn, shared, items) -> list:
    """The value of every item's outcome, in submission order."""
    return [outcome.value for outcome in run_outcomes(fn, shared, items)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_scheduler_keeps_order_and_forks_only_with_several_workers(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    out = run_each(_tag, "shared", range(7))
    assert [(s, v) for s, v, _ in out] == [("shared", i * i) for i in range(7)]
    pids = {pid for _, _, pid in out}
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= cpus
    assert run_each(_tag, None, []) == []


def _fail_on_three(shared, item):
    if item == 3:
        raise ArithmeticError(f"task {item}")
    return item


@pytest.mark.parametrize("cpus", [1, 2])
def test_scheduler_returns_a_task_exception_as_its_outcome(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    outcomes = run_outcomes(_fail_on_three, None, range(5))
    assert [o.value for o in outcomes] == [0, 1, 2, None, 4]
    assert [o.error for o in outcomes[:3] + outcomes[4:]] == [None] * 4
    assert outcomes[3].error.splitlines()[0] == "ArithmeticError: task 3"
    # the same text as the task's failure in this process
    assert outcomes[3].error == parallel._call(_fail_on_three, None, 3).error


@pytest.mark.parametrize("cpus", [1, 2])
def test_scheduler_raises_a_callback_exception_here(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    scheduler = parallel.Scheduler(None, parallel.worker_count(3))

    def then(outcome):
        if outcome.value == 1:
            raise LookupError("callback 1")

    for item in range(3):
        scheduler.submit(0, _fail_on_three, item, then=then)
    with pytest.raises(LookupError, match="callback 1"):
        scheduler.run()


def _sleep(shared, seconds):
    time.sleep(seconds)
    return os.getpid()


@pytest.mark.parametrize("cpus", [1, 2])
def test_outcome_times_the_task_where_it_ran(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    before = time.perf_counter()
    outcomes = run_outcomes(_sleep, None, [0.05, 0.0])
    after = time.perf_counter()
    assert (outcomes[0].value == os.getpid()) == (cpus == 1)
    assert outcomes[0].seconds >= 0.05
    for outcome in outcomes:
        assert outcome.error is None
        assert before <= outcome.start <= outcome.end <= after


def _record(shared, item):
    return item, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_scheduler_runs_follow_up_tasks_by_priority(monkeypatch, cpus):
    # trainings (2) queued first, a pilot (0) whose return queues chunks (1)
    use_workers(monkeypatch, cpus)
    scheduler = parallel.Scheduler("shared", parallel.worker_count(4))
    returned = []

    def then(outcome):
        item, pid = outcome.value
        returned.append((item, pid))
        if item == "pilot":
            for chunk in ("chunk0", "chunk1"):
                scheduler.submit(1, _record, chunk, then=then)

    for task in ("train0", "train1"):
        scheduler.submit(2, _record, task, then=then)
    scheduler.submit(0, _record, "pilot", then=then)
    scheduler.run()
    items = [item for item, _ in returned]
    pids = {pid for _, pid in returned}
    assert sorted(items) == ["chunk0", "chunk1", "pilot", "train0", "train1"]
    if cpus == 1:
        # in this process, by priority, then in submission order
        assert items == ["pilot", "chunk0", "chunk1", "train0", "train1"]
        assert pids == {os.getpid()}
    else:
        assert items.index("pilot") < min(items.index("chunk0"), items.index("chunk1"))
        assert os.getpid() not in pids and len(pids) <= cpus


def _fill(out, rows):
    for i in rows:
        out[i] = i + 0.5


def test_shared_zeros_carry_every_worker_write_back(monkeypatch):
    workers = parallel.cpu_count() + 2  # more workers than cores
    use_workers(monkeypatch, workers)
    out = parallel.shared_zeros((4000, 3))
    assert out.shape == (4000, 3) and out.dtype == np.float64 and not out.any()
    run_each(_fill, out, np.array_split(np.arange(4000), 4 * workers))
    assert np.array_equal(out, np.repeat(np.arange(4000)[:, None] + 0.5, 3, axis=1))


@pytest.mark.parametrize("solver, history_len, horizon", [
    # a long time axis: 296 candidates
    (SolverConfig(family="diffusion1d", spatial_size=32, t_count=301, snapshot_stride=2,
                  seed=5), 4, 4),
    # Neumann boundaries: the surrogate pads by reflection
    (SolverConfig(family="advection_diffusion1d", boundary="neumann", spatial_size=32,
                  t_count=41, seed=6), 4, 10),
])
def test_pilot_gradients_do_not_depend_on_the_cpu_count(monkeypatch, solver, history_len,
                                                        horizon):
    ds = generate_dataset(solver, 10)
    cfg = harness.ExperimentConfig(solver=solver, n_traj=10, pilot_epochs=1, horizon=horizon,
                                   batch_traj=8, history_len=history_len)
    arch = harness._model_arch(cfg, ds)
    assert arch.padding == ("reflect" if solver.boundary == "neumann" else "periodic")
    candidates = build_candidates(ds.t_count, history_len)
    runs = {}
    for cpus in (1, 2, 3):
        use_workers(monkeypatch, cpus)
        runs[cpus] = harness.pilot_gradients(cfg, ds, candidates, 11)
    losses, grads = runs[1].losses, runs[1].grads
    assert grads.shape == (candidates.size, arch.param_count())
    assert np.all(np.isfinite(grads)) and np.any(grads != 0.0)
    for cpus in (2, 3):
        assert np.array_equal(runs[cpus].losses, losses), cpus
        assert np.array_equal(runs[cpus].grads, grads), cpus
