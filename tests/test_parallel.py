import functools
import os
import time

import numpy as np
import pytest

from gits import harness, parallel
from gits.pde_data import SolverConfig, generate_dataset
from gits.pilot_scoring import build_candidates
from test_pilot_scoring import pilot_gradients


def use_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "cpu_count", lambda: n)


@pytest.mark.parametrize("cpus, tasks, workers", [(1, 5, 1), (2, 5, 2), (4, 3, 3), (2, 1, 1),
                                                  (2, 0, 1)])
def test_worker_count_follows_cpus_capped_at_tasks(monkeypatch, cpus, tasks, workers):
    use_workers(monkeypatch, cpus)
    assert parallel.worker_count(tasks) == workers


def test_cpu_count_is_the_affinity_set():
    assert parallel.cpu_count() == len(os.sched_getaffinity(0)) >= 1


def _tag(shared, items):
    [item] = items
    return [(shared, item * item, os.getpid())]


def run_outcomes(fn, shared, items) -> list:
    """Run ``fn(shared, [item])`` for every item on one Scheduler; each ``then``
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


def _fail_on_three(shared, items):
    [item] = items
    if item == 3:
        raise ArithmeticError(f"task {item}")
    return [item]


@pytest.mark.parametrize("cpus", [1, 2])
def test_scheduler_returns_a_task_exception_as_its_outcome(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    outcomes = run_outcomes(_fail_on_three, None, range(5))
    assert [o.value for o in outcomes] == [0, 1, 2, None, 4]
    assert [o.error for o in outcomes[:3] + outcomes[4:]] == [None] * 4
    assert outcomes[3].error.splitlines()[0] == "ArithmeticError: task 3"
    # the same text as the task's failure in this process
    assert outcomes[3].error == parallel._call(_fail_on_three, None, [3])[0].error


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


def _sleep(shared, items):
    [seconds] = items
    time.sleep(seconds)
    return [os.getpid()]


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


def _record(shared, items):
    [item] = items
    return [(item, os.getpid())]


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


def _fill(out, chunks):
    [rows] = chunks
    for i in rows:
        out[i] = i + 0.5
    return [None]


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
        runs[cpus] = pilot_gradients(cfg, ds, candidates, 11)
    losses, grads = runs[1]
    assert grads.shape == (candidates.size, arch.param_count())
    assert np.all(np.isfinite(grads)) and np.any(grads != 0.0)
    for cpus in (2, 3):
        assert np.array_equal(runs[cpus][0], losses), cpus
        assert np.array_equal(runs[cpus][1], grads), cpus


def _stacked(shared, items):
    """Each item's value, the call's size and pid; item 3 fails alone, item 99 fails the call."""
    if 99 in items:
        raise LookupError("stack with 99")
    return [ArithmeticError(f"task {item}") if item == 3 else (item, len(items), os.getpid())
            for item in items]


def run_stacked(items, stack_of=lambda item: "key", workers=None) -> list:
    items = list(items)
    outcomes = [None] * len(items)
    scheduler = parallel.Scheduler(None, workers or parallel.worker_count(len(items)))
    for i, item in enumerate(items):
        scheduler.submit(0, _stacked, item, then=functools.partial(outcomes.__setitem__, i),
                         stack=stack_of(item))
    scheduler.run()
    return outcomes


@pytest.mark.parametrize("cpus, sizes", [(1, [5]), (2, [3, 2]), (3, [2, 2, 1]), (5, [1] * 5)])
def test_ready_stacked_tasks_split_into_one_call_per_free_worker(monkeypatch, cpus, sizes):
    use_workers(monkeypatch, cpus)
    outcomes = run_stacked([0, 1, 2, 4, 5])
    assert [o.error for o in outcomes] == [None] * 5
    assert [o.value[0] for o in outcomes] == [0, 1, 2, 4, 5]
    # in submission order: the first calls take the first tasks
    got = [o.value[1] for o in outcomes]
    assert got == [size for size in sizes for _ in range(size)]
    pids = {o.value[2] for o in outcomes}
    if cpus == 1:
        assert pids == {os.getpid()}  # one call, in this process
    else:
        assert os.getpid() not in pids
    # the tasks of one call share its span
    spans = {(o.start, o.end) for o in outcomes}
    assert len(spans) == len(sizes)


@pytest.mark.parametrize("cpus", [1, 2])
def test_stacked_tasks_get_their_own_value_or_error(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    outcomes = run_stacked(range(6))
    assert [o.value[0] if o.value else None for o in outcomes] == [0, 1, 2, None, 4, 5]
    assert [o.error is None for o in outcomes] == [True, True, True, False, True, True]
    assert outcomes[3].error == "ArithmeticError: task 3\n"  # returned, not raised
    # an exception the call raises is the error of every task in that call
    outcomes = run_stacked([0, 1, 99], workers=1)
    assert {o.error.splitlines()[0] for o in outcomes} == {"LookupError: stack with 99"}
    assert [o.value for o in outcomes] == [None] * 3


@pytest.mark.parametrize("cpus", [1, 2])
def test_tasks_of_other_keys_or_none_do_not_stack(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    outcomes = run_stacked([0, 1, 2, 4, 5], stack_of=lambda item: item % 2)
    assert [o.value[0] for o in outcomes] == [0, 1, 2, 4, 5]
    if cpus == 1:
        assert [o.value[1] for o in outcomes] == [3, 2, 3, 3, 2]  # the evens, the odds
    assert max(o.value[1] for o in outcomes) <= 3
    out = run_each(_tag, "shared", range(3))  # tasks without a key run alone
    assert [v for _, v, _ in out] == [0, 1, 4]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_stacked_task_callback_exception_raises_here(monkeypatch, cpus):
    use_workers(monkeypatch, cpus)
    scheduler = parallel.Scheduler(None, parallel.worker_count(3))
    returned = []

    def then(outcome):
        returned.append(outcome.value[0])
        if outcome.value[0] == 1:
            raise LookupError("callback 1")

    for item in range(3):
        scheduler.submit(0, _stacked, item, then=then, stack="key")
    with pytest.raises(LookupError, match="callback 1"):
        scheduler.run()
    assert 1 in returned


def test_workers_busy_with_the_same_priority_keep_their_share_queued():
    # trainings (priority 3) ready while other workers are in flight
    def queued(count):
        scheduler = parallel.Scheduler(None, 3)
        for item in range(count):
            scheduler.submit(3, _stacked, item, stack="key")
        return scheduler

    scheduler = queued(5)
    # two free workers and one busy with a training: three shares of 2, 2, 1
    assert [call.items for call in scheduler._take(2, [3])] == [[0, 1], [2, 3]]
    assert [entry[3] for entry in scheduler._ready] == [4]
    # a worker busy with a pilot (priority 0) gets no share
    scheduler = queued(4)
    assert [call.items for call in scheduler._take(1, [0])] == [[0, 1, 2, 3]]
    assert scheduler._ready == []
    scheduler = queued(4)
    assert [call.items for call in scheduler._take(1, [3, 0])] == [[0, 1]]
    assert sorted(entry[3] for entry in scheduler._ready) == [2, 3]
