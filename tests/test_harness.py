import csv
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gits
from gits import cli, harness, parallel, pilot_scoring, selector, surrogate
from gits.diagnostics import RolloutReport, rollout_report
from gits.harness import (
    RESULT_COLUMNS,
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    HarnessConfigError,
    compare_report,
    run_experiment,
    write_results,
)
from gits.selftest import run_selftest
from gits.pde_data import SolverConfig
from gits.selector import SAMPLERS, ObjectiveConfig
from gits.surrogate import TrainConfig
from gits.temporal_coverage import CoverageConfig


def small_experiment(**overrides):
    base = dict(
        solver=SolverConfig(family="diffusion1d", spatial_size=16, t_count=14, seed=3),
        n_traj=10,
        ratios=(0.3,),
        samplers=("uniform",),
        seeds=(0,),
        pilot_epochs=1,
        horizon=2,
        batch_traj=4,
        history_len=3,
        hidden=3,
        kernel_radius=1,
        train=TrainConfig(epochs_max=2, batch_size=16, min_epochs=1, early_stop=False),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fake_cell(sampler, ratio, seed, nrmse):
    report = RolloutReport(nrmse=nrmse, crmse=0.0, brmse=0.0, frmse_low=0.0,
                           frmse_mid=0.0, frmse_high=0.0, horizon=10, n_test=2)
    return CellResult(dataset="d", sampler=sampler, ratio=ratio, seed=seed,
                      budget=3, selected=[4, 5, 6], report=report)


# ----------------------------------------------------------------------
# experiment grid
# ----------------------------------------------------------------------

def test_single_cell_config_produces_one_csv_row(tmp_path):
    cfg = small_experiment(output_dir=str(tmp_path))
    result = run_experiment(cfg)
    assert len(result.cells) == 1 and result.failed == 0
    csv_path, json_path = write_results(result, tmp_path)
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 2
    assert rows[1][0] == "diffusion1d" and rows[1][1] == "uniform"


def test_results_row_is_pinned(tmp_path):
    # floats by repr, timings to six decimals, the seed as an int
    report = RolloutReport(nrmse=1 / 3, crmse=0.25, brmse=2.0, frmse_low=1e-20,
                           frmse_mid=0.1, frmse_high=12345.678, horizon=10, n_test=2)
    cell = CellResult(dataset="burgers1d", sampler="gits", ratio=0.1, seed=7, budget=3,
                      selected=[4, 5, 6], report=report, selection_time_s=2 / 3,
                      train_time_s=2.5)
    csv_path, _ = write_results(ExperimentResult(config=ExperimentConfig(), cells=[cell]),
                                tmp_path)
    assert csv_path.read_text().splitlines() == [
        ",".join(RESULT_COLUMNS),
        "burgers1d,gits,0.1,7,0.3333333333333333,0.25,2.0,1e-20,0.1,12345.678,0.666667,2.500000",
    ]


def _strip_timing(path):
    rows = list(csv.reader(Path(path).open()))
    drop = [i for i, name in enumerate(rows[0]) if name in harness.TIMING_FIELDS]
    return [[v for i, v in enumerate(row) if i not in drop] for row in rows]


def _strip_json(path):
    payload = json.loads(Path(path).read_text())
    for record in payload["cells"] + list(payload["pilot"].values()):
        for name in harness.TIMING_FIELDS:
            record.pop(name, None)
    payload["config_echo"].pop("output_dir")
    return payload


def test_rerun_is_byte_identical_modulo_timing(tmp_path):
    cfg = small_experiment(samplers=SAMPLERS, seeds=(0, 1))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.failed == 0
    write_results(a, tmp_path / "a")
    write_results(b, tmp_path / "b")
    assert _strip_timing(tmp_path / "a/results.csv") == _strip_timing(tmp_path / "b/results.csv")
    assert _strip_json(tmp_path / "a/summary.json") == _strip_json(tmp_path / "b/summary.json")


def test_rerun_is_byte_identical_across_blas_thread_counts(tmp_path):
    cfg_path = _write_small_config(tmp_path, samplers=",".join(SAMPLERS))
    src = str(Path(gits.__file__).resolve().parents[1])
    outputs = []
    for threads in (1, min(2, os.cpu_count() or 1)):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "gits.cli", "run", "--config", str(cfg_path),
                        "--output", str(out)], env=env, check=True, capture_output=True)
        outputs.append(out)
    a, b = outputs
    summary = _strip_json(a / "summary.json")
    assert [c["error"] for c in summary["cells"]] == [None] * len(SAMPLERS)
    assert summary == _strip_json(b / "summary.json")
    assert _strip_timing(a / "results.csv") == _strip_timing(b / "results.csv")


def _use_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "cpu_count", lambda: n)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_pilot_is_shared_per_seed_and_matches_the_single_cell_path(monkeypatch):
    _use_workers(monkeypatch, 1)  # the tasks run here, so the counts do; one chunk per seed
    cfg = small_experiment(samplers=SAMPLERS, ratios=(0.1, 0.2), seeds=(0, 1))
    pilots = _count_calls(monkeypatch, pilot_scoring, "train_pilot")
    scorings = _count_calls(monkeypatch, harness, "_score_task")
    result = run_experiment(cfg)
    assert result.failed == 0
    assert len(result.cells) == len(SAMPLERS) * 2 * 2
    assert (len(pilots), len(scorings)) == (2, 2)
    assert sorted(result.pilot_times) == [0, 1]

    ds = harness.load_or_generate_dataset(cfg)
    candidates = pilot_scoring.build_candidates(ds.t_count, cfg.history_len)
    for cell in result.cells:
        selection, _ = harness.select_starts(cfg, ds, candidates, cell.sampler,
                                             cell.ratio, cell.seed)
        params, _ = harness.train_downstream(cfg, ds, selection.selected, cell.seed)
        report = rollout_report(params, ds, split="test")
        assert cell.selected == selection.selected, (cell.sampler, cell.ratio, cell.seed)
        assert cell.report.nrmse == report.nrmse, (cell.sampler, cell.ratio, cell.seed)


def test_one_two_and_three_workers_write_identical_results(monkeypatch, tmp_path):
    # seed 1's pilot fails and its trainings diverge, so the error texts are compared too
    # (with one worker, a seed-1 training steps in one stack with seed 0's)
    train_pilot, downstream_training = pilot_scoring.train_pilot, harness.downstream_training

    def pilot_failing_on_seed_1(ds, candidates, cfg, arch):
        if cfg.seed == harness.stage_seed(1, "pilot"):
            raise RuntimeError("pilot diverged")
        return train_pilot(ds, candidates, cfg, arch=arch)

    def training_diverging_on_seed_1(cfg, ds, starts, seed):
        if seed == 1:
            cfg = replace(cfg, train=replace(cfg.train, lr=1e308, grad_clip=1e308))
        return downstream_training(cfg, ds, starts, seed)

    monkeypatch.setattr(pilot_scoring, "train_pilot", pilot_failing_on_seed_1)
    monkeypatch.setattr(harness, "downstream_training", training_diverging_on_seed_1)
    # 6 epochs: the trainings of K = 3 stack (6 x 3 > 1 x 10), those of K = 1 do not
    cfg = small_experiment(samplers=SAMPLERS, ratios=(0.1, 0.3), seeds=(0, 1),
                           train=TrainConfig(epochs_max=6, batch_size=16, min_epochs=1,
                                             early_stop=False))
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(cfg)
        assert len(result.cells) == len(SAMPLERS) * 2 * 2
        assert all(c.ok == (c.seed == 0) for c in result.cells), workers
        assert sorted(result.pilot_times) == [0]
        first_lines = {c.error.splitlines()[0].split(":")[0] for c in result.cells if not c.ok}
        assert first_lines == {"RuntimeError", "TrainingDivergedError"}, workers
        write_results(result, tmp_path / f"w{workers}")
    for workers in (2, 3):
        assert (_strip_timing(tmp_path / f"w{workers}/results.csv")
                == _strip_timing(tmp_path / "w1/results.csv")), workers
        assert (_strip_json(tmp_path / f"w{workers}/summary.json")
                == _strip_json(tmp_path / "w1/summary.json")), workers


def test_training_that_needs_no_pilot_starts_while_the_pilot_trains(monkeypatch, tmp_path):
    # The pilot returns only once a downstream training has started: a file
    # handshake with a bounded wait. With the pilot and the uniform cell's
    # training on separate workers of one pool, the wait ends at once.
    started = tmp_path / "training_started"
    train_pilot, downstream_training = pilot_scoring.train_pilot, harness.downstream_training

    def pilot_waiting_for_a_training(*args, **kwargs):
        deadline = time.monotonic() + 30.0
        while not started.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("no training started while the pilot trained")
            time.sleep(0.005)
        return train_pilot(*args, **kwargs)

    def announced_training(*args, **kwargs):
        started.touch()
        return downstream_training(*args, **kwargs)

    monkeypatch.setattr(pilot_scoring, "train_pilot", pilot_waiting_for_a_training)
    monkeypatch.setattr(harness, "downstream_training", announced_training)
    _use_workers(monkeypatch, 2)
    result = run_experiment(small_experiment(samplers=("gits", "uniform")))
    assert [c.error for c in result.cells] == [None, None]
    assert sorted(result.pilot_times) == [0]


def test_each_distinct_selection_is_trained_once(monkeypatch):
    _use_workers(monkeypatch, 1)
    trainings = _count_calls(monkeypatch, harness, "downstream_training")
    cfg = small_experiment(samplers=("grad_only", "loss_only", "uniform"), ratios=(0.1, 0.3),
                           seeds=(0, 1))
    result = run_experiment(cfg)
    assert result.failed == 0
    cells = {(c.sampler, c.ratio, c.seed): c for c in result.cells}
    distinct = {(c.seed, tuple(sorted(c.selected))) for c in result.cells}
    assert len(trainings) == len(distinct) < len(result.cells)
    for ratio in cfg.ratios:
        for seed in cfg.seeds:  # the two pointwise samplers coincide here
            grad_cell, loss_cell = (cells[s, ratio, seed] for s in ("grad_only", "loss_only"))
            assert grad_cell.selected == loss_cell.selected
            assert grad_cell.report == loss_cell.report
            assert grad_cell.train_time_s == loss_cell.train_time_s


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("epochs", [4, 2])
def test_trainings_waiting_for_a_worker_step_in_one_stack(monkeypatch, workers, epochs):
    # no pilot: every selection returns before any training starts, and the
    # selections of one ratio have one pair count. |C| = 10 and K = 3: with
    # 4 epochs a training runs more updates than a one-epoch pilot (12 > 10)
    # and stacks; with 2 it runs alone.
    _use_workers(monkeypatch, workers)
    sizes = []
    train_stack = surrogate.train_stack

    def recorded(trainings, ds):
        sizes.append(len(trainings))
        return train_stack(trainings, ds)

    monkeypatch.setattr(surrogate, "train_stack", recorded)
    cfg = small_experiment(samplers=("uniform", "coverage_only"), seeds=(0, 1, 2),
                           train=TrainConfig(epochs_max=epochs, batch_size=16, min_epochs=1,
                                             early_stop=False))
    result = run_experiment(cfg)
    assert result.failed == 0
    distinct = {(c.seed, tuple(sorted(c.selected))) for c in result.cells}
    assert len(distinct) > 1
    if workers == 2:
        assert sizes == []  # the trainings ran in the workers
    elif epochs == 4:
        # one stack, so every cell reports its training time
        assert sizes == [len(distinct)]
        assert len({c.train_time_s for c in result.cells}) == 1
    else:
        assert sizes == [1] * len(distinct)
    # a stacked training's report is the single training's
    ds = harness.load_or_generate_dataset(cfg)
    for cell in result.cells:
        params, _ = harness.train_downstream(cfg, ds, cell.selected, cell.seed)
        assert cell.report == rollout_report(params, ds, split="test"), (cell.sampler, cell.seed)


def test_cell_failing_in_a_worker_records_the_same_error(monkeypatch):
    # 4 epochs: with one worker the trainings diverge inside one stack
    cfg = small_experiment(samplers=("uniform", "coverage_only", "gits"), seeds=(0, 1),
                           train=TrainConfig(epochs_max=4, batch_size=16, min_epochs=1,
                                             early_stop=False, lr=1e308, grad_clip=1e308))
    errors = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(cfg)
        assert result.failed == len(result.cells) == 6
        errors[workers] = [c.error for c in result.cells]
    assert errors[1] == errors[2]
    trained = [e for e, c in zip(errors[2], result.cells) if c.sampler != "gits"]
    assert all(e.startswith("TrainingDivergedError: ") for e in trained)


def test_grid_without_pilot_based_samplers_trains_no_pilot(monkeypatch):
    _use_workers(monkeypatch, 1)  # the tasks run here, so the counts do
    pilots = _count_calls(monkeypatch, pilot_scoring, "train_pilot")
    scorings = _count_calls(monkeypatch, harness, "_score_task")
    cfg = small_experiment(samplers=("uniform", "coverage_only"), ratios=(0.1, 0.2),
                           seeds=(0, 1))
    result = run_experiment(cfg)
    assert result.failed == 0 and result.pilot_times == {}
    assert (len(pilots), len(scorings)) == (0, 0)


def test_failed_pilot_is_attempted_once_per_seed(monkeypatch, tmp_path):
    _use_workers(monkeypatch, 1)  # the pilots run here, so the attempts are counted
    attempts = []

    def failing_pilot(*args, **kwargs):
        attempts.append(1)
        raise RuntimeError("pilot diverged")

    monkeypatch.setattr(pilot_scoring, "train_pilot", failing_pilot)
    cfg = small_experiment(samplers=("gits", "uniform", "grad_match"), ratios=(0.1, 0.2),
                           seeds=(0, 1))
    result = run_experiment(cfg)
    assert len(attempts) == 2
    dependent = [c for c in result.cells if c.sampler != "uniform"]
    assert len(dependent) == 8
    assert {c.error.splitlines()[0] for c in dependent} == {"RuntimeError: pilot diverged"}
    assert len({c.error for c in dependent}) == 1  # the traceback does not grow per cell
    assert all(c.ok for c in result.cells if c.sampler == "uniform")
    assert result.failed == 8 and result.pilot_times == {}
    _, json_path = write_results(result, tmp_path)
    assert json.loads(json_path.read_text())["pilot"] == {}


def _poison_pilot_input(monkeypatch):
    original = pilot_scoring.pilot_input

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        result.scores[3] = np.nan  # past CandidateScores' own check
        return result

    monkeypatch.setattr(pilot_scoring, "pilot_input", poisoned)


def test_non_finite_pilot_score_fails_the_gits_cell_only(monkeypatch):
    # with two workers the selection fails in a worker and its text crosses a pipe
    _poison_pilot_input(monkeypatch)
    errors = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        result = run_experiment(small_experiment(samplers=("gits", "uniform")))
        cells = {c.sampler: c for c in result.cells}
        assert cells["gits"].error.splitlines()[0] == (
            "ValueError: score at candidate position 3 (start index 6) is not finite: nan"
        ), workers
        assert cells["gits"].selection_time_s > 0.0, workers
        assert cells["uniform"].ok and result.failed == 1, workers
        errors[workers] = cells["gits"].error
    assert errors[1] == errors[2]


def test_non_finite_gradient_row_is_named_by_every_cell_that_reads_it(monkeypatch):
    # a NaN in one gradient row of the scoring chunks; the losses stay finite,
    # so the samplers that read only the losses, or nothing, still select
    chunk_gradients = pilot_scoring._chunk_gradients

    def nan_in_row_4(pilot, ds, traj, horizon, indices, positions, losses, grads):
        chunk_gradients(pilot, ds, traj, horizon, indices, positions, losses, grads)
        if 4 in positions:
            grads[4, 1] = np.nan

    monkeypatch.setattr(pilot_scoring, "_chunk_gradients", nan_in_row_4)
    errors = {}
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        result = run_experiment(small_experiment(samplers=SAMPLERS))
        failed = {c.sampler: c.error.splitlines()[0] for c in result.cells if not c.ok}
        assert failed == {
            "gits": "ValueError: scores must be finite and non-negative: "
                    "candidate position 4 (start index 7) has nan",
            "grad_only": "ValueError: scores must be finite and non-negative: "
                         "candidate position 4 (start index 7) has nan",
            "grad_match": "ValueError: gradient at candidate position 4 (start index 7) "
                          "is not finite: nan",
        }, workers
        errors[workers] = [c.error for c in result.cells]
    assert errors[1] == errors[2]


def test_failed_scoring_chunk_fails_only_its_seeds_pilot_based_cells(monkeypatch, tmp_path):
    cfg = small_experiment(samplers=("gits", "uniform", "loss_only", "grad_match"), seeds=(0, 1))
    ds = harness.load_or_generate_dataset(cfg)
    traj_0, traj_1 = (
        pilot_scoring.scoring_trajectories(ds, cfg.batch_traj, harness.stage_seed(seed, "scoring"))
        for seed in cfg.seeds)
    assert not np.array_equal(traj_0, traj_1)  # so a chunk knows its seed by them
    chunk_gradients = pilot_scoring._chunk_gradients

    def failing_on_seed_1(pilot, ds, traj, horizon, indices, positions, losses, grads):
        if np.array_equal(traj, traj_1) and 0 in positions:  # seed 1's first chunk
            raise FloatingPointError("chunk diverged")
        chunk_gradients(pilot, ds, traj, horizon, indices, positions, losses, grads)

    monkeypatch.setattr(pilot_scoring, "_chunk_gradients", failing_on_seed_1)
    errors = {}
    for workers in (1, 2):  # one chunk per seed, then two
        _use_workers(monkeypatch, workers)
        result = run_experiment(cfg)
        dependent = [c for c in result.cells if c.seed == 1 and c.sampler != "uniform"]
        assert len(dependent) == 3 and len({c.error for c in dependent}) == 1, workers
        assert dependent[0].error.splitlines()[0] == "FloatingPointError: chunk diverged"
        assert all(c.selection_time_s == 0.0 for c in dependent), workers
        assert all(c.ok for c in result.cells if c not in dependent), workers
        assert result.failed == 3 and sorted(result.pilot_times) == [0], workers
        _, json_path = write_results(result, tmp_path / f"w{workers}")
        assert list(json.loads(json_path.read_text())["pilot"]) == ["0"], workers
        errors[workers] = [c.error for c in result.cells]
    assert errors[1] == errors[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_selection_runs_on_a_worker_when_there_are_several(tmp_path, monkeypatch, workers):
    _use_workers(monkeypatch, workers)
    pids = tmp_path / "pids"
    greedy_select = selector.greedy_select

    def recorded(*args, **kwargs):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return greedy_select(*args, **kwargs)

    monkeypatch.setattr(selector, "greedy_select", recorded)
    cfg = small_experiment(samplers=("gits", "coverage_only"))
    assert run_experiment(cfg).failed == 0
    ds = harness.load_or_generate_dataset(cfg)
    harness.select_starts(cfg, ds, pilot_scoring.build_candidates(ds.t_count, cfg.history_len),
                          "gits", 0.3, 0)
    recorded_pids = [int(line) for line in pids.read_text().split()]
    assert len(recorded_pids) == 3
    if workers == 1:
        assert set(recorded_pids) == {os.getpid()}
    else:
        assert os.getpid() not in recorded_pids


def test_budget_rule_per_row():
    cfg = small_experiment(ratios=(0.05, 0.3), samplers=("uniform",), seeds=(0, 1))
    result = run_experiment(cfg)
    n_candidates = cfg.solver.t_count - cfg.history_len - 1
    for cell in result.cells:
        assert cell.budget == max(1, round(cell.ratio * n_candidates))
        assert len(cell.selected) == cell.budget


def test_seed_isolation():
    cfg2 = small_experiment(seeds=(0, 1), samplers=("gits",))
    cfg1 = small_experiment(seeds=(0,), samplers=("gits",))
    both = {(c.seed): c for c in run_experiment(cfg2).cells}
    alone = run_experiment(cfg1).cells[0]
    assert both[0].report.nrmse == alone.report.nrmse
    assert both[0].selected == alone.selected


def test_cell_failure_recorded_and_run_continues():
    # pilot training cannot run with zero pilot epochs reaching train();
    # force a failure by pointing the dataset path at a missing file for
    # one cell-level stage instead: use an unstable sampler input
    cfg = small_experiment(samplers=("uniform", "gits"), train=TrainConfig(
        epochs_max=2, batch_size=16, min_epochs=1, early_stop=False, lr=1e308,
        grad_clip=1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(cfg)
    assert result.failed == len(result.cells)
    for cell in result.cells:
        assert cell.error is not None
    # the summary still serializes
    summary = compare_report(result.cells)
    assert summary["aggregates"] == {}


def test_timing_fields_separate_selection_from_training():
    cfg = small_experiment(samplers=("gits",))
    cell = run_experiment(cfg).cells[0]
    assert cell.selection_time_s > 0.0
    assert cell.train_time_s > 0.0


def test_selection_time_attributes_the_shared_pilot_to_every_cell(tmp_path):
    cfg = small_experiment(samplers=("gits", "grad_only", "uniform"))
    result = run_experiment(cfg)
    shared = result.pilot_times[0]["pilot_s"] + result.pilot_times[0]["scoring_s"]
    first, second, _ = result.cells
    assert first.selection_time_s >= shared and second.selection_time_s >= shared
    _, json_path = write_results(result, tmp_path)
    payload = json.loads(json_path.read_text())
    assert payload["pilot"] == {"0": result.pilot_times[0]}
    assert {"selection_time_s", "train_time_s"} <= set(payload["cells"][0])


def test_config_validation():
    with pytest.raises(HarnessConfigError):
        small_experiment(ratios=(1.5,))
    with pytest.raises(HarnessConfigError):
        small_experiment(seeds=())
    with pytest.raises(HarnessConfigError):
        small_experiment(samplers=("bogus",))
    with pytest.raises(HarnessConfigError, match="samplers must be nonempty"):
        small_experiment(samplers=())
    for field, values in (("ratios", (0.1, 0.2, 0.1)), ("samplers", ("gits", "uniform", "gits")),
                          ("seeds", (0, 0))):
        with pytest.raises(HarnessConfigError, match=f"{field} has duplicate"):
            small_experiment(**{field: values})
    for field, value, message in (("lambda_cov", float("nan"), "finite: lambda_cov = nan"),
                                  ("c_win", float("inf"), "finite: c_win = inf"),
                                  ("lambda_cov", -1.0, "non-negative: lambda_cov = -1.0"),
                                  ("c_win", -0.5, "non-negative: c_win = -0.5")):
        with pytest.raises(ValueError, match=f"coverage weights must be {message}$"):
            small_experiment(objective=ObjectiveConfig(**{field: value}))
    for field, value, message in (("hidden", 0, "invalid architecture sizes"),
                                  ("history_len", 0, "invalid architecture sizes"),
                                  ("clamp", float("nan"), "clamp must be finite and positive"),
                                  ("clamp", float("inf"), "clamp must be finite and positive"),
                                  ("clamp", -1.0, "clamp must be finite and positive")):
        with pytest.raises(HarnessConfigError, match=message):
            small_experiment(**{field: value})


def test_default_protocol_settings():
    cfg = ExperimentConfig()
    assert cfg.ratios == (0.05, 0.10, 0.20)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.pilot_epochs == 5
    assert cfg.horizon == 10
    assert cfg.batch_traj == 32
    assert cfg.objective == ObjectiveConfig(coverage=None, lambda_cov=1.0, c_win=0.5,
                                            normalize_scores=False)
    assert cfg.history_len == 4
    assert cfg.n_traj == 60 and cfg.solver.t_count == 101
    assert cfg.train.lr == 1e-3
    assert cfg.train.batch_size == 64
    assert cfg.train.grad_clip == 1.0
    assert cfg.train.epochs_max == 100
    assert cfg.train.min_epochs == 10 and cfg.train.patience == 5
    assert cfg.clamp == 10.0


# ----------------------------------------------------------------------
# compare report
# ----------------------------------------------------------------------

def test_compare_report_matches_manual_arithmetic():
    cells = [
        fake_cell("gits", 0.1, 0, 0.2),
        fake_cell("gits", 0.1, 1, 0.4),
        fake_cell("uniform", 0.1, 0, 0.5),
        fake_cell("uniform", 0.1, 1, 0.3),
    ]
    summary = compare_report(cells)
    agg = summary["aggregates"]
    assert agg["gits"]["0.1"]["mean"] == pytest.approx(0.3)
    assert agg["gits"]["0.1"]["std"] == pytest.approx(0.1)
    assert agg["uniform"]["0.1"]["n"] == 2
    # gits beats uniform on seed 0 only
    assert summary["wins"] == {"uniform": 1}


def test_compare_report_single_sampler_has_null_wins():
    cells = [fake_cell("uniform", 0.1, 0, 0.5)]
    summary = compare_report(cells)
    assert summary["wins"] is None
    assert "uniform" in summary["aggregates"]


def test_compare_report_without_gits_omits_wins():
    cells = [fake_cell("uniform", 0.1, 0, 0.5), fake_cell("loss_only", 0.1, 0, 0.4)]
    summary = compare_report(cells)
    assert summary["wins"] is None
    assert len(summary["aggregates"]) == 2


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

def test_selftest_full_pass():
    report = run_selftest()
    assert report.passed
    text = report.format()
    assert text.count("[PASS]") == 4


def test_selftest_detects_kernel_sign_flip(monkeypatch):
    broken = lambda i, j, tau: -np.exp(-abs(i - j) / tau)
    monkeypatch.setattr("gits.temporal_coverage.kernel_global", broken)
    report = run_selftest(suites=["submodularity"])
    assert not report.passed
    assert "[FAIL]" in report.format()


def test_selftest_empty_selection_trivially_passes():
    report = run_selftest(suites=[])
    assert report.passed
    assert report.outcomes == ()


def test_selftest_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_selftest(suites=["nope"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_print_defaults_round_trips(tmp_path, capsys):
    assert cli.main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    cfg = cli.load_config(str(path))
    assert cfg == ExperimentConfig()


def test_cli_objective_keys_fill_the_objective(tmp_path):
    path = tmp_path / "objective.ini"
    path.write_text("[objective]\nlambda_cov = 2.5\nc_win = 0.25\nnormalize_scores = true\n"
                    "tau = 3\nwindow_size = 4\nwindow_stride = 2\ntau_w = 1\n")
    cfg = cli.load_config(str(path))
    assert cfg.objective == ObjectiveConfig(
        coverage=CoverageConfig(tau=3.0, window_size=4, window_stride=2, tau_w=1.0),
        lambda_cov=2.5, c_win=0.25, normalize_scores=True,
    )
    path.write_text("[objective]\nc_win = 0\n")
    assert cli.load_config(str(path)).objective == ObjectiveConfig(c_win=0.0)


def test_cli_family_solver_defaults_apply(tmp_path):
    path = tmp_path / "burgers.ini"
    path.write_text("[dataset]\nfamily = burgers1d\n")
    cfg = cli.load_config(str(path))
    assert cfg.solver.dt == 1e-3
    assert cfg.solver.snapshot_stride == 2
    path.write_text("[dataset]\nfamily = burgers1d\ndt = 0.0005\nsnapshot_stride = 3\n")
    cfg = cli.load_config(str(path))
    assert (cfg.solver.dt, cfg.solver.snapshot_stride) == (0.0005, 3)


def test_cli_config_error_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nratios = 2.0\n")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    for line in ("samplers = ", "ratios = 0.1, 0.10", "seeds = 1,1"):
        path.write_text(f"[experiment]\n{line}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, line
    for line in ("lambda_cov = nan", "c_win = inf", "lambda_cov = -1", "c_win = -0.5"):
        path.write_text(f"[objective]\n{line}\n")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, line
        select = ["select", "--config", str(path), "--output", str(tmp_path / "sel.json")]
        assert cli.main(select) == cli.EXIT_CONFIG, line
        assert not (tmp_path / "sel.json").exists()
    windows = "window_size = 4\nwindow_stride = 2\n"
    for text in ("tau = 5\n", "window_size = 7\n", f"tau = nan\n{windows}tau_w = nan\n",
                 f"tau = inf\n{windows}tau_w = 2\n"):
        path.write_text(f"[objective]\n{text}")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, text
        select = ["select", "--config", str(path), "--sampler", "coverage_only",
                  "--output", str(tmp_path / "sel.json")]
        assert cli.main(select) == cli.EXIT_CONFIG, text
        assert not (tmp_path / "sel.json").exists()
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG
    _use_workers(monkeypatch, 1)  # a pilot would run here, so the count would see it
    pilots = _count_calls(monkeypatch, pilot_scoring, "train_pilot")
    capsys.readouterr()
    for text in ("[model]\nhidden = 3\n[model]\nhidden = 4\n",
                 "[train]\nlr = nan\n", "[train]\ngrad_clip = nan\n",
                 "[model]\nhidden = 0\n", "[model]\nclamp = nan\n"):
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG, text
        assert capsys.readouterr().err.startswith("config error: "), text
    for command in ("select", "train"):
        for ratio in ("0", "1.5", "nan"):
            out = tmp_path / f"{command}_{ratio}"
            argv = [command, "--sampler", "uniform", "--ratio", ratio, "--output", str(out)]
            assert cli.main(argv) == cli.EXIT_CONFIG, (command, ratio)
            assert capsys.readouterr().err.startswith("config error: "), (command, ratio)
            assert not list(tmp_path.glob(f"{command}_*")), (command, ratio)
    assert pilots == []


def _assert_config_error(argv, capsys, before):
    """``argv`` exits 2 with one ``config error:`` line and leaves no new file."""
    assert cli.main(argv) == cli.EXIT_CONFIG, argv
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, (argv, err)
    assert sorted(Path.cwd().rglob("*")) == before, argv


def test_cli_empty_pair_stem_is_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = _write_small_config(tmp_path)
    (tmp_path / "dot.ini").write_text(cfg.read_text().replace("[dataset]\n",
                                                              "[dataset]\npath = .\n"))
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    for argv in (["generate", "--config", str(cfg), "--output", "."],
                 ["generate", "--config", str(cfg), "--output", "/"],
                 ["train", "--config", str(cfg), "--sampler", "uniform", "--output", "."],
                 ["evaluate", "--config", str(cfg), "--params", "."],
                 ["select", "--config", "dot.ini", "--sampler", "uniform",
                  "--output", "sel.json"],
                 ["run", "--config", "dot.ini"]):
        _assert_config_error(argv, capsys, before)


def test_cli_unwritable_output_is_a_config_error_before_any_work(tmp_path, monkeypatch, capsys):
    cfg = _write_small_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    arch = surrogate.SurrogateArch(history_len=3, hidden=3, kernel_radius=1)
    surrogate.save_params(surrogate.init_params(arch, 0), tmp_path / "ckpt")
    monkeypatch.chdir(tmp_path)
    _use_workers(monkeypatch, 1)  # a pilot would run here, so the count would see it
    pilots = _count_calls(monkeypatch, pilot_scoring, "train_pilot")
    evaluations = _count_calls(monkeypatch, cli.diagnostics, "rollout_report")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    for argv in (["run", "--config", str(cfg), "--output", str(taken)],
                 ["select", "--config", str(cfg), "--sampler", "gits", "--output", str(folder)],
                 ["select", "--config", str(cfg), "--sampler", "gits",
                  "--output", str(taken / "sel.json")],
                 ["evaluate", "--config", str(cfg), "--params", "ckpt", "--output", str(folder)],
                 ["print-defaults", "--output", str(folder)]):
        _assert_config_error(argv, capsys, before)
    assert taken.read_text() == "kept\n"
    assert pilots == [] and evaluations == []


def _write_small_config(tmp_path, samplers="uniform,gits"):
    path = tmp_path / "small.ini"
    path.write_text(
        "[dataset]\n"
        "spatial_size = 16\n"
        "t_count = 14\n"
        "n_traj = 10\n"
        "seed = 3\n"
        "[experiment]\n"
        "ratios = 0.3\n"
        f"samplers = {samplers}\n"
        "seeds = 0\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[pilot]\n"
        "epochs = 1\n"
        "horizon = 2\n"
        "batch_traj = 4\n"
        "[model]\n"
        "history_len = 3\n"
        "hidden = 3\n"
        "kernel_radius = 1\n"
        "[train]\n"
        "epochs_max = 2\n"
        "min_epochs = 1\n"
        "batch_size = 16\n"
    )
    return path


def test_cli_run_generate_select_evaluate(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)

    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "results.csv" in out
    assert (tmp_path / "out/results.csv").exists()
    payload = json.loads((tmp_path / "out/summary.json").read_text())
    assert payload["wins"] is not None and len(payload["cells"]) == 2

    assert cli.main(["generate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "ds")]) == 0
    assert (tmp_path / "ds.json").exists() and (tmp_path / "ds.f32").exists()

    assert cli.main(["select", "--config", str(cfg_path), "--sampler", "uniform",
                     "--ratio", "0.3", "--seed", "0",
                     "--output", str(tmp_path / "sel.json")]) == 0
    sel = json.loads((tmp_path / "sel.json").read_text())
    assert sel["sampler"] == "uniform" and len(sel["selected"]) == sel["K"]

    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--ratio", "0.3", "--seed", "0",
                     "--output", str(tmp_path / "ckpt")]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path),
                     "--params", str(tmp_path / "ckpt"),
                     "--output", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) >= {"nrmse", "crmse", "brmse", "horizon", "n_test"}


def _truncate(path, n_bytes):
    path.write_bytes(path.read_bytes()[:-n_bytes])


def test_cli_run_on_truncated_dataset_exits_with_format_error(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path), "--output", str(tmp_path / "ds")]) == 0
    _truncate(tmp_path / "ds.f32", 3)
    text = cfg_path.read_text().replace("[dataset]\n", f"[dataset]\npath = {tmp_path / 'ds'}\n")
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error: payload length mismatch")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_run_on_a_dataset_with_a_flipped_byte_exits_with_format_error(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path), "--output", str(tmp_path / "ds")]) == 0
    blob = bytearray((tmp_path / "ds.f32").read_bytes())
    blob[-1] ^= 0x80
    (tmp_path / "ds.f32").write_bytes(bytes(blob))
    text = cfg_path.read_text().replace("[dataset]\n", f"[dataset]\npath = {tmp_path / 'ds'}\n")
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error: payload checksum mismatch")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_on_truncated_checkpoint_exits_with_format_error(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--ratio", "0.3", "--seed", "0", "--output", str(tmp_path / "ckpt")]) == 0
    _truncate(tmp_path / "ckpt.f64", 3)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path), "--params", str(tmp_path / "ckpt"),
                     "--output", str(tmp_path / "report.json")]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("format error: payload length mismatch")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_cli_evaluate_on_missing_checkpoint_exits_with_file_error(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    missing = tmp_path / "no_such_ckpt"
    assert cli.main(["evaluate", "--config", str(cfg_path), "--params", str(missing),
                     "--output", str(tmp_path / "report.json")]) == cli.EXIT_FORMAT
    err = capsys.readouterr().err
    assert err == f"file error: {missing}.json: not found\n"
    assert not (tmp_path / "report.json").exists()


def _cell_argv(command, cfg_path, tmp_path):
    argv = [command, "--config", str(cfg_path)]
    if command != "run":
        argv += ["--sampler", "uniform", "--output", str(tmp_path / "out" / "cell")]
    return argv


@pytest.mark.parametrize("command", ["run", "select", "train"])
def test_cli_on_missing_dataset_exits_with_file_error(tmp_path, capsys, command):
    cfg_path = _write_small_config(tmp_path)
    missing = tmp_path / "no_such_ds"
    cfg_path.write_text(cfg_path.read_text().replace("[dataset]\n",
                                                     f"[dataset]\npath = {missing}\n"))
    assert cli.main(_cell_argv(command, cfg_path, tmp_path)) == cli.EXIT_FORMAT
    assert capsys.readouterr().err == f"file error: {missing}.json: not found\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "select"])
@pytest.mark.parametrize("text", ["[pilot]\nepoch = 1\n", "[objective]\nlambda = 3\n",
                                  "[bogus]\nhidden = 3\n"])
def test_cli_unknown_key_or_section_is_a_config_error(tmp_path, capsys, command, text):
    cfg_path = _write_small_config(tmp_path)
    header = text[: text.index("\n") + 1]
    cfg = cfg_path.read_text()
    cfg_path.write_text(cfg.replace(header, text) if header in cfg else cfg + text)
    capsys.readouterr()
    assert cli.main(_cell_argv(command, cfg_path, tmp_path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    (None, None, "config file {path!r} not found"),
    ("ratios = 0.3", "ratios = 2.0", "ratio 2.0 outside (0, 1]"),
    ("[dataset]", "[dataset]\nfamily = heat", "unknown family 'heat'"),
    ("hidden = 3", "hidden = x", "[model] hidden: invalid literal for int() with base 10: 'x'"),
    ("[pilot]", "[objective]\nlambda_cov = nan\n[pilot]",
     "coverage weights must be finite: lambda_cov = nan"),
])
def test_cli_config_error_says_what_is_wrong_once(tmp_path, capsys, old, new, message):
    cfg_path = _write_small_config(tmp_path)
    if old is None:
        cfg_path = tmp_path / "missing.ini"
    else:
        cfg_path.write_text(cfg_path.read_text().replace(f"{old}\n", f"{new}\n"))
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(path=str(cfg_path))}\n"


def test_cli_checkpoint_epoch_is_the_epoch_of_its_parameters(tmp_path, monkeypatch):
    cfg_path = _write_small_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace(
        "epochs_max = 2\nmin_epochs = 1\n", "epochs_max = 30\nmin_epochs = 2\npatience = 3\n"))
    histories = []
    train_downstream = harness.train_downstream

    def recorded(*args):
        params, history = train_downstream(*args)
        histories.append(history)
        return params, history

    monkeypatch.setattr(harness, "train_downstream", recorded)
    stem = tmp_path / "ckpt"
    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--output", str(stem)]) == 0
    [history] = histories
    params, header = surrogate.load_params(stem)
    kept = surrogate.kept_epoch(history)
    assert header["epoch"] == kept < history[-1].epoch
    ds = harness.load_or_generate_dataset(cli.load_config(str(cfg_path)))
    assert rollout_report(params, ds, split="val").nrmse == history[kept - 1].val_nrmse


@pytest.mark.parametrize("command", ["run", "select", "train"])
def test_cli_time_axis_without_a_start_is_a_config_error(tmp_path, capsys, command):
    cfg_path = _write_small_config(tmp_path)
    text = cfg_path.read_text().replace("t_count = 14", "t_count = 6")
    cfg_path.write_text(text.replace("history_len = 3", "history_len = 5"))
    assert cli.main(["generate", "--config", str(cfg_path), "--output", str(tmp_path / "ds")]) == 0
    read = tmp_path / "read.ini"
    read.write_text(cfg_path.read_text().replace("[dataset]\n",
                                                 f"[dataset]\npath = {tmp_path / 'ds'}\n"))
    for path in (cfg_path, read):
        capsys.readouterr()
        assert cli.main(_cell_argv(command, path, tmp_path)) == cli.EXIT_CONFIG, path
        err = capsys.readouterr().err
        assert err.startswith("config error: t_count=6 admits no start index"), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "run", "select", "train"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg_path = _write_small_config(tmp_path)
    if command == "generate":
        cfg_path.write_text(cfg_path.read_text().replace("seed = 3", "seed = -1"))
        argv = ["generate", "--config", str(cfg_path), "--output", str(tmp_path / "out" / "ds")]
    else:
        argv = _cell_argv(command, cfg_path, tmp_path) + ["--seed", "-1"]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("arch, t_count, message", [
    (dict(history_len=8), 8, "checkpoint has history_len=8, dataset has t_count=8: "
                             "no frame left to roll out"),
    (dict(history_len=3, channels=2), 14, "checkpoint has channels=2, dataset has channels=1"),
], ids=["history_len", "channels"])
def test_cli_evaluate_on_a_checkpoint_the_dataset_does_not_fit(tmp_path, capsys, arch,
                                                               t_count, message):
    cfg_path = _write_small_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace("t_count = 14", f"t_count = {t_count}"))
    params = surrogate.init_params(surrogate.SurrogateArch(hidden=3, kernel_radius=1, **arch), 0)
    surrogate.save_params(params, tmp_path / "ckpt")
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path), "--params", str(tmp_path / "ckpt"),
                     "--output", str(tmp_path / "report.json")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("trained, evaluated", [("periodic", "neumann"), ("neumann", "periodic")])
def test_cli_evaluate_on_a_checkpoint_of_the_other_boundary(tmp_path, capsys, trained,
                                                            evaluated):
    cfg_path = _write_small_config(tmp_path)
    text = cfg_path.read_text()
    cfg_path.write_text(text.replace("[dataset]\n", f"[dataset]\nboundary = {trained}\n"))
    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--output", str(tmp_path / "ckpt")]) == 0
    padding = surrogate.load_params(tmp_path / "ckpt")[0].arch.padding
    cfg_path.write_text(text.replace("[dataset]\n", f"[dataset]\nboundary = {evaluated}\n"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path), "--params", str(tmp_path / "ckpt"),
                     "--output", str(tmp_path / "report.json")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: checkpoint has padding={padding}, "
                                       f"dataset has boundary={evaluated}\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("line, message", [
    ("dt = nan", "dt must be finite, got nan"),
    ("diffusivity = nan,nan", "diffusivity must be finite, got (nan, nan)"),
    ("family = advection_diffusion1d\nspeed = nan,nan", "speed must be finite, got (nan, nan)"),
])
def test_cli_non_finite_solver_setting_is_a_config_error(tmp_path, capsys, line, message):
    cfg_path = _write_small_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace("[dataset]\n", f"[dataset]\n{line}\n"))
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out" / "ds")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_writers_report_the_pair_by_its_stem(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "ds.f32")]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'ds'}.json/.f32 ")
    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--output", str(tmp_path / "ckpt.json")]) == 0
    assert capsys.readouterr().out.endswith(f"-> {tmp_path / 'ckpt'}.json/.f64\n")
    assert sorted(p.name for p in tmp_path.glob("ckpt*")) == ["ckpt.f64", "ckpt.json"]


def test_cli_generate_names_a_dotted_stem_by_its_full_name(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    for stem in ("ds_0.1", "ds_0.2"):
        assert cli.main(["generate", "--config", str(cfg_path),
                         "--output", str(tmp_path / stem)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {tmp_path / stem}.json/.f32 ")
    assert sorted(p.name for p in tmp_path.glob("ds_*")) == [
        "ds_0.1.f32", "ds_0.1.json", "ds_0.2.f32", "ds_0.2.json"]


def test_cli_outputs_create_their_directories(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)
    new = tmp_path / "new"
    assert cli.main(["print-defaults", "--output", str(new / "a" / "defaults.ini")]) == 0
    assert cli.main(["select", "--config", str(cfg_path), "--sampler", "uniform",
                     "--output", str(new / "b" / "sel.json")]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--output", str(new / "c" / "ckpt")]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path), "--params", str(new / "c" / "ckpt"),
                     "--output", str(new / "d" / "report.json")]) == 0
    for path in ("a/defaults.ini", "b/sel.json", "c/ckpt.json", "d/report.json"):
        assert (new / path).is_file(), path


def test_cli_select_wall_time_includes_the_pilot(tmp_path, monkeypatch, capsys):
    train_pilot = pilot_scoring.train_pilot

    def slow_pilot(*args, **kwargs):
        time.sleep(0.05)
        return train_pilot(*args, **kwargs)

    monkeypatch.setattr(pilot_scoring, "train_pilot", slow_pilot)
    out = tmp_path / "sel.json"
    assert cli.main(["select", "--config", str(_write_small_config(tmp_path)),
                     "--sampler", "gits", "--ratio", "0.3", "--seed", "0",
                     "--output", str(out)]) == 0
    wall_time = json.loads(out.read_text())["wall_time"]
    assert wall_time >= 0.05
    assert f"(selection {wall_time:.2f}s)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["select", "train"])
@pytest.mark.parametrize("sampler, runs", [("gits", 1), ("uniform", 0), ("coverage_only", 0)])
def test_cli_cell_runs_the_pilot_once_when_its_sampler_needs_it(tmp_path, monkeypatch,
                                                                command, sampler, runs):
    _use_workers(monkeypatch, 1)  # the tasks run here, so the counts do; one chunk
    pilots = _count_calls(monkeypatch, pilot_scoring, "train_pilot")
    scorings = _count_calls(monkeypatch, harness, "_score_task")
    assert cli.main([command, "--config", str(_write_small_config(tmp_path)),
                     "--sampler", sampler, "--ratio", "0.3", "--seed", "0",
                     "--output", str(tmp_path / "out")]) == 0
    assert (len(pilots), len(scorings)) == (runs, runs)


def test_cli_cell_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cfg_path = str(_write_small_config(tmp_path))
    cell = ["--sampler", "gits", "--ratio", "0.3", "--seed", "0"]
    selections, checkpoints = {}, {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        out = tmp_path / str(workers)
        assert cli.main(["select", "--config", cfg_path, *cell,
                         "--output", str(out / "sel.json")]) == 0
        assert cli.main(["train", "--config", cfg_path, *cell,
                         "--output", str(out / "ckpt")]) == 0
        selections[workers] = json.loads((out / "sel.json").read_text())
        assert selections[workers].pop("wall_time") > 0.0
        checkpoints[workers] = [(out / f"ckpt{suffix}").read_bytes()
                                for suffix in (".json", ".f64")]
    assert selections[1] == selections[2] == selections[3]
    assert checkpoints[1] == checkpoints[2] == checkpoints[3]


def _diverging_pilot(monkeypatch):
    def diverging_pilot(*args, **kwargs):
        raise ArithmeticError("pilot diverged")

    monkeypatch.setattr(pilot_scoring, "train_pilot", diverging_pilot)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fail, message", [
    (_diverging_pilot, "ArithmeticError: pilot diverged"),
    (_poison_pilot_input, "ValueError: score at candidate position"),
], ids=["pilot", "score"])
def test_cli_select_raises_the_pilot_error_text(tmp_path, monkeypatch, workers, fail, message):
    _use_workers(monkeypatch, workers)
    fail(monkeypatch)
    out = tmp_path / "sel.json"
    with pytest.raises(RuntimeError, match=message):
        cli.main(["select", "--config", str(_write_small_config(tmp_path)),
                  "--sampler", "gits", "--ratio", "0.3", "--seed", "0", "--output", str(out)])
    assert not out.exists()


def test_cli_selftest_subcommand(capsys):
    assert cli.main(["selftest", "--suite", "none"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    assert cli.main(["selftest", "--suite", "incremental_coverage"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\[PASS\] incremental_coverage", out)
    # 'none' adds no suite wherever it appears
    assert cli.main(["selftest", "--suite", "none", "--suite", "submodularity"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] submodularity: 40 nested-set trials", "selftest: all suites passed"]
