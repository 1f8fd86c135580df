"""Declarative experiment runner: the (ratio, sampler, seed) grid.

Runs the grid: build candidates, train a pilot and score candidates where
the sampler needs them, select K = max(1, round(ratio * |C|)) starts, train
the downstream surrogate on the selected starts, and evaluate the full
rollout report on the test split. The pilot and its candidate gradients
depend only on the seed, so a grid computes them once per seed and every
pilot-based cell of that seed reads them. Likewise each distinct (seed,
set of starts) is trained and evaluated once, and the cells that selected
it share the result.

One :class:`gits.parallel.Scheduler` pool runs that work as four kinds of
task, in this order of priority: each seed's pilot, that seed's scoring
chunks, each cell's selection, and each distinct selection's training and
evaluation. Selections whose sampler needs no pilot are queued at once, so
they and their trainings run while the pilots train; a seed's pilot-based
selections are queued when its last scoring chunk returns, or get the
error text of its failed pilot or chunk (:func:`_select_cells`). Trainings
of one number of starts that wait for a worker run as one stacked task, whose
trainings step together (:func:`gits.surrogate.train_stack`). ``gits select``
and ``gits train`` queue one cell's tasks the same way
(:func:`select_starts`). The tasks are plain functions of a list of items
that return one value per item: a pilot, a scoring chunk and a selection
take one item, a stack of trainings one per training. The scheduler times
each call and records its exception (:class:`gits.parallel.Outcome`),
which gives each seed's pilot and scoring seconds, each cell's selection
seconds, and the training and evaluation seconds of each stack of distinct
selections.
Cell failures, a failed pilot included, are recorded and the sweep
continues; the exit status reports them.

Outputs: ``results.csv`` (one row per successful cell, columns
:data:`RESULT_COLUMNS`) and ``summary.json`` with the
config echo, per-cell details, the per-seed pilot and scoring times,
per-sampler aggregates, and head-to-head win counts of the
gradient-informed sampler against each baseline.

Stage seeds: the pilot, the scoring subsample, and the downstream training
draw from distinct sub-seeds of the cell seed, so no two stages share an
initialization stream.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics, parallel, pde_data, pilot_scoring, selector, surrogate
from .diagnostics import RolloutReport
from .pde_data import SolverConfig, TrajectoryDataset
from .pilot_scoring import CandidateSet
from .selector import SAMPLERS, ObjectiveConfig, SelectionResult
from .surrogate import EpochStats, SurrogateArch, SurrogateParams, TrainConfig

PILOT_SEED_OFFSET = 10007
SCORING_SEED_OFFSET = 20011

# Every timing field of results.csv and summary.json (cells and per-seed
# pilot records). All other output fields are deterministic given the config.
TIMING_FIELDS = ("selection_time_s", "train_time_s", "pilot_s", "scoring_s")

# The columns of results.csv. Each names a field of CellResult or of its
# RolloutReport; the two share no field name.
RESULT_COLUMNS = ("dataset", "sampler", "ratio", "seed", "nrmse", "crmse", "brmse",
                  "frmse_low", "frmse_mid", "frmse_high", "selection_time_s", "train_time_s")

# The grid's task kinds, as scheduler priorities: a lower one runs first.
PILOT, SCORING, SELECTION, TRAINING = range(4)


def stage_seed(seed: int, stage: str) -> int:
    offsets = {"train": 0, "pilot": PILOT_SEED_OFFSET, "scoring": SCORING_SEED_OFFSET}
    return offsets[stage] + seed


class HarnessConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    n_traj: int = 60
    dataset_path: str | None = None  # read instead of generate when set
    ratios: tuple[float, ...] = (0.05, 0.10, 0.20)
    samplers: tuple[str, ...] = SAMPLERS
    seeds: tuple[int, ...] = (0, 1, 2)
    pilot_epochs: int = 5
    horizon: int = 10
    batch_traj: int = 32
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    history_len: int = SurrogateArch.history_len
    hidden: int = SurrogateArch.hidden
    kernel_radius: int = SurrogateArch.kernel_radius
    clamp: float = SurrogateArch.clamp
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "results"

    def __post_init__(self):
        for name in ("seeds", "ratios", "samplers"):
            values = getattr(self, name)
            if not values:
                raise HarnessConfigError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise HarnessConfigError(f"{name} has duplicate entries: {values}")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise HarnessConfigError(f"ratio {r} outside (0, 1]")
        for s in self.seeds:
            if s < 0:
                raise HarnessConfigError(f"seed must be >= 0, got {s}")
        for s in self.samplers:
            if s not in SAMPLERS:
                raise HarnessConfigError(f"unknown sampler {s!r}")
        if self.pilot_epochs < 1 or self.horizon < 1 or self.batch_traj < 1:
            raise HarnessConfigError("pilot settings must be >= 1")
        try:
            SurrogateArch(history_len=self.history_len, hidden=self.hidden,
                          kernel_radius=self.kernel_radius, clamp=self.clamp)
        except ValueError as exc:
            raise HarnessConfigError(f"model: {exc}") from exc


@dataclass(eq=False)
class CellResult:
    dataset: str
    sampler: str
    ratio: float
    seed: int
    budget: int
    selected: list[int] | None = None
    report: RolloutReport | None = None
    selection_time_s: float = 0.0  # the seed's pilot + scoring, plus this cell's selection
    train_time_s: float = 0.0  # training and test evaluation, shared per stacked task
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    cells: list[CellResult]
    pilot_times: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)


def load_or_generate_dataset(cfg: ExperimentConfig) -> TrajectoryDataset:
    if cfg.dataset_path:
        return pde_data.read_dataset(cfg.dataset_path)
    return pde_data.generate_dataset(cfg.solver, cfg.n_traj)


def _model_arch(cfg: ExperimentConfig, ds: TrajectoryDataset) -> SurrogateArch:
    """The run's surrogate: the config's model sizes on the dataset's channels and boundary."""
    return pilot_scoring.default_arch(ds, history_len=cfg.history_len, hidden=cfg.hidden,
                                      kernel_radius=cfg.kernel_radius, clamp=cfg.clamp)


def downstream_training(
    cfg: ExperimentConfig, ds: TrajectoryDataset, starts, seed: int
) -> surrogate.Training:
    """The downstream training on ``starts``, initialised and run under the cell's train seed."""
    train_cfg = replace(cfg.train, seed=stage_seed(seed, "train"))
    return surrogate.Training(surrogate.init_params(_model_arch(cfg, ds), train_cfg.seed),
                              starts, train_cfg)


def train_downstream(
    cfg: ExperimentConfig, ds: TrajectoryDataset, starts, seed: int
) -> tuple[SurrogateParams, list[EpochStats]]:
    """Train the downstream surrogate on ``starts`` under the cell's train seed."""
    params0, starts, train_cfg = downstream_training(cfg, ds, starts, seed)
    return surrogate.train(params0, starts, ds, train_cfg)


# ----------------------------------------------------------------------
# the grid's tasks: they run on the pool's workers, or here with one worker;
# each takes a list of items and returns one value per item, and the
# scheduler times each call and records its exception
# ----------------------------------------------------------------------

class _Run(NamedTuple):
    """What every task of one grid reads; the pool's workers inherit it by fork."""

    cfg: ExperimentConfig
    ds: TrajectoryDataset
    candidates: CandidateSet
    # pilot seed -> (scoring trajectories, losses, grads), filled in by
    # _select_cells; the chunks write their rows into the two shared arrays,
    # and the seed's pilot-based selections read them
    scoring: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _pilot_task(run: _Run, seeds: list[int]) -> list[SurrogateParams]:
    """Train one seed's pilot for ``pilot_epochs`` under its pilot seed;
    ``seeds`` is that one seed."""
    [seed] = seeds
    cfg = replace(run.cfg.train, epochs_max=run.cfg.pilot_epochs, seed=stage_seed(seed, "pilot"))
    return [pilot_scoring.train_pilot(run.ds, run.candidates, cfg,
                                      arch=_model_arch(run.cfg, run.ds))]


def _score_task(run: _Run, tasks: list) -> list[None]:
    """Score one chunk of a seed's candidates with its pilot into their rows
    of the seed's shared arrays; ``tasks`` is the one ``(seed, pilot, chunk)``,
    the chunk a slice of the candidate positions."""
    [(seed, pilot, chunk)] = tasks
    traj, losses, grads = run.scoring[seed]
    surrogate.start_loss_grads(pilot, run.ds, traj, run.candidates.indices[chunk],
                               run.cfg.horizon, losses[chunk], grads[chunk])
    return [None]


def _select_task(run: _Run, cells: list) -> list[SelectionResult]:
    """Run one cell's sampler; ``cells`` is the one ``(ratio, sampler, seed)``.
    A pilot-based sampler reads its seed's losses and gradients, which the
    seed's scoring chunks wrote into the shared arrays."""
    [(ratio, sampler, seed)] = cells
    needs = selector.SAMPLER_TABLE[sampler].needs
    pilot = None
    if needs is not None:
        _, losses, grads = run.scoring[seed]
        pilot = pilot_scoring.pilot_input(needs, losses, grads, run.candidates)
    budget = selector.budget_from_ratio(ratio, run.candidates.size)
    return [selector.run_sampler(sampler, run.candidates, run.cfg.objective, budget, pilot)]


def _train_and_evaluate(run: _Run, keys) -> list:
    """Train on each of a stack of distinct selections and evaluate it on the
    test split; each key is ``(seed, sorted starts)``. The trainings step
    together (:func:`gits.surrogate.train_stack`), and a training that
    diverged is its key's entry instead of a report."""
    trained = surrogate.train_stack(
        [downstream_training(run.cfg, run.ds, list(starts), seed) for seed, starts in keys],
        run.ds)
    return [result if isinstance(result, Exception)
            else diagnostics.rollout_report(result[0], run.ds, split="test")
            for result in trained]


def _stack_key(cfg: ExperimentConfig, candidates: CandidateSet, key):
    """The stack key of the training of ``key`` (``(seed, sorted starts)``):
    its number of starts, which fixes its pair count, or ``key`` itself,
    which no other training shares.

    A stack holds its worker until its last training ends, so it can delay
    the scoring chunks that a pilot queues for every worker. A training that
    runs more one-step updates per trajectory than a pilot (epochs_max x
    starts against pilot_epochs x |C|) holds its worker past the pilot's end
    on its own, and stacks; a shorter one runs alone.
    """
    starts = len(key[1])
    return starts if cfg.train.epochs_max * starts > cfg.pilot_epochs * candidates.size else key


def _training_key(cell: CellResult) -> tuple[int, tuple[int, ...]]:
    return cell.seed, tuple(sorted(cell.selected))


def _select_cells(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    cells: list[tuple[float, str, int]],
    selected,
) -> tuple[parallel.Scheduler, dict[int, dict[str, float]]]:
    """Queue the selection of each ``(ratio, sampler, seed)`` in ``cells``.

    Returns the scheduler, not yet run, and the per-seed pilot times, which
    fill in as it runs. A cell whose sampler needs no pilot is queued at
    once. For the others, each seed's shared score arrays in
    ``_Run.scoring`` are allocated here, so the workers inherit them when
    they fork, and its pilot is queued. The pilot's return queues the
    seed's scoring chunks, and the last chunk's return records the seed's
    ``{"pilot_s", "scoring_s"}`` and queues its cells. Each selection's
    return calls ``selected(cell, outcome, seconds)`` with its
    :class:`gits.parallel.Outcome` and the cell's selection time: the
    selection task's seconds plus, for a pilot-based sampler, its seed's
    ``pilot_s + scoring_s``. If the seed's pilot or a chunk failed, its
    pilot-based cells are not queued and ``selected`` gets an outcome with
    that error text and 0 seconds. ``selected`` may queue more tasks.
    """
    pilot_free, pilot_based = [], {}  # pilot seed -> its cells
    for cell in cells:
        _, sampler, seed = cell
        if selector.SAMPLER_TABLE[sampler].needs is None:
            pilot_free.append(cell)
        else:
            pilot_based.setdefault(seed, []).append(cell)
    # one contiguous chunk of candidate positions per worker
    chunks = [slice(c[0], c[-1] + 1) for c in np.array_split(
        np.arange(candidates.size), parallel.worker_count(candidates.size))]
    run = _Run(cfg, ds, candidates, {})
    # the pool is sized by every task known before a pilot-based cell is selected
    scheduler = parallel.Scheduler(run, parallel.worker_count(
        len(pilot_free) + len(pilot_based) * (1 + len(chunks))))
    pilot_times: dict[int, dict[str, float]] = {}

    def queue(cell, pilot_s) -> None:
        scheduler.submit(SELECTION, _select_task, cell,
                         then=lambda outcome: selected(cell, outcome, pilot_s + outcome.seconds))

    def failed(seed, error) -> None:
        for cell in pilot_based[seed]:
            selected(cell, parallel.Outcome(None, error, 0.0, 0.0), 0.0)

    def chunk_returned(seed, pilot_s, outcomes, index, outcome) -> None:
        outcomes[index] = outcome
        if None in outcomes:
            return
        errors = [o.error for o in outcomes if o.error is not None]
        if errors:
            failed(seed, errors[0])
            return
        scoring_s = max(o.end for o in outcomes) - min(o.start for o in outcomes)
        pilot_times[seed] = {"pilot_s": pilot_s, "scoring_s": scoring_s}
        for cell in pilot_based[seed]:
            queue(cell, pilot_s + scoring_s)

    def pilot_returned(seed, outcome) -> None:
        if outcome.error is not None:
            failed(seed, outcome.error)
            return
        outcomes = [None] * len(chunks)
        for index, chunk in enumerate(chunks):
            scheduler.submit(SCORING, _score_task, (seed, outcome.value, chunk),
                             then=functools.partial(chunk_returned, seed, outcome.seconds,
                                                    outcomes, index))

    for cell in pilot_free:
        queue(cell, 0.0)
    param_count = _model_arch(cfg, ds).param_count()
    for seed in pilot_based:
        run.scoring[seed] = (
            pilot_scoring.scoring_trajectories(ds, cfg.batch_traj, stage_seed(seed, "scoring")),
            parallel.shared_zeros((candidates.size,)),
            parallel.shared_zeros((candidates.size, param_count)))
        scheduler.submit(PILOT, _pilot_task, seed, then=functools.partial(pilot_returned, seed))
    return scheduler, pilot_times


def select_starts(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    sampler: str,
    ratio: float,
    seed: int,
) -> tuple[SelectionResult, float]:
    """Select one cell's starts; returns (selection, selection_time_s).

    This is the one-cell path of ``gits select`` and ``gits train``: a pool
    of its own runs the cell's tasks through :func:`_select_cells`, as
    :func:`run_experiment`'s pool does for a grid. Selection time is the
    cost of producing this selection: the seed's pilot and scoring seconds
    for a pilot-based sampler, plus the selection task's. A failed pilot,
    chunk or selection raises ``RuntimeError`` carrying the recorded error
    text.
    """
    returned = []
    scheduler, _ = _select_cells(
        cfg, ds, candidates, [(ratio, sampler, seed)],
        lambda cell, outcome, seconds: returned.append((outcome, seconds)))
    scheduler.run()
    [(outcome, seconds)] = returned
    if outcome.error is not None:
        raise RuntimeError(outcome.error)
    return outcome.value, seconds


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full (ratio, sampler, seed) grid; deterministic given cfg.

    When any sampler needs the pilot, each seed's pilot is trained once and
    its candidates scored once, in chunks, and every cell of that seed
    whose sampler needs them reads the result. A pilot that raises is not
    retried: its error text is recorded in each of those cells.

    Downstream training depends only on the config, the seed and the set of
    selected starts, so each distinct ``(seed, sorted starts)`` is trained
    and evaluated once, and every cell with that selection reads the same
    report, training time or error text.

    One :class:`gits.parallel.Scheduler` runs the pilots, the scoring
    chunks, the selections and the trainings, in that order of priority
    (:func:`_select_cells`). The selections that need no pilot are queued
    at once, so they and their trainings run while the pilots train. Each
    selection's return queues its training if no cell queued it yet, keyed
    by its number of starts: the trainings of one key that wait for a worker
    run as one stacked task, and report that task's seconds. The cells come
    back in grid order, whatever order the tasks ran in.
    """
    ds = load_or_generate_dataset(cfg)
    candidates = pilot_scoring.build_candidates(ds.t_count, cfg.history_len)
    cells = {
        (ratio, sampler, seed): CellResult(
            dataset=ds.meta.get("family", "dataset"), sampler=sampler, ratio=ratio, seed=seed,
            budget=selector.budget_from_ratio(ratio, candidates.size))
        for ratio, sampler, seed in itertools.product(cfg.ratios, cfg.samplers, cfg.seeds)
    }
    trained: dict[tuple, parallel.Outcome | None] = {}  # key -> outcome; None while queued

    def selected(entry, outcome, seconds) -> None:
        cell = cells[entry]
        cell.error, cell.selection_time_s = outcome.error, seconds
        if outcome.error is None:
            cell.selected = outcome.value.selected
            key = _training_key(cell)
            if key not in trained:
                trained[key] = None
                scheduler.submit(TRAINING, _train_and_evaluate, key,
                                 then=functools.partial(trained.__setitem__, key),
                                 stack=_stack_key(cfg, candidates, key))

    scheduler, pilot_times = _select_cells(cfg, ds, candidates, list(cells), selected)
    scheduler.run()
    for cell in cells.values():
        if cell.ok:
            outcome = trained[_training_key(cell)]
            cell.report, cell.error = outcome.value, outcome.error
            cell.train_time_s = outcome.seconds
    return ExperimentResult(config=cfg, cells=list(cells.values()), pilot_times=pilot_times)

# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def compare_report(cells: list[CellResult]) -> dict:
    """Per-(sampler, ratio) seed means/stds plus head-to-head win counts.

    Wins count the (ratio, seed) cells where the gits error is strictly
    lower than the baseline's; ``None`` when gits or any comparison
    partner is absent.
    """
    table: dict[str, dict[float, list[float]]] = {}
    for c in cells:
        if c.ok and c.report is not None:
            table.setdefault(c.sampler, {}).setdefault(c.ratio, []).append(c.report.nrmse)

    aggregates = {
        sampler: {
            str(ratio): {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "n": len(vals),
            }
            for ratio, vals in sorted(by_ratio.items())
        }
        for sampler, by_ratio in sorted(table.items())
    }

    wins = None
    samplers_present = set(table)
    if "gits" in samplers_present and len(samplers_present) > 1:
        gits_cells = {
            (c.ratio, c.seed): c.report.nrmse
            for c in cells
            if c.ok and c.sampler == "gits" and c.report is not None
        }
        wins = {}
        for baseline in sorted(samplers_present - {"gits"}):
            count = 0
            for c in cells:
                if c.ok and c.sampler == baseline and c.report is not None:
                    g = gits_cells.get((c.ratio, c.seed))
                    if g is not None and g < c.report.nrmse:
                        count += 1
            wins[baseline] = count
    return {"aggregates": aggregates, "wins": wins}


def format_compare_table(summary: dict) -> str:
    lines = [f"{'sampler':<14} {'ratio':>6} {'mean nRMSE':>12} {'std':>10} {'n':>3}"]
    for sampler, by_ratio in summary["aggregates"].items():
        for ratio, stats in by_ratio.items():
            lines.append(
                f"{sampler:<14} {ratio:>6} {stats['mean']:>12.6f} {stats['std']:>10.6f} {stats['n']:>3}"
            )
    if summary["wins"]:
        lines.append("")
        lines.append("gits wins (strictly lower nRMSE, per ratio x seed cell):")
        for baseline, count in summary["wins"].items():
            lines.append(f"  vs {baseline:<14} {count}")
    return "\n".join(lines)


def _cell_row(cell: CellResult) -> list:
    """The cell's results.csv row: timings to six decimals, other floats by ``repr``."""
    row = []
    for name in RESULT_COLUMNS:
        value = getattr(cell if hasattr(cell, name) else cell.report, name)
        if name in TIMING_FIELDS:
            value = f"{value:.6f}"
        elif isinstance(value, float):
            value = repr(value)
        row.append(value)
    return row


def write_results(result: ExperimentResult, output_dir) -> tuple[Path, Path]:
    """Write results.csv (successful cells) and summary.json; returns both paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for cell in result.cells:
            if cell.ok and cell.report is not None:
                writer.writerow(_cell_row(cell))

    summary = compare_report(result.cells)
    payload = {
        "config_echo": asdict(result.config),
        "cells": [
            {
                "dataset": c.dataset,
                "sampler": c.sampler,
                "ratio": c.ratio,
                "seed": c.seed,
                "K": c.budget,
                "selected": c.selected,
                "nrmse": (c.report.nrmse if c.report else None),
                "selection_time_s": c.selection_time_s,
                "train_time_s": c.train_time_s,
                "error": c.error,
            }
            for c in result.cells
        ],
        "pilot": {str(seed): times for seed, times in sorted(result.pilot_times.items())},
        "aggregates": summary["aggregates"],
        "wins": summary["wins"],
    }
    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return csv_path, json_path
