"""Declarative experiment runner: the (ratio, sampler, seed) grid.

Runs the grid: build candidates, train a pilot and score candidates where
the sampler needs them, select K = max(1, round(ratio * |C|)) starts, train
the downstream surrogate on the selected starts, and evaluate the full
rollout report on the test split. The pilot and its candidate gradients
depend only on the seed, so a grid computes them once per seed and every
pilot-based cell of that seed reads them. Likewise each distinct (seed,
set of starts) is trained and evaluated once, and the cells that selected
it share the result.

One :class:`gits.parallel.Scheduler` pool runs that work as three kinds of
task, in this order of priority: each seed's pilot, that seed's scoring
chunks, and each distinct selection's training and evaluation. Cells whose
sampler needs no pilot are selected before the pool starts, so their
trainings run while the pilots train; a seed's pilot-based cells are
selected here when its last scoring chunk returns. The tasks are plain
functions: the scheduler times each one and records its exception
(:class:`gits.parallel.Outcome`), which gives each seed's pilot and scoring
seconds and each distinct selection's training and evaluation seconds;
:func:`select_starts` times each cell's selection step. Cell failures, a
failed pilot included, are recorded and the sweep continues; the exit
status reports them.

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
import time
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
PILOT, SCORING, TRAINING = range(3)


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
    selection_time_s: float = 0.0  # the seed's pilot + scoring, plus this cell's selection step
    train_time_s: float = 0.0  # training and test evaluation, shared per (seed, starts)
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


class PilotGradients(NamedTuple):
    """One seed's per-candidate pilot losses and gradients, and what they cost."""

    losses: np.ndarray
    grads: np.ndarray  # (|C|, param_count)
    pilot_s: float
    scoring_s: float  # wall time from the first scoring chunk's start to the last one's end


def select_starts(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    sampler: str,
    ratio: float,
    seed: int,
    *,
    pilot: PilotGradients | None,
) -> tuple[SelectionResult, float]:
    """Run one sampler on one cell; returns (selection, selection_time_s).

    ``ratio`` sets the budget. ``pilot`` is the seed's
    :func:`pilot_gradients`, or None for a sampler that needs no pilot;
    ``seed`` names the cell and is not otherwise read. Selection time is the
    cost of producing this selection: the seed's pilot and scoring seconds
    plus the sampler's own step.
    """
    budget = selector.budget_from_ratio(ratio, candidates.size)
    needs = selector.SAMPLER_TABLE[sampler].needs
    if needs is None:
        pilot_s, pilot_input = 0.0, None
    else:
        pilot_s = pilot.pilot_s + pilot.scoring_s
        pilot_input = pilot_scoring.pilot_input(needs, pilot.losses, pilot.grads, candidates)
    start = time.perf_counter()
    result = selector.run_sampler(sampler, candidates, cfg.objective, budget, pilot_input)
    return result, pilot_s + time.perf_counter() - start


def train_downstream(
    cfg: ExperimentConfig, ds: TrajectoryDataset, starts, seed: int
) -> tuple[SurrogateParams, list[EpochStats]]:
    """Train the downstream surrogate on ``starts`` under the cell's train seed."""
    train_cfg = replace(cfg.train, seed=stage_seed(seed, "train"))
    params0 = surrogate.init_params(_model_arch(cfg, ds), train_cfg.seed)
    return surrogate.train(params0, starts, ds, train_cfg)


def _select_cell(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    sampler: str,
    ratio: float,
    seed: int,
    pilot: PilotGradients | str | None,
) -> CellResult:
    """One cell up to its selection; ``pilot`` is its seed's pilot, the seed's
    pilot error text, or None."""
    budget = selector.budget_from_ratio(ratio, candidates.size)
    cell = CellResult(
        dataset=ds.meta.get("family", "dataset"),
        sampler=sampler,
        ratio=ratio,
        seed=seed,
        budget=budget,
    )
    if isinstance(pilot, str) and selector.SAMPLER_TABLE[sampler].needs is not None:
        cell.error = pilot
        return cell
    try:
        selection, cell.selection_time_s = select_starts(
            cfg, ds, candidates, sampler, ratio, seed, pilot=pilot
        )
        cell.selected = selection.selected
    except Exception as exc:  # per-cell failure policy: record and continue
        cell.error = parallel.error_text(exc)
    return cell


# ----------------------------------------------------------------------
# the grid's tasks: they run on the pool's workers, or here with one worker;
# the scheduler times each one and records its exception
# ----------------------------------------------------------------------

class _Run(NamedTuple):
    """What every task of one grid reads; the pool's workers inherit it by fork."""

    cfg: ExperimentConfig
    ds: TrajectoryDataset
    candidates: CandidateSet
    # pilot seed -> (scoring trajectories, losses, grads), filled in by
    # _queue_pilot; the chunks write their rows into the two shared arrays
    scoring: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


def _pilot_task(run: _Run, seed: int) -> SurrogateParams:
    """Train one seed's pilot for ``pilot_epochs`` under its pilot seed."""
    cfg = replace(run.cfg.train, epochs_max=run.cfg.pilot_epochs, seed=stage_seed(seed, "pilot"))
    return pilot_scoring.train_pilot(run.ds, run.candidates, cfg,
                                     arch=_model_arch(run.cfg, run.ds))


def _score_task(run: _Run, task) -> None:
    """Score one chunk of a seed's candidates with its pilot into the seed's
    shared arrays; ``task`` is ``(seed, pilot, positions)``."""
    seed, pilot, positions = task
    traj, losses, grads = run.scoring[seed]
    pilot_scoring._chunk_gradients(pilot, run.ds, traj, run.cfg.horizon,
                                   run.candidates.indices, positions, losses, grads)


def _train_and_evaluate(run: _Run, key) -> RolloutReport:
    """Train on one distinct selection and evaluate it on the test split;
    ``key`` is ``(seed, sorted starts)``."""
    seed, starts = key
    params, _ = train_downstream(run.cfg, run.ds, list(starts), seed)
    return diagnostics.rollout_report(params, run.ds, split="test")


def _training_key(cell: CellResult) -> tuple[int, tuple[int, ...]]:
    return cell.seed, tuple(sorted(cell.selected))


def _queue_pilot(scheduler: parallel.Scheduler, seed: int, done) -> None:
    """Queue the seed's pilot on ``scheduler``, whose shared object is a :class:`_Run`.

    The pilot's return queues the seed's scoring chunks. The last chunk's
    return calls ``done`` with the seed's :class:`PilotGradients`, or with
    the error text of the failed pilot or chunk. Call it before the
    scheduler runs: it allocates the seed's shared score arrays, which the
    workers inherit when they fork.
    """
    run = scheduler.shared
    size, param_count = run.candidates.size, _model_arch(run.cfg, run.ds).param_count()
    run.scoring[seed] = (
        pilot_scoring.scoring_trajectories(run.ds, run.cfg.batch_traj, stage_seed(seed, "scoring")),
        parallel.shared_zeros((size,)), parallel.shared_zeros((size, param_count)))
    chunks = pilot_scoring.score_chunks(size)
    outcomes = [None] * len(chunks)

    def chunk_returned(pilot_s, index, outcome) -> None:
        outcomes[index] = outcome
        if None in outcomes:
            return
        errors = [o.error for o in outcomes if o.error is not None]
        if errors:
            done(errors[0])
            return
        _, losses, grads = run.scoring[seed]
        done(PilotGradients(losses, grads, pilot_s,
                            max(o.end for o in outcomes) - min(o.start for o in outcomes)))

    def pilot_returned(outcome) -> None:
        if outcome.error is not None:
            done(outcome.error)
            return
        for index, positions in enumerate(chunks):
            scheduler.submit(SCORING, _score_task, (seed, outcome.value, positions),
                             then=functools.partial(chunk_returned, outcome.seconds, index))

    scheduler.submit(PILOT, _pilot_task, seed, then=pilot_returned)


def pilot_gradients(
    cfg: ExperimentConfig, ds: TrajectoryDataset, candidates: CandidateSet, seed: int
) -> PilotGradients:
    """Train the seed's pilot and compute every candidate's loss and gradient.

    Depends on the seed only through its pilot and scoring stage seeds, not
    on the sampler or the ratio. The pilot parameters are not kept. This is
    the one-cell path of ``gits select`` and ``gits train``: a pool of its
    own runs :func:`_queue_pilot`'s tasks, as :func:`run_experiment`'s pool
    does for each seed. A failed pilot or chunk raises ``RuntimeError``
    carrying the recorded error text.
    """
    # one worker per scoring chunk
    scheduler = parallel.Scheduler(_Run(cfg, ds, candidates, {}),
                                   parallel.worker_count(candidates.size))
    outcome = []
    _queue_pilot(scheduler, seed, outcome.append)
    scheduler.run()
    if isinstance(outcome[0], str):
        raise RuntimeError(outcome[0])
    return outcome[0]


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

    One :class:`gits.parallel.Scheduler` runs the pilots, the scoring chunks
    and the trainings, in that order of priority. The cells that need no
    pilot are selected first and their trainings queued, so they train
    while the pilots do. When a seed's last chunk returns, its pilot-based
    cells are selected here and their new trainings queued. The cells come
    back in grid order, whatever order the tasks ran in.
    """
    ds = load_or_generate_dataset(cfg)
    candidates = pilot_scoring.build_candidates(ds.t_count, cfg.history_len)
    grid = list(itertools.product(cfg.ratios, cfg.samplers, cfg.seeds))
    pilot_based = {s for s in cfg.samplers if selector.SAMPLER_TABLE[s].needs is not None}
    pilot_seeds = cfg.seeds if pilot_based else ()
    run = _Run(cfg, ds, candidates, {})
    chunks = pilot_scoring.score_chunks(candidates.size)
    cells: dict[tuple, CellResult] = {}
    pilots: dict[int, PilotGradients | str] = {}  # seed -> pilot, or its error text
    trained: dict[tuple, parallel.Outcome | None] = {}  # key -> outcome; None while queued

    def select(entries, pilot) -> list:
        """Select the cells at ``entries``; returns their training keys not yet queued."""
        keys = []
        for ratio, sampler, seed in entries:
            cell = _select_cell(cfg, ds, candidates, sampler, ratio, seed, pilot)
            cells[ratio, sampler, seed] = cell
            if cell.ok and _training_key(cell) not in trained:
                keys.append(_training_key(cell))
                trained[keys[-1]] = None
        return keys

    def queue_trainings(keys) -> None:
        for key in keys:
            scheduler.submit(TRAINING, _train_and_evaluate, key,
                             then=functools.partial(trained.__setitem__, key))

    def seed_scored(seed, pilot) -> None:
        pilots[seed] = pilot
        queue_trainings(select([e for e in grid if e[2] == seed and e[1] in pilot_based], pilot))

    queued = select([e for e in grid if e[1] not in pilot_based], None)
    # the pool is sized by every task known before a pilot-based cell is selected
    scheduler = parallel.Scheduler(
        run, parallel.worker_count(len(queued) + len(pilot_seeds) * (1 + len(chunks))))
    queue_trainings(queued)
    for seed in pilot_seeds:
        _queue_pilot(scheduler, seed, functools.partial(seed_scored, seed))
    scheduler.run()

    ordered = [cells[entry] for entry in grid]
    for cell in ordered:
        if cell.ok:
            outcome = trained[_training_key(cell)]
            cell.report, cell.error = outcome.value, outcome.error
            cell.train_time_s = outcome.seconds
    pilot_times = {
        seed: {"pilot_s": pilots[seed].pilot_s, "scoring_s": pilots[seed].scoring_s}
        for seed in pilot_seeds
        if isinstance(pilots[seed], PilotGradients)
    }
    return ExperimentResult(config=cfg, cells=ordered, pilot_times=pilot_times)


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
