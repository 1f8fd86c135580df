"""Declarative experiment runner and self-test suites.

Runs the (ratio, sampler, seed) grid: build candidates, train a pilot and
score candidates where the sampler needs them, select K = max(1,
round(ratio * |C|)) starts, train the downstream surrogate on the selected
starts, and evaluate the full rollout report on the test split. Each cell
is timed separately for selection (pilot + scoring + subset optimization)
and downstream training. Cell failures are recorded and the sweep
continues; the exit status reports them.

Outputs: ``results.csv`` (one row per successful cell, schema from
:data:`gits.diagnostics.RESULT_COLUMNS`) and ``summary.json`` with the
config echo, per-cell details, per-sampler aggregates, and head-to-head
win counts of the gradient-informed sampler against each baseline.

Stage seeds: the pilot, the scoring subsample, and the downstream training
draw from distinct sub-seeds of the cell seed, so no two stages share an
initialization stream.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diagnostics, pde_data, pilot_scoring, selector, surrogate, temporal_coverage
from .diagnostics import RESULT_COLUMNS, RolloutReport
from .pde_data import SolverConfig, TrajectoryDataset
from .pilot_scoring import CandidateSet, PilotMeta
from .selector import SAMPLERS, ObjectiveConfig, SelectionResult
from .surrogate import EpochStats, SurrogateArch, SurrogateParams, TrainConfig

PILOT_SEED_OFFSET = 10007
SCORING_SEED_OFFSET = 20011


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
    lambda_cov: float = 1.0
    c_win: float = 0.5
    normalize_scores: bool = False
    coverage_override: temporal_coverage.CoverageConfig | None = None
    history_len: int = 4
    hidden: int = 8
    kernel_radius: int = 2
    clamp: float = 10.0
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if not self.seeds:
            raise HarnessConfigError("seeds must be nonempty")
        if not self.ratios:
            raise HarnessConfigError("ratios must be nonempty")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise HarnessConfigError(f"ratio {r} outside (0, 1]")
        for s in self.samplers:
            if s not in SAMPLERS:
                raise HarnessConfigError(f"unknown sampler {s!r}")
        if self.pilot_epochs < 1 or self.horizon < 1 or self.batch_traj < 1:
            raise HarnessConfigError("pilot settings must be >= 1")


@dataclass(eq=False)
class CellResult:
    dataset: str
    sampler: str
    ratio: float
    seed: int
    budget: int
    selected: list[int] | None = None
    report: RolloutReport | None = None
    selection_time_s: float = 0.0
    train_time_s: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    cells: list[CellResult]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)


def load_or_generate_dataset(cfg: ExperimentConfig) -> TrajectoryDataset:
    if cfg.dataset_path:
        return pde_data.read_dataset(cfg.dataset_path)
    return pde_data.generate_dataset(cfg.solver, cfg.n_traj)


def _objective(cfg: ExperimentConfig, t_count: int, budget: int) -> ObjectiveConfig:
    coverage = cfg.coverage_override or temporal_coverage.derive_coverage_config(
        t_count, budget
    )
    return ObjectiveConfig(coverage=coverage, lambda_cov=cfg.lambda_cov,
                           c_win=cfg.c_win, normalize_scores=cfg.normalize_scores)


def select_starts(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    sampler: str,
    ratio: float,
    seed: int,
) -> tuple[SelectionResult, float]:
    """Run one sampler end to end; returns (selection, selection_time_s).

    Selection time covers pilot training, candidate scoring, and subset
    optimization -- everything before downstream training.
    """
    budget = selector.budget_from_ratio(ratio, candidates.size)
    obj = _objective(cfg, ds.t_count, budget)
    t0 = time.perf_counter()

    needs = selector.SAMPLER_TABLE[sampler].needs
    pilot_input = None
    if needs is not None:
        arch = pilot_scoring.default_arch(ds, cfg.history_len, cfg.hidden,
                                          cfg.kernel_radius, cfg.clamp)
        pilot_cfg = replace(cfg.train, epochs_max=cfg.pilot_epochs,
                            seed=stage_seed(seed, "pilot"))
        pilot = pilot_scoring.train_pilot(ds, candidates, pilot_cfg, arch=arch)
        scoring_seed = stage_seed(seed, "scoring")
        losses, grads = pilot_scoring.candidate_gradients(
            pilot, candidates, ds, cfg.horizon, cfg.batch_traj, scoring_seed
        )
        pilot_input = pilot_scoring.pilot_input(
            needs, losses, grads, candidates,
            PilotMeta(cfg.pilot_epochs, cfg.horizon, scoring_seed),
        )
    result = selector.run_sampler(sampler, candidates, obj, budget, pilot_input)
    return result, time.perf_counter() - t0


def train_downstream(
    cfg: ExperimentConfig, ds: TrajectoryDataset, starts, seed: int
) -> tuple[SurrogateParams, list[EpochStats]]:
    """Train the downstream surrogate on ``starts`` under the cell's train seed."""
    train_cfg = replace(cfg.train, seed=stage_seed(seed, "train"))
    arch = pilot_scoring.default_arch(ds, cfg.history_len, cfg.hidden,
                                      cfg.kernel_radius, cfg.clamp)
    params0 = surrogate.init_params(arch, train_cfg.seed)
    return surrogate.train(params0, starts, ds, train_cfg)


def _run_cell(
    cfg: ExperimentConfig,
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    sampler: str,
    ratio: float,
    seed: int,
) -> CellResult:
    budget = selector.budget_from_ratio(ratio, candidates.size)
    cell = CellResult(
        dataset=ds.meta.get("family", "dataset"),
        sampler=sampler,
        ratio=ratio,
        seed=seed,
        budget=budget,
    )
    try:
        selection, sel_time = select_starts(cfg, ds, candidates, sampler, ratio, seed)
        cell.selected = selection.selected
        cell.selection_time_s = sel_time

        t0 = time.perf_counter()
        params, _ = train_downstream(cfg, ds, selection.selected, seed)
        cell.train_time_s = time.perf_counter() - t0

        cell.report = diagnostics.rollout_report(params, ds, split="test")
    except Exception as exc:  # per-cell failure policy: record and continue
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.error += "\n" + traceback.format_exc(limit=3)
    return cell


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full (ratio, sampler, seed) grid; deterministic given cfg."""
    ds = load_or_generate_dataset(cfg)
    candidates = pilot_scoring.build_candidates(ds.t_count, cfg.history_len)
    cells = []
    for ratio in cfg.ratios:
        for sampler in cfg.samplers:
            for seed in cfg.seeds:
                cells.append(_run_cell(cfg, ds, candidates, sampler, ratio, seed))
    return ExperimentResult(config=cfg, cells=cells)


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
    r = cell.report
    return [
        cell.dataset,
        cell.sampler,
        repr(cell.ratio),
        cell.seed,
        repr(r.nrmse),
        repr(r.crmse),
        repr(r.brmse),
        repr(r.frmse_low),
        repr(r.frmse_mid),
        repr(r.frmse_high),
        f"{cell.selection_time_s:.6f}",
        f"{cell.train_time_s:.6f}",
    ]


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
        "config_echo": _config_echo(result.config),
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
        "aggregates": summary["aggregates"],
        "wins": summary["wins"],
    }
    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return csv_path, json_path


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg)
    echo["solver"] = asdict(cfg.solver)
    echo["train"] = asdict(cfg.train)
    if cfg.coverage_override is not None:
        echo["coverage_override"] = asdict(cfg.coverage_override)
    return echo


# ----------------------------------------------------------------------
# self-test suites (small-scale oracle checks)
# ----------------------------------------------------------------------

SELFTEST_SUITES = ("greedy_vs_exhaustive", "incremental_coverage", "gradient_fd", "submodularity")


@dataclass(frozen=True)
class SuiteOutcome:
    suite: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SelftestReport:
    outcomes: tuple[SuiteOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def format(self) -> str:
        lines = [
            f"[{'PASS' if o.passed else 'FAIL'}] {o.suite}: {o.detail}" for o in self.outcomes
        ]
        lines.append("selftest: " + ("all suites passed" if self.passed else "FAILURES present"))
        return "\n".join(lines)


def _exhaustive_optimum(s, s_mat, r_mat, lam, c_w, budget):
    from itertools import combinations

    best = -np.inf
    n = len(s)
    for combo in combinations(range(n), budget):
        sel = list(combo)
        val = s[sel].sum()
        if lam > 0:
            val += lam * s_mat[:, sel].max(axis=1).sum()
        if c_w > 0:
            val += c_w * r_mat[:, sel].max(axis=1).sum()
        best = max(best, val)
    return best


def _suite_greedy(rng: np.random.Generator, instances: int = 25) -> SuiteOutcome:
    bound = 1.0 - 1.0 / np.e
    worst = np.inf
    for _ in range(instances):
        size = int(rng.integers(6, 13))
        history = 4
        candidates = pilot_scoring.build_candidates(history + 1 + size, history)
        budget = int(rng.integers(2, 5))
        cov = temporal_coverage.derive_coverage_config(candidates.t_count, budget)
        obj = ObjectiveConfig(
            coverage=cov,
            lambda_cov=float(rng.uniform(0.0, 2.0)),
            c_win=float(rng.uniform(0.0, 2.0)),
        )
        scores = rng.uniform(0.0, 1.0, size)
        windows = temporal_coverage.build_windows(candidates, cov)
        s_mat = temporal_coverage.kernel_matrix_global(candidates, cov.tau)
        r_mat = temporal_coverage.kernel_matrix_window(candidates, windows, cov.tau_w)
        greedy = selector.greedy_select(scores, candidates, obj, budget)
        optimum = _exhaustive_optimum(scores, s_mat, r_mat, obj.lambda_cov, obj.c_win, budget)
        if optimum > 0:
            worst = min(worst, greedy.objective / optimum)
        if greedy.objective < bound * optimum - 1e-9:
            return SuiteOutcome(
                "greedy_vs_exhaustive", False,
                f"ratio {greedy.objective / optimum:.6f} below (1 - 1/e)",
            )
    return SuiteOutcome(
        "greedy_vs_exhaustive", True,
        f"{instances} instances, worst greedy/optimum ratio {worst:.4f}",
    )


def _suite_incremental(rng: np.random.Generator, trials: int = 20) -> SuiteOutcome:
    candidates = pilot_scoring.build_candidates(101, 4)
    worst = 0.0
    for _ in range(trials):
        budget = int(rng.integers(1, 20))
        cov = temporal_coverage.derive_coverage_config(101, budget)
        windows = temporal_coverage.build_windows(candidates, cov)
        sel = rng.choice(candidates.indices, size=budget, replace=False)
        state = temporal_coverage.empty_state(candidates, windows)
        for k in sel:
            state = temporal_coverage.state_update(state, int(k), candidates, windows, cov)
        f_cov, f_win = temporal_coverage.coverage_values(sel, candidates, windows, cov)
        err = max(abs(state.m.sum() - f_cov), abs(state.u.sum() - f_win))
        worst = max(worst, err)
        if err > 1e-12:
            return SuiteOutcome("incremental_coverage", False, f"mismatch {err:.3e}")
    return SuiteOutcome("incremental_coverage", True, f"{trials} trials, worst gap {worst:.2e}")


def _suite_gradient(rng: np.random.Generator) -> SuiteOutcome:
    cfg = SolverConfig(family="diffusion1d", spatial_size=16, t_count=12, seed=3)
    ds = pde_data.generate_dataset(cfg, 10)
    arch = SurrogateArch(history_len=3, hidden=3, kernel_radius=1, channels=1)
    params = surrogate.init_params(arch, 5)
    pairs = [(0, 4), (1, 6), (2, ds.t_count - 2)]
    loss, grad = surrogate.rollout_loss_grad(params, pairs, 3, ds)
    fd = np.empty_like(grad)
    h = 1e-6
    for i in range(params.param_count):
        up = params.theta.copy()
        dn = params.theta.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = surrogate.rollout_loss_grad(SurrogateParams(up, arch), pairs, 3, ds)
        ld, _ = surrogate.rollout_loss_grad(SurrogateParams(dn, arch), pairs, 3, ds)
        fd[i] = (lu - ld) / (2 * h)
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    rel = float(np.max(np.abs(grad - fd))) / scale
    ok = rel < 1e-4
    return SuiteOutcome("gradient_fd", ok, f"max relative error {rel:.3e}")


def _suite_submodularity(rng: np.random.Generator, kernel_fn=None, trials: int = 40) -> SuiteOutcome:
    kernel = kernel_fn or temporal_coverage.kernel_global
    candidates = pilot_scoring.build_candidates(40, 4)
    idx = candidates.indices
    tau = 5.0
    s_mat = np.array([[float(kernel(int(i), int(j), tau)) for j in idx] for i in idx])

    # a valid similarity kernel lies in (0, 1] with 1 exactly on the diagonal
    if np.any(s_mat <= 0.0) or np.any(s_mat > 1.0):
        return SuiteOutcome("submodularity", False, "kernel values leave (0, 1]")
    if np.any(np.diag(s_mat) != 1.0):
        return SuiteOutcome("submodularity", False, "kernel is not 1 at zero distance")

    def f_cov(sel):
        if not sel:
            return 0.0
        return float(s_mat[:, sorted(sel)].max(axis=1).sum())

    for _ in range(trials):
        perm = rng.permutation(len(idx))
        small = set(perm[: int(rng.integers(0, 4))].tolist())  # empty sets included
        large = small | set(perm[4:7].tolist())
        k = int(perm[7])
        gain_small = f_cov(small | {k}) - f_cov(small)
        gain_large = f_cov(large | {k}) - f_cov(large)
        if gain_small < gain_large - 1e-12:
            return SuiteOutcome(
                "submodularity", False,
                f"marginal gain grew with the set: {gain_small:.6f} < {gain_large:.6f}",
            )
        if f_cov(large) - f_cov(small) < -1e-12:
            return SuiteOutcome("submodularity", False, "coverage decreased on a superset")
    return SuiteOutcome("submodularity", True, f"{trials} nested-set trials")


def run_selftest(suites=None, kernel_fn=None, rng_seed: int = 0) -> SelftestReport:
    """Run the small-scale oracle suites; empty ``suites`` is a trivial pass.

    ``kernel_fn`` replaces the global coverage kernel inside the
    submodularity suite (test hook for mutation sensitivity).
    """
    if suites is None:
        suites = SELFTEST_SUITES
    outcomes = []
    for name in suites:
        if name not in SELFTEST_SUITES:
            raise ValueError(f"unknown selftest suite {name!r}")
        rng = np.random.default_rng([rng_seed, SELFTEST_SUITES.index(name)])
        if name == "greedy_vs_exhaustive":
            outcomes.append(_suite_greedy(rng))
        elif name == "incremental_coverage":
            outcomes.append(_suite_incremental(rng))
        elif name == "gradient_fd":
            outcomes.append(_suite_gradient(rng))
        else:
            outcomes.append(_suite_submodularity(rng, kernel_fn))
    return SelftestReport(outcomes=tuple(outcomes))
