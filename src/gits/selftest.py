"""Self-test suites: small-scale oracle checks of the selection objective and the surrogate.

``gits selftest`` runs them. Each suite checks one property against an
independent oracle: greedy selection against the exhaustive optimum (the
(1 - 1/e) bound), the incremental coverage state against a recomputation,
the surrogate's analytic gradient against finite differences, and the
coverage kernel's submodularity on nested sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import pde_data, pilot_scoring, selector, surrogate, temporal_coverage
from .pde_data import SolverConfig
from .pilot_scoring import CandidateSet
from .selector import ObjectiveConfig
from .surrogate import SurrogateArch, SurrogateParams

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


def exhaustive_optimum(scores, candidates: CandidateSet, obj: ObjectiveConfig,
                       budget: int) -> float:
    """The largest objective of any ``budget`` candidates, by brute force."""
    coverage = obj.coverage_for(candidates.t_count, budget)
    windows = temporal_coverage.build_windows(candidates, coverage)
    s_mat = temporal_coverage.kernel_matrix_global(candidates, coverage.tau)
    r_mat = temporal_coverage.kernel_matrix_window(candidates, windows, coverage.tau_w)
    best = -np.inf
    for combo in itertools.combinations(range(candidates.size), budget):
        sel = list(combo)
        val = scores[sel].sum()
        val += obj.lambda_cov * s_mat[:, sel].max(axis=1).sum()
        val += obj.c_win * r_mat[:, sel].max(axis=1).sum()
        best = max(best, val)
    return best


def _suite_greedy(rng: np.random.Generator) -> SuiteOutcome:
    bound = 1.0 - 1.0 / np.e
    worst = np.inf
    for _ in range(25):
        size = int(rng.integers(6, 13))
        history = 4
        candidates = pilot_scoring.build_candidates(history + 1 + size, history)
        budget = int(rng.integers(2, 5))
        obj = ObjectiveConfig(lambda_cov=float(rng.uniform(0.0, 2.0)),
                              c_win=float(rng.uniform(0.0, 2.0)))
        scores = rng.uniform(0.0, 1.0, size)
        greedy = selector.greedy_select(scores, candidates, obj, budget)
        optimum = exhaustive_optimum(scores, candidates, obj, budget)
        if optimum > 0:
            worst = min(worst, greedy.objective / optimum)
        if greedy.objective < bound * optimum - 1e-9:
            return SuiteOutcome(
                "greedy_vs_exhaustive", False,
                f"ratio {greedy.objective / optimum:.6f} below (1 - 1/e)",
            )
    return SuiteOutcome(
        "greedy_vs_exhaustive", True,
        f"25 instances, worst greedy/optimum ratio {worst:.4f}",
    )


def _suite_incremental(rng: np.random.Generator) -> SuiteOutcome:
    candidates = pilot_scoring.build_candidates(101, 4)
    worst = 0.0
    for _ in range(20):
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
    return SuiteOutcome("incremental_coverage", True, f"20 trials, worst gap {worst:.2e}")


def _suite_gradient() -> SuiteOutcome:
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


def _suite_submodularity(rng: np.random.Generator) -> SuiteOutcome:
    candidates = pilot_scoring.build_candidates(40, 4)
    # reads temporal_coverage.kernel_global per call, so a test can replace it
    s_mat = temporal_coverage.kernel_matrix_global(candidates, 5.0)

    # a valid similarity kernel lies in (0, 1] with 1 exactly on the diagonal
    if np.any(s_mat <= 0.0) or np.any(s_mat > 1.0):
        return SuiteOutcome("submodularity", False, "kernel values leave (0, 1]")
    if np.any(np.diag(s_mat) != 1.0):
        return SuiteOutcome("submodularity", False, "kernel is not 1 at zero distance")

    def f_cov(sel):
        if not sel:
            return 0.0
        return float(s_mat[:, sorted(sel)].max(axis=1).sum())

    for _ in range(40):
        perm = rng.permutation(candidates.size)
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
    return SuiteOutcome("submodularity", True, "40 nested-set trials")


# each suite by name, in run order; a suite's rng is seeded with [0, its position]
_SUITES = {
    "greedy_vs_exhaustive": _suite_greedy,
    "incremental_coverage": _suite_incremental,
    "gradient_fd": lambda rng: _suite_gradient(),
    "submodularity": _suite_submodularity,
}
SELFTEST_SUITES = tuple(_SUITES)


def run_selftest(suites=None) -> SelftestReport:
    """Run the small-scale oracle suites; empty ``suites`` is a trivial pass."""
    if suites is None:
        suites = SELFTEST_SUITES
    outcomes = []
    for name in suites:
        if name not in _SUITES:
            raise ValueError(f"unknown selftest suite {name!r}")
        rng = np.random.default_rng([0, SELFTEST_SUITES.index(name)])
        outcomes.append(_SUITES[name](rng))
    return SelftestReport(outcomes=tuple(outcomes))
