"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances and budgets are pinned here and must not be loosened.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from gits.diagnostics import nrmse_from_rollouts, spearman
from gits.harness import ExperimentConfig, compare_report, run_experiment
from gits.pde_data import SolverConfig, generate_dataset
from gits.pilot_scoring import CandidateScores, PilotMeta, build_candidates
from gits.selector import (
    ObjectiveConfig,
    greedy_select,
    run_sampler,
)
from gits.surrogate import SurrogateArch, SurrogateParams, init_params, rollout_loss_grad
from gits.temporal_coverage import (
    build_windows,
    coverage_values,
    derive_coverage_config,
    empty_state,
    kernel_matrix_global,
    kernel_matrix_window,
    state_update,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


# ----------------------------------------------------------------------
# criterion: greedy optimality bound
# ----------------------------------------------------------------------

def test_greedy_optimality_bound_200_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bound = 1.0 - 1.0 / np.e
    worst_ratio = np.inf
    for _ in range(200):
        size = int(rng.integers(5, 15))  # |C| <= 14
        cands = build_candidates(4 + 1 + size, 4)
        budget = int(rng.integers(2, 5))  # K in {2, 3, 4}
        budget = min(budget, size)
        obj = ObjectiveConfig(
            coverage=derive_coverage_config(cands.t_count, budget),
            lambda_cov=float(rng.uniform(0.0, 2.0)),
            c_win=float(rng.uniform(0.0, 2.0)),
        )
        scores = rng.uniform(0.0, 1.0, size)
        greedy = greedy_select(scores, cands, obj, budget)

        windows = build_windows(cands, obj.coverage)
        s_mat = kernel_matrix_global(cands, obj.coverage.tau)
        r_mat = kernel_matrix_window(cands, windows, obj.coverage.tau_w)
        optimum = -np.inf
        for combo in combinations(range(size), budget):
            sel = list(combo)
            val = scores[sel].sum()
            val += obj.lambda_cov * s_mat[:, sel].max(axis=1).sum()
            val += obj.c_win * r_mat[:, sel].max(axis=1).sum()
            optimum = max(optimum, val)

        assert greedy.objective >= bound * optimum - 1e-9
        worst_ratio = min(worst_ratio, greedy.objective / optimum)
    elapsed = time.perf_counter() - t0
    report(
        "greedy (1-1/e) bound on 200 exhaustive instances",
        elapsed < 30.0,
        f"worst greedy/optimum ratio {worst_ratio:.4f}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# criterion: incremental vs batch coverage
# ----------------------------------------------------------------------

def test_incremental_coverage_matches_batch_100_selections():
    t0 = time.perf_counter()
    cands = build_candidates(101, 4)
    assert cands.size == 96
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        budget = int(rng.integers(1, 97))
        cfg = derive_coverage_config(101, budget)
        windows = build_windows(cands, cfg)
        sel = rng.choice(cands.indices, size=budget, replace=False)
        state = empty_state(cands, windows)
        for k in sel:
            state = state_update(state, int(k), cands, windows, cfg)
        f_cov, f_win = coverage_values(sel, cands, windows, cfg)
        gap = max(abs(state.m.sum() - f_cov), abs(state.u.sum() - f_win))
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - t0
    report(
        "incremental state totals match batch coverage (100 selections, |C|=96)",
        elapsed < 5.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# criterion: gradient exactness
# ----------------------------------------------------------------------

def test_gradient_exactness_against_central_differences():
    t0 = time.perf_counter()
    cfg = SolverConfig(family="diffusion1d", spatial_size=16, t_count=30, seed=11)
    ds = generate_dataset(cfg, 12)
    arch = SurrogateArch(history_len=4, hidden=4, kernel_radius=2, channels=1)
    assert arch.param_count() <= 200
    params = init_params(arch, 23)

    rng = np.random.default_rng(3)
    pairs = [(int(rng.integers(0, ds.n_traj)), int(rng.integers(4, ds.t_count - 1)))
             for _ in range(19)]
    pairs.append((0, ds.t_count - 2))  # truncation boundary
    assert len(pairs) == 20

    worst = 0.0
    h = 1e-6
    for horizon in (1, 3, 5):
        _, grad = rollout_loss_grad(params, pairs, horizon, ds)
        fd = np.empty_like(grad)
        for i in range(params.param_count):
            up = params.theta.copy()
            dn = params.theta.copy()
            up[i] += h
            dn[i] -= h
            lu, _ = rollout_loss_grad(SurrogateParams(up, arch), pairs, horizon, ds)
            ld, _ = rollout_loss_grad(SurrogateParams(dn, arch), pairs, horizon, ds)
            fd[i] = (lu - ld) / (2.0 * h)
        # relative to the largest finite-difference component
        rel = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
        worst = max(worst, rel)
        assert rel < 1e-4, f"horizon {horizon}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - t0
    report(
        "reverse-mode gradients match central differences (horizons 1/3/5, 20 pairs)",
        elapsed < 60.0,
        f"max relative error {worst:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# criterion: metric formula fidelity
# ----------------------------------------------------------------------

def test_metric_formula_fidelity():
    # hand-computed 2-trajectory case (ratio per trajectory, then mean)
    truth = np.zeros((2, 2, 2, 1))
    preds = np.zeros((2, 2, 2, 1))
    truth[0, 0, :, 0] = [2.0, 0.0]
    truth[0, 1, :, 0] = [0.0, 2.0]
    preds[0, 0, :, 0] = [3.0, 0.0]
    preds[0, 1, :, 0] = [2.0, 2.0]
    truth[1, 0, :, 0] = [1.0, 0.0]
    truth[1, 1, :, 0] = [0.0, 4.0]
    preds[1, 0, :, 0] = [4.0, 0.0]
    preds[1, 1, :, 0] = [0.0, 4.0]
    expected = 0.5 * (np.sqrt(5.0 / 8.0) + np.sqrt(9.0 / 17.0))
    hand_ok = abs(nrmse_from_rollouts(preds, truth) - expected) < 1e-12

    rng = np.random.default_rng(5)
    truth2 = rng.normal(size=(3, 4, 8, 1))
    zero_ok = nrmse_from_rollouts(np.zeros_like(truth2), truth2) == 1.0

    # frequency bands against a direct-summation DFT oracle
    from gits.diagnostics import auxiliary_metrics

    truth3 = rng.normal(size=(2, 2, 16, 1))
    preds3 = truth3 + 0.01 * rng.normal(size=truth3.shape)
    err = preds3 - truth3
    aux = auxiliary_metrics(preds3, truth3)

    def direct_band(lo, hi):
        cells = err.shape[2]
        vals = []
        for m in range(lo, hi + 1):
            acc = []
            for n in range(err.shape[0]):
                for t in range(err.shape[1]):
                    re = sum(err[n, t, x, 0] * np.cos(-2 * np.pi * m * x / cells)
                             for x in range(cells))
                    im = sum(err[n, t, x, 0] * np.sin(-2 * np.pi * m * x / cells)
                             for x in range(cells))
                    acc.append((re / cells) ** 2 + (im / cells) ** 2)
            vals.append(np.sqrt(np.mean(acc)))
        return float(np.mean(vals))

    band_ok = (
        abs(aux.frmse_low - direct_band(0, 4)) < 1e-10
        and abs(aux.frmse_mid - direct_band(5, 8)) < 1e-10
    )
    report(
        "rollout error and frequency-band metrics match independent oracles",
        hand_ok and zero_ok and band_ok,
        "hand case 1e-12, zero-prediction exact 1.0, DFT bands 1e-10",
    )


# ----------------------------------------------------------------------
# criterion: degenerate sampler equivalences
# ----------------------------------------------------------------------

def test_degenerate_sampler_equivalences():
    cands = build_candidates(101, 4)
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, cands.size)
    scores = CandidateScores(indices=cands.indices, scores=values, kind="grad_norm",
                             pilot_meta=PilotMeta(None, 10, 0))
    cov = derive_coverage_config(101, 10)

    flat = ObjectiveConfig(coverage=cov, lambda_cov=0.0, c_win=0.0)
    top_k_match = (
        greedy_select(scores, cands, flat, 10).selected
        == run_sampler("grad_only", cands, flat, 10, scores).selected
    )

    obj = ObjectiveConfig(coverage=cov)
    zero_scores_match = (
        greedy_select(None, cands, obj, 10).selected
        == run_sampler("coverage_only", cands, obj, 10).selected
    )

    full = greedy_select(scores, cands, obj, cands.size)
    full_budget_match = sorted(full.selected) == list(cands.indices)

    report(
        "degenerate equivalences: zero weights = top-K, zero scores = coverage-only, full budget = C",
        top_k_match and zero_scores_match and full_budget_match,
    )


# ----------------------------------------------------------------------
# criterion: derived kernel-parameter rule
# ----------------------------------------------------------------------

def test_derived_parameter_rule_reference_values():
    cfg = derive_coverage_config(101, 10)
    got = (cfg.tau, cfg.window_size, cfg.window_stride, cfg.tau_w)
    report(
        "derived kernel parameters at (T=101, K=10)",
        got == (10.0, 20, 10, 5.0),
        f"got {got}",
    )


# ----------------------------------------------------------------------
# criterion: directional reproduction (soft)
# ----------------------------------------------------------------------

def test_directional_gradient_plus_coverage_beats_pointwise_only():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(ratios=(0.10,), samplers=("gits", "grad_only", "loss_only"),
                           seeds=(0, 1, 2))
    result = run_experiment(cfg)
    assert result.failed == 0, [c.error for c in result.cells if c.error]
    agg = compare_report(result.cells)["aggregates"]
    gits_mean = agg["gits"]["0.1"]["mean"]
    grad_mean = agg["grad_only"]["0.1"]["mean"]
    loss_mean = agg["loss_only"]["0.1"]["mean"]
    elapsed = time.perf_counter() - t0
    report(
        "directional: gits mean rollout error <= grad-only and <= loss-only",
        gits_mean <= grad_mean and gits_mean <= loss_mean and elapsed < 600.0,
        f"gits {gits_mean:.4f} vs grad-only {grad_mean:.4f}, "
        f"loss-only {loss_mean:.4f}; {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# criterion: Spearman diagnostic
# ----------------------------------------------------------------------

def test_spearman_diagnostic_reference_cases():
    x = np.array([0.2, 0.9, 0.4, 0.7, 0.1])
    aligned = spearman(x, x) == pytest.approx(1.0, abs=1e-12)
    reversed_ = spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)
    tied = spearman([1.0, 2.0, 2.0, 4.0, 5.0], [2.0, 1.0, 3.0, 4.0, 4.0]) == pytest.approx(
        15.0 / 19.0, abs=1e-12
    )
    report(
        "Spearman alignment: +1 / -1 on constructed inputs, tied example = 15/19",
        aligned and reversed_ and tied,
    )
