import numpy as np
import pytest

from gits.diagnostics import (
    MetricError,
    auxiliary_metrics,
    average_ranks,
    error_spectrum,
    nrmse_from_rollouts,
    rollout_predictions,
    rollout_report,
    spearman,
    subset_geometry,
)
from gits.pde_data import SolverConfig, generate_dataset
from gits.pilot_scoring import build_candidates
from gits.surrogate import SurrogateArch, init_params

ARCH = SurrogateArch(history_len=3, hidden=3, kernel_radius=1)


@pytest.fixture(scope="module")
def tiny_ds():
    cfg = SolverConfig(family="diffusion1d", spatial_size=16, t_count=12, seed=3)
    return generate_dataset(cfg, 10)


# ----------------------------------------------------------------------
# rollout nRMSE
# ----------------------------------------------------------------------

def test_nrmse_zero_for_perfect_predictions():
    truth = np.random.default_rng(0).normal(size=(3, 5, 8, 1))
    assert nrmse_from_rollouts(truth.copy(), truth) == 0.0


def test_nrmse_exactly_one_for_zero_predictions():
    truth = np.random.default_rng(1).normal(size=(4, 6, 8, 1))
    assert nrmse_from_rollouts(np.zeros_like(truth), truth) == 1.0


def test_nrmse_matches_manual_two_trajectory_case():
    # trajectory 1: errors (1, 2), truth norms (2, 2) per step
    # trajectory 2: errors (3, 0), truth norms (1, 4)
    truth = np.zeros((2, 2, 2, 1))
    preds = np.zeros((2, 2, 2, 1))
    truth[0, 0, :, 0] = [2.0, 0.0]
    truth[0, 1, :, 0] = [0.0, 2.0]
    preds[0, 0, :, 0] = [3.0, 0.0]   # err 1 at t=0
    preds[0, 1, :, 0] = [2.0, 2.0]   # err 2 at t=1
    truth[1, 0, :, 0] = [1.0, 0.0]
    truth[1, 1, :, 0] = [0.0, 4.0]
    preds[1, 0, :, 0] = [4.0, 0.0]   # err 3 at t=0
    preds[1, 1, :, 0] = [0.0, 4.0]   # err 0 at t=1
    # per-trajectory ratios: sqrt((1+4)/(4+4)) and sqrt((9+0)/(1+16))
    expected = 0.5 * (np.sqrt(5.0 / 8.0) + np.sqrt(9.0 / 17.0))
    assert nrmse_from_rollouts(preds, truth) == pytest.approx(expected, abs=1e-12)


def test_nrmse_scale_invariant():
    rng = np.random.default_rng(2)
    truth = rng.normal(size=(3, 4, 8, 1)) + 2.0
    preds = truth + 0.1 * rng.normal(size=truth.shape)
    base = nrmse_from_rollouts(preds, truth)
    for c in (0.5, 3.0, 1e4):
        assert nrmse_from_rollouts(c * preds, c * truth) == pytest.approx(base, rel=1e-12)


def test_nrmse_rejects_zero_truth():
    truth = np.zeros((2, 3, 4, 1))
    with pytest.raises(MetricError):
        nrmse_from_rollouts(np.ones_like(truth), truth)


def test_rollout_predictions_shapes_and_horizon(tiny_ds):
    params = init_params(ARCH, 0)
    preds, truth = rollout_predictions(params, tiny_ds, split="test")
    n_test = len(tiny_ds.split_indices("test"))
    t_r = tiny_ds.t_count - ARCH.history_len
    assert preds.shape == (n_test, t_r, tiny_ds.spatial_size, 1)
    assert truth.shape == preds.shape
    report = rollout_report(params, tiny_ds)
    assert report.horizon == t_r and report.n_test == n_test
    assert nrmse_from_rollouts(preds, truth) == report.nrmse


# ----------------------------------------------------------------------
# auxiliary metrics
# ----------------------------------------------------------------------

def test_auxiliary_metrics_zero_error():
    truth = np.random.default_rng(3).normal(size=(2, 3, 16, 1))
    aux = auxiliary_metrics(truth.copy(), truth)
    assert aux.crmse == aux.brmse == 0.0
    assert aux.frmse_low == aux.frmse_mid == aux.frmse_high == 0.0


def test_auxiliary_metrics_constant_error_concentrates_in_dc_mode():
    truth = np.zeros((2, 3, 16, 1))
    preds = truth + 0.7
    aux = auxiliary_metrics(preds, truth)
    assert aux.crmse == pytest.approx(0.7, abs=1e-12)
    assert aux.brmse == pytest.approx(0.7, abs=1e-12)
    # only mode 0 carries energy: low band = |c| / (number of low modes)
    assert aux.frmse_low == pytest.approx(0.7 / 5.0, abs=1e-12)
    assert aux.frmse_mid == 0.0
    assert aux.frmse_high == 0.0


def direct_dft_band_oracle(err, lo, hi):
    """Direct-summation DFT per mode, RMSE over samples, averaged over band."""
    n_traj, n_t, cells, chans = err.shape
    vals = []
    for m in range(lo, hi + 1):
        acc = []
        for n in range(n_traj):
            for t in range(n_t):
                for c in range(chans):
                    re = sum(err[n, t, x, c] * np.cos(-2 * np.pi * m * x / cells)
                             for x in range(cells))
                    im = sum(err[n, t, x, c] * np.sin(-2 * np.pi * m * x / cells)
                             for x in range(cells))
                    acc.append((re / cells) ** 2 + (im / cells) ** 2)
        vals.append(np.sqrt(np.mean(acc)))
    return float(np.mean(vals))


def test_frequency_bands_match_direct_dft_oracle():
    rng = np.random.default_rng(4)
    truth = rng.normal(size=(2, 2, 16, 1))
    preds = truth + 0.01 * rng.normal(size=truth.shape)
    err = preds - truth
    aux = auxiliary_metrics(preds, truth)
    assert aux.frmse_low == pytest.approx(direct_dft_band_oracle(err, 0, 4), abs=1e-10)
    assert aux.frmse_mid == pytest.approx(direct_dft_band_oracle(err, 5, 8), abs=1e-10)
    # grid of 16 cells has modes 0..8; the high band (13+) is empty
    assert aux.frmse_high == 0.0


def test_error_spectrum_satisfies_parseval():
    rng = np.random.default_rng(5)
    err = rng.normal(size=(2, 3, 16, 1))
    cells = err.shape[-2]
    power = error_spectrum(err) * cells**2  # un-normalized one-sided power
    # rebuild the two-sided sum: double all modes except DC and Nyquist
    two_sided = 2.0 * power.sum(axis=-2) - power[..., 0, :] - power[..., cells // 2, :]
    spatial = cells * np.sum(err**2, axis=-2)
    assert np.max(np.abs(two_sided - spatial)) < 1e-10 * max(1.0, np.max(np.abs(spatial)))


def test_auxiliary_metrics_shape_mismatch():
    with pytest.raises(MetricError):
        auxiliary_metrics(np.zeros((2, 3, 8, 1)), np.zeros((2, 3, 9, 1)))


# ----------------------------------------------------------------------
# subset geometry
# ----------------------------------------------------------------------

def test_geometry_identical_selections():
    cands = build_candidates(101, 4)
    sel = [10, 30, 50, 70, 90]
    rep = subset_geometry(sel, sel, cands, bins=10)
    assert rep.overlap == 5


def test_geometry_single_bin_degenerate():
    cands = build_candidates(101, 4)
    rep = subset_geometry([4, 5, 6], [50, 60], cands, bins=10)
    assert rep.overlap == 0
    assert rep.entropy == 0.0
    assert rep.coverage_frac == pytest.approx(0.1)


def test_geometry_uniform_histogram():
    cands = build_candidates(101, 4)
    sel = [5, 15, 25, 35, 45, 55, 65, 75, 85, 95]  # one per bin
    rep = subset_geometry(sel, [], cands, bins=10)
    assert rep.entropy == pytest.approx(1.0, abs=1e-12)
    assert rep.coverage_frac == 1.0


def test_geometry_bounds_and_validation():
    cands = build_candidates(101, 4)
    with pytest.raises(ValueError):
        subset_geometry([4], [4], cands, bins=0)
    with pytest.raises(ValueError):
        subset_geometry([3], [], cands, bins=10)
    rng = np.random.default_rng(6)
    for _ in range(20):
        sel = rng.choice(cands.indices, size=int(rng.integers(1, 20)), replace=False)
        rep = subset_geometry(sel, [], cands, bins=10)
        assert 0.0 <= rep.entropy <= 1.0 + 1e-12
        assert 0.0 < rep.coverage_frac <= 1.0


# ----------------------------------------------------------------------
# Spearman rank correlation
# ----------------------------------------------------------------------

def test_spearman_perfect_agreement_and_reversal():
    x = np.array([0.1, 0.4, 0.2, 0.9, 0.6])
    assert spearman(x, x) == pytest.approx(1.0, abs=1e-12)
    assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_tied_example_matches_hand_computation():
    # ranks x: 1, 2.5, 2.5, 4, 5; ranks y: 2, 1, 3, 4.5, 4.5 => rho = 15/19
    x = [1.0, 2.0, 2.0, 4.0, 5.0]
    y = [2.0, 1.0, 3.0, 4.0, 4.0]
    assert spearman(x, y) == pytest.approx(15.0 / 19.0, abs=1e-12)


def test_spearman_agrees_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.integers(0, 6, size=15).astype(float)  # plenty of ties
        y = rng.integers(0, 6, size=15).astype(float)
        ours = spearman(x, y)
        ref = scipy_stats.spearmanr(x, y).statistic
        if np.isnan(ref):
            assert np.isnan(ours)
        else:
            assert ours == pytest.approx(ref, abs=1e-12)


def test_spearman_invariant_to_monotone_transforms():
    rng = np.random.default_rng(8)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-12)


def test_average_ranks_tie_handling():
    assert np.array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])


def test_spearman_degenerate_returns_nan():
    assert np.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


# ----------------------------------------------------------------------
# score-utility alignment
# ----------------------------------------------------------------------

def test_alignment_perfect_and_reversed_on_constructed_inputs():
    # constructed case: utilities equal scores (then their negation)
    scores = np.array([0.3, 0.1, 0.7, 0.5])
    utilities = scores.copy()
    assert spearman(scores, utilities) == pytest.approx(1.0, abs=1e-12)
    assert spearman(scores, -utilities) == pytest.approx(-1.0, abs=1e-12)
