import numpy as np
import pytest

from gits.pilot_scoring import build_candidates
from gits.temporal_coverage import (
    CoverageConfig,
    build_windows,
    coverage_values,
    derive_coverage_config,
    empty_state,
    kernel_global,
    kernel_matrix_global,
    kernel_matrix_window,
    kernel_window,
    state_update,
    window_distance,
)

CANDS = build_candidates(101, 4)


def intervals(windows):
    """The windows as (a, b) pairs."""
    return list(zip(windows.lo.tolist(), windows.hi.tolist()))


def naive_coverage(selection, candidates, windows, cfg):
    """Double-loop oracle for both coverage sums."""
    sel = list(selection)
    f_cov = 0.0
    for i in candidates.indices:
        f_cov += max(np.exp(-abs(int(i) - int(j)) / cfg.tau) for j in sel)
    f_win = 0.0
    for a, b in intervals(windows):
        best = 0.0
        for j in sel:
            d = 0 if a <= j <= b else (a - j if j < a else j - b)
            best = max(best, np.exp(-d / cfg.tau_w))
        f_win += best
    return f_cov, f_win


# ----------------------------------------------------------------------
# derived parameters
# ----------------------------------------------------------------------

def test_derived_rules_reference_point():
    cfg = derive_coverage_config(101, 10)
    assert (cfg.tau, cfg.window_size, cfg.window_stride, cfg.tau_w) == (10.0, 20, 10, 5.0)
    assert cfg == CoverageConfig(tau=10.0, window_size=20, window_stride=10, tau_w=5.0)


def test_derived_rules_floor_lift_at_large_budget():
    cfg = derive_coverage_config(101, 96)
    assert (cfg.tau, cfg.window_size, cfg.window_stride, cfg.tau_w) == (1.0, 2, 1, 1.0)


def test_derived_rules_small_axis():
    cfg = derive_coverage_config(8, 1)
    assert cfg.tau == 8.0 and cfg.window_size == 16
    # oversized window handled by build_windows clipping
    cands = build_candidates(8, 4)
    wins = build_windows(cands, cfg)
    assert intervals(wins) == [(4, 6)]


def test_derived_rules_reject_zero_budget():
    with pytest.raises(ValueError):
        derive_coverage_config(101, 0)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

def test_global_kernel_identity_symmetry_and_scale():
    assert kernel_global(7, 7, 3.0) == 1.0
    assert kernel_global(3, 7, 4.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert kernel_global(3, 7, 5.0) == kernel_global(7, 3, 5.0)
    with pytest.raises(ValueError):
        kernel_global(0, 1, 0.0)


def test_window_kernel_inside_and_analytic_point():
    assert kernel_window((10, 20), 15, 4.0) == 1.0
    assert kernel_window((10, 20), 10 - 4, 4.0) == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert kernel_window((10, 20), 20 + 8, 4.0) == pytest.approx(np.exp(-2.0), abs=1e-15)


def test_window_distance_matches_brute_force_min():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = int(rng.integers(0, 50))
        b = a + int(rng.integers(0, 30))
        j = int(rng.integers(-20, 90))
        brute = min(abs(j - p) for p in range(a, b + 1))
        assert window_distance((a, b), j) == brute
        jf = j + 0.5  # a float index: distance to the nearest point of [a, b]
        assert window_distance((a, b), jf) == abs(jf - min(max(jf, a), b))
    # the shapes greedy passes: bound arrays against a column of int starts
    lo = np.sort(rng.integers(0, 60, size=12))
    hi = lo + rng.integers(0, 15, size=12)
    starts = rng.integers(-10, 90, size=20)
    got = window_distance((lo, hi), starts[:, None])
    assert got.shape == (20, 12) and got.dtype.kind == "i"
    for r, j in enumerate(starts):
        for m, (a, b) in enumerate(zip(lo, hi)):
            assert got[r, m] == min(abs(int(j) - p) for p in range(a, b + 1))
    jf = starts[:, None] + 0.25
    assert np.array_equal(window_distance((lo, hi), jf), np.abs(jf - np.clip(jf, lo, hi)))


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------

def test_build_windows_reference_layout():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    assert intervals(wins)[0] == (4, 23)
    assert intervals(wins)[1] == (14, 33)
    assert intervals(wins)[-1][1] == 99


def test_single_window_when_width_covers_all_candidates():
    cfg = CoverageConfig(tau=5.0, window_size=96, window_stride=48, tau_w=3.0)
    wins = build_windows(CANDS, cfg)
    assert intervals(wins) == [(4, 99)]
    cfg = CoverageConfig(tau=5.0, window_size=200, window_stride=100, tau_w=3.0)
    assert intervals(build_windows(CANDS, cfg)) == [(4, 99)]


def test_windows_union_covers_candidates_random_sweep():
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = int(rng.integers(1, 120))
        s = int(rng.integers(1, w + 1))
        cfg = CoverageConfig(tau=3.0, window_size=w, window_stride=s, tau_w=2.0)
        wins = build_windows(CANDS, cfg)
        covered = np.zeros(101, dtype=bool)
        starts = [a for a, _ in intervals(wins)]
        assert starts == sorted(starts)
        assert wins.hi.tolist() == sorted(wins.hi.tolist())
        for a, b in intervals(wins):
            assert a <= b
            assert a >= 4 and b <= 99
            covered[a : b + 1] = True
        assert covered[CANDS.indices].all()


# ----------------------------------------------------------------------
# coverage values and the incremental state
# ----------------------------------------------------------------------

def test_coverage_empty_and_saturated():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    assert coverage_values([], CANDS, wins, cfg) == (0.0, 0.0)
    f_cov, f_win = coverage_values(CANDS.indices, CANDS, wins, cfg)
    assert f_cov == pytest.approx(CANDS.size, abs=1e-12)
    assert f_win == pytest.approx(wins.count, abs=1e-12)


def test_coverage_rejects_foreign_index():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    with pytest.raises(ValueError):
        coverage_values([3], CANDS, wins, cfg)


def test_coverage_matches_naive_oracle():
    cands = build_candidates(35, 4)  # |C| = 30
    cfg = derive_coverage_config(35, 5)
    wins = build_windows(cands, cfg)
    rng = np.random.default_rng(2)
    for _ in range(20):
        size = int(rng.integers(1, 12))
        sel = rng.choice(cands.indices, size=size, replace=False)
        got = coverage_values(sel, cands, wins, cfg)
        want = naive_coverage(sel, cands, wins, cfg)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_state_update_incremental_equals_batch():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    rng = np.random.default_rng(3)
    for _ in range(20):
        size = int(rng.integers(1, 25))
        sel = rng.choice(CANDS.indices, size=size, replace=False)
        state = empty_state(CANDS, wins)
        for k in sel:
            state = state_update(state, int(k), CANDS, wins, cfg)
        f_cov, f_win = coverage_values(sel, CANDS, wins, cfg)
        assert state.m.sum() == pytest.approx(f_cov, abs=1e-12)
        assert state.u.sum() == pytest.approx(f_win, abs=1e-12)
        assert len(state.selected) == size


@pytest.mark.parametrize("t_count", [30, 101, 1501])
def test_state_update_columns_equal_kernel_matrix_columns(t_count):
    # Greedy takes gains from the kernel matrices and folds picks with
    # state_update; the two must agree bit for bit, not just to a tolerance.
    cands = build_candidates(t_count, 4)
    cfg = derive_coverage_config(t_count, 10)
    windows = build_windows(cands, cfg)
    s_mat = kernel_matrix_global(cands, cfg.tau)
    r_mat = kernel_matrix_window(cands, windows, cfg.tau_w)
    empty = empty_state(cands, windows)
    for pos, k in enumerate(cands.indices):
        state = state_update(empty, int(k), cands, windows, cfg)
        assert np.array_equal(state.m, s_mat[:, pos])
        assert np.array_equal(state.u, r_mat[:, pos])


@pytest.mark.parametrize("t_count", [30, 61, 101, 1501])
def test_window_kernel_matrix_equals_the_per_window_rows(t_count):
    # reference: the row-by-row construction the broadcast replaced
    cands = build_candidates(t_count, 4)
    cfg = derive_coverage_config(t_count, 10)
    windows = build_windows(cands, cfg)
    rows = [kernel_window(interval, cands.indices, cfg.tau_w) for interval in intervals(windows)]
    r_mat = kernel_matrix_window(cands, windows, cfg.tau_w)
    assert r_mat.shape == (windows.count, cands.size)
    assert np.array_equal(r_mat, np.stack(rows, axis=0))


def test_state_update_rejects_duplicates():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    state = empty_state(CANDS, wins)
    state = state_update(state, 10, CANDS, wins, cfg)
    with pytest.raises(ValueError, match="already"):
        state_update(state, 10, CANDS, wins, cfg)


def test_state_update_order_invariant():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    sel = [8, 40, 77, 99, 23]
    rng = np.random.default_rng(4)
    reference = None
    for _ in range(6):
        order = rng.permutation(sel)
        state = empty_state(CANDS, wins)
        for k in order:
            state = state_update(state, int(k), CANDS, wins, cfg)
        if reference is None:
            reference = state
        else:
            assert np.array_equal(state.m, reference.m)
            assert np.array_equal(state.u, reference.u)


def test_state_entries_monotone_and_bounded():
    cfg = derive_coverage_config(101, 10)
    wins = build_windows(CANDS, cfg)
    state = empty_state(CANDS, wins)
    prev_m = state.m.copy()
    prev_u = state.u.copy()
    for k in (5, 50, 95, 23):
        state = state_update(state, k, CANDS, wins, cfg)
        assert np.all(state.m >= prev_m) and np.all(state.u >= prev_u)
        assert np.all(state.m <= 1.0) and np.all(state.u <= 1.0)
        prev_m, prev_u = state.m.copy(), state.u.copy()


# ----------------------------------------------------------------------
# monotonicity / submodularity properties
# ----------------------------------------------------------------------

def test_coverage_monotone_and_submodular():
    cands = build_candidates(40, 4)
    cfg = derive_coverage_config(40, 6)
    wins = build_windows(cands, cfg)
    rng = np.random.default_rng(5)
    for _ in range(50):
        pool = rng.permutation(cands.indices)
        small = [int(v) for v in pool[:3]]
        large = small + [int(v) for v in pool[3:6]]
        extra = int(pool[6])
        f_s = coverage_values(small, cands, wins, cfg)
        f_t = coverage_values(large, cands, wins, cfg)
        assert f_s[0] <= f_t[0] + 1e-12 and f_s[1] <= f_t[1] + 1e-12
        gain_small = np.subtract(coverage_values(small + [extra], cands, wins, cfg), f_s)
        gain_large = np.subtract(coverage_values(large + [extra], cands, wins, cfg), f_t)
        assert gain_small[0] >= gain_large[0] - 1e-12
        assert gain_small[1] >= gain_large[1] - 1e-12


def test_coverage_bounds():
    cands = build_candidates(40, 4)
    cfg = derive_coverage_config(40, 6)
    wins = build_windows(cands, cfg)
    rng = np.random.default_rng(6)
    for _ in range(20):
        sel = rng.choice(cands.indices, size=int(rng.integers(1, 10)), replace=False)
        f_cov, f_win = coverage_values(sel, cands, wins, cfg)
        assert 0.0 <= f_cov <= cands.size
        assert 0.0 <= f_win <= wins.count


def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        CoverageConfig(tau=0.5, window_size=4, window_stride=2, tau_w=1.0)
    with pytest.raises(ValueError):
        CoverageConfig(tau=2.0, window_size=4, window_stride=5, tau_w=1.0)
    with pytest.raises(ValueError):
        CoverageConfig(tau=2.0, window_size=0, window_stride=1, tau_w=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            CoverageConfig(tau=bad, window_size=4, window_stride=2, tau_w=1.0)
        with pytest.raises(ValueError, match="finite"):
            CoverageConfig(tau=2.0, window_size=4, window_stride=2, tau_w=bad)
