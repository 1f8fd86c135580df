"""Facility-location temporal coverage terms with incremental max-states.

Two monotone submodular coverage functions over a selection S of candidate
start indices:

  global:  F_cov(S) = sum_i max_{j in S} exp(-|i - j| / tau)    (i over all candidates)
  window:  F_win(S) = sum_m max_{j in S} exp(-d(m, j) / tau_w)  (m over sliding windows)

d(m, j) is the distance from index j to the interval [a_m, b_m] (zero
inside). Kernel parameters default to deterministic rules tied to the
budget-implied target spacing: tau = floor(T/K), W = 2*floor(T/K),
S_w = floor(W/2), tau_w = floor(W/4), each lifted to at least 1.

Greedy selection maintains the per-index and per-window running maxima
(m_i, u_m). Both kernels fall with distance on the line, so a candidate
can raise m_i only between its two nearest selected indices, and u_m only
for windows strictly between them: a marginal coverage gain is a sum over
that stretch of the state (see :func:`gits.selector.greedy_select`). The
dense kernel matrices below serve the oracles and the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pilot_scoring import CandidateSet


@dataclass(frozen=True)
class CoverageConfig:
    tau: float
    window_size: int
    window_stride: int
    tau_w: float
    derived_from: tuple[int, int] | None = None  # (t_count, budget) when auto-derived

    def __post_init__(self):
        if self.tau < 1 or self.tau_w < 1:
            raise ValueError("decay scales must be >= 1")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 1 <= self.window_stride <= self.window_size:
            raise ValueError("window_stride must lie in [1, window_size]")


def derive_coverage_config(t_count: int, budget: int) -> CoverageConfig:
    """Kernel parameters from the budget-implied target spacing floor(T/K)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    spacing = t_count // budget
    tau = max(1, spacing)
    window = max(1, 2 * spacing)
    stride = max(1, window // 2)
    tau_w = max(1, window // 4)
    return CoverageConfig(
        tau=float(tau),
        window_size=window,
        window_stride=stride,
        tau_w=float(tau_w),
        derived_from=(t_count, budget),
    )


def kernel_global(i, j, tau):
    """exp(-|i - j| / tau); accepts scalars or broadcastable arrays."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return np.exp(-np.abs(np.asarray(i, dtype=np.float64) - np.asarray(j, dtype=np.float64)) / tau)


@dataclass(frozen=True)
class WindowList:
    intervals: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.intervals)


def build_windows(candidates: CandidateSet, cfg: CoverageConfig) -> WindowList:
    """Stride-grid windows of width W over the candidate axis.

    Full windows [a, a + W - 1] are placed at a = min(C), min(C)+S_w, ...
    while they fit; if they stop short of max(C), one final window clipped
    to max(C) is appended so the union covers every candidate index.
    """
    lo = int(candidates.indices[0])
    hi = int(candidates.indices[-1])
    w = cfg.window_size
    intervals: list[tuple[int, int]] = []
    a = lo
    while a + w - 1 <= hi:
        intervals.append((a, a + w - 1))
        a += cfg.window_stride
    if not intervals or intervals[-1][1] < hi:
        intervals.append((max(lo, hi - w + 1), hi))
    return WindowList(intervals=tuple(intervals))


def window_distance(interval: tuple[int, int], j) -> np.ndarray:
    """Distance from index j to [a, b]: 0 inside, a - j below, j - b above.

    ``a`` and ``b`` may be arrays of bounds, one distance per window.
    """
    a, b = interval
    j = np.asarray(j, dtype=np.float64)
    return np.where(j < a, a - j, np.where(j > b, j - b, 0.0))


def kernel_window(interval: tuple[int, int], j, tau_w):
    """exp(-d(interval, j) / tau_w)."""
    if tau_w <= 0:
        raise ValueError("tau_w must be positive")
    return np.exp(-window_distance(interval, j) / tau_w)


def kernel_matrix_global(candidates: CandidateSet, tau: float) -> np.ndarray:
    """S[i, j] = kernel_global(C[i], C[j], tau), shape (|C|, |C|)."""
    idx = candidates.indices
    return kernel_global(idx[:, None], idx[None, :], tau)


def kernel_matrix_window(
    candidates: CandidateSet, windows: WindowList, tau_w: float
) -> np.ndarray:
    """R[m, j] = kernel_window(window m, C[j], tau_w), shape (M, |C|)."""
    lo, hi = np.array(windows.intervals, dtype=np.float64).T
    return kernel_window((lo[:, None], hi[:, None]), candidates.indices[None, :], tau_w)


@dataclass(frozen=True, eq=False)
class CoverageState:
    """Running maxima of a partial selection: m over candidates, u over windows."""

    m: np.ndarray
    u: np.ndarray
    selected: frozenset

    @property
    def selected_count(self) -> int:
        return len(self.selected)


def empty_state(candidates: CandidateSet, windows: WindowList) -> CoverageState:
    return CoverageState(
        m=np.zeros(candidates.size),
        u=np.zeros(windows.count),
        selected=frozenset(),
    )


def coverage_values(
    selection, candidates: CandidateSet, windows: WindowList, cfg: CoverageConfig
) -> tuple[float, float]:
    """Exact from-scratch (F_cov, F_win); the empty selection scores (0, 0)."""
    sel = [int(k) for k in selection]
    for k in sel:
        candidates.position(k)  # raises ValueError for a non-candidate
    if not sel:
        return 0.0, 0.0
    sel_arr = np.array(sel, dtype=np.float64)
    idx = candidates.indices
    f_cov = float(
        np.sum(np.max(kernel_global(idx[:, None], sel_arr[None, :], cfg.tau), axis=1))
    )
    f_win = 0.0
    for interval in windows.intervals:
        f_win += float(np.max(kernel_window(interval, sel_arr, cfg.tau_w)))
    return f_cov, f_win


def state_update(
    state: CoverageState,
    new_index: int,
    candidates: CandidateSet,
    windows: WindowList,
    cfg: CoverageConfig,
) -> CoverageState:
    """Fold one newly selected index into the running maxima."""
    new_index = int(new_index)
    candidates.position(new_index)  # raises ValueError for a non-candidate
    if new_index in state.selected:
        raise ValueError(f"index {new_index} already folded into the state")
    s_col = kernel_global(candidates.indices, new_index, cfg.tau)
    lo, hi = np.array(windows.intervals, dtype=np.float64).T
    r_col = kernel_window((lo, hi), new_index, cfg.tau_w)
    return CoverageState(
        m=np.maximum(state.m, s_col),
        u=np.maximum(state.u, r_col),
        selected=state.selected | {new_index},
    )
