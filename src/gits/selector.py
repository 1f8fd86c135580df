"""Budgeted start-index selection: joint greedy objective and baselines.

The joint objective over a selection S is

    F(S) = sum_{k in S} s_k + lambda_cov * F_cov(S) + c_win * F_win(S)

with s_k >= 0 pointwise scores and the two facility-location coverage terms
from :mod:`gits.temporal_coverage`. The score term is modular and the
coverage terms are monotone submodular, so greedy selection with exact
incremental marginal gains carries the usual (1 - 1/e) guarantee.
:func:`greedy_select` is a lazy greedy that evaluates each gain only over
the stretch of the time axis the candidate can still cover, and returns
bit for bit what recomputing every gain from the dense kernel matrices
would.

Every sampler is one row of :data:`SAMPLER_TABLE`: what it needs from the
pilot, and which selection algorithm runs on it. :func:`run_sampler` is
the one dispatch point. All samplers are deterministic; ties always break
toward the lowest candidate index. Every sampler returns a
:class:`SelectionResult`. For the greedy family, ``gains`` are the
per-step marginal gains and ``objective`` is F(S) of the final selection.
``uniform`` has no objective (stored as 0.0, empty gains); ``grad_match``
stores the final gradient-matching residual in ``objective`` (lower is
better) and per-step residual reductions in ``gains``.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .pilot_scoring import GRADIENTS, SCORE_KINDS, CandidateScores, CandidateSet
from .temporal_coverage import (
    CoverageConfig,
    build_windows,
    empty_state,
    kernel_global,
    state_update,
    window_distance,
)

_BLOCK = 64  # gains evaluated together: at most 64 x |C| kernel values at a time


@dataclass(frozen=True)
class ObjectiveConfig:
    coverage: CoverageConfig
    lambda_cov: float = 1.0
    c_win: float = 0.5
    normalize_scores: bool = False  # optional rescale of s_k by max_k s_k; off by default

    def __post_init__(self):
        if not (np.isfinite(self.lambda_cov) and np.isfinite(self.c_win)):
            raise ValueError("coverage weights must be finite")
        if self.lambda_cov < 0.0 or self.c_win < 0.0:
            raise ValueError("coverage weights must be non-negative")


@dataclass(eq=False)
class SelectionResult:
    selected: list[int]
    gains: list[float]
    objective: float
    sampler: str
    budget: int


def budget_from_ratio(ratio: float, n_candidates: int) -> int:
    """K = max(1, round(ratio * |C|)), capped at |C|.

    ``round`` is Python's, which rounds halves to even: 0.05 * 90 = 4.5
    gives K = 4, and 0.25 * 90 = 22.5 gives K = 22.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    return max(1, min(n_candidates, round(ratio * n_candidates)))


def _score_vector(scores, candidates: CandidateSet) -> np.ndarray:
    if scores is None:
        return np.zeros(candidates.size)
    if isinstance(scores, CandidateScores):
        if not np.array_equal(scores.indices, candidates.indices):
            raise ValueError("scores are not aligned to the candidate set")
        return scores.scores.astype(np.float64)
    vec = np.asarray(scores, dtype=np.float64)
    if vec.shape != (candidates.size,):
        raise ValueError("score vector length does not match the candidate set")
    return vec


def _check_budget(budget: int, n: int):
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > n:
        raise ValueError(f"budget {budget} exceeds candidate count {n}")


def greedy_select(
    scores,
    candidates: CandidateSet,
    obj: ObjectiveConfig,
    budget: int,
) -> SelectionResult:
    """Greedy maximization of the joint objective under |S| = budget.

    ``scores`` may be a CandidateScores, a raw vector, or None (zero scores);
    a score that is not finite raises ValueError naming its position.
    Each step picks argmax of the incremental marginal gain

        gain(k | S) = s_k + lambda_cov * sum_i (max(m_i, S_ik) - m_i)
                          + c_win      * sum_m (max(u_m, R_mk) - u_m)

    over unselected k, breaking ties toward the lowest candidate index.
    The running maxima (m, u) are a :class:`CoverageState`, folded one pick
    at a time by :func:`state_update`.

    The search is lazy (Minoux's accelerated greedy). Both kernels fall
    with distance on a line, so a candidate between its selected neighbours
    L and R can raise m_i only for L < i < R, and u_m only for windows with
    a_m > C[L] and b_m < C[R]. An evaluation sums exactly those terms: every
    term left out is exactly 0.0 and the kept ones are added in index
    order, as a column sum of the full kernel matrices adds them. The picks
    cut the axis into stretches of candidates that share their neighbours.
    A heap holds one entry per stretch, keyed on its largest gain or upper
    bound. A gain stays exact until a pick splits its stretch and bounds
    the current gain from above after that. A stretch whose largest entry
    is a bound has its largest bounds evaluated, at most _BLOCK at a time,
    and goes back into the heap. Picks, gains and objective are bit for bit
    those of recomputing every gain at every step.
    """
    _check_budget(budget, candidates.size)
    s = _score_vector(scores, candidates)
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(
            f"score at candidate position {pos} (start index "
            f"{int(candidates.indices[pos])}) is not finite: {s[pos]}"
        )
    if obj.normalize_scores and s.max() > 0.0:
        s = s / s.max()

    windows = build_windows(candidates, obj.coverage)
    use_cov = obj.lambda_cov > 0.0
    use_win = obj.c_win > 0.0
    idx = candidates.indices
    n = candidates.size
    # Both kernels at integer distance d = 0, 1, ..., max(C) - min(C); bit-equal
    # to kernel_global and kernel_window, which is kernel_global(d, 0, tau_w).
    dist = np.arange(int(idx[-1] - idx[0]) + 1)
    g_table = kernel_global(dist, 0, obj.coverage.tau)
    w_table = kernel_global(dist, 0, obj.coverage.tau_w)
    state = empty_state(candidates, windows)

    def gains_at(lo: int, hi: int, ks: np.ndarray) -> np.ndarray:
        """gain(k | S) for positions ks, all between the picks around lo..hi-1.

        Sums over positions lo..hi-1 and over the windows strictly between
        those picks, one row per k; cumsum adds in index order, as the dense
        column sum does.
        """
        first = np.searchsorted(windows.lo, idx[lo - 1], side="right") if lo else 0
        stop = np.searchsorted(windows.hi, idx[hi], side="left") if hi < n else windows.count
        cols = idx[ks, None]
        gain = s[ks]
        if use_cov:
            t = np.maximum(g_table[np.abs(cols - idx[lo:hi])] - state.m[lo:hi], 0.0)
            gain = gain + obj.lambda_cov * np.cumsum(t, axis=1)[:, -1]
        if use_win:
            d = window_distance((windows.lo[first:stop], windows.hi[first:stop]), cols)
            t = np.maximum(w_table[d] - state.u[first:stop], 0.0)
            gain = gain + obj.c_win * (np.cumsum(t, axis=1)[:, -1] if t.size else 0.0)
        return gain

    # One entry per stretch lo..hi-1 between two picks:
    # (-key, position, lo, hi, bound, exact). bound holds each candidate's
    # gain where exact is set, and an upper bound elsewhere: its gain before
    # the pick that split the stretch off. key is the largest bound and
    # position the lowest one holding it.
    heap = [(-np.inf, 0, 0, n, np.full(n, np.inf), np.zeros(n, dtype=bool))]
    picks: list[int] = []
    gains: list[float] = []
    for _ in range(budget):
        while True:
            _, pos, lo, hi, bound, exact = heap[0]
            if exact[pos - lo]:
                break
            stale = np.flatnonzero(~exact)
            if stale.size > _BLOCK:  # evaluate the _BLOCK largest bounds
                stale = stale[np.argpartition(-bound[stale], _BLOCK)[:_BLOCK]]
            bound[stale] = gains_at(lo, hi, lo + stale)
            exact[stale] = True
            j = int(np.argmax(bound))  # first occurrence = lowest candidate index
            heapq.heapreplace(heap, (-float(bound[j]), lo + j, lo, hi, bound, exact))
        neg_key, pos, lo, hi, bound, _ = heapq.heappop(heap)
        picks.append(pos)
        gains.append(-neg_key)
        state = state_update(state, idx[pos], candidates, windows, obj.coverage)
        for a, b in ((lo, pos), (pos + 1, hi)):
            if a < b:
                part = bound[a - lo:b - lo]
                j = int(np.argmax(part))
                heapq.heappush(heap, (-float(part[j]), a + j, a, b, part, np.zeros(b - a, dtype=bool)))

    selected = [int(idx[p]) for p in picks]
    # The maxima are exact, so these are the sums coverage_values computes
    # from scratch: F_cov pairwise as np.sum adds, F_win window by window.
    f_cov = np.sum(state.m)
    f_win = np.cumsum(state.u)[-1]
    objective = float(s[picks].sum() + obj.lambda_cov * f_cov + obj.c_win * f_win)
    return SelectionResult(
        selected=selected,
        gains=gains,
        objective=objective,
        sampler="greedy",
        budget=budget,
    )


def top_k(scores: CandidateScores, budget: int) -> SelectionResult:
    """The ``budget`` highest scores, ties toward the lowest candidate index."""
    indices = scores.indices
    s = scores.scores
    _check_budget(budget, len(indices))
    order = np.lexsort((indices, -s))  # descending score, then lowest index
    picks = order[:budget]
    selected = [int(indices[p]) for p in picks]
    gains = [float(s[p]) for p in picks]
    return SelectionResult(
        selected=selected,
        gains=gains,
        objective=float(s[picks].sum()),
        sampler="top_k",
        budget=budget,
    )


def sample_uniform(candidates: CandidateSet, budget: int) -> SelectionResult:
    """Evenly spaced positions across the sorted candidate list."""
    n = candidates.size
    _check_budget(budget, n)
    if budget == 1:
        positions = [round((n - 1) / 2)]
    else:
        positions = [round(j * (n - 1) / (budget - 1)) for j in range(budget)]
    selected = [int(candidates.indices[p]) for p in positions]
    return SelectionResult(
        selected=selected,
        gains=[],
        objective=0.0,
        sampler="uniform",
        budget=budget,
    )


def grad_match_from_gradients(
    grads: np.ndarray, candidates: CandidateSet, budget: int
) -> SelectionResult:
    """Greedily match the mean full-candidate gradient with a K-subset mean."""
    n = candidates.size
    _check_budget(budget, n)
    if grads.shape[0] != n:
        raise ValueError("gradient matrix row count does not match the candidate set")
    g_bar = grads.mean(axis=0)
    chosen = np.zeros(n, dtype=bool)
    running_sum = np.zeros(grads.shape[1])
    residual = float(np.linalg.norm(g_bar))
    picks: list[int] = []
    gains: list[float] = []
    for step in range(budget):
        trial = (running_sum[None, :] + grads) / (step + 1)
        dist = np.linalg.norm(g_bar[None, :] - trial, axis=1)
        dist[chosen] = np.inf
        pos = int(np.argmin(dist))  # first occurrence = lowest candidate index
        picks.append(pos)
        gains.append(residual - float(dist[pos]))
        residual = float(dist[pos])
        chosen[pos] = True
        running_sum = running_sum + grads[pos]
    return SelectionResult(
        selected=[int(candidates.indices[p]) for p in picks],
        gains=gains,
        objective=residual,
        sampler="grad_match",
        budget=budget,
    )


class Sampler(NamedTuple):
    """What a sampler needs from the pilot and its selection step.

    ``needs`` is None, a score kind, or ``GRADIENTS`` (the gradient matrix).
    """

    needs: str | None
    step: Callable[..., SelectionResult]  # (pilot_input, candidates, obj, budget)


# The one place a sampler is defined. Steps look the algorithms up by name
# when they run, so a wrapper installed on a module attribute (a profiler
# or tracer) sees every call.
SAMPLER_TABLE = {
    "gits": Sampler("grad_norm", lambda x, c, obj, k: greedy_select(x, c, obj, k)),
    "uniform": Sampler(None, lambda x, c, obj, k: sample_uniform(c, k)),
    "loss_only": Sampler("rollout_loss", lambda x, c, obj, k: top_k(x, k)),
    "coverage_only": Sampler(None, lambda x, c, obj, k: greedy_select(None, c, obj, k)),
    "grad_only": Sampler("grad_norm", lambda x, c, obj, k: top_k(x, k)),
    "loss_div": Sampler("rollout_loss", lambda x, c, obj, k: greedy_select(x, c, obj, k)),
    "grad_match": Sampler(GRADIENTS, lambda x, c, obj, k: grad_match_from_gradients(x, c, k)),
}
SAMPLERS = tuple(SAMPLER_TABLE)


def run_sampler(
    sampler: str,
    candidates: CandidateSet,
    obj: ObjectiveConfig,
    budget: int,
    pilot_input=None,
) -> SelectionResult:
    """Run one named sampler on what its table row needs from the pilot.

    A score vector of the wrong kind raises ValueError. The result carries
    the sampler's name.
    """
    if sampler not in SAMPLER_TABLE:
        raise ValueError(f"unknown sampler {sampler!r}")
    spec = SAMPLER_TABLE[sampler]
    if spec.needs in SCORE_KINDS and (
        not isinstance(pilot_input, CandidateScores) or pilot_input.kind != spec.needs
    ):
        raise ValueError(f"{sampler} expects {spec.needs} scores")
    result = spec.step(pilot_input, candidates, obj, budget)
    result.sampler = sampler
    return result


def write_selection_json(
    result: SelectionResult, path, wall_time: float, config: dict | None = None
) -> None:
    """Write one selection as JSON; ``wall_time`` is the seconds it took to make."""
    payload = {
        "sampler": result.sampler,
        "K": result.budget,
        "selected": result.selected,
        "gains": result.gains,
        "objective": result.objective,
        "config": config or {},
        "wall_time": wall_time,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
