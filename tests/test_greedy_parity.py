"""Lazy greedy against dense greedy, kept here as the test-only oracle.

``dense_greedy_select`` is the selection loop ``greedy_select`` replaced:
every step recomputes every marginal gain from the full |C| x |C| and
M x |C| kernel matrices. The lazy version must reproduce its picks, gains
and objective exactly (``==``), ties included.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gits.pilot_scoring import CandidateScores, CandidateSet, build_candidates
from gits.selector import (
    ObjectiveConfig,
    SelectionResult,
    _check_budget,
    _score_vector,
    greedy_select,
)
from gits.temporal_coverage import (
    CoverageConfig,
    build_windows,
    coverage_values,
    derive_coverage_config,
    empty_state,
    kernel_matrix_global,
    kernel_matrix_window,
    state_update,
)


def dense_greedy_select(scores, candidates, obj, budget) -> SelectionResult:
    """Every gain of every step from the dense kernel matrices."""
    _check_budget(budget, candidates.size)
    s = _score_vector(scores, candidates)
    if obj.normalize_scores and s.max() > 0.0:
        s = s / s.max()

    windows = build_windows(candidates, obj.coverage)
    use_cov = obj.lambda_cov > 0.0
    use_win = obj.c_win > 0.0
    s_mat = kernel_matrix_global(candidates, obj.coverage.tau) if use_cov else None
    r_mat = kernel_matrix_window(candidates, windows, obj.coverage.tau_w) if use_win else None

    state = empty_state(candidates, windows)
    available = np.ones(candidates.size, dtype=bool)
    picks: list[int] = []
    gains: list[float] = []

    for _ in range(budget):
        gain = s.copy()
        if use_cov:
            gain += obj.lambda_cov * np.maximum(s_mat - state.m[:, None], 0.0).sum(axis=0)
        if use_win:
            gain += obj.c_win * np.maximum(r_mat - state.u[:, None], 0.0).sum(axis=0)
        gain[~available] = -np.inf
        pos = int(np.argmax(gain))  # first occurrence = lowest candidate index
        picks.append(pos)
        gains.append(float(gain[pos]))
        available[pos] = False
        state = state_update(state, candidates.indices[pos], candidates, windows, obj.coverage)

    selected = [int(candidates.indices[p]) for p in picks]
    f_cov, f_win = coverage_values(selected, candidates, windows, obj.coverage)
    objective = float(s[picks].sum() + obj.lambda_cov * f_cov + obj.c_win * f_win)
    return SelectionResult(
        selected=selected, gains=gains, objective=objective, sampler="greedy", budget=budget
    )


def assert_same_as_dense(scores, candidates, obj, budget):
    lazy = greedy_select(scores, candidates, obj, budget)
    dense = dense_greedy_select(scores, candidates, obj, budget)
    assert lazy.selected == dense.selected
    assert lazy.gains == dense.gains
    assert lazy.objective == dense.objective


def test_parity_on_the_200_acceptance_instances():
    rng = np.random.default_rng(2024)  # the draws of test_greedy_optimality_bound_200_instances
    for _ in range(200):
        size = int(rng.integers(5, 15))
        cands = build_candidates(4 + 1 + size, 4)
        budget = min(int(rng.integers(2, 5)), size)
        obj = ObjectiveConfig(
            coverage=derive_coverage_config(cands.t_count, budget),
            lambda_cov=float(rng.uniform(0.0, 2.0)),
            c_win=float(rng.uniform(0.0, 2.0)),
        )
        assert_same_as_dense(rng.uniform(0.0, 1.0, size), cands, obj, budget)


@st.composite
def instances(draw):
    size = draw(st.integers(1, 60))
    cands = build_candidates(size + 4 + 1, 4)
    budget = draw(st.integers(1, size))
    kind = draw(st.sampled_from(["zero", "constant", "repeated", "uniform"]))
    if kind == "zero":
        scores = np.zeros(size)
    elif kind == "constant":
        scores = np.full(size, draw(st.sampled_from([0.25, 1.0, 3.0])))
    elif kind == "repeated":
        scores = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                        min_size=size, max_size=size)))
    else:
        scores = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size)))
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0))
    if draw(st.booleans()):
        window = draw(st.integers(1, 20))
        coverage = CoverageConfig(
            tau=float(draw(st.integers(1, 30))),
            window_size=window,
            window_stride=draw(st.integers(1, window)),
            tau_w=float(draw(st.integers(1, 30))),
        )
    else:
        coverage = derive_coverage_config(cands.t_count, budget)
    obj = ObjectiveConfig(coverage=coverage, lambda_cov=draw(weight), c_win=draw(weight),
                          normalize_scores=draw(st.booleans()))
    return scores, cands, obj, budget


def _instance(size, budget, scores, lambda_cov=1.0, c_win=0.5, coverage=None):
    cands = build_candidates(size + 5, 4)
    coverage = coverage or derive_coverage_config(cands.t_count, budget)
    return (np.asarray(scores, dtype=np.float64), cands,
            ObjectiveConfig(coverage=coverage, lambda_cov=lambda_cov, c_win=c_win), budget)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
@example(_instance(1, 1, [0.0]))
@example(_instance(30, 30, np.zeros(30)))
@example(_instance(40, 40, np.tile([0.0, 1.0], 20), lambda_cov=0.0))
@example(_instance(40, 7, np.full(40, 2.0), c_win=0.0))
@example(_instance(50, 9, np.zeros(50), coverage=CoverageConfig(3.0, 4, 1, 2.0)))
@example(_instance(50, 50, np.tile([1.0, 0.0, 1.0], 17)[:50],
                   coverage=CoverageConfig(7.0, 1, 1, 1.0)))
def test_parity_on_generated_instances(instance):
    assert_same_as_dense(*instance)


def test_parity_on_random_instances_up_to_1000_candidates():
    rng = np.random.default_rng(77)
    for size in (150, 333, 640, 1000):
        cands = build_candidates(size + 5, 4)
        budget = int(rng.integers(5, 60))
        obj = ObjectiveConfig(
            coverage=derive_coverage_config(cands.t_count, budget),
            lambda_cov=float(rng.uniform(0.0, 2.0)),
            c_win=float(rng.uniform(0.0, 2.0)),
        )
        assert_same_as_dense(rng.uniform(0.0, 1.0, size), cands, obj, budget)
    # a candidate set with gaps, and scores shared by many candidates
    cands = build_candidates(405, 4)
    subset = CandidateSet(indices=cands.indices[::3].copy(), t_count=405, history_len=4)
    scores = CandidateScores(subset.indices, rng.integers(0, 3, subset.size).astype(float),
                             "grad_norm")
    obj = ObjectiveConfig(coverage=derive_coverage_config(405, 20))
    assert_same_as_dense(scores, subset, obj, 20)


# The first 20 picks of dense_greedy_select on the instance below, from a
# 20-step run with the same objective (a step does not depend on the budget).
FIRST_PICKS_4000 = [
    2633, 2064, 404, 1403, 2423, 3903, 883, 164, 2943, 3184,
    1773, 1074, 3734, 1273, 3564, 2813, 625, 1574, 3304, 3434,
]


def test_scale_4000_candidates_memory_and_picks():
    size, budget = 4000, 400
    cands = build_candidates(size + 5, 4)
    obj = ObjectiveConfig(coverage=derive_coverage_config(cands.t_count, budget))
    scores = np.random.default_rng(4000).uniform(0.0, 1.0, size)
    tracemalloc.start()
    try:
        result = greedy_select(scores, cands, obj, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dense greedy: about 400 MB, three 4000 x 4000 float arrays per step; an
    # objective recomputed from scratch: two 4000 x 400 float arrays, 26 MB
    assert peak < 8e6
    assert len(set(result.selected)) == budget
    assert result.selected[:20] == FIRST_PICKS_4000
