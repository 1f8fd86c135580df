import json
from itertools import combinations

import numpy as np
import pytest

from gits.selftest import exhaustive_optimum
from gits.pde_data import SolverConfig, generate_dataset
from gits.harness import ExperimentConfig
from gits.pilot_scoring import CandidateScores, build_candidates
from gits.selector import (
    SAMPLER_TABLE,
    SAMPLERS,
    ObjectiveConfig,
    budget_from_ratio,
    grad_match_from_gradients,
    greedy_select,
    run_sampler,
    sample_uniform,
    top_k,
    write_selection_json,
)
from gits.temporal_coverage import (
    build_windows,
    coverage_values,
    derive_coverage_config,
)
from test_greedy_parity import assert_same_as_dense
from test_pilot_scoring import pilot_gradients

CANDS = build_candidates(101, 4)


def make_scores(values, kind="grad_norm", indices=None):
    indices = CANDS.indices if indices is None else indices
    return CandidateScores(
        indices=indices,
        scores=np.asarray(values, dtype=np.float64),
        kind=kind,
    )


def default_obj(candidates=CANDS, budget=10, lambda_cov=1.0, c_win=0.5):
    cov = derive_coverage_config(candidates.t_count, budget)
    return ObjectiveConfig(coverage=cov, lambda_cov=lambda_cov, c_win=c_win)


def sampled(name, budget, pilot_input=None, candidates=CANDS, obj=None):
    """One sampler run through the table's dispatch."""
    return run_sampler(name, candidates, obj or default_obj(candidates), budget, pilot_input)


# ----------------------------------------------------------------------
# greedy core
# ----------------------------------------------------------------------

def test_zero_weights_reduce_to_top_k():
    rng = np.random.default_rng(0)
    scores = make_scores(rng.uniform(0, 1, CANDS.size))
    obj = default_obj(lambda_cov=0.0, c_win=0.0)
    g = greedy_select(scores, CANDS, obj, 7)
    t = sampled("grad_only", 7, scores)
    assert g.selected == t.selected
    assert g.gains == pytest.approx(t.gains)
    assert g.objective == pytest.approx(t.objective)


def test_budget_equal_to_candidate_count_selects_everything():
    scores = make_scores(np.linspace(0, 1, CANDS.size))
    obj = default_obj(budget=CANDS.size)
    r = greedy_select(scores, CANDS, obj, CANDS.size)
    assert sorted(r.selected) == list(CANDS.indices)
    windows = build_windows(CANDS, obj.coverage)
    expected = scores.scores.sum() + obj.lambda_cov * CANDS.size + obj.c_win * windows.count
    assert r.objective == pytest.approx(expected, abs=1e-9)


def test_greedy_budget_bounds():
    scores = make_scores(np.ones(CANDS.size))
    obj = default_obj()
    with pytest.raises(ValueError):
        greedy_select(scores, CANDS, obj, 0)
    with pytest.raises(ValueError):
        greedy_select(scores, CANDS, obj, CANDS.size + 1)


def test_greedy_achieves_approximation_bound_small_instances():
    rng = np.random.default_rng(1)
    bound = 1.0 - 1.0 / np.e
    for _ in range(30):
        size = int(rng.integers(5, 13))
        cands = build_candidates(4 + 1 + size, 4)
        budget = int(rng.integers(2, min(4, size) + 1))
        obj = ObjectiveConfig(
            coverage=derive_coverage_config(cands.t_count, budget),
            lambda_cov=float(rng.uniform(0, 2)),
            c_win=float(rng.uniform(0, 2)),
        )
        scores = rng.uniform(0, 1, size)
        greedy = greedy_select(scores, cands, obj, budget)
        optimum = exhaustive_optimum(scores, cands, obj, budget)
        assert greedy.objective >= bound * optimum - 1e-9


def test_marginal_gains_match_from_scratch_differences():
    rng = np.random.default_rng(2)
    scores = make_scores(rng.uniform(0, 0.5, CANDS.size))
    obj = default_obj()
    r = greedy_select(scores, CANDS, obj, 8)
    windows = build_windows(CANDS, obj.coverage)
    prev = 0.0
    for step, k in enumerate(r.selected):
        sel = r.selected[: step + 1]
        f_cov, f_win = coverage_values(sel, CANDS, windows, obj.coverage)
        total = sum(scores.scores[CANDS.position(j)] for j in sel)
        total += obj.lambda_cov * f_cov + obj.c_win * f_win
        assert r.gains[step] == pytest.approx(total - prev, abs=1e-9)
        prev = total
    assert r.objective == pytest.approx(prev, abs=1e-9)


def test_gains_non_increasing_for_submodular_objective():
    rng = np.random.default_rng(3)
    for label, scores in (
        ("gits", make_scores(rng.uniform(0, 0.5, CANDS.size))),
        ("coverage_only", None),
        ("loss_div", make_scores(rng.uniform(0, 0.5, CANDS.size), kind="rollout_loss")),
    ):
        r = greedy_select(scores, CANDS, default_obj(), 12)
        diffs = np.diff(r.gains)
        assert np.all(diffs <= 1e-9), label


def test_tie_break_prefers_lowest_index():
    scores = make_scores(np.ones(CANDS.size))
    obj = default_obj(lambda_cov=0.0, c_win=0.0)
    r = greedy_select(scores, CANDS, obj, 3)
    assert r.selected == [4, 5, 6]


@pytest.mark.parametrize("size, budget", [(300, 30), (600, 60)])
@pytest.mark.parametrize("kind", ["steep", "decreasing", "equal"])
def test_greedy_matches_dense_on_ordered_and_equal_scores(size, budget, kind):
    """Steeply falling scores keep every pick in the left fifth, so each pick
    splits the one long stretch to its right; gently falling ones start there
    and then spread; equal scores leave every tie to the lowest index."""
    cands = build_candidates(size + 5, 4)
    scores = {"steep": np.linspace(float(size), 1.0, size),
              "decreasing": np.linspace(40.0, 0.0, size),
              "equal": np.ones(size)}[kind]
    obj = default_obj(cands, budget)
    if kind == "steep":
        assert max(greedy_select(scores, cands, obj, budget).selected) < cands.indices[size // 5]
    assert_same_as_dense(scores, cands, obj, budget)


def test_score_normalization_flag():
    rng = np.random.default_rng(4)
    raw = rng.uniform(0, 100, CANDS.size)
    obj = default_obj()
    obj_norm = ObjectiveConfig(coverage=obj.coverage, lambda_cov=obj.lambda_cov,
                               c_win=obj.c_win, normalize_scores=True)
    r_norm = greedy_select(make_scores(raw), CANDS, obj_norm, 5)
    r_scaled = greedy_select(make_scores(raw / raw.max()), CANDS, obj, 5)
    assert r_norm.selected == r_scaled.selected


# ----------------------------------------------------------------------
# baseline samplers
# ----------------------------------------------------------------------

def test_uniform_saturation_endpoints_and_spacing():
    assert sorted(sample_uniform(CANDS, CANDS.size).selected) == list(CANDS.indices)
    two = sample_uniform(CANDS, 2)
    assert two.selected == [4, 99]
    one = sample_uniform(CANDS, 1)
    assert one.selected == [int(CANDS.indices[round((CANDS.size - 1) / 2)])]
    for budget in (3, 7, 10, 31):
        sel = sample_uniform(CANDS, budget).selected
        assert len(set(sel)) == budget
        gaps = np.diff(sorted(sel))
        ideal = (CANDS.size - 1) / (budget - 1)
        assert np.all(np.abs(gaps - ideal) <= 1.0)


def test_loss_only_is_top_k_and_matches_greedy():
    rng = np.random.default_rng(5)
    scores = make_scores(rng.uniform(0, 1, CANDS.size), kind="rollout_loss")
    r = sampled("loss_only", 6, scores)
    g = greedy_select(scores, CANDS, default_obj(lambda_cov=0.0, c_win=0.0), 6)
    assert r.selected == g.selected
    assert r.sampler == "loss_only"
    single = sampled("loss_only", 1, scores)
    assert single.selected == [int(CANDS.indices[int(np.argmax(scores.scores))])]


def test_loss_only_permutation_equivariance():
    rng = np.random.default_rng(6)
    values = rng.permutation(np.linspace(0.01, 1.0, CANDS.size))  # distinct scores
    scores = make_scores(values, kind="rollout_loss")
    base = sampled("loss_only", 8, scores)
    perm = rng.permutation(CANDS.size)
    permuted = make_scores(values[perm], kind="rollout_loss")
    moved = sampled("loss_only", 8, permuted)
    # the selected positions move with the permutation
    base_pos = sorted(CANDS.position(k) for k in base.selected)
    moved_pos = sorted(CANDS.position(k) for k in moved.selected)
    assert sorted(np.argsort(perm)[base_pos].tolist()) == moved_pos


def test_grad_only_mirrors_loss_only_tie_breaks():
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 1, CANDS.size)
    values[10] = values[20] = values[30] = 0.9  # forced ties
    g = sampled("grad_only", 5, make_scores(values, kind="grad_norm"))
    l = sampled("loss_only", 5, make_scores(values, kind="rollout_loss"))
    assert g.selected == l.selected
    assert sorted(sampled("grad_only", CANDS.size, make_scores(values)).selected) == list(CANDS.indices)


def test_kind_checks_enforced():
    grad = make_scores(np.ones(CANDS.size), kind="grad_norm")
    loss = make_scores(np.ones(CANDS.size), kind="rollout_loss")
    with pytest.raises(ValueError):
        sampled("loss_only", 3, grad)
    with pytest.raises(ValueError):
        sampled("grad_only", 3, loss)
    with pytest.raises(ValueError):
        sampled("gits", 3, loss)
    with pytest.raises(ValueError):
        sampled("loss_div", 3, grad)
    # a score-based sampler given no scores, or a raw vector, is refused too
    with pytest.raises(ValueError):
        sampled("gits", 3, None)
    with pytest.raises(ValueError):
        sampled("loss_only", 3, np.ones(CANDS.size))
    with pytest.raises(ValueError):
        sampled("bogus", 3)


def test_coverage_only_ignores_scores_and_centers_single_pick():
    obj = default_obj()
    r1 = sampled("coverage_only", 4, obj=obj)
    r2 = sampled("coverage_only", 4, make_scores(np.linspace(0, 1, CANDS.size)), obj=obj)
    assert r1.selected == r2.selected
    # single pick maximizes the coverage gain: an (near-)central candidate
    one = sampled("coverage_only", 1, obj=default_obj(budget=1))
    windows = build_windows(CANDS, default_obj(budget=1).coverage)
    cfg = default_obj(budget=1)
    gains = []
    for k in CANDS.indices:
        f_cov, f_win = coverage_values([int(k)], CANDS, windows, cfg.coverage)
        gains.append(cfg.lambda_cov * f_cov + cfg.c_win * f_win)
    best = int(CANDS.indices[int(np.argmax(gains))])
    assert one.selected == [best]


def test_coverage_only_respects_bound_on_small_instances():
    rng = np.random.default_rng(8)
    bound = 1.0 - 1.0 / np.e
    for _ in range(10):
        size = int(rng.integers(6, 13))
        cands = build_candidates(4 + 1 + size, 4)
        budget = int(rng.integers(2, 4))
        obj = ObjectiveConfig(coverage=derive_coverage_config(cands.t_count, budget))
        r = sampled("coverage_only", budget, candidates=cands, obj=obj)
        optimum = exhaustive_optimum(np.zeros(size), cands, obj, budget)
        assert r.objective >= bound * optimum - 1e-9


def test_loss_div_degenerate_reductions():
    rng = np.random.default_rng(9)
    loss = make_scores(rng.uniform(0, 1, CANDS.size), kind="rollout_loss")
    flat = default_obj(lambda_cov=0.0, c_win=0.0)
    assert sampled("loss_div", 5, loss, obj=flat).selected == sampled("loss_only", 5, loss).selected
    zero = make_scores(np.zeros(CANDS.size), kind="rollout_loss")
    obj = default_obj()
    assert (
        sampled("loss_div", 5, zero, obj=obj).selected
        == sampled("coverage_only", 5, obj=obj).selected
    )


# ----------------------------------------------------------------------
# gradient matching
# ----------------------------------------------------------------------

def test_grad_match_identical_gradients_take_first_k():
    grads = np.tile(np.array([1.0, -2.0, 0.5]), (CANDS.size, 1))
    r = grad_match_from_gradients(grads, CANDS, 4)
    assert r.selected == [4, 5, 6, 7]


def test_grad_match_full_budget_zero_residual():
    rng = np.random.default_rng(10)
    cands = build_candidates(15, 4)
    grads = rng.normal(size=(cands.size, 5))
    r = grad_match_from_gradients(grads, cands, cands.size)
    assert r.objective < 1e-12


def test_grad_match_near_exhaustive_on_small_instance():
    rng = np.random.default_rng(11)
    cands = build_candidates(15, 4)  # |C| = 10
    grads = rng.normal(size=(cands.size, 5))
    g_bar = grads.mean(axis=0)
    # K=1 greedy IS the exhaustive argmin
    single = grad_match_from_gradients(grads, cands, 1)
    best1 = min(float(np.linalg.norm(g_bar - grads[i])) for i in range(cands.size))
    assert single.objective == pytest.approx(best1, abs=1e-12)
    # K=2: never better than the exhaustive optimum; report the gap
    r = grad_match_from_gradients(grads, cands, 2)
    best2 = min(
        float(np.linalg.norm(g_bar - grads[list(c)].mean(axis=0)))
        for c in combinations(range(cands.size), 2)
    )
    assert r.objective >= best2 - 1e-12
    print(f"grad_match greedy/optimal residual ratio at K=2: {r.objective / best2:.4f}")


def test_grad_match_end_to_end_deterministic():
    solver = SolverConfig(family="diffusion1d", spatial_size=16, t_count=12, seed=3)
    ds = generate_dataset(solver, 10)
    cands = build_candidates(ds.t_count, 3)
    cfg = ExperimentConfig(solver=solver, n_traj=10, pilot_epochs=1, horizon=3, batch_traj=4,
                           history_len=3, hidden=3, kernel_radius=1)
    obj = default_obj(cands, budget=3)
    _, grads_a = pilot_gradients(cfg, ds, cands, 0)
    _, grads_b = pilot_gradients(cfg, ds, cands, 0)
    a = run_sampler("grad_match", cands, obj, 3, grads_a)
    b = run_sampler("grad_match", cands, obj, 3, grads_b)
    assert a.selected == b.selected
    assert a.sampler == "grad_match"
    assert a.selected == grad_match_from_gradients(grads_a, cands, 3).selected


# ----------------------------------------------------------------------
# budget rule and export
# ----------------------------------------------------------------------

def test_budget_from_ratio():
    assert budget_from_ratio(0.05, 96) == 5
    assert budget_from_ratio(0.10, 96) == 10
    assert budget_from_ratio(0.20, 96) == 19
    assert budget_from_ratio(0.001, 96) == 1
    assert budget_from_ratio(1.0, 96) == 96
    # Python's round: halves go to the even neighbour
    assert budget_from_ratio(0.05, 90) == 4
    assert budget_from_ratio(0.25, 90) == 22
    with pytest.raises(ValueError):
        budget_from_ratio(0.0, 96)
    with pytest.raises(ValueError):
        budget_from_ratio(1.5, 96)


def test_selection_json_export(tmp_path):
    scores = make_scores(np.linspace(0, 1, CANDS.size))
    r = sampled("gits", 5, scores)
    path = tmp_path / "sel.json"
    write_selection_json(r, path, 0.25, config={"ratio": 0.05})
    payload = json.loads(path.read_text())
    assert payload["sampler"] == "gits"
    assert payload["K"] == 5
    assert payload["selected"] == r.selected
    assert payload["objective"] == r.objective
    assert payload["config"] == {"ratio": 0.05}
    assert payload["wall_time"] == 0.25


def test_non_finite_scores_rejected_with_their_position():
    raw = np.ones(CANDS.size)
    raw[30] = np.nan
    raw[40] = np.inf
    with pytest.raises(ValueError, match=r"position 30 \(start index 34\) is not finite: nan"):
        greedy_select(raw, CANDS, default_obj(), 5)
    scores = make_scores(np.ones(CANDS.size))
    scores.scores[7] = -np.inf  # past the constructor's check
    with pytest.raises(ValueError, match=r"position 7 \(start index 11\) is not finite: -inf"):
        run_sampler("gits", CANDS, default_obj(), 5, scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grad_match_rejects_a_non_finite_gradient_row_with_its_position(bad):
    cands = build_candidates(20, 4)  # |C| = 15
    grads = np.random.default_rng(5).normal(size=(cands.size, 6))
    grads[9, 2] = bad
    grads[12, 0] = np.nan
    with pytest.raises(ValueError, match=rf"^gradient at candidate position 9 \(start index 13\) "
                       rf"is not finite: {bad}$"):
        grad_match_from_gradients(grads, cands, 4)
    with pytest.raises(ValueError, match=r"position 9 \(start index 13\)"):
        run_sampler("grad_match", cands, default_obj(cands, budget=4), 4, grads)


def test_objective_weights_must_be_finite_and_non_negative():
    cov = derive_coverage_config(CANDS.t_count, 10)
    for lambda_cov, c_win in ((np.nan, 0.5), (1.0, np.inf), (-np.inf, 0.5)):
        with pytest.raises(ValueError, match="coverage weights must be finite"):
            ObjectiveConfig(coverage=cov, lambda_cov=lambda_cov, c_win=c_win)
    for lambda_cov, c_win in ((-1.0, 0.5), (1.0, -1e-12)):
        with pytest.raises(ValueError, match="coverage weights must be non-negative"):
            ObjectiveConfig(coverage=cov, lambda_cov=lambda_cov, c_win=c_win)


@pytest.mark.parametrize("t_count, budget", [(12, 3), (41, 1), (101, 10), (101, 37), (301, 15)])
def test_objective_without_coverage_derives_it_from_the_budget(t_count, budget):
    cands = build_candidates(t_count, 4)
    rng = np.random.default_rng([t_count, budget])
    grad = make_scores(rng.uniform(0, 1, cands.size), indices=cands.indices)
    loss = make_scores(rng.uniform(0, 1, cands.size), kind="rollout_loss", indices=cands.indices)
    weights = dict(lambda_cov=float(rng.uniform(0, 2)), c_win=float(rng.uniform(0, 2)))
    for plain in (ObjectiveConfig(), ObjectiveConfig(**weights)):
        derived = ObjectiveConfig(derive_coverage_config(t_count, budget), plain.lambda_cov,
                                  plain.c_win)
        for name, scores in (("gits", grad), ("coverage_only", None), ("loss_div", loss)):
            a = run_sampler(name, cands, plain, budget, scores)
            b = run_sampler(name, cands, derived, budget, scores)
            assert (a.selected, a.gains, a.objective) == (b.selected, b.gains, b.objective)


@pytest.mark.parametrize("t_count, budget", [(10, 2), (12, 3), (16, 4)])
def test_exhaustive_optimum_without_coverage_derives_it_from_the_budget(t_count, budget):
    cands = build_candidates(t_count, 4)
    scores = np.random.default_rng(t_count).uniform(0, 1, cands.size)
    derived = ObjectiveConfig(coverage=derive_coverage_config(t_count, budget))
    assert (exhaustive_optimum(scores, cands, ObjectiveConfig(), budget)
            == exhaustive_optimum(scores, cands, derived, budget))


def test_misaligned_scores_rejected():
    other = build_candidates(50, 4)
    scores = make_scores(np.ones(other.size), indices=other.indices)
    with pytest.raises(ValueError):
        greedy_select(scores, CANDS, default_obj(), 3)


def test_table_dispatch_matches_the_named_algorithm():
    rng = np.random.default_rng(12)
    grad = make_scores(rng.uniform(0, 1, CANDS.size), kind="grad_norm")
    loss = make_scores(rng.uniform(0, 1, CANDS.size), kind="rollout_loss")
    grads = rng.normal(size=(CANDS.size, 6))
    obj = default_obj()
    k = 9
    inputs = {None: None, "grad_norm": grad, "rollout_loss": loss, "gradients": grads}
    expected = {
        "gits": greedy_select(grad, CANDS, obj, k),
        "uniform": sample_uniform(CANDS, k),
        "loss_only": top_k(loss, k),
        "coverage_only": greedy_select(None, CANDS, obj, k),
        "grad_only": top_k(grad, k),
        "loss_div": greedy_select(loss, CANDS, obj, k),
        "grad_match": grad_match_from_gradients(grads, CANDS, k),
    }
    assert SAMPLERS == tuple(expected)
    for name in SAMPLERS:
        r = run_sampler(name, CANDS, obj, k, inputs[SAMPLER_TABLE[name].needs])
        assert r.sampler == name
        assert r.selected == expected[name].selected, name
        assert r.gains == expected[name].gains, name
        assert r.objective == expected[name].objective, name
