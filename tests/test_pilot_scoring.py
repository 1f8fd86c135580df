import numpy as np
import pytest

from gits import harness, surrogate
from gits.pde_data import SolverConfig, TrajectoryDataset, generate_dataset
from gits.pilot_scoring import (
    CandidateScores,
    EmptyCandidateError,
    build_candidates,
    default_arch,
    pilot_input,
    scoring_trajectories,
    train_pilot,
)
from gits.surrogate import (
    SurrogateArch,
    TrainConfig,
    init_params,
    rollout_loss_grad,
    stack_size,
    start_loss_grads,
)

ARCH = SurrogateArch(history_len=3, hidden=3, kernel_radius=1)


@pytest.fixture(scope="module")
def tiny_ds():
    cfg = SolverConfig(family="diffusion1d", spatial_size=16, t_count=12, seed=3)
    return generate_dataset(cfg, 10)


@pytest.fixture(scope="module")
def zero_dyn_ds():
    cfg = SolverConfig(family="diffusion1d", diffusivity=(0.0, 0.0), spatial_size=16,
                       t_count=12, seed=4)
    return generate_dataset(cfg, 10)


@pytest.fixture(scope="module")
def pilot(tiny_ds):
    cfg = TrainConfig(epochs_max=2, batch_size=16, seed=0, early_stop=False)
    return train_pilot(tiny_ds, build_candidates(tiny_ds.t_count, 3), cfg, arch=ARCH)


def chunk_gradients(pilot, cands, ds, horizon, batch_traj, seed):
    """Every candidate's (losses, grads) under ``pilot``, as one scoring worker
    computes them: ``start_loss_grads`` of every candidate."""
    losses, grads = np.zeros(cands.size), np.zeros((cands.size, pilot.param_count))
    traj = scoring_trajectories(ds, batch_traj, seed)
    start_loss_grads(pilot, ds, traj, cands.indices, horizon, losses, grads)
    return losses, grads


def pilot_gradients(cfg, ds, cands, seed):
    """The seed's (losses, grads) as a grid computes them: its pilot and scoring
    chunks, then one grad_match selection that reads them, on the pool of
    ``harness._select_cells``."""
    returned = []
    scheduler, _ = harness._select_cells(
        cfg, ds, cands, [(1.0, "grad_match", seed)],
        lambda cell, outcome, seconds: returned.append(outcome))
    scheduler.run()
    [outcome] = returned
    assert outcome.error is None, outcome.error
    _, losses, grads = scheduler.shared.scoring[seed]
    return losses, grads


def scored(kind, pilot, cands, ds, horizon, batch_traj, seed=0):
    """One score kind through the pipeline's path: a scoring worker's gradients, then
    pilot_input."""
    losses, grads = chunk_gradients(pilot, cands, ds, horizon, batch_traj, seed)
    return pilot_input(kind, losses, grads, cands)


# ----------------------------------------------------------------------
# candidate set
# ----------------------------------------------------------------------

def test_candidates_reference_case():
    cands = build_candidates(101, 4)
    assert cands.indices[0] == 4 and cands.indices[-1] == 99
    assert cands.size == 96
    assert np.all(np.diff(cands.indices) == 1)


def test_candidates_minimal_case():
    cands = build_candidates(6, 4)
    assert list(cands.indices) == [4]
    assert cands.size == 1


def test_candidates_too_short_axis_rejected():
    with pytest.raises(EmptyCandidateError):
        build_candidates(5, 4)


def test_candidate_position_lookup():
    cands = build_candidates(101, 4)
    assert cands.position(4) == 0 and cands.position(99) == 95
    with pytest.raises(ValueError):
        cands.position(3)


# ----------------------------------------------------------------------
# pilot training
# ----------------------------------------------------------------------

def test_pilot_improves_on_zero_dynamics(zero_dyn_ds):
    cands = build_candidates(zero_dyn_ds.t_count, 3)
    cfg = TrainConfig(epochs_max=1, batch_size=16, seed=2, early_stop=False)
    params0 = init_params(ARCH, cfg.seed)
    pairs = [(int(n), int(k)) for n in zero_dyn_ds.split_indices("train")
             for k in cands.indices]
    before, _ = rollout_loss_grad(params0, pairs, 1, zero_dyn_ds)
    pilot = train_pilot(zero_dyn_ds, cands, cfg, arch=ARCH)
    after, _ = rollout_loss_grad(pilot, pairs, 1, zero_dyn_ds)
    assert after < before


def test_pilot_deterministic(tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    cfg = TrainConfig(epochs_max=2, batch_size=16, seed=5, early_stop=False)
    a = train_pilot(tiny_ds, cands, cfg, arch=ARCH)
    b = train_pilot(tiny_ds, cands, cfg, arch=ARCH)
    assert np.array_equal(a.theta, b.theta)


def test_pilot_ignores_early_stopping_flag(tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    with_stop = TrainConfig(epochs_max=2, batch_size=16, seed=5, early_stop=True)
    without = TrainConfig(epochs_max=2, batch_size=16, seed=5, early_stop=False)
    a = train_pilot(tiny_ds, cands, with_stop, arch=ARCH)
    b = train_pilot(tiny_ds, cands, without, arch=ARCH)
    assert np.array_equal(a.theta, b.theta)


def test_default_arch_follows_dataset_boundary(tiny_ds):
    arch = default_arch(tiny_ds)
    assert arch.padding == "periodic"
    cfg = SolverConfig(family="diffusion1d", boundary="neumann", spatial_size=16,
                       t_count=10, seed=0)
    ds = generate_dataset(cfg, 10)
    assert default_arch(ds).padding == "reflect"


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------

def test_scores_aligned_finite_nonnegative(pilot, tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    for kind in ("grad_norm", "rollout_loss"):
        scores = scored(kind, pilot, cands, tiny_ds, horizon=3, batch_traj=4, seed=0)
        assert scores.kind == kind
        assert np.array_equal(scores.indices, cands.indices)
        assert np.all(np.isfinite(scores.scores)) and np.all(scores.scores >= 0.0)


def test_converged_pilot_scores_near_zero(zero_dyn_ds):
    # drive the pilot to near-convergence with a decreasing-lr schedule,
    # then check both score kinds collapse at the loss minimum
    from gits.surrogate import train

    cands = build_candidates(zero_dyn_ds.t_count, 3)
    params = init_params(ARCH, 2)
    schedule = ((3e-3, 300), (1e-3, 300), (3e-4, 300), (3e-5, 200), (3e-6, 200))
    for lr, epochs in schedule:
        cfg = TrainConfig(epochs_max=epochs, batch_size=8, seed=0, early_stop=False, lr=lr)
        params, _ = train(params, list(cands.indices), zero_dyn_ds, cfg)
    gs = scored("grad_norm", params, cands, zero_dyn_ds, horizon=3, batch_traj=8)
    ls = scored("rollout_loss", params, cands, zero_dyn_ds, horizon=3, batch_traj=8)
    assert np.all(gs.scores < 1e-6)
    assert np.all(ls.scores < 1e-9)


def test_exact_minimum_pilot_scores_are_zero(zero_dyn_ds):
    # zero parameters are an exact global minimum on the zero-dynamics set
    from gits.surrogate import SurrogateParams

    cands = build_candidates(zero_dyn_ds.t_count, 3)
    pilot = SurrogateParams(theta=np.zeros(ARCH.param_count()), arch=ARCH)
    gs = scored("grad_norm", pilot, cands, zero_dyn_ds, horizon=3, batch_traj=8)
    ls = scored("rollout_loss", pilot, cands, zero_dyn_ds, horizon=3, batch_traj=8)
    assert np.all(gs.scores == 0.0)
    assert np.all(ls.scores == 0.0)


def test_loss_scores_equal_gradient_routine_losses(pilot, tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    scores = scored("rollout_loss", pilot, cands, tiny_ds, horizon=3, batch_traj=4, seed=1)
    traj = scoring_trajectories(tiny_ds, 4, 1)
    for i, k in enumerate(cands.indices):
        loss, _ = rollout_loss_grad(pilot, [(int(n), int(k)) for n in traj], 3, tiny_ds)
        assert scores.scores[i] == loss


def test_truncated_horizon_scores_match_explicit_truncation(pilot, tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    horizon = 10
    scores = scored("rollout_loss", pilot, cands, tiny_ds, horizon=horizon, batch_traj=4,
                    seed=0)
    traj = scoring_trajectories(tiny_ds, 4, 0)
    k = int(cands.indices[-1])  # t_count - 2 => effective horizon 1
    h_eff = min(horizon, tiny_ds.t_count - 1 - k)
    assert h_eff == 1
    loss, _ = rollout_loss_grad(pilot, [(int(n), k) for n in traj], h_eff, tiny_ds)
    assert scores.scores[-1] == loss


def test_scoring_deterministic_and_subsample_fixed(pilot, tiny_ds):
    cands = build_candidates(tiny_ds.t_count, 3)
    a = scored("grad_norm", pilot, cands, tiny_ds, horizon=2, batch_traj=4, seed=7)
    b = scored("grad_norm", pilot, cands, tiny_ds, horizon=2, batch_traj=4, seed=7)
    assert np.array_equal(a.scores, b.scores)
    t1 = scoring_trajectories(tiny_ds, 4, 7)
    t2 = scoring_trajectories(tiny_ds, 4, 7)
    assert np.array_equal(t1, t2)
    assert set(t1) <= set(tiny_ds.split_indices("train"))


def test_score_order_independent_of_candidate_evaluation(pilot, tiny_ds):
    # scoring is per-candidate against a frozen subsample: evaluating any
    # sub-list of candidates reproduces the same slots bit-for-bit
    from gits.pilot_scoring import CandidateSet

    cands = build_candidates(tiny_ds.t_count, 3)
    full = scored("grad_norm", pilot, cands, tiny_ds, horizon=2, batch_traj=4, seed=0)
    keep = [cands.size - 1, cands.size // 2, 0]  # reversed evaluation order
    subset = CandidateSet(
        indices=cands.indices[sorted(keep)], t_count=cands.t_count,
        history_len=cands.history_len,
    )
    part = scored("grad_norm", pilot, subset, tiny_ds, horizon=2, batch_traj=4, seed=0)
    for out_pos, full_pos in enumerate(sorted(keep)):
        assert part.scores[out_pos] == full.scores[full_pos]


# ----------------------------------------------------------------------
# stacked scoring: several candidates per surrogate call
# ----------------------------------------------------------------------

def scoring_dataset(kind):
    """A 14-snapshot dataset: periodic, Neumann (reflect padding) or 2-channel."""
    if kind == "two_channel":
        rng = np.random.default_rng(3)
        return TrajectoryDataset(
            data=rng.normal(size=(10, 14, 16, 2)).astype(np.float32),
            split=("train",) * 8 + ("val", "test"),
            norm_mean=np.zeros(2),
            norm_std=np.ones(2),
            meta={"boundary": "periodic"},
        )
    cfg = SolverConfig(family="diffusion1d", boundary=kind, spatial_size=16, t_count=14, seed=8)
    return generate_dataset(cfg, 10)


def test_stack_size_follows_the_columns_per_step():
    # long_axis_select (X = 32, B = 8), grid_default (64, 8), the default grid (64, 32)
    assert [stack_size(x * b) for x, b in ((32, 8), (64, 8), (64, 32), (64, 64))] == [8, 4, 1, 1]
    assert stack_size(1) == surrogate.STACK_COLUMNS


@pytest.mark.parametrize("kind, radius, batch_traj", [
    ("periodic", 1, 4), ("periodic", 0, 4), ("neumann", 1, 4), ("neumann", 0, 1),
    ("two_channel", 1, 3), ("two_channel", 0, 4),
])
@pytest.mark.parametrize("stack", [1, 2, 3, 5, 7, 16])
def test_stacked_scoring_equals_per_candidate_calls(monkeypatch, kind, radius, batch_traj,
                                                    stack):
    # 10 candidates; horizon 4 cuts the last 3 to horizons 3, 2 and 1, so a
    # stack of 7 divides the full-horizon run and 2, 3, 5 and 16 do not
    ds = scoring_dataset(kind)
    pilot = init_params(default_arch(ds, history_len=3, kernel_radius=radius), 9)
    cands = build_candidates(ds.t_count, 3)
    horizon = 4
    assert cands.size == 10
    monkeypatch.setattr(surrogate, "stack_size", lambda columns: stack)
    losses, grads = chunk_gradients(pilot, cands, ds, horizon, batch_traj, 2)
    traj = scoring_trajectories(ds, batch_traj, 2)
    for i, k in enumerate(cands.indices):
        loss, grad = rollout_loss_grad(pilot, [(int(n), int(k)) for n in traj], horizon, ds)
        assert losses[i] == loss, i
        assert np.array_equal(grads[i], grad), i


def test_candidate_scores_validation():
    with pytest.raises(ValueError, match=r"^scores must be finite and non-negative: "
                       r"candidate position 1 \(start index 5\) has -0.5$"):
        CandidateScores(indices=np.arange(4, 7), scores=np.array([1.0, -0.5, 0.2]),
                        kind="grad_norm")
    with pytest.raises(ValueError, match=r"finite and non-negative: candidate position 2 "
                       r"\(start index 6\) has inf$"):
        CandidateScores(indices=np.arange(4, 8), scores=np.array([1.0, 0.5, np.inf, np.nan]),
                        kind="grad_norm")
    with pytest.raises(ValueError):
        CandidateScores(indices=np.arange(3), scores=np.ones(2), kind="grad_norm")
    with pytest.raises(ValueError):
        CandidateScores(indices=np.arange(3), scores=np.ones(3), kind="bogus")
