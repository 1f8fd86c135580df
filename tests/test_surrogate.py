import json

import numpy as np
import pytest

from gits import surrogate
from gits.pde_data import SolverConfig, generate_dataset
from gits.surrogate import (
    SurrogateArch,
    SurrogateParams,
    TrainConfig,
    TrainingDivergedError,
    effective_horizon,
    forward,
    init_params,
    load_params,
    rollout,
    rollout_loss_grad,
    save_params,
    train,
)

TINY_ARCH = SurrogateArch(history_len=3, hidden=3, kernel_radius=1)


@pytest.fixture(scope="module")
def tiny_ds():
    cfg = SolverConfig(family="diffusion1d", spatial_size=16, t_count=12, seed=3)
    return generate_dataset(cfg, 10)


@pytest.fixture(scope="module")
def zero_dyn_ds():
    cfg = SolverConfig(family="diffusion1d", diffusivity=(0.0, 0.0), spatial_size=16,
                       t_count=12, seed=4)
    return generate_dataset(cfg, 10)


def zero_params(arch=TINY_ARCH):
    return SurrogateParams(theta=np.zeros(arch.param_count()), arch=arch)


def fd_gradient(params, pairs, horizon, ds, h=1e-6):
    fd = np.empty(params.param_count)
    for i in range(params.param_count):
        up = params.theta.copy()
        dn = params.theta.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = rollout_loss_grad(SurrogateParams(up, params.arch), pairs, horizon, ds)
        ld, _ = rollout_loss_grad(SurrogateParams(dn, params.arch), pairs, horizon, ds)
        fd[i] = (lu - ld) / (2.0 * h)
    return fd


def rel_gradient_error(grad, fd):
    return float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))


# ----------------------------------------------------------------------
# forward / rollout
# ----------------------------------------------------------------------

def test_zero_params_residual_identity(tiny_ds):
    hist = tiny_ds.data[0, :3].astype(np.float64)
    pred = forward(zero_params(), hist)
    assert np.array_equal(pred, hist[-1])


def test_forward_rejects_wrong_frame_count(tiny_ds):
    hist = tiny_ds.data[0, :2].astype(np.float64)
    with pytest.raises(ValueError, match="frames"):
        forward(zero_params(), hist)


def test_forward_deterministic(tiny_ds):
    params = init_params(TINY_ARCH, 0)
    hist = tiny_ds.data[1, :3].astype(np.float64)
    a = forward(params, hist)
    b = forward(params, hist)
    assert np.array_equal(a, b)


def test_forward_clamps_output():
    arch = SurrogateArch(history_len=2, hidden=2, kernel_radius=1, clamp=0.5)
    hist = np.full((2, 8, 1), 3.0)
    pred = forward(SurrogateParams(np.zeros(arch.param_count()), arch), hist)
    assert np.all(pred == 0.5)


def test_rollout_steps_one_equals_forward(tiny_ds):
    params = init_params(TINY_ARCH, 1)
    hist = tiny_ds.data[2, :3].astype(np.float64)
    assert np.array_equal(rollout(params, hist, 1)[0], forward(params, hist))


def test_rollout_zero_params_repeats_last_frame(tiny_ds):
    hist = tiny_ds.data[0, :3].astype(np.float64)
    out = rollout(zero_params(), hist, 6)
    for frame in out:
        assert np.array_equal(frame, hist[-1])


def test_rollout_matches_chained_forward(tiny_ds):
    params = init_params(TINY_ARCH, 2)
    hist = tiny_ds.data[3, :3].astype(np.float64)
    out = rollout(params, hist, 3)
    frames = [hist[0], hist[1], hist[2]]
    for _ in range(3):
        frames.append(forward(params, np.stack(frames[-3:])))
    assert np.array_equal(out, np.stack(frames[3:]))


# ----------------------------------------------------------------------
# loss and gradient
# ----------------------------------------------------------------------

def test_loss_zero_at_global_minimum(zero_dyn_ds):
    # zero dynamics + zero params => predictions equal targets exactly
    loss, grad = rollout_loss_grad(zero_params(), [(0, 4), (1, 7)], 3, zero_dyn_ds)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_horizon_truncates_at_time_axis_end(tiny_ds):
    k = tiny_ds.t_count - 2
    assert effective_horizon(10, tiny_ds.t_count, k) == 1
    params = init_params(TINY_ARCH, 3)
    loss_long, grad_long = rollout_loss_grad(params, [(0, k)], 10, tiny_ds)
    loss_one, grad_one = rollout_loss_grad(params, [(0, k)], 1, tiny_ds)
    assert loss_long == loss_one
    assert np.array_equal(grad_long, grad_one)


def test_gradient_matches_finite_differences(tiny_ds):
    params = init_params(TINY_ARCH, 5)
    for horizon in (1, 2, 4):
        pairs = [(0, 4), (1, 6), (2, tiny_ds.t_count - 2)]
        _, grad = rollout_loss_grad(params, pairs, horizon, tiny_ds)
        fd = fd_gradient(params, pairs, horizon, tiny_ds)
        assert rel_gradient_error(grad, fd) < 1e-4


def test_gradient_matches_finite_differences_reflect_padding():
    cfg = SolverConfig(family="diffusion1d", boundary="neumann", spatial_size=12,
                       t_count=10, seed=1)
    ds = generate_dataset(cfg, 10)
    arch = SurrogateArch(history_len=2, hidden=2, kernel_radius=2, padding="reflect")
    params = init_params(arch, 9)
    pairs = [(0, 3), (1, ds.t_count - 2)]
    _, grad = rollout_loss_grad(params, pairs, 4, ds)
    fd = fd_gradient(params, pairs, 4, ds)
    assert rel_gradient_error(grad, fd) < 1e-4


def test_gradient_through_active_clamp(tiny_ds):
    # tight clamp so some rollout frames saturate; gradient must stay exact
    arch = SurrogateArch(history_len=3, hidden=3, kernel_radius=1, clamp=0.4)
    params = init_params(arch, 11)
    pairs = [(0, 4), (2, 5)]
    _, grad = rollout_loss_grad(params, pairs, 4, tiny_ds)
    fd = fd_gradient(params, pairs, 4, tiny_ds)
    assert rel_gradient_error(grad, fd) < 1e-4


def test_loss_grad_rejects_bad_inputs(tiny_ds):
    params = init_params(TINY_ARCH, 0)
    with pytest.raises(ValueError, match="empty"):
        rollout_loss_grad(params, [], 3, tiny_ds)
    with pytest.raises(ValueError, match="start"):
        rollout_loss_grad(params, [(0, 2)], 3, tiny_ds)
    with pytest.raises(ValueError, match="start"):
        rollout_loss_grad(params, [(0, tiny_ds.t_count - 1)], 3, tiny_ds)
    with pytest.raises(ValueError, match="horizon"):
        rollout_loss_grad(params, [(0, 4)], 0, tiny_ds)


def test_mixed_start_batch_averages_pairs(tiny_ds):
    # mean over pairs with per-pair truncated horizons
    params = init_params(TINY_ARCH, 6)
    pairs = [(0, 4), (1, tiny_ds.t_count - 2)]
    loss, _ = rollout_loss_grad(params, pairs, 5, tiny_ds)
    l0, _ = rollout_loss_grad(params, [pairs[0]], 5, tiny_ds)
    l1, _ = rollout_loss_grad(params, [pairs[1]], 5, tiny_ds)
    assert loss == pytest.approx(0.5 * (l0 + l1), rel=1e-12)


def test_loss_reads_each_pairs_history_and_target_frames(tiny_ds):
    # per-pair reference from the public rollout: history frames k-L+1..k,
    # targets k+1..k+h, per-frame NRMSE^2 averaged over frames, then pairs
    params = init_params(TINY_ARCH, 8)
    pairs = [(0, 4), (3, 5), (1, 7), (2, tiny_ds.t_count - 2), (3, 3)]
    horizon, length = 3, TINY_ARCH.history_len
    expected = []
    for n, k in pairs:
        h = effective_horizon(horizon, tiny_ds.t_count, k)
        pred = rollout(params, tiny_ds.data[n, k - length + 1 : k + 1], h)
        target = tiny_ds.data[n, k + 1 : k + 1 + h].astype(np.float64)
        sq = np.sum((pred - target) ** 2, axis=(1, 2))
        norm = (np.sqrt(np.sum(target**2, axis=(1, 2))) + surrogate.NRMSE_EPS) ** 2
        expected.append(np.mean(sq / norm))
    loss, _ = rollout_loss_grad(params, pairs, horizon, tiny_ds)
    assert loss == pytest.approx(np.mean(expected), rel=1e-12)


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

def test_train_zero_epochs_is_noop(tiny_ds):
    params = init_params(TINY_ARCH, 7)
    cfg = TrainConfig(epochs_max=0)
    out, history = train(params, [4, 5], tiny_ds, cfg)
    assert out is params
    assert history == []


def test_train_deterministic(tiny_ds):
    cfg = TrainConfig(epochs_max=3, batch_size=16, seed=13, early_stop=False)
    p0 = init_params(TINY_ARCH, 8)
    a, ha = train(p0, [4, 6, 8], tiny_ds, cfg)
    b, hb = train(p0, [4, 6, 8], tiny_ds, cfg)
    assert np.array_equal(a.theta, b.theta)
    assert ha == hb


def test_train_learns_zero_dynamics(zero_dyn_ds):
    # solvable task: targets equal inputs, so the model must drive its
    # increment to zero; final one-step loss must be tiny
    cfg = TrainConfig(epochs_max=200, batch_size=32, seed=0, early_stop=False, lr=3e-3)
    p0 = init_params(TINY_ARCH, 9)
    params, history = train(p0, [4, 5, 6, 7], zero_dyn_ds, cfg)
    assert history[-1].train_loss < 1e-6


def test_train_early_stop_returns_best_validation_params(tiny_ds):
    cfg = TrainConfig(epochs_max=30, min_epochs=2, patience=3, batch_size=16, seed=21)
    p0 = init_params(TINY_ARCH, 10)
    params, history = train(p0, [4, 6, 8], tiny_ds, cfg)
    from gits.diagnostics import rollout_nrmse

    returned = rollout_nrmse(params, tiny_ds, split="val")
    evaluated = [h.val_nrmse for h in history if h.val_nrmse is not None]
    assert evaluated, "early stopping must have evaluated at least one epoch"
    assert returned == min(evaluated)


def test_train_rejects_empty_or_invalid_starts(tiny_ds):
    p0 = init_params(TINY_ARCH, 0)
    with pytest.raises(ValueError):
        train(p0, [], tiny_ds, TrainConfig())
    with pytest.raises(ValueError):
        train(p0, [1], tiny_ds, TrainConfig())


def test_train_divergence_is_reported(tiny_ds):
    # lr large enough to overflow the conv accumulations on the next batch
    cfg = TrainConfig(epochs_max=5, lr=1e308, grad_clip=1e308, early_stop=False, seed=0)
    p0 = init_params(TINY_ARCH, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(p0, [4, 5, 6], tiny_ds, cfg)


# ----------------------------------------------------------------------
# parameters and checkpoints
# ----------------------------------------------------------------------

def test_param_count_matches_arch():
    arch = SurrogateArch(history_len=4, hidden=8, kernel_radius=2, channels=1)
    k = arch.kernel_size
    expected = 8 * 4 * k + 8 + 1 * 8 * k + 1
    assert arch.param_count() == expected
    assert init_params(arch, 0).param_count == expected


def test_params_reject_bad_theta():
    with pytest.raises(ValueError):
        SurrogateParams(theta=np.zeros(TINY_ARCH.param_count() + 1), arch=TINY_ARCH)
    bad = np.zeros(TINY_ARCH.param_count())
    bad[0] = np.nan
    with pytest.raises(ValueError):
        SurrogateParams(theta=bad, arch=TINY_ARCH)


def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY_ARCH, 17)
    save_params(params, tmp_path / "ckpt", seed=17, epoch=3)
    back, header = load_params(tmp_path / "ckpt")
    assert np.array_equal(back.theta, params.theta)
    assert back.arch == params.arch
    assert header["seed"] == 17 and header["epoch"] == 3


def test_checkpoint_with_non_finite_clamp_rejected(tmp_path):
    save_params(init_params(TINY_ARCH, 17), tmp_path / "ckpt")
    header_path = tmp_path / "ckpt.json"
    for clamp in (float("nan"), float("inf")):
        header = json.loads(header_path.read_text())
        header["arch"]["clamp"] = clamp
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="clamp must be finite and positive"):
            load_params(tmp_path / "ckpt")
