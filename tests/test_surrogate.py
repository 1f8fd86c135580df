import json
import sys
import tempfile
import weakref
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gits import parallel, surrogate
from gits.pde_data import SolverConfig, generate_dataset
from gits.pilot_scoring import default_arch
from gits.surrogate import (
    CheckpointFormatError,
    SurrogateArch,
    SurrogateParams,
    TrainConfig,
    TrainingDivergedError,
    effective_horizon,
    init_params,
    load_params,
    rollout_batch,
    rollout_loss_grad,
    save_params,
    train,
    train_stack,
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


@pytest.fixture(scope="module", params=["periodic", "neumann"])
def grid_ds(request):
    """The default grid's cell count and time axis, with either boundary."""
    cfg = SolverConfig(family="diffusion1d", boundary=request.param, spatial_size=64,
                       t_count=101, seed=5)
    return generate_dataset(cfg, 12)


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
# rollout_batch: one-step (forward) and multi-step predictions
# ----------------------------------------------------------------------

def test_zero_params_residual_identity(tiny_ds):
    hist = tiny_ds.data[:2, :3].astype(np.float64)
    pred = rollout_batch(zero_params(), hist, 1)
    assert np.array_equal(pred[:, 0], hist[:, -1])


def test_forward_rejects_wrong_frame_count(tiny_ds):
    hist = tiny_ds.data[:1, :2].astype(np.float64)
    with pytest.raises(ValueError, match="^histories have 2 frames, model expects 3$"):
        rollout_batch(zero_params(), hist, 1)


def test_forward_rejects_wrong_channel_count(tiny_ds):
    hist = np.repeat(tiny_ds.data[:1, :3].astype(np.float64), 2, axis=3)
    with pytest.raises(ValueError, match="^histories have 2 channels, model expects 1$"):
        rollout_batch(zero_params(), hist, 1)


def test_forward_deterministic(tiny_ds):
    params = init_params(TINY_ARCH, 0)
    hist = tiny_ds.data[1:3, :3].astype(np.float64)
    assert np.array_equal(rollout_batch(params, hist, 4), rollout_batch(params, hist, 4))


def test_forward_clamps_output():
    arch = SurrogateArch(history_len=2, hidden=2, kernel_radius=1, clamp=0.5)
    hist = np.full((1, 2, 8, 1), 3.0)
    pred = rollout_batch(SurrogateParams(np.zeros(arch.param_count()), arch), hist, 1)
    assert np.all(pred == 0.5)


def test_rollout_steps_one_equals_forward(tiny_ds):
    params = init_params(TINY_ARCH, 1)
    hist = tiny_ds.data[2:4, :3].astype(np.float64)
    assert np.array_equal(rollout_batch(params, hist, 5)[:, 0],
                          rollout_batch(params, hist, 1)[:, 0])


def test_rollout_zero_params_repeats_last_frame(tiny_ds):
    hist = tiny_ds.data[:1, :3].astype(np.float64)
    out = rollout_batch(zero_params(), hist, 6)[0]
    for frame in out:
        assert np.array_equal(frame, hist[0, -1])


def test_rollout_matches_chained_forward(tiny_ds):
    params = init_params(TINY_ARCH, 2)
    hist = tiny_ds.data[3:5, :3].astype(np.float64)
    out = rollout_batch(params, hist, 3)
    frames = hist
    for _ in range(3):
        frames = np.concatenate([frames, rollout_batch(params, frames[:, -3:], 1)], axis=1)
    assert np.array_equal(out, frames[:, 3:])


@pytest.mark.parametrize("steps", [0, -1])
def test_rollout_batch_rejects_non_positive_steps(tiny_ds, steps):
    histories = tiny_ds.data[:2, :3].astype(np.float64)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        rollout_batch(init_params(TINY_ARCH, 0), histories, steps)


def test_rollout_batch_rejects_an_empty_batch(tiny_ds):
    histories = tiny_ds.data[:0, :3].astype(np.float64)
    with pytest.raises(ValueError, match="empty batch"):
        rollout_batch(init_params(TINY_ARCH, 0), histories, 2)


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
    # per-pair reference from rollout_batch: history frames k-L+1..k,
    # targets k+1..k+h, per-frame NRMSE^2 averaged over frames, then pairs
    params = init_params(TINY_ARCH, 8)
    pairs = [(0, 4), (3, 5), (1, 7), (2, tiny_ds.t_count - 2), (3, 3)]
    horizon, length = 3, TINY_ARCH.history_len
    expected = []
    for n, k in pairs:
        h = effective_horizon(horizon, tiny_ds.t_count, k)
        pred = rollout_batch(params, tiny_ds.data[n, k - length + 1 : k + 1][None], h)[0]
        target = tiny_ds.data[n, k + 1 : k + 1 + h].astype(np.float64)
        sq = np.sum((pred - target) ** 2, axis=(1, 2))
        norm = (np.sqrt(np.sum(target**2, axis=(1, 2))) + surrogate.NRMSE_EPS) ** 2
        expected.append(np.mean(sq / norm))
    loss, _ = rollout_loss_grad(params, pairs, horizon, tiny_ds)
    assert loss == pytest.approx(np.mean(expected), rel=1e-12)


def flat_window_index(x_len, r, padding, b_sz):
    """The flat (K, X*B) index over (X*B) columns: entry (j, x*B + b) is pad[x + j]*B + b."""
    k = 2 * r + 1
    taps = surrogate._pad_index(x_len, r, padding)[np.arange(k)[:, None] + np.arange(x_len)]
    return (taps[:, :, None] * b_sz + np.arange(b_sz)).reshape(k, x_len * b_sz)


def flat_windows(rows, idx):
    """(G, Cin, X*B) rows -> (G, Cin*K, X*B) windows, gathered with the flat index."""
    return rows.take(idx, axis=2).reshape(rows.shape[0], -1, idx.shape[1])


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("padding", surrogate.PADDINGS)
def test_window_gather_by_cell_equals_the_flat_gather(padding, r):
    rng = np.random.default_rng(r)
    length, channels, hidden, frames = 2, 2, 3, 5
    ws = surrogate._Workspace()  # one workspace, its padded rows reused at every shape
    for x_len in (1, 2, 5, 64):
        pad = surrogate._pad_index(x_len, r, padding)
        for b_sz in (1, 6, 64):
            flat_idx = flat_window_index(x_len, r, padding, b_sz)
            for stack in (1, 3):
                buf = rng.normal(size=(stack, frames, channels, x_len, b_sz))
                h = rng.normal(size=(stack, hidden, x_len, b_sz))
                # a frame slice of the buffer, not contiguous, and contiguous rows
                for src in (buf[:, 1 : 1 + length], h):
                    rows = np.ascontiguousarray(src).reshape(stack, -1, x_len * b_sz)
                    out = np.empty((*src.shape[:-2], 2 * r + 1, x_len, b_sz))
                    surrogate._windows(src, pad, out, ws)
                    got = out.reshape(stack, -1, x_len * b_sz)
                    assert np.array_equal(got, flat_windows(rows, flat_idx)), (x_len, b_sz, stack)


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
    from gits.diagnostics import rollout_report

    returned = rollout_report(params, tiny_ds, split="val").nrmse
    evaluated = [h.val_nrmse for h in history if h.val_nrmse is not None]
    assert evaluated, "early stopping must have evaluated at least one epoch"
    assert returned == min(evaluated)


def test_train_rejects_empty_or_invalid_starts(tiny_ds):
    p0 = init_params(TINY_ARCH, 0)
    with pytest.raises(ValueError):
        train(p0, [], tiny_ds, TrainConfig())
    with pytest.raises(ValueError):
        train(p0, [1], tiny_ds, TrainConfig())
    last = tiny_ds.t_count - 2
    for starts in ([1], [4, last + 1]):  # checked before the no-epoch return, too
        with pytest.raises(ValueError, match=rf"start index {starts[-1]} outside \[3, {last}\]"):
            train(p0, starts, tiny_ds, TrainConfig(epochs_max=0))


def test_train_checks_its_pairs_once(tiny_ds, monkeypatch):
    checked = []
    validate = surrogate._validate_pairs

    def spy(*args):
        checked.append(args[0])
        return validate(*args)

    monkeypatch.setattr(surrogate, "_validate_pairs", spy)
    cfg = TrainConfig(epochs_max=3, min_epochs=1, batch_size=4, seed=1)
    train(init_params(TINY_ARCH, 2), [4, 6, 8], tiny_ds, cfg)
    assert len(checked) == 1


def test_train_divergence_is_reported(tiny_ds):
    # lr large enough to overflow the conv accumulations on the next batch
    cfg = TrainConfig(epochs_max=5, lr=1e308, grad_clip=1e308, early_stop=False, seed=0)
    p0 = init_params(TINY_ARCH, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(p0, [4, 5, 6], tiny_ds, cfg)


def test_stack_whose_every_slice_gets_non_finite_parameters_raises_diverged(tiny_ds):
    # the parameter guard empties the stack mid-epoch: no further minibatch runs
    arch = SurrogateArch(history_len=3, hidden=1, kernel_radius=1)
    cfg = TrainConfig(epochs_max=3, lr=1e308, grad_clip=1e308, batch_size=4, early_stop=False,
                      seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="^non-finite parameters at epoch 1$"):
            train(init_params(arch, 0), range(3, 9), tiny_ds, cfg)


def test_stacked_slice_with_a_non_finite_loss_leaves_the_stack(tiny_ds):
    # w1 = 0 and b1 = 1 make every hidden value tanh(1); output taps 0 and 1
    # then sum to +inf and -inf, so the prediction and the loss are NaN
    k = TINY_ARCH.kernel_size
    theta = np.zeros(TINY_ARCH.param_count())
    views = surrogate._unpack(theta, TINY_ARCH)
    views.b1[...] = 1.0
    w2 = views.w2.reshape(TINY_ARCH.hidden, k)
    w2[:, 0], w2[:, 1] = 1.7e308, -1.7e308
    cfg = TrainConfig(epochs_max=6, min_epochs=2, patience=2, batch_size=8, seed=3, lr=1e-2)
    trainings = [surrogate.Training(init_params(TINY_ARCH, 4), [4, 6, 8], cfg),
                 surrogate.Training(SurrogateParams(theta, TINY_ARCH), [3, 5, 7], cfg)]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = train_stack(trainings, tiny_ds)
        with pytest.raises(TrainingDivergedError, match="^non-finite loss at epoch 1$"):
            train(trainings[1].params_init, trainings[1].starts, tiny_ds, cfg)
    assert str(stacked[1]) == "non-finite loss at epoch 1"
    params, history = stacked[0]
    ref_params, ref_history = train(trainings[0].params_init, trainings[0].starts, tiny_ds, cfg)
    assert np.array_equal(params.theta, ref_params.theta)
    assert history == ref_history


@pytest.mark.parametrize("columns", [surrogate.TRAIN_STACK_COLUMNS, 2 * 16 * 8])
def test_train_stack_equals_single_trainings(tiny_ds, monkeypatch, columns):
    # four slices of three starts each: two stop early at different epochs,
    # one runs all its epochs and one diverges. 16 cells x 8 pairs are the
    # columns of one slice's step, so the second case steps two stacks of 2.
    monkeypatch.setattr(surrogate, "TRAIN_STACK_COLUMNS", columns)
    trainings = [
        surrogate.Training(init_params(TINY_ARCH, 2), [4, 6, 8],
                           TrainConfig(epochs_max=40, min_epochs=2, patience=2, batch_size=8,
                                       seed=2, lr=1e-2, grad_clip=1e-3)),
        surrogate.Training(init_params(TINY_ARCH, 5), [3, 7, 9],
                           TrainConfig(epochs_max=8, min_epochs=2, patience=2, batch_size=8,
                                       seed=4, lr=1e-2, grad_clip=1e-3, early_stop=False)),
        surrogate.Training(init_params(TINY_ARCH, 0), [4, 5, 6],
                           TrainConfig(epochs_max=5, lr=1e308, grad_clip=1e308, batch_size=8,
                                       early_stop=False, seed=0)),
        surrogate.Training(init_params(TINY_ARCH, 1), [3, 4, 5],
                           TrainConfig(epochs_max=40, min_epochs=2, patience=2, batch_size=8,
                                       seed=1, lr=1e-2)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = train_stack(trainings, tiny_ds)
        singles = []
        for params_init, starts, cfg in trainings:
            try:
                singles.append(train(params_init, starts, tiny_ds, cfg))
            except TrainingDivergedError as exc:
                singles.append(exc)
    assert len(stacked) == len(singles) == 4
    assert all(isinstance(r[2], TrainingDivergedError) for r in (stacked, singles))
    # the first line of the error text the grid records for each
    assert ({parallel.error_text(r[2]).splitlines()[0] for r in (stacked, singles)}
            == {"TrainingDivergedError: non-finite parameters at epoch 1"})
    epochs = []
    for g in (0, 1, 3):
        (params, history), (ref_params, ref_history) = stacked[g], singles[g]
        assert np.array_equal(params.theta, ref_params.theta), g
        assert history == ref_history, g
        epochs.append(len(history))
    assert epochs[0] != epochs[2] and max(epochs[0], epochs[2]) < 40  # both stopped early
    assert epochs[1] == 8


def train_validating_every_epoch(params_init, starts, ds, cfg):
    """Oracle: one training with a validation rollout after every epoch >= min_epochs.

    The schedule ``train_stack`` ran before it deferred validation to the
    epochs at which a training can stop, on the same step and the same Adam
    arithmetic. Returns ``(params, history)``, or the
    :class:`TrainingDivergedError` that ``train_stack`` gives.
    """
    from gits.diagnostics import nrmse_from_rollouts, split_frames

    if cfg.epochs_max == 0:
        return params_init, []
    arch = params_init.arch
    train_idx = ds.split_indices("train")
    start_list = sorted(set(int(k) for k in starts))
    pairs = np.column_stack([np.repeat(train_idx, len(start_list)),
                             np.tile(start_list, len(train_idx))])
    rng = np.random.default_rng(cfg.seed)
    theta = params_init.theta[None].copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    ws = surrogate._Workspace()
    history, best_theta, step_count = [], None, 0
    for epoch in range(1, cfg.epochs_max + 1):
        order = rng.permutation(len(pairs))
        total = 0.0
        for lo in range(0, len(pairs), cfg.batch_size):
            chunk = pairs[order[lo : lo + cfg.batch_size]]
            grad = np.zeros_like(theta)
            [loss] = surrogate._stack_loss_grad(theta, arch, ds, chunk[None, :, 0],
                                                chunk[None, :, 1], 1, len(chunk), grad, ws)
            if not np.isfinite(loss):
                return TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            gnorm = float(np.linalg.norm(grad[0]))
            if gnorm > cfg.grad_clip:
                grad[0] *= cfg.grad_clip / gnorm
            step_count += 1
            m = surrogate.ADAM_BETA1 * m + (1.0 - surrogate.ADAM_BETA1) * grad
            v = surrogate.ADAM_BETA2 * v + (1.0 - surrogate.ADAM_BETA2) * grad**2
            m_hat = m / (1.0 - surrogate.ADAM_BETA1**step_count)
            v_hat = v / (1.0 - surrogate.ADAM_BETA2**step_count)
            theta = theta - cfg.lr * m_hat / (np.sqrt(v_hat) + surrogate.ADAM_EPS)
            if not np.isfinite(theta).all():
                return TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
            total += float(loss) * len(chunk)
        val = None
        if cfg.early_stop and epoch >= cfg.min_epochs:
            histories, truth = split_frames(ds, "val", arch.history_len)
            preds = surrogate._rollout(theta, arch, histories, truth.shape[1], ws)
            val = nrmse_from_rollouts(preds[0], truth)
        history.append(surrogate.EpochStats(epoch, total / len(pairs), val))
        best_epoch = surrogate.kept_epoch(history)
        if val is not None and best_epoch == epoch:
            best_theta = theta[0].copy()
        if best_theta is not None and epoch - best_epoch >= cfg.patience:
            break
    kept = theta[0] if best_theta is None else best_theta
    return SurrogateParams(theta=kept, arch=arch), history


def same_history(a, b):
    """Equal ``EpochStats`` lists, where a NaN validation value equals a NaN."""
    def key(h):
        return h._replace(val_nrmse="nan") if h.val_nrmse != h.val_nrmse else h

    return [key(h) for h in a] == [key(h) for h in b]


def count_stack_rows(mp):
    """Patch ``surrogate._stack_loss_grad`` to count the rollouts it steps: one
    per slice and minibatch."""
    rows = []
    real = surrogate._stack_loss_grad

    def spy(theta, arch, ds, ns, *args):
        rows.append(len(ns))
        return real(theta, arch, ds, ns, *args)

    mp.setattr(surrogate, "_stack_loss_grad", spy)
    return rows


# one training of the stack: epochs_max, min_epochs, patience, early_stop and
# lr, where lr 1e308 diverges in epoch 1 (batch 8) or 2 (batch 32)
SCHEDULE_TRAINING = st.tuples(st.integers(0, 12), st.integers(0, 6), st.integers(1, 5),
                              st.booleans(), st.sampled_from([1e-2, 3e-2, 1e308]))


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(SCHEDULE_TRAINING, min_size=1, max_size=5),
       batch_size=st.sampled_from([8, 32]), cap_rows=st.sampled_from([1, 2, 3, 64]),
       one_per_stack=st.booleans(), seed=st.integers(0, 3))
def test_deferred_validation_equals_validating_every_epoch(tiny_ds, specs, batch_size, cap_rows,
                                                          one_per_stack, seed):
    # cap_rows rows per validation rollout (16 cells, one val trajectory);
    # one_per_stack steps each training as a stack of its own
    trainings = [
        surrogate.Training(init_params(TINY_ARCH, seed + g), [3 + (seed + g) % 4, 7, 9],
                           TrainConfig(epochs_max=epochs_max, min_epochs=min_epochs,
                                       patience=patience, early_stop=early_stop, lr=lr,
                                       grad_clip=1e308 if lr > 1 else 1e-2,
                                       batch_size=batch_size, seed=seed + g))
        for g, (epochs_max, min_epochs, patience, early_stop, lr) in enumerate(specs)]
    n_val = len(tiny_ds.split_indices("val"))
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(surrogate, "STACK_COLUMNS", cap_rows * tiny_ds.spatial_size * n_val)
        if one_per_stack:
            mp.setattr(surrogate, "TRAIN_STACK_COLUMNS", 1)
        rows = count_stack_rows(mp)
        stacked = train_stack(trainings, tiny_ds)
        stacked_rows = sum(rows)
        rows.clear()
        oracle = [train_validating_every_epoch(p, starts, tiny_ds, c)
                  for p, starts, c in trainings]
    # no slice trained a minibatch past its stop, and none stopped early
    assert stacked_rows == len(rows)
    for g, (got, want) in enumerate(zip(stacked, oracle)):
        if isinstance(want, TrainingDivergedError):
            assert isinstance(got, TrainingDivergedError) and str(got) == str(want), g
            continue
        (params, history), (ref_params, ref_history) = got, want
        assert np.array_equal(params.theta, ref_params.theta), g
        assert same_history(history, ref_history), g


def test_deferred_validation_of_stops_and_divergence_in_a_block(tiny_ds, monkeypatch):
    # slices that stop at different epochs, one that runs all its epochs and
    # one that diverges in epoch 2, after epoch 1 waits for its validation
    def cfg(**kw):
        return TrainConfig(**{"min_epochs": 1, "patience": 3, "batch_size": 32, "lr": 3e-2,
                              "grad_clip": 1e-2, **kw})

    trainings = [surrogate.Training(init_params(TINY_ARCH, g), [3 + g, 7, 9], c) for g, c in
                 enumerate([cfg(epochs_max=40, seed=0), cfg(epochs_max=40, seed=1, patience=2),
                            cfg(epochs_max=7, seed=2, patience=7),
                            cfg(epochs_max=9, lr=1e308, grad_clip=1e308, patience=5)])]
    rows = count_stack_rows(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = train_stack(trainings, tiny_ds)
        stacked_rows = sum(rows)
        rows.clear()
        oracle = [train_validating_every_epoch(p, starts, tiny_ds, c)
                  for p, starts, c in trainings]
    assert stacked_rows == len(rows)
    assert str(stacked[3]) == str(oracle[3]) == "non-finite loss at epoch 2"
    epochs = []
    for g in range(3):
        (params, history), (ref_params, ref_history) = stacked[g], oracle[g]
        assert np.array_equal(params.theta, ref_params.theta), g
        assert history == ref_history, g
        epochs.append(len(history))
    assert epochs[0] != epochs[1] and max(epochs[:2]) < 40  # both stopped early
    assert epochs[2] == 7


def test_bench_like_trainings_validate_in_one_rollout(tiny_ds, monkeypatch):
    # patience >= epochs_max: no slice can stop before epochs_max, so epochs
    # 5-10 of every slice validate in one stacked rollout
    rollouts = spy_calls(monkeypatch, surrogate, "_rollout")
    cfg = TrainConfig(epochs_max=10, min_epochs=5, patience=10, batch_size=8)
    trainings = [surrogate.Training(init_params(TINY_ARCH, g), [3 + g, 7, 9], replace(cfg, seed=g))
                 for g in range(3)]
    results = train_stack(trainings, tiny_ds)
    assert len(rollouts) == 1
    assert all(len(history) == 10 for _, history in results)


def test_train_stack_of_no_epochs_returns_each_init(tiny_ds):
    trainings = [surrogate.Training(init_params(TINY_ARCH, seed), starts, TrainConfig(epochs_max=0))
                 for seed, starts in ((0, [4, 5]), (1, [6, 8]))]
    results = train_stack(trainings, tiny_ds)
    assert [(p is t.params_init, h) for (p, h), t in zip(results, trainings)] == [(True, [])] * 2


def test_empty_train_stack_trains_nothing(tiny_ds):
    assert train_stack([], tiny_ds) == []


@pytest.mark.parametrize("other", [
    surrogate.Training(init_params(TINY_ARCH, 1), [4, 5, 6], TrainConfig()),  # more pairs
    surrogate.Training(init_params(TINY_ARCH, 1), [4, 5], TrainConfig(batch_size=32)),
    surrogate.Training(init_params(SurrogateArch(history_len=3, hidden=2, kernel_radius=1), 1),
                       [4, 5], TrainConfig()),
])
def test_train_stack_rejects_trainings_of_different_shapes(tiny_ds, other):
    first = surrogate.Training(init_params(TINY_ARCH, 0), [4, 5], TrainConfig())
    with pytest.raises(ValueError, match="stacked trainings must share"):
        train_stack([first, other], tiny_ds)


# ----------------------------------------------------------------------
# the step workspace
# ----------------------------------------------------------------------

def training_pairs(ds, count, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, ds.n_traj, count),
                            rng.integers(4, ds.t_count - 1, count)])


def stack_call(params, ds, ns, ks, h_eff, ws):
    """``_stack_loss_grad`` of the (G, B) pairs ``(ns, ks)`` in ``ws``, each
    rollout weighted as a call of its B pairs alone: (losses, grads)."""
    grads = np.zeros((len(ns), params.param_count))
    losses = surrogate._stack_loss_grad(params.theta, params.arch, ds, ns, ks, h_eff,
                                        ns.shape[1], grads, ws)
    return losses, grads


def minibatch(pairs):
    """A training minibatch as ``train_stack`` steps it: one rollout of one step."""
    return pairs[:, 0][None], pairs[:, 1][None], 1


def scoring_stack(ds, starts, traj, horizon=10):
    """Candidates ``starts`` of one effective horizon as a scoring chunk stacks them."""
    ks = np.repeat(np.asarray(starts)[:, None], traj.size, axis=1)
    return (np.broadcast_to(traj, ks.shape), ks,
            int(effective_horizon(horizon, ds.t_count, starts[0])))


def test_workspace_calls_equal_calls_without_one(grid_ds):
    # the shapes of a training run and of a scoring chunk, interleaved so
    # that every buffer is reused at a smaller and then a larger size
    ds = grid_ds
    params = init_params(default_arch(ds), 3)
    pairs = training_pairs(ds, 84)
    traj = np.arange(8)
    last = ds.t_count - 2
    val = ds.data[ds.split_indices("val"), :4]
    steps = ds.t_count - 4
    stacks = [
        minibatch(pairs[:64]),
        minibatch(pairs[64:]),  # the short last minibatch
        scoring_stack(ds, [last], traj),
        scoring_stack(ds, [40, 4, 60], traj),
        scoring_stack(ds, [last - 3], traj),
        None,  # a validation rollout
        minibatch(pairs[:64]),
    ]
    assert [h for *_, h in filter(None, stacks)] == [1, 1, 1, 10, 4, 1]
    ws = surrogate._Workspace()
    got = [surrogate._rollout(params.theta, params.arch, val, steps, ws)[0] if stack is None
           else stack_call(params, ds, *stack, ws) for stack in stacks]
    for stack, result in zip(stacks, got):
        if stack is None:
            assert np.array_equal(result, rollout_batch(params, val, steps))
            continue
        ns, ks, h_eff = stack
        for g, (loss, grad) in enumerate(zip(*result)):
            ref_loss, ref_grad = rollout_loss_grad(params, np.column_stack([ns[g], ks[g]]),
                                                   h_eff, ds)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


def test_workspace_results_survive_later_calls(grid_ds):
    ds = grid_ds
    params = init_params(default_arch(ds), 4)
    other = init_params(default_arch(ds), 5)
    pairs = training_pairs(ds, 64)
    traj = np.arange(8)
    ws = surrogate._Workspace()

    def later_calls():
        surrogate._rollout(other.theta, other.arch, ds.data[3:6, :4], 20, ws)
        stack_call(other, ds, *minibatch(pairs[::-1]), ws)
        stack_call(other, ds, *scoring_stack(ds, [30] * 3, traj), ws)

    later_calls()  # every buffer is at its largest size from here on
    preds = surrogate._rollout(params.theta, params.arch, ds.data[:3, :4], 20, ws)
    _, grad = stack_call(params, ds, *minibatch(pairs), ws)
    kept_preds, kept_grad = preds.copy(), grad.copy()
    later_calls()
    assert np.array_equal(preds, kept_preds)
    assert np.array_equal(grad, kept_grad)


def spy_workspaces(monkeypatch, module):
    """Make ``module._Workspace`` record a weak reference to each workspace it makes."""
    made = []

    class Spy(surrogate._Workspace):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(module, "_Workspace", Spy)
    return made


def spy_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to record the workspace (the last argument) of each
    call with its buffer count on entry."""
    handed_out = []
    real = getattr(module, name)

    def spy(*args):
        ws = args[-1]
        handed_out.append((id(ws), len(ws.buffers)))
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return handed_out


def test_train_uses_one_workspace_and_releases_it(tiny_ds, monkeypatch):
    made = spy_workspaces(monkeypatch, surrogate)
    steps = spy_calls(monkeypatch, surrogate, "_stack_loss_grad")
    rollouts = spy_calls(monkeypatch, surrogate, "_rollout")
    cfg = TrainConfig(epochs_max=4, min_epochs=1, batch_size=16, seed=1)
    train(init_params(TINY_ARCH, 2), [4, 6, 8], tiny_ds, cfg)
    # patience 5 leaves epoch 4 the first possible stop, so epochs 1-4
    # validate in one rollout; minibatches and that rollout all ran in the
    # one workspace made, which held buffers from the second call on and is
    # freed on return
    assert len(steps) > 4 and len(rollouts) == 1
    assert len(made) == 1
    assert len({ws for ws, _ in steps + rollouts}) == 1
    assert steps[0][1] == 0
    assert all(held > 0 for _, held in steps[1:] + rollouts)
    assert made[0]() is None


def test_start_loss_grads_uses_one_workspace(grid_ds, monkeypatch):
    made = spy_workspaces(monkeypatch, surrogate)
    calls = spy_calls(monkeypatch, surrogate, "_stack_loss_grad")
    params = init_params(default_arch(grid_ds), 6)
    traj = np.arange(8)
    indices = np.arange(4, grid_ds.t_count - 1)
    stack = surrogate.stack_size(grid_ds.spatial_size * traj.size)
    losses = np.zeros(indices.size)
    grads = np.zeros((indices.size, params.param_count))
    # two full stacks of the whole horizon, then three candidates, each with
    # a horizon of its own: five calls
    whole = np.flatnonzero(effective_horizon(10, grid_ds.t_count, indices) == 10)
    chunk = slice(whole[-1] - 2 * stack + 1, whole[-1] + 4)
    surrogate.start_loss_grads(params, grid_ds, traj, indices[chunk], 10, losses[chunk],
                               grads[chunk])
    assert len(calls) == 5
    assert len(made) == 1
    assert len({ws for ws, _ in calls}) == 1
    assert all(held > 0 for _, held in calls[1:])
    assert made[0]() is None


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage, as Linux reports them")
def test_training_shape_calls_fault_in_no_pages_in_a_workspace(grid_ds):
    import resource

    params = init_params(default_arch(grid_ds), 6)
    batch = minibatch(training_pairs(grid_ds, 64))
    ws = surrogate._Workspace()
    calls = 50
    for _ in range(3):
        stack_call(params, grid_ds, *batch, ws)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        stack_call(params, grid_ds, *batch, ws)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults with getrusage, as Linux reports them")
def test_scoring_chunk_calls_fault_in_no_pages_in_a_workspace(grid_ds):
    import resource

    params = init_params(default_arch(grid_ds), 6)
    traj = np.arange(8)
    most = surrogate.stack_size(grid_ds.spatial_size * traj.size)
    assert most > 1
    stack = scoring_stack(grid_ds, np.arange(24, 24 + most), traj)  # one full-horizon stack
    ws = surrogate._Workspace()
    calls = 50
    for _ in range(3):
        stack_call(params, grid_ds, *stack, ws)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        stack_call(params, grid_ds, *stack, ws)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 20


# ----------------------------------------------------------------------
# parameters and checkpoints
# ----------------------------------------------------------------------

def test_param_count_matches_arch():
    arch = SurrogateArch(history_len=4, hidden=8, kernel_radius=2, channels=1)
    k = arch.kernel_size
    expected = 8 * 4 * k + 8 + 1 * 8 * k + 1
    assert arch.param_count() == expected
    assert init_params(arch, 0).param_count == expected


@pytest.mark.parametrize("arch", [TINY_ARCH, SurrogateArch(channels=2, padding="reflect")])
def test_init_params_draws_w1_then_w2_in_layout_order(arch):
    rng = np.random.default_rng(7)
    k = arch.kernel_size
    w1 = rng.normal(0.0, 1.0 / np.sqrt(arch.in_channels * k), arch.hidden * arch.in_channels * k)
    w2 = rng.normal(0.0, 0.05 / np.sqrt(arch.hidden * k), arch.channels * arch.hidden * k)
    views = surrogate._unpack(init_params(arch, 7).theta, arch)
    assert np.array_equal(views.w1.ravel(), w1)
    assert np.array_equal(views.w2.ravel(), w2)
    assert not views.b1.any() and not views.b2.any()


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


def test_smaller_checkpoint_overwrites_a_larger_one_in_place(tmp_path):
    small = init_params(TINY_ARCH, 17)
    save_params(init_params(SurrogateArch(history_len=4, hidden=8), 3), tmp_path / "ckpt")
    inode = (tmp_path / "ckpt.f64").stat().st_ino
    save_params(small, tmp_path / "ckpt", seed=17, epoch=2)
    back, header = load_params(tmp_path / "ckpt")
    assert np.array_equal(back.theta, small.theta) and back.arch == small.arch
    assert (header["seed"], header["epoch"]) == (17, 2)
    save_params(small, tmp_path / "fresh", seed=17, epoch=2)
    for suffix in (".json", ".f64"):
        assert (tmp_path / f"ckpt{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()
    assert (tmp_path / "ckpt.f64").stat().st_size == 8 * TINY_ARCH.param_count()
    assert (tmp_path / "ckpt.f64").stat().st_ino == inode


def test_dotted_checkpoint_stems_name_their_own_pairs(tmp_path):
    first, second = init_params(TINY_ARCH, 1), init_params(TINY_ARCH, 2)
    assert save_params(first, tmp_path / "ckpt_0.1") == tmp_path / "ckpt_0.1"
    save_params(second, tmp_path / "ckpt_0.2")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ckpt_0.1.f64", "ckpt_0.1.json", "ckpt_0.2.f64", "ckpt_0.2.json"]
    assert np.array_equal(load_params(tmp_path / "ckpt_0.1")[0].theta, first.theta)
    assert np.array_equal(load_params(tmp_path / "ckpt_0.2.f64")[0].theta, second.theta)


def test_flipped_checkpoint_byte_fails_the_checksum(tmp_path):
    save_params(init_params(TINY_ARCH, 17), tmp_path / "ckpt")
    blob = bytearray((tmp_path / "ckpt.f64").read_bytes())
    blob[0] ^= 0x01
    (tmp_path / "ckpt.f64").write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_params(tmp_path / "ckpt")


def test_checkpoint_header_without_a_checksum_loads_unchecked(tmp_path):
    params = init_params(TINY_ARCH, 17)
    save_params(params, tmp_path / "ckpt")
    header = json.loads((tmp_path / "ckpt.json").read_text())
    assert header.pop("payload_crc32") == zlib.crc32((tmp_path / "ckpt.f64").read_bytes())
    (tmp_path / "ckpt.json").write_text(json.dumps(header))
    assert np.array_equal(load_params(tmp_path / "ckpt")[0].theta, params.theta)


def test_checkpoint_with_non_finite_clamp_rejected(tmp_path):
    save_params(init_params(TINY_ARCH, 17), tmp_path / "ckpt")
    header_path = tmp_path / "ckpt.json"
    for clamp in (float("nan"), float("inf")):
        header = json.loads(header_path.read_text())
        header["arch"]["clamp"] = clamp
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="clamp must be finite and positive"):
            load_params(tmp_path / "ckpt")


def _corrupt_header(stem, edit):
    header = json.loads(stem.with_suffix(".json").read_text())
    edit(header)
    stem.with_suffix(".json").write_text(json.dumps(header))


@pytest.mark.parametrize("corruption", [
    "malformed_json", "non_object", "missing_arch", "extra_arch_key", "string_hidden",
    "truncated_payload",
])
def test_bad_checkpoint_raises_checkpoint_format_error(tmp_path, corruption):
    stem = tmp_path / "ckpt"
    save_params(init_params(TINY_ARCH, 17), stem)
    if corruption == "malformed_json":
        stem.with_suffix(".json").write_text('{"arch": ')
    elif corruption == "non_object":
        stem.with_suffix(".json").write_text("[1, 2]")
    elif corruption == "missing_arch":
        _corrupt_header(stem, lambda h: h.pop("arch"))
    elif corruption == "extra_arch_key":
        _corrupt_header(stem, lambda h: h["arch"].update(width=3))
    elif corruption == "string_hidden":
        _corrupt_header(stem, lambda h: h["arch"].update(hidden="8"))
    else:
        stem.with_suffix(".f64").write_bytes(stem.with_suffix(".f64").read_bytes()[:-3])
    with pytest.raises(CheckpointFormatError):
        load_params(stem)


# ----------------------------------------------------------------------
# checkpoint fuzz: every corrupt pair loads or raises CheckpointFormatError
# ----------------------------------------------------------------------

_FUZZ_PARAMS = init_params(TINY_ARCH, 23)
_PAYLOAD_BYTES = 8 * TINY_ARCH.param_count()

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_arch_keys = st.sampled_from(
    ["history_len", "hidden", "kernel_radius", "channels", "padding", "clamp", "width"]
)
_mutations = st.one_of(
    st.tuples(st.just("truncate_payload"), st.integers(0, _PAYLOAD_BYTES - 1)),
    st.tuples(st.just("extend_payload"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip_payload"), st.tuples(st.integers(0, _PAYLOAD_BYTES - 1),
                                                  st.integers(1, 255))),
    st.tuples(st.just("truncate_header"), st.integers(0, 200)),
    st.tuples(st.just("arch_field"), st.tuples(
        _arch_keys, st.integers(-2, 6) | st.sampled_from(["periodic", "reflect"]) | _json_values
    )),
    st.tuples(st.just("delete_arch_field"), _arch_keys),
    st.tuples(st.just("arch"), _json_values),
    st.tuples(st.just("format_version"), st.integers(0, 2) | _json_values),
    st.tuples(st.just("payload_crc32"), _json_values),
    st.tuples(st.just("delete"), st.sampled_from(
        ["format_version", "arch", "seed", "epoch", "payload_crc32"])),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutations=st.lists(_mutations, min_size=1, max_size=3))
def test_checkpoint_fuzz_raises_only_checkpoint_format_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "ckpt"
        save_params(_FUZZ_PARAMS, stem)
        header_text = stem.with_suffix(".json").read_text()
        header = json.loads(header_text)
        payload = bytearray(stem.with_suffix(".f64").read_bytes())
        for op, arg in mutations:
            if op == "truncate_payload":
                payload = payload[:arg]
            elif op == "extend_payload":
                payload += arg
            elif op == "flip_payload":
                if arg[0] < len(payload):
                    payload[arg[0]] ^= arg[1]
            elif op == "truncate_header":
                header = None
                header_text = header_text[:arg]
            elif header is None:
                continue
            elif op == "arch_field" and isinstance(header.get("arch"), dict):
                header["arch"][arg[0]] = arg[1]
            elif op == "delete_arch_field" and isinstance(header.get("arch"), dict):
                header["arch"].pop(arg, None)
            elif op == "delete":
                header.pop(arg, None)
            elif op in ("arch", "format_version", "payload_crc32"):
                header[op] = arg
        if header is not None:
            header_text = json.dumps(header)
        stem.with_suffix(".json").write_text(header_text)
        stem.with_suffix(".f64").write_bytes(bytes(payload))
        try:
            params, _ = load_params(stem)
        except CheckpointFormatError:
            return
        # whatever loads is usable: finite parameters that match the header
        assert params.theta.size == params.arch.param_count()
        assert np.all(np.isfinite(params.theta))
        assert np.isfinite(params.arch.clamp) and params.arch.clamp > 0.0
