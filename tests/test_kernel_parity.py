"""Parity of the channel-major GEMM step against the previous kernels.

The oracle below is the surrogate's earlier step, kept here without its
input checks: per-trajectory matmuls over stacked windows, an ``einsum``
weight gradient, ``np.add.at`` for the padding fold, and a frame list that
is re-stacked every step. Both compute the same sums in a different order,
so they agree to pinned tolerances rather than bit for bit.
"""

from typing import NamedTuple

import numpy as np
import pytest

from gits.pde_data import SolverConfig, TrajectoryDataset, generate_dataset
from gits.surrogate import (
    NRMSE_EPS,
    SurrogateArch,
    effective_horizon,
    init_params,
    rollout_batch,
    rollout_loss_grad,
)

LOSS_RTOL = 1e-13  # relative to the loss
GRAD_TOL = 1e-12  # relative to the largest gradient entry
ROLLOUT_RTOL = 1e-10  # relative to the largest predicted value, over 97 steps


# ----------------------------------------------------------------------
# oracle: the previous (B, C, X) kernels
# ----------------------------------------------------------------------

class _Views(NamedTuple):
    w1: np.ndarray  # (hidden, in_channels, k)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (channels, hidden, k)
    b2: np.ndarray  # (channels,)


def _unpack(theta, arch):
    k = arch.kernel_size
    n1 = arch.hidden * arch.in_channels * k
    n2 = n1 + arch.hidden
    n3 = n2 + arch.channels * arch.hidden * k
    return _Views(
        w1=theta[:n1].reshape(arch.hidden, arch.in_channels, k),
        b1=theta[n1:n2],
        w2=theta[n2:n3].reshape(arch.channels, arch.hidden, k),
        b2=theta[n3:],
    )


def _pack(w1, b1, w2, b2):
    return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])


def _pad_index(x_len, r, padding):
    if padding == "periodic":
        return np.arange(-r, x_len + r) % x_len
    return np.pad(np.arange(x_len), r, mode="reflect")


def _conv_forward(z, w, b, idx, r):
    """z: (B, Cin, X); w: (Cout, Cin, K). Returns (out, windows)."""
    x_len = z.shape[2]
    k = 2 * r + 1
    zp = z[:, :, idx]
    win = np.stack([zp[:, :, j : j + x_len] for j in range(k)], axis=2)
    win2 = win.reshape(z.shape[0], -1, x_len)  # (B, Cin*K, X)
    out = np.matmul(w.reshape(w.shape[0], -1), win2) + b[None, :, None]
    return out, win2


def _conv_backward(g_out, win2, w, idx, r, x_len, c_in):
    """Backward of _conv_forward. Returns (g_w, g_b, g_z)."""
    b_sz = g_out.shape[0]
    k = 2 * r + 1
    w2d = w.reshape(w.shape[0], -1)
    g_w = np.einsum("box,bcx->oc", g_out, win2).reshape(w.shape)
    g_b = g_out.sum(axis=(0, 2))
    g_win2 = np.matmul(w2d.T, g_out)  # (B, Cin*K, X)
    g_win = g_win2.reshape(b_sz, c_in, k, x_len)
    g_zp = np.zeros((b_sz, c_in, x_len + 2 * r))
    for j in range(k):
        g_zp[:, :, j : j + x_len] += g_win[:, :, j, :]
    # fold padded-position gradients back onto source cells
    g_zt = np.zeros((x_len, b_sz, c_in))
    np.add.at(g_zt, idx, g_zp.transpose(2, 0, 1))
    return g_w, g_b, g_zt.transpose(1, 2, 0)


class _StepTape(NamedTuple):
    win1: np.ndarray
    h: np.ndarray
    win2: np.ndarray
    mask: np.ndarray


def _step_forward(views, arch, window):
    """window: (B, L, C, X) -> prediction (B, C, X) plus tape."""
    b_sz, _, _, x_len = window.shape
    idx = _pad_index(x_len, arch.kernel_radius, arch.padding)
    z = window.reshape(b_sz, arch.in_channels, x_len)
    a1, win1 = _conv_forward(z, views.w1, views.b1, idx, arch.kernel_radius)
    h = np.tanh(a1)
    delta, win2 = _conv_forward(h, views.w2, views.b2, idx, arch.kernel_radius)
    raw = window[:, -1] + delta
    pred = np.clip(raw, -arch.clamp, arch.clamp)
    mask = np.abs(raw) < arch.clamp
    return pred, _StepTape(win1, h, win2, mask)


def _step_backward(g_pred, tape, views, arch, x_len):
    """Returns (g_w1, g_b1, g_w2, g_b2, g_window) for one step."""
    idx = _pad_index(x_len, arch.kernel_radius, arch.padding)
    g_raw = g_pred * tape.mask
    g_w2, g_b2, g_h = _conv_backward(
        g_raw, tape.win2, views.w2, idx, arch.kernel_radius, x_len, arch.hidden
    )
    g_a1 = g_h * (1.0 - tape.h**2)
    g_w1, g_b1, g_z = _conv_backward(
        g_a1, tape.win1, views.w1, idx, arch.kernel_radius, x_len, arch.in_channels
    )
    g_window = g_z.reshape(g_z.shape[0], arch.history_len, arch.channels, x_len)
    g_window = g_window.copy()
    g_window[:, -1] += g_raw
    return g_w1, g_b1, g_w2, g_b2, g_window


def _advance(views, arch, frames, steps, tapes=None):
    for _ in range(steps):
        window = np.stack(frames[-arch.history_len :], axis=1)
        pred, tape = _step_forward(views, arch, window)
        frames.append(pred)
        if tapes is not None:
            tapes.append(tape)


def oracle_rollout_batch(params, histories, steps):
    histories = np.asarray(histories, dtype=np.float64)
    arch = params.arch
    views = _unpack(params.theta, arch)
    frames = [histories[:, i].transpose(0, 2, 1) for i in range(arch.history_len)]
    _advance(views, arch, frames, steps)
    return np.stack(frames[arch.history_len :], axis=1).transpose(0, 1, 3, 2)


def oracle_rollout_loss_grad(params, batch, horizon, ds):
    arch = params.arch
    pairs = list(batch)
    views = _unpack(params.theta, arch)
    data = ds.data
    n_total = len(pairs)
    x_len = ds.spatial_size
    length = arch.history_len

    groups = {}
    for n, k in pairs:
        groups.setdefault(effective_horizon(horizon, ds.t_count, k), []).append((n, k))

    loss = 0.0
    g_w1 = np.zeros_like(views.w1)
    g_b1 = np.zeros_like(views.b1)
    g_w2 = np.zeros_like(views.w2)
    g_b2 = np.zeros_like(views.b2)

    for h_eff, members in groups.items():
        ns, ks = np.array(members).T
        hist = data[ns[:, None], ks[:, None] + np.arange(1 - length, 1)]  # (B, L, X, C)
        targets = data[ns[:, None], ks[:, None] + np.arange(1, h_eff + 1)]  # (B, H, X, C)
        hist = hist.transpose(0, 1, 3, 2).astype(np.float64, order="C")  # (B, L, C, X)
        targets = targets.transpose(1, 0, 3, 2).astype(np.float64, order="C")  # (H, B, C, X)

        frames = [hist[:, i] for i in range(length)]
        tapes = []
        _advance(views, arch, frames, h_eff, tapes)

        denom = (np.sqrt(np.sum(targets**2, axis=(2, 3))) + NRMSE_EPS) ** 2  # (H, B)
        seeds = []
        for h in range(h_eff):
            diff = frames[length + h] - targets[h]
            sq = np.sum(diff**2, axis=(1, 2))
            loss += float(np.sum(sq / denom[h])) / (n_total * h_eff)
            seeds.append(2.0 * diff / denom[h][:, None, None] / (n_total * h_eff))

        g_frames = [None] * (length + h_eff)
        for h in range(h_eff, 0, -1):
            g_pred = seeds[h - 1]
            carried = g_frames[length + h - 1]
            if carried is not None:
                g_pred = g_pred + carried
            d_w1, d_b1, d_w2, d_b2, g_window = _step_backward(
                g_pred, tapes[h - 1], views, arch, x_len
            )
            g_w1 += d_w1
            g_b1 += d_b1
            g_w2 += d_w2
            g_b2 += d_b2
            for j in range(length):
                src = h - 1 + j
                if src >= length:
                    if g_frames[src] is None:
                        g_frames[src] = g_window[:, j].copy()
                    else:
                        g_frames[src] += g_window[:, j]

    return loss, _pack(g_w1, g_b1, g_w2, g_b2)


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def datasets():
    """One 101-snapshot diffusion dataset per boundary, keyed by padding."""
    out = {}
    for boundary, padding in (("periodic", "periodic"), ("neumann", "reflect")):
        cfg = SolverConfig(family="diffusion1d", boundary=boundary, spatial_size=64,
                           t_count=101, seed=7)
        out[padding] = generate_dataset(cfg, 30)
    return out


def two_channel_dataset():
    rng = np.random.default_rng(3)
    split = ("train",) * 4 + ("val", "test")
    return TrajectoryDataset(
        data=rng.normal(size=(6, 24, 16, 2)).astype(np.float32),
        split=split,
        norm_mean=np.zeros(2),
        norm_std=np.ones(2),
        meta={"boundary": "periodic"},
    )


def assert_loss_grad_parity(params, pairs, horizon, ds):
    loss, grad = rollout_loss_grad(params, pairs, horizon, ds)
    ref_loss, ref_grad = oracle_rollout_loss_grad(params, pairs, horizon, ds)
    assert abs(loss - ref_loss) <= LOSS_RTOL * abs(ref_loss)
    assert np.max(np.abs(grad - ref_grad)) <= GRAD_TOL * np.max(np.abs(ref_grad))


def assert_rollout_parity(params, histories, steps):
    preds = rollout_batch(params, histories, steps)
    ref = oracle_rollout_batch(params, histories, steps)
    assert preds.shape == ref.shape
    assert np.max(np.abs(preds - ref)) <= ROLLOUT_RTOL * np.max(np.abs(ref))


def training_pairs(ds, seed, count=64):
    rng = np.random.default_rng(seed)
    ns = rng.integers(0, ds.n_traj, count)
    ks = rng.integers(4, ds.t_count - 1, count)
    return [(int(n), int(k)) for n, k in zip(ns, ks)]


@pytest.mark.parametrize("padding", ["periodic", "reflect"])
def test_training_shape_matches_oracle(datasets, padding):
    ds = datasets[padding]
    params = init_params(SurrogateArch(padding=padding), 1)
    assert_loss_grad_parity(params, training_pairs(ds, 2), 1, ds)


@pytest.mark.parametrize("padding", ["periodic", "reflect"])
def test_scoring_shape_matches_oracle(datasets, padding):
    ds = datasets[padding]
    params = init_params(SurrogateArch(padding=padding), 3)
    for k in (4, 50, 90):
        assert_loss_grad_parity(params, [(n, k) for n in range(8)], 10, ds)


@pytest.mark.parametrize("padding", ["periodic", "reflect"])
def test_long_rollout_matches_oracle(datasets, padding):
    ds = datasets[padding]
    params = init_params(SurrogateArch(padding=padding), 4)
    assert_rollout_parity(params, ds.data[:6, :4], 97)


@pytest.mark.parametrize("padding", ["periodic", "reflect"])
def test_mixed_start_batch_truncated_at_the_end_matches_oracle(datasets, padding):
    ds = datasets[padding]
    params = init_params(SurrogateArch(padding=padding), 5)
    last = ds.t_count - 2
    pairs = [(0, 4), (3, last), (5, last - 3), (1, 40), (2, last), (7, last - 7), (4, 60)]
    assert len({effective_horizon(10, ds.t_count, k) for _, k in pairs}) == 4
    assert_loss_grad_parity(params, pairs, 10, ds)


def test_two_channel_dataset_matches_oracle():
    ds = two_channel_dataset()
    params = init_params(SurrogateArch(history_len=3, hidden=5, channels=2), 6)
    pairs = [(0, 3), (1, 10), (2, ds.t_count - 2), (3, 7)]
    assert_loss_grad_parity(params, pairs, 4, ds)
    assert_rollout_parity(params, ds.data[:, :3], ds.t_count - 3)


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("padding", ["periodic", "reflect"])
def test_small_kernel_radius_matches_oracle(datasets, padding, radius):
    ds = datasets[padding]
    params = init_params(SurrogateArch(kernel_radius=radius, padding=padding), 7)
    assert_loss_grad_parity(params, training_pairs(ds, 8, count=16), 3, ds)
    assert_rollout_parity(params, ds.data[:3, :4], 97)


# ----------------------------------------------------------------------
# the batch argument: a list of tuples or an (N, 2) int array
# ----------------------------------------------------------------------

def test_pair_list_and_pair_array_give_equal_results(datasets):
    ds = datasets["periodic"]
    params = init_params(SurrogateArch(), 9)
    pairs = training_pairs(ds, 10, count=20)
    loss_list, grad_list = rollout_loss_grad(params, pairs, 3, ds)
    loss_array, grad_array = rollout_loss_grad(params, np.array(pairs, dtype=np.int64), 3, ds)
    assert loss_list == loss_array
    assert np.array_equal(grad_list, grad_array)


@pytest.mark.parametrize("batch", [
    np.array([4, 5, 6]),
    np.zeros((2, 3), dtype=int),
    np.zeros((2, 2, 1), dtype=int),
    np.array([[0.0, 4.0]]),
    np.array([[True, True]]),
    [(0, 4, 1)],
])
def test_misshapen_or_non_integer_batch_rejected(datasets, batch):
    ds = datasets["periodic"]
    with pytest.raises(ValueError, match="integer pairs"):
        rollout_loss_grad(init_params(SurrogateArch(), 0), batch, 3, ds)
