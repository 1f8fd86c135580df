"""Micro autoregressive surrogate with exact reverse-mode parameter gradients.

The model is a two-layer 1D convolutional residual network: the L most
recent frames are stacked as input channels, passed through conv -> tanh ->
conv to produce a per-cell increment, which is added to the last frame and
clamped elementwise in normalized space. Padding is periodic or reflective,
matching the dataset boundary.

Everything runs in float64 numpy. Backpropagation through arbitrary rollout
lengths is written by hand (the parameter count is small enough to validate
every coordinate against central finite differences). The clamp derivative
is pass-through strictly inside the bound and zero outside.

The short-rollout loss follows the frame-relative form

    loss = mean over pairs of (1/H) * sum_h NRMSE(pred_{k+h}, true_{k+h})^2
    NRMSE(a, b) = ||a - b||_2 / (||b||_2 + 1e-12)

with norms over all cells and channels of one frame of one trajectory and
H = min(horizon, t_count - 1 - k) truncated at the end of the time axis.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import contextlib
import contextvars
import functools
import math

import numpy as np

from .pde_data import TrajectoryDataset, read_header, write_pair

NRMSE_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PADDINGS = ("periodic", "reflect")
CHECKPOINT_FORMAT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


class CheckpointFormatError(ValueError):
    """Malformed or inconsistent checkpoint pair (``<stem>.json`` + ``<stem>.f64``)."""


@dataclass(frozen=True)
class SurrogateArch:
    """Architecture descriptor; fully determines the parameter layout."""

    history_len: int = 4
    hidden: int = 8
    kernel_radius: int = 2
    channels: int = 1
    padding: str = "periodic"
    clamp: float = 10.0

    def __post_init__(self):
        if self.history_len < 1 or self.hidden < 1 or self.kernel_radius < 0:
            raise ValueError("invalid architecture sizes")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.padding not in PADDINGS:
            raise ValueError(f"unknown padding {self.padding!r}")
        if not (np.isfinite(self.clamp) and self.clamp > 0.0):
            raise ValueError(f"clamp must be finite and positive, got {self.clamp}")

    @property
    def kernel_size(self) -> int:
        return 2 * self.kernel_radius + 1

    @property
    def in_channels(self) -> int:
        return self.history_len * self.channels

    def param_count(self) -> int:
        k = self.kernel_size
        return (
            self.hidden * self.in_channels * k
            + self.hidden
            + self.channels * self.hidden * k
            + self.channels
        )


@dataclass(frozen=True, eq=False)
class SurrogateParams:
    """Flat float64 parameter vector plus its architecture."""

    theta: np.ndarray
    arch: SurrogateArch

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (self.arch.param_count(),):
            raise ValueError(
                f"theta has {theta.size} entries, arch requires {self.arch.param_count()}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        object.__setattr__(self, "theta", theta)

    @property
    def param_count(self) -> int:
        return self.theta.size


class _Views(NamedTuple):
    w1: np.ndarray  # (hidden, in_channels * k), columns ordered (in_channel, tap)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (channels, hidden * k)
    b2: np.ndarray  # (channels,)


def _unpack(theta: np.ndarray, arch: SurrogateArch) -> _Views:
    """Views into ``theta``; writing through them writes into ``theta``."""
    k = arch.kernel_size
    n1 = arch.hidden * arch.in_channels * k
    n2 = n1 + arch.hidden
    n3 = n2 + arch.channels * arch.hidden * k
    return _Views(
        w1=theta[:n1].reshape(arch.hidden, arch.in_channels * k),
        b1=theta[n1:n2],
        w2=theta[n2:n3].reshape(arch.channels, arch.hidden * k),
        b2=theta[n3:],
    )


def _pack(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])


def init_params(arch: SurrogateArch, seed: int) -> SurrogateParams:
    """Small random initialization; the output layer starts near (not at) zero."""
    rng = np.random.default_rng(seed)
    k = arch.kernel_size
    w1 = rng.normal(0.0, 1.0 / np.sqrt(arch.in_channels * k), (arch.hidden, arch.in_channels, k))
    b1 = np.zeros(arch.hidden)
    w2 = rng.normal(0.0, 0.05 / np.sqrt(arch.hidden * k), (arch.channels, arch.hidden, k))
    b2 = np.zeros(arch.channels)
    return SurrogateParams(theta=_pack(w1, b1, w2, b2), arch=arch)


# ----------------------------------------------------------------------
# one step in the channel-major layout, with its exact backward pass
# ----------------------------------------------------------------------
#
# A rollout of B trajectories lives in one frame buffer shaped
# (L + H, C, X, B): frames 0..L-1 hold the history and step t writes its
# prediction into frame L + t in place. Frames t..t+L-1 of the buffer are
# the step's (L*C, X*B) input without a copy. Each convolution gathers its
# (Cin*K, X*B) window matrix with one flat index and is one GEMM,
# W @ windows. Its backward pass is two more GEMMs, g_out @ windows.T for
# the weights and W.T @ g_out for the windows, and an overlap-add of the
# window gradient back onto the input rows. The batch is the fastest axis,
# so each tap of the overlap-add is one contiguous block of X*B values.
#
# The window matrices, activations and gradient buffers of a rollout's
# steps are written in place into buffers of a _Workspace, sized once per
# rollout. Inside _step_workspace() one workspace serves every call, so a
# loop of calls writes into the same pages again instead of having fresh
# ones mapped and faulted in on every call.

class _Workspace:
    """Named flat buffers; ``get`` hands out a view of the first elements of one.

    A buffer is reallocated only when a larger view is asked for, so a loop
    of calls with the same shapes writes into the same memory every time.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_active_workspace = contextvars.ContextVar("surrogate_workspace", default=None)


@contextlib.contextmanager
def _step_workspace():
    """Scope in which every surrogate call reuses one workspace.

    :func:`train` and a scoring chunk (``pilot_scoring._chunk_gradients``)
    each run their loop inside one; its buffers are dropped when the scope
    exits. A scope opened inside another uses the outer one's workspace.
    Outside any scope each call uses a workspace of its own.
    """
    if _active_workspace.get() is not None:
        yield
        return
    ws = _Workspace()
    token = _active_workspace.set(ws)
    try:
        yield
    finally:
        _active_workspace.reset(token)
        ws.buffers.clear()


def _workspace() -> _Workspace:
    ws = _active_workspace.get()
    return _Workspace() if ws is None else ws


@functools.lru_cache(maxsize=8)
def _pad_index(x_len: int, r: int, padding: str) -> np.ndarray:
    """Source cell of each of the X + 2r positions of a padded row."""
    if padding == "periodic":
        idx = np.arange(-r, x_len + r) % x_len
    else:
        idx = np.pad(np.arange(x_len), r, mode="reflect")
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=16)
def _window_index(x_len: int, r: int, padding: str, b_sz: int) -> np.ndarray:
    """Flat (K, X*B) gather index: entry (j, x*B + b) is pad[x + j]*B + b."""
    k = 2 * r + 1
    taps = _pad_index(x_len, r, padding)[np.arange(k)[:, None] + np.arange(x_len)]
    idx = (taps[:, :, None] * b_sz + np.arange(b_sz)).reshape(k, x_len * b_sz)
    idx.flags.writeable = False
    return idx


def _windows(z: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """(Cin, X*B) rows -> (Cin*K, X*B) window matrix in ``out``, rows ordered (channel, tap).

    Every index is in range, so ``mode="wrap"`` never wraps; unlike the
    default mode it lets ``take`` write into ``out`` without a bounce buffer.
    """
    z.take(idx, axis=1, out=out.reshape(z.shape[0], *idx.shape), mode="wrap")


def _adjoint_buffers(ws: _Workspace, name: str, w: np.ndarray, k: int, x_len: int,
                     b_sz: int) -> tuple[np.ndarray, np.ndarray]:
    """The padded rows and the scratch of :func:`_windows_adjoint` for ``w`` (Cout, Cin*K)."""
    c_in = w.shape[1] // k
    scratch = (c_in, x_len, b_sz) if w.shape[0] == 1 else (c_in * k, x_len * b_sz)
    return (ws.get(f"{name}.g_pad", (c_in, x_len + k - 1, b_sz)),
            ws.get(f"{name}.scratch", scratch))


def _windows_adjoint(w: np.ndarray, g: np.ndarray, pad: np.ndarray, g_pad: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_windows` applied to ``w.T @ g``: (Cin, X*B), a view into ``g_pad``.

    The K taps of the window gradient are overlap-added into the padded
    rows ``g_pad`` (Cin, X + 2r, B); then each of the 2r padded edge columns
    is added onto the cell it was read from. With one row in ``w`` the
    product is an outer product: tap j adds the broadcast products
    ``w[0, (c, j)] * g``, formed in ``scratch`` (Cin, X, B), and the
    (Cin*K, X*B) product is never written. Otherwise ``scratch`` receives
    that product. Both paths add the same products in the same order.
    """
    c_in, _, b_sz = g_pad.shape
    x_len = g.shape[1] // b_sz
    r = (pad.size - x_len) // 2
    k = 2 * r + 1
    g_pad.fill(0.0)
    if w.shape[0] == 1:
        w_taps = w.reshape(c_in, k, 1, 1)
        g_cells = g.reshape(x_len, b_sz)
        for j in range(k):
            g_pad[:, j : j + x_len] += np.multiply(w_taps[:, j], g_cells, out=scratch)
    else:
        g_win = np.matmul(w.T, g, out=scratch).reshape(c_in, k, x_len, b_sz)
        for j in range(k):
            g_pad[:, j : j + x_len] += g_win[:, j]
    for p in (*range(r), *range(x_len + r, x_len + 2 * r)):
        g_pad[:, r + pad[p]] += g_pad[:, p]
    return g_pad.reshape(c_in, -1)[:, r * b_sz : (r + x_len) * b_sz]


class _Tape(NamedTuple):
    """Saved activations of a rollout's steps; slot t holds step t."""

    win1: np.ndarray  # (slots, L*C*K, X*B)
    h: np.ndarray  # (slots, hidden, X*B)
    win2: np.ndarray  # (slots, hidden*K, X*B)
    mask: np.ndarray  # (slots, C, X*B) bool: the output is inside the clamp


class _Backward(NamedTuple):
    """Buffers of the backward pass of one rollout's steps."""

    g_raw: np.ndarray  # (C, X*B)
    g_a1: np.ndarray  # (hidden, X*B)
    adj2: tuple  # output layer: (g_pad, scratch) of _windows_adjoint
    adj1: tuple  # first layer


def _step(views: _Views, arch: SurrogateArch, buf: np.ndarray, t: int, idx,
          win1, h, win2, raw, mask=None):
    """Write step t's prediction into frame L + t of ``buf`` (L + H, C, X, B).

    ``win1``, ``h``, ``win2`` and ``raw`` receive the step's window matrices,
    hidden activations and unclamped output; ``mask``, when given, receives
    where the output is inside the clamp.
    """
    length = arch.history_len
    cols = idx.shape[1]
    _windows(buf[t : t + length].reshape(arch.in_channels, cols), idx, win1)
    np.matmul(views.w1, win1, out=h)
    h += views.b1[:, None]
    np.tanh(h, out=h)
    _windows(h, idx, win2)
    np.matmul(views.w2, win2, out=raw)
    raw += views.b2[:, None]
    raw += buf[t + length - 1].reshape(arch.channels, cols)
    np.clip(raw, -arch.clamp, arch.clamp, out=buf[t + length].reshape(arch.channels, cols))
    if mask is not None:
        np.less(np.abs(raw, out=raw), arch.clamp, out=mask)


def _step_backward(g_pred, tape: _Tape, t: int, views: _Views, arch: SurrogateArch, pad,
                   grads: _Views, bufs: _Backward, input_grad: bool):
    """Backward of step t of ``tape`` for the prediction gradient ``g_pred`` (C, X, B).

    Adds the parameter gradient into ``grads``. With ``input_grad``, returns
    the gradient w.r.t. the step's L input frames, shaped (L, C, X, B), a
    view into ``bufs`` that the next call overwrites.
    """
    win1, h, win2, mask = tape.win1[t], tape.h[t], tape.win2[t], tape.mask[t]
    g_w1, g_b1, g_w2, g_b2 = grads
    x_len = g_pred.shape[1]
    g_raw = np.multiply(g_pred.reshape(mask.shape), mask, out=bufs.g_raw)
    g_w2 += g_raw @ win2.T
    g_b2 += g_raw.sum(axis=1)
    g_h = _windows_adjoint(views.w2, g_raw, pad, *bufs.adj2)
    g_a1 = np.multiply(h, h, out=bufs.g_a1)
    np.subtract(1.0, g_a1, out=g_a1)
    g_a1 *= g_h
    g_w1 += g_a1 @ win1.T
    g_b1 += g_a1.sum(axis=1)
    if not input_grad:
        return None
    g_z = _windows_adjoint(views.w1, g_a1, pad, *bufs.adj1)
    g_z[-arch.channels :] += g_raw  # residual path: the last frame's rows
    return g_z.reshape(arch.history_len, arch.channels, x_len, -1)


def _advance(views: _Views, arch: SurrogateArch, buf: np.ndarray, ws: _Workspace,
             taped: bool = False) -> _Tape | None:
    """Fill frames L.. of ``buf`` (L + H, C, X, B) by autoregressive steps.

    With ``taped``, each step keeps its activations in its own slot and the
    tape is returned for the backward pass; otherwise all steps share one.
    """
    _, channels, x_len, b_sz = buf.shape
    steps = buf.shape[0] - arch.history_len
    k = arch.kernel_size
    cols = x_len * b_sz
    idx = _window_index(x_len, arch.kernel_radius, arch.padding, b_sz)
    slots = steps if taped else 1
    win1 = ws.get("win1", (slots, arch.in_channels * k, cols))
    h = ws.get("h", (slots, arch.hidden, cols))
    win2 = ws.get("win2", (slots, arch.hidden * k, cols))
    raw = ws.get("raw", (channels, cols))
    if not taped:
        win1, h, win2 = win1[0], h[0], win2[0]
        for t in range(steps):
            _step(views, arch, buf, t, idx, win1, h, win2, raw)
        return None
    mask = ws.get("mask", (slots, channels, cols), bool)
    for t in range(steps):
        _step(views, arch, buf, t, idx, win1[t], h[t], win2[t], raw, mask[t])
    return _Tape(win1, h, win2, mask)


def _backward_buffers(ws: _Workspace, views: _Views, arch: SurrogateArch, x_len: int,
                      b_sz: int) -> _Backward:
    """The :class:`_Backward` buffers of a rollout of ``b_sz`` trajectories."""
    k = arch.kernel_size
    return _Backward(
        g_raw=ws.get("g_raw", (arch.channels, x_len * b_sz)),
        g_a1=ws.get("g_a1", (arch.hidden, x_len * b_sz)),
        adj2=_adjoint_buffers(ws, "adj2", views.w2, k, x_len, b_sz),
        adj1=_adjoint_buffers(ws, "adj1", views.w1, k, x_len, b_sz),
    )


def rollout_batch(params: SurrogateParams, histories: np.ndarray, steps: int) -> np.ndarray:
    """Vectorized rollout over a batch of histories (B, L, cells, channels).

    Returns (B, steps, cells, channels), in memory no other call writes to.
    """
    histories = np.asarray(histories, dtype=np.float64)
    arch = params.arch
    if histories.ndim != 4:
        raise ValueError("histories must have shape (B, L, cells, channels)")
    if histories.shape[1] != arch.history_len:
        raise ValueError(
            f"histories have {histories.shape[1]} frames, model expects {arch.history_len}"
        )
    if histories.shape[3] != arch.channels:
        raise ValueError(
            f"histories have {histories.shape[3]} channels, model expects {arch.channels}"
        )
    if histories.shape[0] == 0:
        raise ValueError("histories is an empty batch")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    b_sz, length, x_len, _ = histories.shape
    buf = np.empty((length + steps, arch.channels, x_len, b_sz))
    buf[:length] = histories.transpose(1, 3, 2, 0)
    _advance(_unpack(params.theta, arch), arch, buf, _workspace())
    return buf[length:].transpose(3, 0, 2, 1)


# ----------------------------------------------------------------------
# short-rollout loss and its exact gradient
# ----------------------------------------------------------------------

def effective_horizon(horizon: int, t_count: int, start):
    """Rollout length available from ``start``: min(horizon, t_count - 1 - start).

    ``start`` may be an int array; the result then has its shape.
    """
    return np.minimum(horizon, t_count - 1 - start)


def _validate_pairs(batch, ds: TrajectoryDataset, history_len: int) -> np.ndarray:
    """The (trajectory, start) pairs of ``batch`` as a range-checked (N, 2) int array."""
    pairs = np.asarray(batch)
    if pairs.size == 0:
        raise ValueError("empty batch")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError(
            f"batch must be (trajectory, start) integer pairs, got a {pairs.shape} "
            f"array of {pairs.dtype}"
        )
    ns, ks = pairs.T
    bad = (ns < 0) | (ns >= ds.n_traj)
    if bad.any():
        raise ValueError(f"trajectory index {ns[bad][0]} out of range")
    bad = (ks < history_len) | (ks > ds.t_count - 2)
    if bad.any():
        raise ValueError(
            f"start index {ks[bad][0]} outside [{history_len}, {ds.t_count - 2}]"
        )
    return pairs


def rollout_loss_grad(
    params: SurrogateParams,
    batch,
    horizon: int,
    ds: TrajectoryDataset,
) -> tuple[float, np.ndarray]:
    """Short-rollout loss over (trajectory, start) pairs and its exact gradient.

    ``batch`` is a sequence of (n, k) pairs or an (N, 2) int array. Pairs
    may mix start indices; each pair is weighted equally and uses its own
    truncated horizon. Returns (loss, flat gradient over params.theta).
    """
    arch = params.arch
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pairs = _validate_pairs(batch, ds, arch.history_len)

    views = _unpack(params.theta, arch)
    data = ds.data  # float32; gathered frames are upcast when written to float64
    n_total = len(pairs)
    length = arch.history_len
    pad = _pad_index(ds.spatial_size, arch.kernel_radius, arch.padding)
    ws = _workspace()

    loss = 0.0
    grad = np.zeros(arch.param_count())
    grads = _unpack(grad, arch)

    # one group per truncated horizon, in order of first appearance
    h_pair = effective_horizon(horizon, ds.t_count, pairs[:, 1])
    _, first = np.unique(h_pair, return_index=True)
    for h_eff in h_pair[np.sort(first)].tolist():
        ns, ks = pairs[h_pair == h_eff].T
        hist = data[ns[:, None], ks[:, None] + np.arange(1 - length, 1)]  # (B, L, X, C)
        future = data[ns[:, None], ks[:, None] + np.arange(1, h_eff + 1)]  # (B, H, X, C)
        buf = ws.get("frames", (length + h_eff, arch.channels, ds.spatial_size, ns.size))
        buf[:length] = hist.transpose(1, 3, 2, 0)
        targets = np.ascontiguousarray(future.transpose(1, 3, 2, 0), dtype=np.float64)
        tape = _advance(views, arch, buf, ws, taped=True)
        bufs = _backward_buffers(ws, views, arch, ds.spatial_size, ns.size)

        # per-frame NRMSE^2, each pair weighted 1 / (n_total * h_eff)
        weight = n_total * h_eff
        denom = (np.sqrt(np.sum(targets**2, axis=(1, 2))) + NRMSE_EPS) ** 2  # (H, B)
        diff = buf[length:] - targets
        loss += float(np.sum(np.sum(diff**2, axis=(1, 2)) / denom)) / weight
        seeds = 2.0 * diff / denom[:, None, None, :] / weight

        # reverse pass over the predicted frames; gradients w.r.t. the
        # ground-truth history frames are dropped
        g_frames = np.zeros_like(seeds)
        for t in range(h_eff - 1, -1, -1):
            g_in = _step_backward(seeds[t] + g_frames[t], tape, t, views, arch, pad, grads,
                                  bufs, input_grad=t > 0)
            if t > 0:
                lo = max(length - t, 0)  # first input frame that is a prediction
                g_frames[t + lo - length : t] += g_in[lo:]

    return loss, grad


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """First-order training protocol (adaptive-moment updates)."""

    lr: float = 1e-3
    epochs_max: int = 100
    batch_size: int = 64
    grad_clip: float = 1.0
    min_epochs: int = 10
    patience: int = 5
    seed: int = 0
    early_stop: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs_max < 0 or self.min_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if not (np.isfinite(self.grad_clip) and self.grad_clip > 0.0):
            raise ValueError(f"grad_clip must be finite and positive, got {self.grad_clip}")


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_nrmse: float | None


@_step_workspace()
def train(
    params_init: SurrogateParams,
    starts,
    ds: TrajectoryDataset,
    cfg: TrainConfig,
) -> tuple[SurrogateParams, list[EpochStats]]:
    """Mini-batch training on the one-step loss over the selected starts.

    Uses training-split trajectories only. With early stopping enabled,
    validation rollout error (full post-history horizon) is evaluated after
    every epoch >= min_epochs. The parameters returned are those of the
    epoch :func:`kept_epoch` names: the best-validation epoch, or the last.
    Deterministic under cfg.seed. Every minibatch and validation rollout
    reuses one workspace, released on return.
    """
    from .diagnostics import rollout_nrmse  # local import: diagnostics imports surrogate

    arch = params_init.arch
    start_list = sorted(set(int(k) for k in starts))
    if not start_list:
        raise ValueError("starts must be nonempty")

    train_idx = ds.split_indices("train")
    # (n, k) for every training trajectory n and start k, n outermost
    pairs = _validate_pairs(np.column_stack([np.repeat(train_idx, len(start_list)),
                                             np.tile(start_list, len(train_idx))]),
                            ds, arch.history_len)
    history: list[EpochStats] = []
    if cfg.epochs_max == 0:
        return params_init, history

    rng = np.random.default_rng(cfg.seed)
    theta = params_init.theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0

    best_theta = None
    for epoch in range(1, cfg.epochs_max + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = pairs[order[lo : lo + cfg.batch_size]]
            cur = SurrogateParams(theta=theta, arch=arch)
            loss, grad = rollout_loss_grad(cur, chunk, 1, ds)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            gnorm = float(np.linalg.norm(grad))
            if gnorm > cfg.grad_clip:
                grad = grad * (cfg.grad_clip / gnorm)
            step_count += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
            m_hat = m / (1.0 - ADAM_BETA1**step_count)
            v_hat = v / (1.0 - ADAM_BETA2**step_count)
            theta = theta - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not np.all(np.isfinite(theta)):
                raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
            epoch_loss += loss * len(chunk)
        epoch_loss /= len(pairs)

        val = None
        if cfg.early_stop and epoch >= cfg.min_epochs:
            val = rollout_nrmse(SurrogateParams(theta=theta, arch=arch), ds, split="val")
        history.append(EpochStats(epoch, epoch_loss, val))
        best_epoch = kept_epoch(history)
        if val is not None and best_epoch == epoch:
            best_theta = theta.copy()
        if best_theta is not None and epoch - best_epoch >= cfg.patience:
            break

    return SurrogateParams(theta=theta if best_theta is None else best_theta, arch=arch), history


def kept_epoch(history: list[EpochStats]) -> int:
    """The epoch whose parameters :func:`train` keeps: the first with the lowest
    finite validation nRMSE, else the last epoch, or 0 when no epoch ran."""
    validated = [h for h in history if h.val_nrmse is not None and h.val_nrmse < np.inf]
    if validated:
        return min(validated, key=lambda h: h.val_nrmse).epoch
    return history[-1].epoch if history else 0


# ----------------------------------------------------------------------
# checkpoints: <stem>.json header + <stem>.f64 payload
# ----------------------------------------------------------------------

def save_params(params: SurrogateParams, path, seed: int | None = None, epoch: int | None = None) -> Path:
    """Write the ``<stem>.json`` + ``<stem>.f64`` checkpoint pair; returns the stem."""
    header = {"arch": asdict(params.arch), "seed": seed, "epoch": epoch}
    payload = np.ascontiguousarray(params.theta, dtype="<f8").tobytes()
    return write_pair(path, ".f64", CHECKPOINT_FORMAT_VERSION, header, payload)


def load_params(path) -> tuple[SurrogateParams, dict]:
    """Read a checkpoint pair written by :func:`save_params`.

    Any malformed or inconsistent pair raises :class:`CheckpointFormatError`.
    """
    stem, header = read_header(path, ".f64", CHECKPOINT_FORMAT_VERSION, CheckpointFormatError,
                               "header")
    arch = _arch_from_header(header.get("arch"))
    blob = stem.with_suffix(".f64").read_bytes()
    if len(blob) != 8 * arch.param_count():
        raise CheckpointFormatError(
            f"payload length mismatch: got {len(blob)} bytes, "
            f"header implies {8 * arch.param_count()}"
        )
    try:
        params = SurrogateParams(theta=np.frombuffer(blob, dtype="<f8").copy(), arch=arch)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad parameters: {exc}") from exc
    return params, header


def _arch_from_header(spec) -> SurrogateArch:
    """The header's ``arch`` object: exactly the SurrogateArch fields, typed."""
    names = [f.name for f in fields(SurrogateArch)]
    if not isinstance(spec, dict) or sorted(spec) != sorted(names):
        raise CheckpointFormatError(f"header 'arch' must be an object with keys {names}")
    for name, value in spec.items():
        if name == "padding":
            ok = isinstance(value, str)
        elif name == "clamp":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = type(value) is int
        if not ok:
            raise CheckpointFormatError(f"arch.{name} has the wrong type: {value!r}")
    try:
        return SurrogateArch(**{**spec, "clamp": float(spec["clamp"])})
    except (ValueError, OverflowError) as exc:
        raise CheckpointFormatError(f"bad arch: {exc}") from exc
