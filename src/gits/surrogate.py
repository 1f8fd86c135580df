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
from typing import Iterable, NamedTuple

import functools
import math

import numpy as np

from .pde_data import TrajectoryDataset, read_header, read_payload, write_pair

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
    """Views into ``theta`` (..., P); writing through them writes into ``theta``.

    Leading axes of ``theta`` stay leading axes of every view.
    """
    k = arch.kernel_size
    n1 = arch.hidden * arch.in_channels * k
    n2 = n1 + arch.hidden
    n3 = n2 + arch.channels * arch.hidden * k
    lead = theta.shape[:-1]
    return _Views(
        w1=theta[..., :n1].reshape(*lead, arch.hidden, arch.in_channels * k),
        b1=theta[..., n1:n2],
        w2=theta[..., n2:n3].reshape(*lead, arch.channels, arch.hidden * k),
        b2=theta[..., n3:],
    )


def init_params(arch: SurrogateArch, seed: int) -> SurrogateParams:
    """Small random initialization; the output layer starts near (not at) zero."""
    rng = np.random.default_rng(seed)
    k = arch.kernel_size
    theta = np.zeros(arch.param_count())
    views = _unpack(theta, arch)
    views.w1[...] = rng.normal(0.0, 1.0 / np.sqrt(arch.in_channels * k), views.w1.shape)
    views.w2[...] = rng.normal(0.0, 0.05 / np.sqrt(arch.hidden * k), views.w2.shape)
    return SurrogateParams(theta=theta, arch=arch)


# ----------------------------------------------------------------------
# one step in the channel-major layout, with its exact backward pass
# ----------------------------------------------------------------------
#
# A call steps a stack of G rollouts of B trajectories each. They live in
# one frame buffer shaped (G, L + H, C, X, B): slice g holds rollout g,
# frames 0..L-1 hold its history and step t writes its prediction into
# frame L + t in place. Frames t..t+L-1 of a slice are the step's
# (L*C, X*B) input. Each convolution gathers every slice's (Cin*K, X*B)
# window matrix with one (K, X) index along the cell axis, so each index
# copies the B contiguous values of one cell, and is one stacked GEMM,
# W @ windows, against every slice. The weights are shared by the stack,
# or carry its axis, one set per slice (a stack of trainings). The backward
# pass is two more stacked GEMMs, g_out @ windows.T for each slice's weight
# gradient and W.T @ g_out for the windows, and an overlap-add of the
# window gradient back onto the input rows. The batch is the fastest axis,
# so each tap of the overlap-add is one contiguous block of X*B values per
# slice. Every op runs once over the whole stack, and slice g computes
# exactly what a call of that one rollout (G = 1) computes: the stack only
# shares the per-op overhead, which dominates when X*B is small.
#
# The window matrices, activations and gradient buffers of a rollout's
# steps are written in place into buffers of a _Workspace, each asked for
# by name where it is used. Each loop of calls makes one workspace and
# passes it to every call, so the calls write into the same pages again
# instead of having fresh ones mapped and faulted in on every call.

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
def _window_index(x_len: int, r: int, padding: str) -> np.ndarray:
    """(K, X) gather index along the cell axis: entry (j, x) is pad[x + j]."""
    idx = _pad_index(x_len, r, padding)[np.arange(2 * r + 1)[:, None] + np.arange(x_len)]
    idx.flags.writeable = False
    return idx


def _windows(z: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """(..., X, B) rows -> (..., K, X, B) windows in ``out``.

    Tap j of cell x is row cell pad[x + j], and each index copies the B
    batch values of one cell, which are contiguous.
    Every index is in range, so ``mode="wrap"`` never wraps; unlike the
    default mode it lets ``take`` write into ``out`` without a bounce buffer.
    """
    z.take(idx, axis=z.ndim - 2, out=out, mode="wrap")


def _windows_adjoint(w: np.ndarray, g: np.ndarray, pad: np.ndarray, b_sz: int,
                     ws: _Workspace, name: str) -> np.ndarray:
    """Adjoint of :func:`_windows` applied to ``w.T @ g`` (G, Cout, X*B): (G, Cin, X*B).

    ``w`` is (Cout, Cin*K), shared by the stack, or (G, Cout, Cin*K), one
    set per slice.

    The K taps of the window gradient are overlap-added into the padded
    rows ``{name}.g_pad`` (G, Cin, X + 2r, B) of ``ws``; then each of the 2r
    padded edge columns is added onto the cell it was read from. The result
    is a view into those rows. With one row in ``w`` the product is an outer
    product: tap j adds the broadcast products ``w[0, (c, j)] * g``, formed
    in ``{name}.scratch`` (G, Cin, X, B), and the (G, Cin*K, X*B) product is
    never written. Otherwise ``{name}.scratch`` receives that product. Both
    paths add the same products in the same order.
    """
    stack, _, cols = g.shape
    x_len = cols // b_sz
    r = (pad.size - x_len) // 2
    k = 2 * r + 1
    c_in = w.shape[-1] // k
    g_pad = ws.get(f"{name}.g_pad", (stack, c_in, x_len + k - 1, b_sz))
    g_pad.fill(0.0)
    if w.shape[-2] == 1:
        scratch = ws.get(f"{name}.scratch", (stack, c_in, x_len, b_sz))
        w_taps = w.reshape(*w.shape[:-2], c_in, k, 1, 1)
        g_cells = g.reshape(stack, 1, x_len, b_sz)
        for j in range(k):
            g_pad[:, :, j : j + x_len] += np.multiply(w_taps[..., j, :, :], g_cells, out=scratch)
    else:
        scratch = ws.get(f"{name}.scratch", (stack, c_in * k, cols))
        g_win = np.matmul(np.swapaxes(w, -1, -2), g, out=scratch).reshape(stack, c_in, k, x_len,
                                                                           b_sz)
        for j in range(k):
            g_pad[:, :, j : j + x_len] += g_win[:, :, j]
    for p in (*range(r), *range(x_len + r, x_len + 2 * r)):
        g_pad[:, :, r + pad[p]] += g_pad[:, :, p]
    return g_pad.reshape(stack, c_in, -1)[:, :, r * b_sz : (r + x_len) * b_sz]


class _Tape(NamedTuple):
    """Saved activations of a rollout's steps; slot t holds step t."""

    win1: np.ndarray  # (slots, G, L*C*K, X*B)
    h: np.ndarray  # (slots, G, hidden, X*B)
    win2: np.ndarray  # (slots, G, hidden*K, X*B)
    mask: np.ndarray  # (slots, G, C, X*B) bool: the output is inside the clamp


def _step_backward(g_pred, tape: _Tape, t: int, views: _Views, arch: SurrogateArch, pad,
                   grads: _Views, ws: _Workspace, input_grad: bool):
    """Backward of step t of ``tape`` for the prediction gradient ``g_pred`` (G, C, X, B).

    Adds each slice's parameter gradient into ``grads``, whose views have a
    leading stack axis. With ``input_grad``, returns the gradient w.r.t. the
    step's L input frames, shaped (G, L, C, X, B), a view into a buffer of
    ``ws`` that the next call overwrites.
    """
    win1, h, win2, mask = tape.win1[t], tape.h[t], tape.win2[t], tape.mask[t]
    g_w1, g_b1, g_w2, g_b2 = grads
    stack, _, x_len, b_sz = g_pred.shape
    g_raw = np.multiply(g_pred.reshape(mask.shape), mask, out=ws.get("g_raw", mask.shape))
    g_w2 += np.matmul(g_raw, win2.transpose(0, 2, 1))
    g_b2 += g_raw.sum(axis=2)
    g_h = _windows_adjoint(views.w2, g_raw, pad, b_sz, ws, "adj2")
    g_a1 = np.multiply(h, h, out=ws.get("g_a1", h.shape))
    np.subtract(1.0, g_a1, out=g_a1)
    g_a1 *= g_h
    g_w1 += np.matmul(g_a1, win1.transpose(0, 2, 1))
    g_b1 += g_a1.sum(axis=2)
    if not input_grad:
        return None
    g_z = _windows_adjoint(views.w1, g_a1, pad, b_sz, ws, "adj1")
    g_z[:, -arch.channels :] += g_raw  # residual path: the last frame's rows
    return g_z.reshape(stack, arch.history_len, arch.channels, x_len, -1)


def _advance(views: _Views, arch: SurrogateArch, buf: np.ndarray, ws: _Workspace,
             taped: bool = False) -> _Tape | None:
    """Fill frames L.. of every slice of ``buf`` (G, L + H, C, X, B) by autoregressive steps.

    Step t writes its prediction into frame L + t. With ``taped``, each step
    keeps its window matrices, hidden activations and clamp mask in its own
    slot and the tape is returned for the backward pass; otherwise all steps
    share one slot.
    """
    stack, frames, channels, x_len, b_sz = buf.shape
    length, hidden, k = arch.history_len, arch.hidden, arch.kernel_size
    cols = x_len * b_sz
    idx = _window_index(x_len, arch.kernel_radius, arch.padding)
    slots = frames - length if taped else 1
    win1 = ws.get("win1", (slots, stack, arch.in_channels * k, cols))
    h = ws.get("h", (slots, stack, hidden, cols))
    win2 = ws.get("win2", (slots, stack, hidden * k, cols))
    mask = ws.get("mask", (slots, stack, channels, cols), bool) if taped else None
    raw = ws.get("raw", (stack, channels, cols))
    # the same slots with the cell and batch axes apart, as the gathers write them
    win1_cells = win1.reshape(slots, stack, length, channels, k, x_len, b_sz)
    h_cells = h.reshape(slots, stack, hidden, x_len, b_sz)
    win2_cells = win2.reshape(slots, stack, hidden, k, x_len, b_sz)
    raw_cells = raw.reshape(stack, channels, x_len, b_sz)
    for t in range(frames - length):
        s = t if taped else 0
        _windows(buf[:, t : t + length], idx, win1_cells[s])
        np.matmul(views.w1, win1[s], out=h[s])
        h[s] += views.b1[..., None]
        np.tanh(h[s], out=h[s])
        _windows(h_cells[s], idx, win2_cells[s])
        np.matmul(views.w2, win2[s], out=raw)
        raw += views.b2[..., None]
        raw_cells += buf[:, t + length - 1]  # the residual: the last input frame
        np.clip(raw_cells, -arch.clamp, arch.clamp, out=buf[:, t + length])
        if taped:
            np.less(np.abs(raw, out=raw), arch.clamp, out=mask[s])
    return _Tape(win1, h, win2, mask) if taped else None


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
    return _rollout(params.theta, arch, histories, steps, _Workspace())[0]


def _rollout(theta: np.ndarray, arch: SurrogateArch, histories: np.ndarray, steps: int,
             ws: _Workspace) -> np.ndarray:
    """Roll the histories (B, L, cells, channels) out with each row of ``theta`` (G, P).

    Returns (G, B, steps, cells, channels), a view into a frame buffer of its
    own; a 1-D ``theta`` is one row. The steps' buffers are taken from
    ``ws``. Not checked.
    """
    b_sz, length, x_len, _ = histories.shape
    buf = np.empty((len(np.atleast_2d(theta)), length + steps, arch.channels, x_len, b_sz))
    buf[:, :length] = histories.transpose(1, 3, 2, 0)
    _advance(_unpack(theta, arch), arch, buf, ws)
    return buf[:, length:].transpose(0, 4, 1, 3, 2)


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

    loss = 0.0
    grad = np.zeros(arch.param_count())

    # one group per truncated horizon, in order of first appearance; every
    # group adds into the same gradient, and all share one workspace
    h_pair = effective_horizon(horizon, ds.t_count, pairs[:, 1])
    _, first = np.unique(h_pair, return_index=True)
    ws = _Workspace()
    for h_eff in h_pair[np.sort(first)].tolist():
        ns, ks = pairs[h_pair == h_eff].T
        losses = _stack_loss_grad(params.theta, arch, ds, ns[None], ks[None], h_eff, len(pairs),
                                  grad[None], ws)
        loss += float(losses[0])
    return loss, grad


def _stack_loss_grad(theta: np.ndarray, arch: SurrogateArch, ds: TrajectoryDataset,
                     ns: np.ndarray, ks: np.ndarray, h_eff: int, n_total: int,
                     grad: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Short-rollout losses of G stacked rollouts and their exact gradients.

    Rollout g runs the B (trajectory, start) pairs ``(ns[g], ks[g])`` (both
    (G, B) int arrays, not checked) for ``h_eff`` steps, and each of its
    per-frame NRMSE^2 terms weighs 1 / (``n_total`` * ``h_eff``). Every
    rollout runs the parameters ``theta`` (P,), or rollout g its row g of
    ``theta`` (G, P). Adds rollout g's gradient into row g of ``grad``
    (G, P) and returns the (G,) losses. Row g is bit for bit what the call
    with rollout g alone gives. The steps' buffers are taken from ``ws``.
    """
    data = ds.data  # float32; gathered frames are upcast when written to float64
    length = arch.history_len
    stack, b_sz = ns.shape
    x_len = ds.spatial_size
    pad = _pad_index(x_len, arch.kernel_radius, arch.padding)
    views = _unpack(theta, arch)
    grads = _unpack(grad, arch)

    hist = data[ns[..., None], ks[..., None] + np.arange(1 - length, 1)]  # (G, B, L, X, C)
    future = data[ns[..., None], ks[..., None] + np.arange(1, h_eff + 1)]  # (G, B, H, X, C)
    buf = ws.get("frames", (stack, length + h_eff, arch.channels, x_len, b_sz))
    buf[:, :length] = hist.transpose(0, 2, 4, 3, 1)
    targets = ws.get("targets", (stack, h_eff, arch.channels, x_len, b_sz))
    targets[...] = future.transpose(0, 2, 4, 3, 1)
    tape = _advance(views, arch, buf, ws, taped=True)

    # per-frame NRMSE^2, each pair weighted 1 / (n_total * h_eff)
    weight = n_total * h_eff
    denom = (np.sqrt(np.sum(targets**2, axis=(2, 3))) + NRMSE_EPS) ** 2  # (G, H, B)
    diff = buf[:, length:] - targets
    losses = np.sum((np.sum(diff**2, axis=(2, 3)) / denom).reshape(stack, -1), axis=1) / weight
    seeds = 2.0 * diff / denom[:, :, None, None, :] / weight

    # reverse pass over the predicted frames; gradients w.r.t. the
    # ground-truth history frames are dropped
    g_frames = np.zeros_like(seeds)
    for t in range(h_eff - 1, -1, -1):
        g_in = _step_backward(seeds[:, t] + g_frames[:, t], tape, t, views, arch, pad, grads,
                              ws, input_grad=t > 0)
        if t > 0:
            lo = max(length - t, 0)  # first input frame that is a prediction
            g_frames[:, t + lo - length : t] += g_in[:, lo:]
    return losses


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


class Training(NamedTuple):
    """One training of :func:`train_stack`: initial parameters, starts and protocol."""

    params_init: SurrogateParams
    starts: Iterable[int]
    cfg: TrainConfig


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
    Deterministic under cfg.seed. This is :func:`train_stack` of the one
    training; a non-finite loss or parameter raises
    :class:`TrainingDivergedError`.
    """
    [result] = train_stack([Training(params_init, starts, cfg)], ds)
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


# Stacking trainings shares each op's overhead, which dominates while a
# minibatch step has few columns (X*B); past about this many columns per call
# (slices x X*B) a larger stack saves nothing and only holds more buffers.
TRAIN_STACK_COLUMNS = 16384


class _Slice:
    """The state of one training of a stack that is still training."""

    def __init__(self, index: int, pairs: np.ndarray, cfg: TrainConfig):
        self.index = index  # its position in the stack
        self.pairs = pairs
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.order = None  # this epoch's permutation of the pairs
        self.loss = 0.0  # this epoch's summed minibatch losses
        self.history: list[EpochStats] = []
        self.best_theta = None


def train_stack(trainings, ds: TrajectoryDataset) -> list:
    """Run a stack of :class:`Training` s in lockstep: one surrogate call per minibatch for all.

    The trainings must share the architecture, the batch size and their
    number of (trajectory, start) pairs, so that their minibatches have one
    shape. Everything else is each one's own: initial parameters, starts,
    seed and so minibatch order, learning rate, gradient clip, Adam state,
    epochs and early stopping. Validation after an epoch is one rollout of
    every slice that validates. A training leaves the stack when it stops,
    and each one's entry of the returned list is what :func:`train` returns
    for it alone, bit for bit: ``(params, history)``, or the
    :class:`TrainingDivergedError` that :func:`train` raises. An exception
    raised here (bad starts, an empty validation split) is every training's.
    A stack makes one workspace and passes it to every minibatch and
    validation rollout; it is released on return.
    """
    from .diagnostics import nrmse_from_rollouts, split_frames  # diagnostics imports surrogate

    arch = trainings[0].params_init.arch
    train_idx = ds.split_indices("train")
    live: list[_Slice] = []  # the slices still training, in stack order
    results: list = []
    for index, (params_init, starts, cfg) in enumerate(trainings):
        start_list = sorted(set(int(k) for k in starts))
        if not start_list:
            raise ValueError("starts must be nonempty")
        # (n, k) for every training trajectory n and start k, n outermost
        pairs = _validate_pairs(np.column_stack([np.repeat(train_idx, len(start_list)),
                                                 np.tile(start_list, len(train_idx))]),
                                ds, arch.history_len)
        live.append(_Slice(index, pairs, cfg))
        results.append((params_init, []))  # what a training of no epochs returns
    if len({(t.params_init.arch, t.cfg.batch_size, len(sl.pairs))
            for t, sl in zip(trainings, live)}) > 1:
        raise ValueError("stacked trainings must share the architecture, the batch size "
                         "and the number of pairs")
    most = max(1, TRAIN_STACK_COLUMNS // (ds.spatial_size * min(trainings[0].cfg.batch_size,
                                                                len(live[0].pairs))))
    if len(trainings) > most:
        return [result for lo in range(0, len(trainings), most)
                for result in train_stack(trainings[lo : lo + most], ds)]
    live = [sl for sl in live if sl.cfg.epochs_max > 0]
    if not live:
        return results
    theta = np.array([trainings[sl.index].params_init.theta for sl in live])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lr = np.array([[sl.cfg.lr] for sl in live])
    step_count = 0
    val_frames = None  # the validation split's histories and truth, read once
    ws = _Workspace()

    def leave(keep, arrays, error=None):
        """Drop the slices where ``keep`` is False, and their rows of each of
        ``arrays``; with an ``error``, each dropped one diverged with it."""
        for i in np.flatnonzero(~keep) if error else ():
            results[live[i].index] = TrainingDivergedError(error)
        live[:] = [sl for sl, kept in zip(live, keep) if kept]
        return [a[keep] for a in arrays]

    epoch = 0
    while live:
        epoch += 1
        for sl in live:
            sl.order = sl.rng.permutation(len(sl.pairs))
            sl.loss = 0.0
        for lo in range(0, len(live[0].pairs), live[0].cfg.batch_size):
            chunks = np.array([sl.pairs[sl.order[lo : lo + sl.cfg.batch_size]] for sl in live])
            # every pair is checked above and rolls out one step: the one
            # group rollout_loss_grad would form
            grad = np.zeros_like(theta)
            losses = _stack_loss_grad(theta, arch, ds, chunks[..., 0], chunks[..., 1], 1,
                                      chunks.shape[1], grad, ws)
            finite = np.isfinite(losses)
            if not finite.all():
                theta, m, v, lr, grad, losses = leave(finite, (theta, m, v, lr, grad, losses),
                                                      f"non-finite loss at epoch {epoch}")
                if not live:
                    break
            for i, sl in enumerate(live):
                gnorm = float(np.linalg.norm(grad[i]))
                if gnorm > sl.cfg.grad_clip:
                    grad[i] *= sl.cfg.grad_clip / gnorm
            step_count += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad**2
            m_hat = m / (1.0 - ADAM_BETA1**step_count)
            v_hat = v / (1.0 - ADAM_BETA2**step_count)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            finite = np.isfinite(theta).all(axis=1)
            if not finite.all():
                theta, m, v, lr, losses = leave(finite, (theta, m, v, lr, losses),
                                                f"non-finite parameters at epoch {epoch}")
            for sl, loss in zip(live, losses.tolist()):
                sl.loss += loss * chunks.shape[1]

        validating = [i for i, sl in enumerate(live)
                      if sl.cfg.early_stop and epoch >= sl.cfg.min_epochs]
        vals = {}
        if validating:
            if val_frames is None:
                val_frames = split_frames(ds, "val", arch.history_len)
            histories, truth = val_frames
            preds = _rollout(theta[validating], arch, histories, truth.shape[1], ws)
            vals = {i: nrmse_from_rollouts(p, truth) for i, p in zip(validating, preds)}
        going = np.ones(len(live), bool)
        for i, sl in enumerate(live):
            val = vals.get(i)
            sl.history.append(EpochStats(epoch, sl.loss / len(sl.pairs), val))
            best_epoch = kept_epoch(sl.history)
            if val is not None and best_epoch == epoch:
                sl.best_theta = theta[i].copy()
            if epoch == sl.cfg.epochs_max or (
                    sl.best_theta is not None and epoch - best_epoch >= sl.cfg.patience):
                kept = theta[i].copy() if sl.best_theta is None else sl.best_theta
                results[sl.index] = (SurrogateParams(theta=kept, arch=arch), sl.history)
                going[i] = False
        theta, m, v, lr = leave(going, (theta, m, v, lr))
    return results


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
    blob = read_payload(stem, ".f64", header, 8 * arch.param_count(), CheckpointFormatError,
                        "header")
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
