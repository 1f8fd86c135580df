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

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import json
import numpy as np

from .pde_data import TrajectoryDataset

NRMSE_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PADDINGS = ("periodic", "reflect")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


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
        if self.clamp <= 0.0:
            raise ValueError("clamp must be positive")

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
    w1: np.ndarray  # (hidden, in_channels, k)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (channels, hidden, k)
    b2: np.ndarray  # (channels,)


def _unpack(theta: np.ndarray, arch: SurrogateArch) -> _Views:
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
# convolution with hand-written backward pass
# ----------------------------------------------------------------------

_PAD_INDEX_CACHE: dict[tuple[int, int, str], np.ndarray] = {}


def _pad_index(x_len: int, r: int, padding: str) -> np.ndarray:
    key = (x_len, r, padding)
    idx = _PAD_INDEX_CACHE.get(key)
    if idx is None:
        if padding == "periodic":
            idx = np.arange(-r, x_len + r) % x_len
        else:
            idx = np.pad(np.arange(x_len), r, mode="reflect")
        _PAD_INDEX_CACHE[key] = idx
    return idx


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


# ----------------------------------------------------------------------
# single-step and rollout forward/backward (internal layout: (B, C, X))
# ----------------------------------------------------------------------

class _StepTape(NamedTuple):
    win1: np.ndarray
    h: np.ndarray
    win2: np.ndarray
    mask: np.ndarray


def _step_forward(views: _Views, arch: SurrogateArch, window):
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


def _step_backward(g_pred, tape: _StepTape, views: _Views, arch: SurrogateArch, x_len):
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


def _check_history(arch: SurrogateArch, history: np.ndarray) -> np.ndarray:
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 3:
        raise ValueError("history must have shape (L, cells, channels)")
    if history.shape[0] != arch.history_len:
        raise ValueError(
            f"history has {history.shape[0]} frames, model expects {arch.history_len}"
        )
    if history.shape[2] != arch.channels:
        raise ValueError(
            f"history has {history.shape[2]} channels, model expects {arch.channels}"
        )
    return history


def forward(params: SurrogateParams, history: np.ndarray) -> np.ndarray:
    """One-step prediction from the L most recent frames of one trajectory.

    history: (L, cells, channels) -> returns (cells, channels).
    """
    history = _check_history(params.arch, history)
    window = history.transpose(0, 2, 1)[None]  # (1, L, C, X)
    views = _unpack(params.theta, params.arch)
    pred, _ = _step_forward(views, params.arch, window)
    return pred[0].transpose(1, 0)


def rollout(params: SurrogateParams, history: np.ndarray, steps: int) -> np.ndarray:
    """Recursive multi-step prediction; returns (steps, cells, channels)."""
    history = _check_history(params.arch, history)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    out = rollout_batch(params, history[None], steps)
    return out[0]


def rollout_batch(params: SurrogateParams, histories: np.ndarray, steps: int) -> np.ndarray:
    """Vectorized rollout over a batch of histories (B, L, cells, channels)."""
    histories = np.asarray(histories, dtype=np.float64)
    arch = params.arch
    if histories.ndim != 4 or histories.shape[1] != arch.history_len:
        raise ValueError("histories must have shape (B, L, cells, channels)")
    if histories.shape[3] != arch.channels:
        raise ValueError("channel count mismatch")
    views = _unpack(params.theta, arch)
    frames = [histories[:, i].transpose(0, 2, 1) for i in range(arch.history_len)]
    _advance(views, arch, frames, steps)
    return np.stack(frames[arch.history_len :], axis=1).transpose(0, 1, 3, 2)


def _advance(views: _Views, arch: SurrogateArch, frames: list, steps: int, tapes=None):
    """Append ``steps`` autoregressive predictions to ``frames`` (each (B, C, X)).

    Each step's tape is appended to ``tapes`` when a list is given.
    """
    for _ in range(steps):
        window = np.stack(frames[-arch.history_len :], axis=1)
        pred, tape = _step_forward(views, arch, window)
        frames.append(pred)
        if tapes is not None:
            tapes.append(tape)


# ----------------------------------------------------------------------
# short-rollout loss and its exact gradient
# ----------------------------------------------------------------------

def effective_horizon(horizon: int, t_count: int, start: int) -> int:
    """Rollout length available from ``start``: min(horizon, t_count - 1 - start)."""
    return min(horizon, t_count - 1 - start)


def _validate_pairs(batch, ds: TrajectoryDataset, history_len: int):
    pairs = list(batch)
    if not pairs:
        raise ValueError("empty batch")
    for n, k in pairs:
        if not 0 <= n < ds.n_traj:
            raise ValueError(f"trajectory index {n} out of range")
        if not history_len <= k <= ds.t_count - 2:
            raise ValueError(
                f"start index {k} outside [{history_len}, {ds.t_count - 2}]"
            )
    return pairs


def rollout_loss_grad(
    params: SurrogateParams,
    batch,
    horizon: int,
    ds: TrajectoryDataset,
) -> tuple[float, np.ndarray]:
    """Short-rollout loss over (trajectory, start) pairs and its exact gradient.

    Pairs may mix start indices; each pair is weighted equally and uses its
    own truncated horizon. Returns (loss, flat gradient over params.theta).
    """
    arch = params.arch
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pairs = _validate_pairs(batch, ds, arch.history_len)

    views = _unpack(params.theta, arch)
    data = ds.data  # float32; gathered slices are upcast below
    n_total = len(pairs)
    x_len = ds.spatial_size
    length = arch.history_len

    groups: dict[int, list[tuple[int, int]]] = {}
    for n, k in pairs:
        groups.setdefault(effective_horizon(horizon, ds.t_count, k), []).append((n, k))

    loss = 0.0
    g_w1 = np.zeros_like(views.w1)
    g_b1 = np.zeros_like(views.b1)
    g_w2 = np.zeros_like(views.w2)
    g_b2 = np.zeros_like(views.b2)

    for h_eff, members in groups.items():
        b_sz = len(members)
        hist = np.empty((b_sz, length, arch.channels, x_len))
        targets = np.empty((h_eff, b_sz, arch.channels, x_len))
        for i, (n, k) in enumerate(members):
            hist[i] = data[n, k - length + 1 : k + 1].astype(np.float64).transpose(0, 2, 1)
            targets[:, i] = (
                data[n, k + 1 : k + 1 + h_eff].astype(np.float64).transpose(0, 2, 1)
            )

        frames = [hist[:, i] for i in range(length)]
        tapes = []
        _advance(views, arch, frames, h_eff, tapes)

        # per-frame NRMSE^2, each pair weighted 1 / (n_total * h_eff)
        denom = (np.sqrt(np.sum(targets**2, axis=(2, 3))) + NRMSE_EPS) ** 2  # (H, B)
        seeds = []
        for h in range(h_eff):
            diff = frames[length + h] - targets[h]
            sq = np.sum(diff**2, axis=(1, 2))
            loss += float(np.sum(sq / denom[h])) / (n_total * h_eff)
            seeds.append(2.0 * diff / denom[h][:, None, None] / (n_total * h_eff))

        # reverse pass: fold loss seeds and downstream chain contributions
        g_frames: list[np.ndarray | None] = [None] * (length + h_eff)
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
                if src >= length:  # gradients w.r.t. ground-truth history are dropped
                    if g_frames[src] is None:
                        g_frames[src] = g_window[:, j].copy()
                    else:
                        g_frames[src] += g_window[:, j]

    return loss, _pack(g_w1, g_b1, g_w2, g_b2)


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
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs_max < 0 or self.min_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive")


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_nrmse: float | None


def train(
    params_init: SurrogateParams,
    starts,
    ds: TrajectoryDataset,
    cfg: TrainConfig,
) -> tuple[SurrogateParams, list[EpochStats]]:
    """Mini-batch training on the one-step loss over the selected starts.

    Uses training-split trajectories only. With early stopping enabled,
    validation rollout error (full post-history horizon) is evaluated after
    every epoch >= min_epochs and the best-validation parameters are
    returned; with it disabled, the final-epoch parameters are returned.
    Deterministic under cfg.seed.
    """
    from .diagnostics import rollout_nrmse  # local import: diagnostics uses rollout()

    arch = params_init.arch
    start_list = sorted(set(int(k) for k in starts))
    if not start_list:
        raise ValueError("starts must be nonempty")
    for k in start_list:
        if not arch.history_len <= k <= ds.t_count - 2:
            raise ValueError(f"start index {k} outside the candidate range")

    train_idx = ds.split_indices("train")
    pairs = [(int(n), k) for n in train_idx for k in start_list]
    history: list[EpochStats] = []
    if cfg.epochs_max == 0:
        return params_init, history

    rng = np.random.default_rng(cfg.seed)
    theta = params_init.theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0

    best_val = np.inf
    best_theta = None
    best_epoch = 0

    for epoch in range(1, cfg.epochs_max + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = [pairs[i] for i in order[lo : lo + cfg.batch_size]]
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
            if val < best_val:
                best_val = val
                best_theta = theta.copy()
                best_epoch = epoch
        history.append(EpochStats(epoch, epoch_loss, val))
        if cfg.early_stop and best_theta is not None and epoch - best_epoch >= cfg.patience:
            break

    final_theta = best_theta if (cfg.early_stop and best_theta is not None) else theta
    return SurrogateParams(theta=final_theta, arch=arch), history


# ----------------------------------------------------------------------
# checkpoints: <stem>.json header + <stem>.f64 payload
# ----------------------------------------------------------------------

def save_params(params: SurrogateParams, path, seed: int | None = None, epoch: int | None = None) -> None:
    stem = Path(path)
    if stem.suffix in (".json", ".f64"):
        stem = stem.with_suffix("")
    header = {
        "format_version": 1,
        "arch": {
            "history_len": params.arch.history_len,
            "hidden": params.arch.hidden,
            "kernel_radius": params.arch.kernel_radius,
            "channels": params.arch.channels,
            "padding": params.arch.padding,
            "clamp": params.arch.clamp,
        },
        "seed": seed,
        "epoch": epoch,
    }
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(header, sort_keys=True, indent=1))
    stem.with_suffix(".f64").write_bytes(
        np.ascontiguousarray(params.theta, dtype="<f8").tobytes()
    )


def load_params(path) -> tuple[SurrogateParams, dict]:
    stem = Path(path)
    if stem.suffix in (".json", ".f64"):
        stem = stem.with_suffix("")
    header = json.loads(stem.with_suffix(".json").read_text())
    arch = SurrogateArch(**header["arch"])
    theta = np.frombuffer(stem.with_suffix(".f64").read_bytes(), dtype="<f8")
    if theta.size != arch.param_count():
        raise ValueError("checkpoint payload length does not match its header")
    return SurrogateParams(theta=theta.copy(), arch=arch), header

