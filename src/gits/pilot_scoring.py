"""Candidate start indices, pilot training, and per-candidate scoring.

A start index k is admissible when L history frames fit before it and at
least one target frame follows it, i.e. k in {L, ..., t_count - 2}. The
pilot model is trained on the full candidate pool for a fixed number of
epochs (no early stopping) and then scores every candidate with either its
short-rollout loss or the Euclidean norm of the loss gradient at the pilot
parameters. Scoring uses one fixed subsample of training trajectories,
chosen once from the scoring seed and shared by all candidates.

Each surrogate call scores a stack of candidates that share one effective
horizon, and returns each one's loss and gradient bit for bit as a call of
that candidate alone would. At most :func:`stack_size` candidates go in a
stack, fewer as the columns X*B of a step grow: on one CPU of a 2-core VM,
a candidate of the long_axis_select bench shape (X*B = 256, H = 4) took
0.12–0.14 ms in a stack of 8 against 0.31–0.35 ms alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .pde_data import TrajectoryDataset
from .surrogate import (
    SurrogateArch,
    SurrogateParams,
    TrainConfig,
    _stack_loss_grad,
    _Workspace,
    effective_horizon,
    init_params,
    train,
)

SCORE_KINDS = ("grad_norm", "rollout_loss")
GRADIENTS = "gradients"  # the raw (|C|, param_count) gradient matrix, as a sampler's need


class EmptyCandidateError(ValueError):
    """Time axis too short to admit any start index."""


@dataclass(frozen=True, eq=False)
class CandidateSet:
    indices: np.ndarray
    t_count: int
    history_len: int

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def position(self, k: int) -> int:
        pos = int(np.searchsorted(self.indices, k))
        if pos >= self.size or self.indices[pos] != k:
            raise ValueError(f"{k} is not a candidate start index")
        return pos


def build_candidates(t_count: int, history_len: int) -> CandidateSet:
    """All admissible start indices {history_len, ..., t_count - 2}."""
    if history_len < 1:
        raise ValueError("history_len must be >= 1")
    if t_count < history_len + 2:
        raise EmptyCandidateError(
            f"t_count={t_count} admits no start index for history_len={history_len}"
        )
    indices = np.arange(history_len, t_count - 1, dtype=int)
    return CandidateSet(indices=indices, t_count=t_count, history_len=history_len)


@dataclass(frozen=True, eq=False)
class CandidateScores:
    indices: np.ndarray
    scores: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(self.indices),):
            raise ValueError("scores and indices lengths differ")
        if not np.all(np.isfinite(scores)) or np.any(scores < 0.0):
            raise ValueError("scores must be finite and non-negative")
        object.__setattr__(self, "scores", scores)


def default_arch(ds: TrajectoryDataset, **sizes) -> SurrogateArch:
    """Model matching the dataset's channel count and boundary condition.

    ``sizes`` are :class:`SurrogateArch` keywords (``history_len``,
    ``hidden``, ``kernel_radius``, ``clamp``); the rest keep its defaults.
    """
    padding = "reflect" if ds.meta.get("boundary") == "neumann" else "periodic"
    return SurrogateArch(channels=ds.channels, padding=padding, **sizes)


def train_pilot(
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    cfg: TrainConfig,
    arch: SurrogateArch,
) -> SurrogateParams:
    """Train the pilot on the full candidate pool for exactly cfg.epochs_max epochs."""
    if cfg.epochs_max < 1:
        raise ValueError("pilot training needs epochs_max >= 1")
    if arch.history_len != candidates.history_len:
        raise ValueError("architecture history length disagrees with the candidate set")
    if cfg.early_stop:
        cfg = replace(cfg, early_stop=False)
    params0 = init_params(arch, cfg.seed)
    params, _ = train(params0, candidates.indices, ds, cfg)
    return params


def scoring_trajectories(ds: TrajectoryDataset, batch_traj: int, seed: int) -> np.ndarray:
    """The fixed training-trajectory subsample used for every candidate."""
    if batch_traj < 1:
        raise ValueError("batch_traj must be >= 1")
    train_idx = ds.split_indices("train")
    rng = np.random.default_rng([seed, 11])
    perm = rng.permutation(len(train_idx))
    take = min(batch_traj, len(train_idx))
    return np.sort(train_idx[perm[:take]])


STACK_COLUMNS = 2048  # columns per step up to which stacking candidates saves time


def stack_size(columns: int) -> int:
    """Candidates scored per surrogate call when each step has ``columns`` (X*B) columns.

    8 at X*B = 256 and 4 at 512 (the bench's scoring shapes), 1 from 2048
    on (the default grid, B = 32), where a stack of 2 saved about 5% and
    held a second copy of every step buffer.
    """
    return max(1, STACK_COLUMNS // columns)


def score_chunks(size: int) -> list[np.ndarray]:
    """The positions ``0 .. size - 1`` of the candidates, in one contiguous chunk per worker."""
    return np.array_split(np.arange(size), parallel.worker_count(size))


def _chunk_gradients(pilot: SurrogateParams, ds: TrajectoryDataset, traj: np.ndarray,
                     horizon: int, indices: np.ndarray, positions, losses: np.ndarray,
                     grads: np.ndarray) -> None:
    """Write the losses and gradients of the candidates at ``positions``.

    ``traj`` is the :func:`scoring_trajectories` subsample, and row ``i`` of
    ``losses`` and ``grads`` belongs to candidate ``indices[i]``. One
    scoring worker runs this on one of :func:`score_chunks`. The candidates
    are scored in stacks of at most :func:`stack_size` that share one
    effective horizon, one surrogate call per stack. No candidate's
    arithmetic depends on the chunks or the stacks: each row equals
    ``rollout_loss_grad`` of that candidate's pairs, bit for bit. The chunk
    makes one workspace and passes it to every call.
    """
    positions = np.asarray(positions)
    ws = _Workspace()
    h_eff = effective_horizon(horizon, ds.t_count, indices[positions])
    most = stack_size(ds.spatial_size * traj.size)
    # runs of one effective horizon, each cut into stacks of at most `most`
    for run in np.split(np.arange(positions.size), np.flatnonzero(np.diff(h_eff)) + 1):
        for lo in range(0, run.size, most):
            part = run[lo : lo + most]
            stack = positions[part]
            ks = np.repeat(indices[stack][:, None], traj.size, axis=1)
            g = np.zeros((stack.size, pilot.param_count))
            losses[stack] = _stack_loss_grad(pilot.theta, pilot.arch, ds,
                                             np.broadcast_to(traj, ks.shape), ks,
                                             int(h_eff[part[0]]), traj.size, g, ws)
            grads[stack] = g


def pilot_input(need: str, losses, grads, candidates: CandidateSet):
    """What a sampler needs, made from every candidate's losses and gradients.

    ``need`` is :data:`GRADIENTS` (the matrix itself) or a score kind:
    ``grad_norm`` is ||grad loss_k||_2 per candidate, ``rollout_loss`` the loss.
    """
    if need == GRADIENTS:
        return grads
    return CandidateScores(
        indices=candidates.indices.copy(),
        scores=np.linalg.norm(grads, axis=1) if need == "grad_norm" else losses,
        kind=need,
    )

