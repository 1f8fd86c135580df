"""Candidate start indices, pilot training, and per-candidate scoring.

A start index k is admissible when L history frames fit before it and at
least one target frame follows it, i.e. k in {L, ..., t_count - 2}. The
pilot model is trained on the full candidate pool for a fixed number of
epochs (no early stopping) and then scores every candidate with either its
short-rollout loss or the Euclidean norm of the loss gradient at the pilot
parameters. Scoring uses one fixed subsample of training trajectories,
chosen once from the scoring seed and shared by all candidates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .pde_data import TrajectoryDataset
from .surrogate import (
    SurrogateArch,
    SurrogateParams,
    TrainConfig,
    init_params,
    rollout_loss_grad,
    train,
)

SCORE_KINDS = ("grad_norm", "rollout_loss")
GRADIENTS = "gradients"  # the raw (|C|, param_count) gradient matrix, as a sampler's need
DEFAULT_HORIZON = 10
DEFAULT_BATCH_TRAJ = 32


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


@dataclass(frozen=True)
class PilotMeta:
    """Provenance of a score vector: pilot budget, scoring horizon, seed."""

    epochs: int | None
    horizon: int
    seed: int


@dataclass(frozen=True, eq=False)
class CandidateScores:
    indices: np.ndarray
    scores: np.ndarray
    kind: str
    pilot_meta: PilotMeta

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(self.indices),):
            raise ValueError("scores and indices lengths differ")
        if not np.all(np.isfinite(scores)) or np.any(scores < 0.0):
            raise ValueError("scores must be finite and non-negative")
        object.__setattr__(self, "scores", scores)


def default_arch(ds: TrajectoryDataset, history_len: int = 4, hidden: int = 8,
                 kernel_radius: int = 2, clamp: float = 10.0) -> SurrogateArch:
    """Model matching the dataset's channel count and boundary condition."""
    padding = "reflect" if ds.meta.get("boundary") == "neumann" else "periodic"
    return SurrogateArch(
        history_len=history_len,
        hidden=hidden,
        kernel_radius=kernel_radius,
        channels=ds.channels,
        padding=padding,
        clamp=clamp,
    )


def train_pilot(
    ds: TrajectoryDataset,
    candidates: CandidateSet,
    cfg: TrainConfig,
    arch: SurrogateArch | None = None,
) -> SurrogateParams:
    """Train the pilot on the full candidate pool for exactly cfg.epochs_max epochs."""
    if cfg.epochs_max < 1:
        raise ValueError("pilot training needs epochs_max >= 1")
    if arch is None:
        arch = default_arch(ds, history_len=candidates.history_len)
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


def candidate_gradients(
    pilot: SurrogateParams,
    candidates: CandidateSet,
    ds: TrajectoryDataset,
    horizon: int = DEFAULT_HORIZON,
    batch_traj: int = DEFAULT_BATCH_TRAJ,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate short-rollout losses and gradient vectors.

    Returns (losses, grads) with grads of shape (n_candidates, param_count).
    """
    traj = scoring_trajectories(ds, batch_traj, seed)
    losses = np.empty(candidates.size)
    grads = np.empty((candidates.size, pilot.param_count))
    for i, k in enumerate(candidates.indices):
        pairs = [(int(n), int(k)) for n in traj]
        losses[i], grads[i] = rollout_loss_grad(pilot, pairs, horizon, ds)
    return losses, grads


def pilot_input(need: str, losses, grads, candidates: CandidateSet, meta: PilotMeta):
    """What a sampler needs, made from :func:`candidate_gradients`' output.

    ``need`` is :data:`GRADIENTS` (the matrix itself) or a score kind:
    ``grad_norm`` is ||grad loss_k||_2 per candidate, ``rollout_loss`` the loss.
    """
    if need == GRADIENTS:
        return grads
    return CandidateScores(
        indices=candidates.indices.copy(),
        scores=np.linalg.norm(grads, axis=1) if need == "grad_norm" else losses,
        kind=need,
        pilot_meta=meta,
    )


def score_grad_norm(
    pilot: SurrogateParams,
    candidates: CandidateSet,
    ds: TrajectoryDataset,
    horizon: int = DEFAULT_HORIZON,
    batch_traj: int = DEFAULT_BATCH_TRAJ,
    seed: int = 0,
    pilot_epochs: int | None = None,
) -> CandidateScores:
    """Gradient-norm informativeness score ||grad loss_k||_2 per candidate."""
    losses, grads = candidate_gradients(pilot, candidates, ds, horizon, batch_traj, seed)
    return pilot_input("grad_norm", losses, grads, candidates,
                       PilotMeta(pilot_epochs, horizon, seed))


def score_rollout_loss(
    pilot: SurrogateParams,
    candidates: CandidateSet,
    ds: TrajectoryDataset,
    horizon: int = DEFAULT_HORIZON,
    batch_traj: int = DEFAULT_BATCH_TRAJ,
    seed: int = 0,
    pilot_epochs: int | None = None,
) -> CandidateScores:
    """Short-rollout loss per candidate under the pilot parameters."""
    losses, grads = candidate_gradients(pilot, candidates, ds, horizon, batch_traj, seed)
    return pilot_input("rollout_loss", losses, grads, candidates,
                       PilotMeta(pilot_epochs, horizon, seed))


def write_scores_csv(scores: CandidateScores, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "score", "kind", "H", "E_p", "seed"])
        meta = scores.pilot_meta
        for k, s in zip(scores.indices, scores.scores):
            writer.writerow([int(k), repr(float(s)), scores.kind,
                             meta.horizon, meta.epochs, meta.seed])
