"""Evaluation metrics and selection diagnostics.

Primary metric: test rollout nRMSE. Each test trajectory is initialized
with its first L ground-truth frames and rolled out over the full remaining
horizon T_r = t_count - L; the per-trajectory energy ratio

    sqrt( sum_t ||pred_t - true_t||^2 / sum_t ||true_t||^2 )

(norms over all cells and channels) is averaged over trajectories --
ratio first, mean second.

Auxiliary metrics on the same rollouts follow common PDE-benchmark
conventions, with every convention declared here so it is auditable:
  cRMSE        RMSE over (traj, time, channel) of the spatial-mean error
  bRMSE        RMSE restricted to the boundary cells (first and last in 1D)
  fRMSE bands  one-sided DFT of the error normalized by the cell count;
               per-mode RMSE over (traj, time, channel), averaged inside
               the declared bands: low = modes 0-4, mid = 5-12, high = rest

Selection diagnostics: subset overlap / bin-entropy / bin-coverage
geometry, and Spearman score-utility alignment from single-start probe
updates against the validation rollout error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .pde_data import TrajectoryDataset
from .pilot_scoring import CandidateScores, CandidateSet
from .surrogate import SurrogateParams, rollout_batch

DEFAULT_BINS = 10

#: Inclusive one-sided DFT mode ranges of the fRMSE bands; ``None`` = up to Nyquist.
BAND_LOW = (0, 4)
BAND_MID = (5, 12)
BAND_HIGH = (13, None)
#: The cells bRMSE reads: the first and the last.
BOUNDARY_CELLS = (0, -1)


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. all-zero ground truth)."""


@dataclass(frozen=True)
class AuxiliaryMetrics:
    crmse: float
    brmse: float
    frmse_low: float
    frmse_mid: float
    frmse_high: float


@dataclass(frozen=True)
class RolloutReport:
    nrmse: float
    crmse: float
    brmse: float
    frmse_low: float
    frmse_mid: float
    frmse_high: float
    horizon: int
    n_test: int


@dataclass(frozen=True)
class GeometryReport:
    overlap: int
    entropy: float
    coverage_frac: float
    bins: int


# ----------------------------------------------------------------------
# rollout error
# ----------------------------------------------------------------------

def rollout_predictions(
    params: SurrogateParams, ds: TrajectoryDataset, split: str = "test"
) -> tuple[np.ndarray, np.ndarray]:
    """Full-horizon rollouts from ground-truth initial histories.

    Returns (predictions, truth), both (n_split, T_r, cells, channels)
    float64, with T_r = t_count - history_len.
    """
    idx = ds.split_indices(split)
    if idx.size == 0:
        raise MetricError(f"split {split!r} is empty")
    length = params.arch.history_len
    t_r = ds.t_count - length
    if t_r < 1:
        raise MetricError("time axis too short for any rollout step")
    histories = ds.data[idx, :length].astype(np.float64)
    preds = rollout_batch(params, histories, t_r)
    truth = ds.data[idx, length:].astype(np.float64)
    return preds, truth


def nrmse_from_rollouts(preds: np.ndarray, truth: np.ndarray) -> float:
    """Per-trajectory energy-normalized rollout error, averaged over trajectories."""
    if preds.shape != truth.shape:
        raise MetricError("prediction and truth shapes differ")
    num = np.sum((preds - truth) ** 2, axis=(1, 2, 3))
    den = np.sum(truth**2, axis=(1, 2, 3))
    if np.any(den == 0.0):
        raise MetricError("all-zero ground truth trajectory; nRMSE undefined")
    return float(np.mean(np.sqrt(num / den)))


def rollout_nrmse(params: SurrogateParams, ds: TrajectoryDataset, split: str = "test") -> float:
    preds, truth = rollout_predictions(params, ds, split=split)
    return nrmse_from_rollouts(preds, truth)


# ----------------------------------------------------------------------
# auxiliary metrics
# ----------------------------------------------------------------------

def error_spectrum(err: np.ndarray) -> np.ndarray:
    """One-sided DFT power of the error along the cell axis, normalized by 1/cells.

    err: (..., cells, channels) -> (..., modes, channels) squared magnitudes,
    so mode 0 equals the squared spatial mean.
    """
    cells = err.shape[-2]
    coeff = np.fft.rfft(err, axis=-2) / cells
    return np.abs(coeff) ** 2


def _band_value(power: np.ndarray, band: tuple[int, int | None]) -> float:
    """Mean over band modes of the per-mode RMSE; empty bands score 0."""
    n_modes = power.shape[-2]
    lo, hi = band
    hi = n_modes - 1 if hi is None else min(hi, n_modes - 1)
    if lo > hi:
        return 0.0
    per_mode = np.sqrt(np.mean(power[..., lo : hi + 1, :], axis=tuple(
        i for i in range(power.ndim) if i != power.ndim - 2
    )))
    return float(np.mean(per_mode))


def auxiliary_metrics(predictions: np.ndarray, truth: np.ndarray) -> AuxiliaryMetrics:
    """Conserved-mean, boundary, and frequency-band errors of a rollout."""
    if predictions.shape != truth.shape:
        raise MetricError("prediction and truth shapes differ")
    err = predictions - truth  # (..., cells, channels)
    spatial_mean = err.mean(axis=-2)
    crmse = float(np.sqrt(np.mean(spatial_mean**2)))
    brmse = float(np.sqrt(np.mean(err[..., list(BOUNDARY_CELLS), :] ** 2)))
    power = error_spectrum(err)
    return AuxiliaryMetrics(
        crmse=crmse,
        brmse=brmse,
        frmse_low=_band_value(power, BAND_LOW),
        frmse_mid=_band_value(power, BAND_MID),
        frmse_high=_band_value(power, BAND_HIGH),
    )


def rollout_report(
    params: SurrogateParams, ds: TrajectoryDataset, split: str = "test"
) -> RolloutReport:
    preds, truth = rollout_predictions(params, ds, split=split)
    aux = auxiliary_metrics(preds, truth)
    return RolloutReport(nrmse=nrmse_from_rollouts(preds, truth), **asdict(aux),
                         horizon=preds.shape[1], n_test=preds.shape[0])


# ----------------------------------------------------------------------
# subset geometry
# ----------------------------------------------------------------------

def subset_geometry(
    s1, s2, candidates: CandidateSet, bins: int = DEFAULT_BINS
) -> GeometryReport:
    """Overlap of two selections plus bin entropy / coverage of the first.

    Entropy is the Shannon entropy (natural log) of the occupancy histogram
    over ``bins`` equal-width bins spanning [min(C), max(C)], normalized by
    ln(bins); coverage is the fraction of bins containing a selected index.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    sel1 = sorted(int(k) for k in s1)
    sel2 = set(int(k) for k in s2)
    members = set(int(k) for k in candidates.indices)
    for k in list(sel1) + sorted(sel2):
        if k not in members:
            raise ValueError(f"selected index {k} is not a candidate")
    overlap = len(set(sel1) & sel2)

    lo = float(candidates.indices[0])
    hi = float(candidates.indices[-1])
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.asarray(sel1, dtype=np.float64), bins=edges)
    total = counts.sum()
    if total == 0:
        entropy = 0.0
        coverage = 0.0
    else:
        p = counts[counts > 0] / total
        raw = -np.sum(p * np.log(p))
        entropy = float(raw / np.log(bins)) if bins > 1 else 0.0
        coverage = float(np.count_nonzero(counts) / bins)
    return GeometryReport(overlap=overlap, entropy=entropy, coverage_frac=coverage, bins=bins)


# ----------------------------------------------------------------------
# rank correlation and score-utility alignment
# ----------------------------------------------------------------------

def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, with each group of ties assigned its average rank."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Returns NaN when either input has zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D vectors of equal length")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = average_ranks(x) - (x.size + 1) / 2.0
    ry = average_ranks(y) - (y.size + 1) / 2.0
    denom = np.sqrt(np.sum(rx**2) * np.sum(ry**2))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(rx * ry) / denom)


def score_utility_alignment(
    pilot: SurrogateParams,
    scores: CandidateScores,
    grads: np.ndarray,
    candidates: CandidateSet,
    ds: TrajectoryDataset,
    probe_lr: float = 1e-3,
) -> float:
    """Spearman correlation between candidate scores and probe-update utility.

    ``grads`` holds each candidate's loss gradient at the pilot parameters,
    one row per candidate, as the harness's ``PilotGradients.grads``.
    Utility of candidate k is the validation rollout-error improvement from
    one normalized-gradient step: val(pilot) - val(pilot - probe_lr * g_k/||g_k||).
    Candidates with an exactly zero gradient get utility 0 (no update).
    """
    if candidates.size < 3:
        raise ValueError("need at least 3 candidates for a rank correlation")
    if not np.array_equal(scores.indices, candidates.indices):
        raise ValueError("scores are not aligned to the candidate set")
    if np.shape(grads) != (candidates.size, pilot.param_count):
        raise ValueError(
            f"grads has shape {np.shape(grads)}, "
            f"expected {(candidates.size, pilot.param_count)}"
        )
    base = rollout_nrmse(pilot, ds, split="val")
    utilities = np.zeros(candidates.size)
    for i in range(candidates.size):
        norm = float(np.linalg.norm(grads[i]))
        if norm == 0.0:
            continue
        probed = SurrogateParams(
            theta=pilot.theta - probe_lr * grads[i] / norm, arch=pilot.arch
        )
        utilities[i] = base - rollout_nrmse(probed, ds, split="val")
    return spearman(scores.scores, utilities)
