"""Synthetic 1D PDE trajectory datasets with built-in finite-difference solvers.

Three scalar-field families on the unit interval, with periodic or zero-flux
(Neumann) boundaries:

  diffusion1d            u_t = D u_xx                  explicit FTCS
  burgers1d              u_t + (u^2/2)_x = nu u_xx     Rusanov flux + FTCS viscosity
  advection_diffusion1d  u_t + c u_x = D u_xx          Rusanov flux + FTCS diffusion

Initial conditions are sums of three random Fourier modes; physical
coefficients are drawn per trajectory from configured ranges. Every
trajectory gets its own sub-seed, so generation is deterministic and
trajectory-order independent. Raw fields are integrated in float64,
normalized per channel to zero mean / unit std over the training split,
and stored as float32 -- the same precision used by the on-disk format,
which makes serialization bit-exact.

File format: a pair ``<name>.json`` (manifest) + ``<name>.f32`` (flat
little-endian float32 payload in (trajectory, time, cell, channel) order).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")
FAMILIES = ("diffusion1d", "burgers1d", "advection_diffusion1d")
BOUNDARIES = ("periodic", "neumann")

# Initial conditions: a per-trajectory constant level plus 3 Fourier modes
# with amplitudes in (-1, 1) and wavenumbers 1..3. The constant component is
# conserved by every family here, so trajectories relax toward distinct
# levels and late-time frames keep a nonzero norm in normalized space.
_IC_MODES = 3
_IC_LEVEL_BOUND = 1.5
_IC_SUP_BOUND = float(_IC_MODES) + _IC_LEVEL_BOUND  # advective CFL bound

_DEFAULT_DT = {
    "diffusion1d": 2.5e-4,
    "burgers1d": 1.0e-3,
    "advection_diffusion1d": 2.0e-4,
}
_DEFAULT_STRIDE = {
    "diffusion1d": 12,
    "burgers1d": 2,
    "advection_diffusion1d": 2,
}


class ConfigurationError(ValueError):
    """Invalid solver or generation configuration (including unstable dt)."""


class GenerationError(RuntimeError):
    """Numerical failure while generating trajectories."""


class DatasetFormatError(ValueError):
    """Malformed or inconsistent dataset files."""


@dataclass(frozen=True)
class SolverConfig:
    """Configuration for one synthetic dataset.

    ``dt`` and ``snapshot_stride`` default to family-specific values chosen
    to satisfy the stability checks at the default grid. Coefficient ranges
    are sampled per trajectory; ranges irrelevant to the family are ignored.
    """

    family: str = "diffusion1d"
    spatial_size: int = 64
    t_count: int = 101
    dt: float | None = None
    snapshot_stride: int | None = None
    diffusivity: tuple[float, float] = (0.15, 0.4)
    viscosity: tuple[float, float] = (0.005, 0.05)
    speed: tuple[float, float] = (0.5, 1.5)
    boundary: str = "periodic"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if self.boundary not in BOUNDARIES:
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")
        if self.spatial_size < 4:
            raise ConfigurationError("spatial_size must be >= 4")
        # Smallest time axis that still admits a nonempty candidate set for
        # the default history length of 4.
        if self.t_count < 6:
            raise ConfigurationError("t_count must be >= 6")
        if self.dt is None:
            object.__setattr__(self, "dt", _DEFAULT_DT[self.family])
        if self.snapshot_stride is None:
            object.__setattr__(self, "snapshot_stride", _DEFAULT_STRIDE[self.family])
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        for name in ("diffusivity", "viscosity", "speed"):
            lo, hi = getattr(self, name)
            if hi < lo or lo < 0.0:
                raise ConfigurationError(f"bad {name} range ({lo}, {hi})")
        self._check_stability()

    @property
    def dx(self) -> float:
        return 1.0 / self.spatial_size

    def _check_stability(self):
        """Explicit CFL-style bounds; rejects an unstable dt outright."""
        dx = self.dx
        if self.family == "diffusion1d":
            r = self.diffusivity[1] * self.dt / dx**2
            if r > 0.5:
                raise ConfigurationError(
                    f"unstable dt for diffusion1d: D*dt/dx^2 = {r:.3f} > 0.5"
                )
        elif self.family == "burgers1d":
            adv = _IC_SUP_BOUND * self.dt / dx
            diff = 2.0 * self.viscosity[1] * self.dt / dx**2
            if adv + diff > 1.0:
                raise ConfigurationError(
                    f"unstable dt for burgers1d: CFL sum {adv + diff:.3f} > 1.0"
                )
        else:
            adv = self.speed[1] * self.dt / dx
            diff = 2.0 * self.diffusivity[1] * self.dt / dx**2
            if adv + diff > 1.0:
                raise ConfigurationError(
                    f"unstable dt for advection_diffusion1d: CFL sum {adv + diff:.3f} > 1.0"
                )


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """Immutable set of normalized trajectories plus split / scaling metadata.

    ``data`` has shape (n_traj, t_count, spatial_size, channels), float32,
    in normalized space. ``norm_mean``/``norm_std`` map back to raw solver
    units. ``meta`` carries generation provenance (family, boundary, seed...).
    """

    data: np.ndarray
    split: tuple[str, ...]
    norm_mean: np.ndarray
    norm_std: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.data.ndim != 4:
            raise DatasetFormatError("data must be 4-D (traj, time, cell, channel)")
        if self.data.dtype != np.float32:
            object.__setattr__(self, "data", self.data.astype(np.float32))
        if len(self.split) != self.data.shape[0]:
            raise DatasetFormatError("split length does not match trajectory count")
        for s in self.split:
            if s not in SPLIT_NAMES:
                raise DatasetFormatError(f"unknown split label {s!r}")
        if not np.all(np.isfinite(self.data)):
            raise DatasetFormatError("dataset contains non-finite samples")
        for name in ("norm_mean", "norm_std"):
            if np.shape(getattr(self, name)) != (self.channels,):
                raise DatasetFormatError(f"{name} length does not match {self.channels} channel(s)")
        mean, std = np.asarray(self.norm_mean), np.asarray(self.norm_std)
        if not np.all(np.isfinite(mean)):
            raise DatasetFormatError(f"norm_mean must be finite: {mean}")
        if not np.all(np.isfinite(std) & (std > 0.0)):
            raise DatasetFormatError(f"norm_std must be finite and positive: {std}")
        for name in SPLIT_NAMES:
            if name not in self.split:
                raise DatasetFormatError(f"split has no {name!r} trajectory")

    @property
    def n_traj(self) -> int:
        return self.data.shape[0]

    @property
    def t_count(self) -> int:
        return self.data.shape[1]

    @property
    def spatial_size(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    def split_indices(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return np.array([i for i, s in enumerate(self.split) if s == name], dtype=int)


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

def _ghost(u: np.ndarray, boundary: str) -> np.ndarray:
    """``u`` with one ghost cell at each end: wrapped (periodic) or the edge
    value repeated (zero-flux Neumann). The stencils below read this array,
    so the boundary enters a step only here."""
    if boundary == "periodic":
        return np.concatenate([u[-1:], u, u[:1]])
    return np.concatenate([u[:1], u, u[-1:]])


def _laplacian(ue: np.ndarray) -> np.ndarray:
    return ue[2:] + ue[:-2] - 2.0 * ue[1:-1]


def _rusanov_divergence(ue, dx, flux, speed):
    """Divergence of the Rusanov (local Lax-Friedrichs) numerical flux."""
    ul = ue[:-1]
    ur = ue[1:]
    f = 0.5 * (flux(ul) + flux(ur)) - 0.5 * speed(ul, ur) * (ur - ul)
    return (f[1:] - f[:-1]) / dx


def _initial_condition(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    u = np.full_like(x, rng.uniform(-_IC_LEVEL_BOUND, _IC_LEVEL_BOUND))
    for _ in range(_IC_MODES):
        amp = rng.uniform(-1.0, 1.0)
        k = int(rng.integers(1, _IC_MODES + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += amp * np.sin(2.0 * np.pi * k * x + phase)
    return u


def simulate_trajectory(cfg: SolverConfig, traj_index: int) -> np.ndarray:
    """Integrate one raw (un-normalized) trajectory in float64.

    Returns an array of shape (t_count, spatial_size). Deterministic in
    (cfg.seed, traj_index); trajectories are independent of each other.
    """
    rng = np.random.default_rng([cfg.seed, traj_index])
    dx = cfg.dx
    x = (np.arange(cfg.spatial_size) + 0.5) * dx
    u = _initial_condition(rng, x)

    if cfg.family == "diffusion1d":
        coef_d = rng.uniform(*cfg.diffusivity)
        r = coef_d * cfg.dt / dx**2

        def step(u):
            return u + r * _laplacian(_ghost(u, cfg.boundary))

    elif cfg.family == "burgers1d":
        nu = rng.uniform(*cfg.viscosity)
        rd = nu * cfg.dt / dx**2
        flux = lambda v: 0.5 * v * v
        speed = lambda a, b: np.maximum(np.abs(a), np.abs(b))

        def step(u):
            ue = _ghost(u, cfg.boundary)
            return u - cfg.dt * _rusanov_divergence(ue, dx, flux, speed) + rd * _laplacian(ue)

    else:
        c = rng.uniform(*cfg.speed)
        coef_d = rng.uniform(*cfg.diffusivity)
        rd = coef_d * cfg.dt / dx**2
        flux = lambda v: c * v
        speed = lambda a, b: abs(c) * np.ones_like(a)

        def step(u):
            ue = _ghost(u, cfg.boundary)
            return u - cfg.dt * _rusanov_divergence(ue, dx, flux, speed) + rd * _laplacian(ue)

    out = np.empty((cfg.t_count, cfg.spatial_size), dtype=np.float64)
    out[0] = u
    for t in range(1, cfg.t_count):
        for _ in range(cfg.snapshot_stride):
            u = step(u)
        if not np.all(np.isfinite(u)):
            raise GenerationError(
                f"non-finite state in trajectory {traj_index} at snapshot {t}"
            )
        out[t] = u
    return out


def assign_splits(n_traj: int, seed: int) -> tuple[str, ...]:
    """80/10/10 train/val/test at trajectory granularity, seeded shuffle."""
    rng = np.random.default_rng([seed, 7])
    perm = rng.permutation(n_traj)
    n_train = int(0.8 * n_traj)
    n_val = int(0.1 * n_traj)
    labels = [""] * n_traj
    for pos, idx in enumerate(perm):
        if pos < n_train:
            labels[idx] = "train"
        elif pos < n_train + n_val:
            labels[idx] = "val"
        else:
            labels[idx] = "test"
    return tuple(labels)


def generate_dataset(cfg: SolverConfig, n_traj: int) -> TrajectoryDataset:
    """Generate, split, and normalize a dataset of ``n_traj`` trajectories."""
    if n_traj < 10:
        raise ConfigurationError("n_traj must be >= 10 (need nonempty val/test splits)")
    raw = np.empty((n_traj, cfg.t_count, cfg.spatial_size), dtype=np.float64)
    for n in range(n_traj):
        raw[n] = simulate_trajectory(cfg, n)

    split = assign_splits(n_traj, cfg.seed)
    train_idx = [i for i, s in enumerate(split) if s == "train"]

    # Single scalar channel for all current families.
    mean = float(np.mean(raw[train_idx]))
    std = float(np.std(raw[train_idx]))
    if std <= 0.0:
        raise GenerationError("training split has zero variance; cannot normalize")

    data = ((raw - mean) / std)[:, :, :, None].astype(np.float32)
    meta = {
        "family": cfg.family,
        "boundary": cfg.boundary,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "snapshot_stride": cfg.snapshot_stride,
    }
    return TrajectoryDataset(
        data=data,
        split=split,
        norm_mean=np.array([mean], dtype=np.float64),
        norm_std=np.array([std], dtype=np.float64),
        meta=meta,
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _stem(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".f32"):
        p = p.with_suffix("")
    return p


def write_dataset(ds: TrajectoryDataset, path) -> None:
    """Write the ``<stem>.json`` + ``<stem>.f32`` pair for ``ds``."""
    stem = _stem(path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_traj": ds.n_traj,
        "t_count": ds.t_count,
        "spatial_size": ds.spatial_size,
        "channels": ds.channels,
        "split": list(ds.split),
        "normalization": {
            "mean": [float(v) for v in ds.norm_mean],
            "std": [float(v) for v in ds.norm_std],
        },
        "meta": ds.meta,
    }
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    payload = np.ascontiguousarray(ds.data, dtype="<f4").tobytes()
    stem.with_suffix(".f32").write_bytes(payload)


def read_dataset(path) -> TrajectoryDataset:
    """Read a dataset pair written by :func:`write_dataset`.

    Any malformed or inconsistent pair raises :class:`DatasetFormatError`.
    """
    stem = _stem(path)
    try:
        manifest = json.loads(stem.with_suffix(".json").read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"malformed manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetFormatError("malformed manifest: not a JSON object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported format version {version!r}")
    for key in ("n_traj", "t_count", "spatial_size", "channels", "split", "normalization"):
        if key not in manifest:
            raise DatasetFormatError(f"manifest missing key {key!r}")
    dims = tuple(manifest[k] for k in ("n_traj", "t_count", "spatial_size", "channels"))
    if any(type(d) is not int or d <= 0 for d in dims):
        raise DatasetFormatError(f"dimensions must be positive integers: {dims}")
    if not isinstance(manifest["split"], list):
        raise DatasetFormatError("split must be a list of labels")
    meta = manifest.get("meta")
    if not isinstance(meta, dict) or meta.get("boundary") not in BOUNDARIES:
        raise DatasetFormatError(f"meta.boundary must be one of {BOUNDARIES}")
    norm = manifest["normalization"]
    try:
        norm_mean = np.asarray(norm["mean"], dtype=np.float64)
        norm_std = np.asarray(norm["std"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"malformed normalization: {exc!r}") from exc

    blob = stem.with_suffix(".f32").read_bytes()
    expected = 4 * math.prod(dims)
    if len(blob) != expected:
        raise DatasetFormatError(
            f"payload length mismatch: got {len(blob)} bytes, manifest implies {expected}"
        )
    data = np.frombuffer(blob, dtype="<f4").reshape(dims).astype(np.float32)

    return TrajectoryDataset(
        data=data,
        split=tuple(manifest["split"]),
        norm_mean=norm_mean,
        norm_std=norm_std,
        meta=meta,
    )
