"""Synthetic 1D PDE trajectory datasets with built-in finite-difference solvers.

Three scalar-field families on the unit interval, with periodic or zero-flux
(Neumann) boundaries:

  diffusion1d            u_t = D u_xx                  explicit FTCS
  burgers1d              u_t + (u^2/2)_x = nu u_xx     Rusanov flux + FTCS viscosity
  advection_diffusion1d  u_t + c u_x = D u_xx          Rusanov flux + FTCS diffusion

Initial conditions are sums of three random Fourier modes; physical
coefficients are drawn per trajectory from configured ranges. Every
trajectory gets its own sub-seed, so generation is deterministic and
trajectory-order independent. :func:`simulate_trajectories` steps all
trajectories of a dataset as one (n_traj, cells) float64 array, with the
coefficients as (n_traj, 1) columns; each element goes through the same
operations as if its trajectory were stepped alone, so a trajectory's
values do not depend on the batch it is in. Raw fields are normalized per
channel to zero mean / unit std over the training split, and stored as
float32 -- the same precision used by the on-disk format, which makes
serialization bit-exact.

File format: a pair ``<name>.json`` (manifest) + ``<name>.f32`` (flat
little-endian float32 payload in (trajectory, time, cell, channel) order).
:func:`write_pair`, :func:`read_header` and :func:`read_payload` hold the
stem rule, the versioned JSON header and the payload checks of every such
pair; the surrogate's checkpoints use them too. A pair is written over the
old files in place, header first, and the header's ``payload_crc32`` lets a
reader tell a payload cut short mid-overwrite from a whole one.
"""

from __future__ import annotations

import json
import math
import os
import zlib
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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        # Smallest time axis that still admits a nonempty candidate set for
        # the default history length of 4.
        if self.t_count < 6:
            raise ConfigurationError("t_count must be >= 6")
        if self.dt is None:
            object.__setattr__(self, "dt", _DEFAULT_DT[self.family])
        if self.snapshot_stride is None:
            object.__setattr__(self, "snapshot_stride", _DEFAULT_STRIDE[self.family])
        # NaN passes every comparison below, so finiteness is checked first.
        if not math.isfinite(self.dt):
            raise ConfigurationError(f"dt must be finite, got {self.dt}")
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        for name in ("diffusivity", "viscosity", "speed"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigurationError(f"{name} must be finite, got ({lo}, {hi})")
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
    """``u`` with one ghost cell at each end of its last (cell) axis: wrapped
    (periodic) or the edge value repeated (zero-flux Neumann). The stencils
    below read this array, so the boundary enters a step only here."""
    if boundary == "periodic":
        return np.concatenate([u[..., -1:], u, u[..., :1]], axis=-1)
    return np.concatenate([u[..., :1], u, u[..., -1:]], axis=-1)


def _laplacian(ue: np.ndarray) -> np.ndarray:
    return ue[..., 2:] + ue[..., :-2] - 2.0 * ue[..., 1:-1]


def _rusanov_divergence(ue, dx, flux, speed):
    """Divergence of the Rusanov (local Lax-Friedrichs) numerical flux."""
    ul = ue[..., :-1]
    ur = ue[..., 1:]
    f = 0.5 * (flux(ul) + flux(ur)) - 0.5 * speed(ul, ur) * (ur - ul)
    return (f[..., 1:] - f[..., :-1]) / dx


def _initial_condition(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    u = np.full_like(x, rng.uniform(-_IC_LEVEL_BOUND, _IC_LEVEL_BOUND))
    for _ in range(_IC_MODES):
        amp = rng.uniform(-1.0, 1.0)
        k = int(rng.integers(1, _IC_MODES + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += amp * np.sin(2.0 * np.pi * k * x + phase)
    return u


def simulate_trajectories(cfg: SolverConfig, traj_indices) -> np.ndarray:
    """Integrate raw (un-normalized) trajectories in float64, all as one array.

    Returns an array of shape (len(traj_indices), t_count, spatial_size),
    row ``j`` holding trajectory ``traj_indices[j]``. Each trajectory draws
    its initial condition and coefficients from its own
    ``default_rng([cfg.seed, index])``, and every element goes through the
    same operations whatever the other rows are, so a row does not depend on
    which trajectories share the batch.

    The state is checked after every snapshot. The first snapshot at which
    any row is non-finite raises :class:`GenerationError` naming the
    trajectory of the lowest such row.
    """
    traj_indices = [int(i) for i in traj_indices]
    n = len(traj_indices)
    dx = cfg.dx
    x = (np.arange(cfg.spatial_size) + 0.5) * dx
    u = np.empty((n, cfg.spatial_size), dtype=np.float64)
    # Per-trajectory columns: the diffusive number D dt / dx^2 (nu dt / dx^2
    # for Burgers) and the advection speed c.
    rd = np.empty((n, 1), dtype=np.float64)
    c = np.zeros((n, 1), dtype=np.float64)
    for row, i in enumerate(traj_indices):
        rng = np.random.default_rng([cfg.seed, i])
        u[row] = _initial_condition(rng, x)
        if cfg.family == "diffusion1d":
            rd[row] = rng.uniform(*cfg.diffusivity) * cfg.dt / dx**2
        elif cfg.family == "burgers1d":
            rd[row] = rng.uniform(*cfg.viscosity) * cfg.dt / dx**2
        else:
            c[row] = rng.uniform(*cfg.speed)
            rd[row] = rng.uniform(*cfg.diffusivity) * cfg.dt / dx**2

    if cfg.family == "diffusion1d":

        def step(u):
            return u + rd * _laplacian(_ghost(u, cfg.boundary))

    else:
        if cfg.family == "burgers1d":
            flux = lambda v: 0.5 * v * v
            speed = lambda a, b: np.maximum(np.abs(a), np.abs(b))
        else:
            flux = lambda v: c * v
            speed = lambda a, b: np.abs(c) * np.ones_like(a)

        def step(u):
            ue = _ghost(u, cfg.boundary)
            return u - cfg.dt * _rusanov_divergence(ue, dx, flux, speed) + rd * _laplacian(ue)

    out = np.empty((n, cfg.t_count, cfg.spatial_size), dtype=np.float64)
    out[:, 0] = u
    for t in range(1, cfg.t_count):
        for _ in range(cfg.snapshot_stride):
            u = step(u)
        finite = np.isfinite(u).all(axis=-1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise GenerationError(
                f"non-finite state in trajectory {traj_indices[row]} at snapshot {t}"
            )
        out[:, t] = u
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
    raw = simulate_trajectories(cfg, range(n_traj))

    split = assign_splits(n_traj, cfg.seed)
    train_idx = [i for i, s in enumerate(split) if s == "train"]

    # Single scalar channel for all current families.
    # np.mean and np.std's arithmetic, with the deviations squared in place
    # in the one gathered copy of the training rows
    train = raw[train_idx]
    mean = float(np.mean(train))
    train -= mean
    np.square(train, out=train)
    std = math.sqrt(float(np.sum(train)) / train.size)
    del train
    if std <= 0.0:
        raise GenerationError("training split has zero variance; cannot normalize")

    # in place, so no second full-size float64 array is made
    raw -= mean
    raw /= std
    data = raw[:, :, :, None].astype(np.float32)
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

def _pair_stem(path, payload_suffix: str) -> Path:
    """The stem of a ``<stem>.json`` + ``<stem><payload_suffix>`` pair.

    A path ending in either suffix names its pair; any other path is the stem.
    A path with an empty name (``.``, ``/``) raises :class:`ConfigurationError`.
    """
    p = Path(path)
    if not p.name:
        raise ConfigurationError(f"pair path {str(path)!r} has an empty file name")
    return p.with_suffix("") if p.suffix in (".json", payload_suffix) else p


def _pair_file(stem: Path, suffix: str) -> Path:
    """``<stem><suffix>``: the suffix is appended, so a dotted stem keeps its name."""
    return stem.with_name(stem.name + suffix)


def _overwrite(path: Path, data: bytes) -> None:
    """Write ``data`` over ``path`` in place, created if new, cut at its end.

    Opening with truncation frees the old blocks before the write, which took
    a median of about 60 ms (38-86 ms) per 775 KB file on ext4 mounted with
    ``discard``; writing over them and cutting the file at the new length
    took 0.2 ms.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate(len(data))


def write_pair(path, payload_suffix: str, version: int, header: dict, payload: bytes) -> Path:
    """Write ``header`` (with ``format_version`` and ``payload_crc32``), then
    ``payload``; returns the stem."""
    stem = _pair_stem(path, payload_suffix)
    stem.parent.mkdir(parents=True, exist_ok=True)
    header = {"format_version": version, **header, "payload_crc32": zlib.crc32(payload)}
    _overwrite(_pair_file(stem, ".json"), json.dumps(header, sort_keys=True, indent=1).encode())
    _overwrite(_pair_file(stem, payload_suffix), payload)
    return stem


def read_header(path, payload_suffix: str, version: int, error: type[Exception],
                name: str) -> tuple[Path, dict]:
    """The pair's stem and its JSON header, a ``name`` object of ``version``.

    Undecodable JSON, a non-object or another version raises ``error``.
    """
    stem = _pair_stem(path, payload_suffix)
    try:
        header = json.loads(_pair_file(stem, ".json").read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"malformed {name}: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"malformed {name}: not a JSON object")
    if header.get("format_version") != version:
        raise error(f"unsupported format version {header.get('format_version')!r}")
    return stem, header


def read_payload(stem: Path, payload_suffix: str, header: dict, expected: int,
                 error: type[Exception], name: str) -> bytes:
    """The pair's payload, checked against its ``name`` header.

    A length other than ``expected`` bytes raises ``error``, and then so does
    a CRC-32 other than the header's ``payload_crc32``. A header without that
    key, as written before it existed, is not checked.
    """
    blob = _pair_file(stem, payload_suffix).read_bytes()
    if len(blob) != expected:
        raise error(f"payload length mismatch: got {len(blob)} bytes, {name} implies {expected}")
    if "payload_crc32" in header:
        crc, stored = zlib.crc32(blob), header["payload_crc32"]
        if type(stored) is not int or stored != crc:
            raise error(f"payload checksum mismatch: {name} has {stored!r}, payload has {crc}")
    return blob


def write_dataset(ds: TrajectoryDataset, path) -> Path:
    """Write the ``<stem>.json`` + ``<stem>.f32`` pair for ``ds``; returns the stem."""
    manifest = {
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
    payload = np.ascontiguousarray(ds.data, dtype="<f4").tobytes()
    return write_pair(path, ".f32", FORMAT_VERSION, manifest, payload)


def read_dataset(path) -> TrajectoryDataset:
    """Read a dataset pair written by :func:`write_dataset`.

    Any malformed or inconsistent pair raises :class:`DatasetFormatError`.
    """
    stem, manifest = read_header(path, ".f32", FORMAT_VERSION, DatasetFormatError, "manifest")
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

    blob = read_payload(stem, ".f32", manifest, 4 * math.prod(dims), DatasetFormatError,
                        "manifest")
    data = np.frombuffer(blob, dtype="<f4").reshape(dims).astype(np.float32)

    return TrajectoryDataset(
        data=data,
        split=tuple(manifest["split"]),
        norm_mean=norm_mean,
        norm_std=norm_std,
        meta=meta,
    )
