import json
import re
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gits import pde_data
from gits.pde_data import (
    BOUNDARIES,
    SPLIT_NAMES,
    ConfigurationError,
    DatasetFormatError,
    SolverConfig,
    TrajectoryDataset,
    GenerationError,
    generate_dataset,
    read_dataset,
    simulate_trajectories,
    write_dataset,
)


@pytest.fixture(scope="module")
def small_ds():
    cfg = SolverConfig(family="diffusion1d", spatial_size=32, t_count=20, seed=42)
    return generate_dataset(cfg, 12)


def test_zero_diffusivity_keeps_initial_condition():
    cfg = SolverConfig(family="diffusion1d", diffusivity=(0.0, 0.0), spatial_size=32,
                       t_count=15, seed=1)
    raw = simulate_trajectories(cfg, [0])[0]
    for t in range(1, cfg.t_count):
        assert np.array_equal(raw[t], raw[0])


def test_periodic_diffusion_conserves_spatial_mean():
    cfg = SolverConfig(family="diffusion1d", seed=3)
    raw = simulate_trajectories(cfg, [2])[0]
    assert abs(raw[50].mean() - raw[0].mean()) < 1e-10
    # holds along the whole trajectory, not just at t=50
    means = raw.mean(axis=1)
    assert np.max(np.abs(means - means[0])) < 1e-10


def test_periodic_burgers_conserves_spatial_mean():
    cfg = SolverConfig(family="burgers1d", seed=5)
    raw = simulate_trajectories(cfg, [0])[0]
    means = raw.mean(axis=1)
    assert np.max(np.abs(means - means[0])) < 1e-10


def test_generation_deterministic_and_serialization_byte_identical(tmp_path):
    cfg = SolverConfig(family="burgers1d", spatial_size=32, t_count=12, seed=0)
    ds1 = generate_dataset(cfg, 10)
    ds2 = generate_dataset(cfg, 10)
    assert np.array_equal(ds1.data, ds2.data)
    write_dataset(ds1, tmp_path / "a")
    write_dataset(ds2, tmp_path / "b")
    assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_all_families_generate_finite(small_ds):
    for family in ("burgers1d", "advection_diffusion1d"):
        cfg = SolverConfig(family=family, spatial_size=32, t_count=12, seed=7)
        ds = generate_dataset(cfg, 10)
        assert np.all(np.isfinite(ds.data))
    assert np.all(np.isfinite(small_ds.data))


def test_neumann_boundary_runs():
    cfg = SolverConfig(family="diffusion1d", boundary="neumann", spatial_size=32,
                       t_count=12, seed=9)
    ds = generate_dataset(cfg, 10)
    assert ds.meta["boundary"] == "neumann"


def _oracle_laplacian(u, boundary):
    """The per-boundary step the one ghost-cell rule replaced, kept as the reference."""
    if boundary == "periodic":
        return np.roll(u, -1, axis=-1) + np.roll(u, 1, axis=-1) - 2.0 * u
    up = np.concatenate([u[..., :1], u, u[..., -1:]], axis=-1)
    return up[..., 2:] + up[..., :-2] - 2.0 * u


def _oracle_rusanov_divergence(u, dx, flux, speed, boundary):
    if boundary == "periodic":
        ul = u
        ur = np.roll(u, -1, axis=-1)
        f = 0.5 * (flux(ul) + flux(ur)) - 0.5 * speed(ul, ur) * (ur - ul)
        return (f - np.roll(f, 1, axis=-1)) / dx
    ue = np.concatenate([u[..., :1], u, u[..., -1:]], axis=-1)
    ul = ue[..., :-1]
    ur = ue[..., 1:]
    f = 0.5 * (flux(ul) + flux(ur)) - 0.5 * speed(ul, ur) * (ur - ul)
    return (f[..., 1:] - f[..., :-1]) / dx


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("family", pde_data.FAMILIES)
def test_ghost_cell_step_matches_the_per_boundary_oracle(tmp_path, monkeypatch, family, boundary):
    cfg = SolverConfig(family=family, boundary=boundary, spatial_size=24, t_count=10, seed=11)
    write_dataset(generate_dataset(cfg, 10), tmp_path / "new")
    # the oracle steps take the bare state and the boundary, not a ghosted array
    monkeypatch.setattr(pde_data, "_ghost", lambda u, boundary: (u, boundary))
    monkeypatch.setattr(pde_data, "_laplacian", lambda ub: _oracle_laplacian(*ub))
    monkeypatch.setattr(pde_data, "_rusanov_divergence", lambda ub, dx, flux, speed:
                        _oracle_rusanov_divergence(ub[0], dx, flux, speed, ub[1]))
    write_dataset(generate_dataset(cfg, 10), tmp_path / "oracle")
    payload = (tmp_path / "new.f32").read_bytes()
    assert payload == (tmp_path / "oracle.f32").read_bytes()
    assert len(payload) == 10 * cfg.t_count * cfg.spatial_size * 4


def _oracle_trajectory(cfg, traj_index):
    """One trajectory stepped on its own (cells,) state: the per-trajectory loop
    that the batched solver replaced, kept as the reference."""

    def ghost(u):
        if cfg.boundary == "periodic":
            return np.concatenate([u[-1:], u, u[:1]])
        return np.concatenate([u[:1], u, u[-1:]])

    def laplacian(ue):
        return ue[2:] + ue[:-2] - 2.0 * ue[1:-1]

    def rusanov_divergence(ue, dx, flux, speed):
        ul = ue[:-1]
        ur = ue[1:]
        f = 0.5 * (flux(ul) + flux(ur)) - 0.5 * speed(ul, ur) * (ur - ul)
        return (f[1:] - f[:-1]) / dx

    rng = np.random.default_rng([cfg.seed, traj_index])
    dx = cfg.dx
    x = (np.arange(cfg.spatial_size) + 0.5) * dx
    u = pde_data._initial_condition(rng, x)
    if cfg.family == "diffusion1d":
        coef_d = rng.uniform(*cfg.diffusivity)
        r = coef_d * cfg.dt / dx**2

        def step(u):
            return u + r * laplacian(ghost(u))

    else:
        if cfg.family == "burgers1d":
            nu = rng.uniform(*cfg.viscosity)
            rd = nu * cfg.dt / dx**2
            flux = lambda v: 0.5 * v * v
            speed = lambda a, b: np.maximum(np.abs(a), np.abs(b))
        else:
            c = rng.uniform(*cfg.speed)
            coef_d = rng.uniform(*cfg.diffusivity)
            rd = coef_d * cfg.dt / dx**2
            flux = lambda v: c * v
            speed = lambda a, b: abs(c) * np.ones_like(a)

        def step(u):
            ue = ghost(u)
            return u - cfg.dt * rusanov_divergence(ue, dx, flux, speed) + rd * laplacian(ue)

    out = np.empty((cfg.t_count, cfg.spatial_size), dtype=np.float64)
    out[0] = u
    for t in range(1, cfg.t_count):
        for _ in range(cfg.snapshot_stride):
            u = step(u)
        out[t] = u
    return out


def _oracle_trajectories(cfg, traj_indices):
    return np.stack([_oracle_trajectory(cfg, i) for i in traj_indices])


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("family", pde_data.FAMILIES)
def test_batched_payload_matches_the_per_trajectory_oracle(tmp_path, monkeypatch, family,
                                                           boundary):
    cfg = SolverConfig(family=family, boundary=boundary, spatial_size=24, t_count=10, seed=11)
    write_dataset(generate_dataset(cfg, 12), tmp_path / "batched")
    monkeypatch.setattr(pde_data, "simulate_trajectories", _oracle_trajectories)
    write_dataset(generate_dataset(cfg, 12), tmp_path / "oracle")
    payload = (tmp_path / "batched.f32").read_bytes()
    assert payload == (tmp_path / "oracle.f32").read_bytes()
    assert len(payload) == 12 * cfg.t_count * cfg.spatial_size * 4
    assert (tmp_path / "batched.json").read_text() == (tmp_path / "oracle.json").read_text()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(family=st.sampled_from(pde_data.FAMILIES), boundary=st.sampled_from(BOUNDARIES),
       n_traj=st.integers(1, 6), spatial_size=st.integers(4, 64), t_count=st.integers(6, 12),
       snapshot_stride=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_batched_solver_equals_the_per_trajectory_oracle(family, boundary, n_traj, spatial_size,
                                                         t_count, snapshot_stride, seed):
    cfg = SolverConfig(family=family, boundary=boundary, spatial_size=spatial_size,
                       t_count=t_count, snapshot_stride=snapshot_stride, seed=seed)
    raw = simulate_trajectories(cfg, range(n_traj))
    assert raw.shape == (n_traj, t_count, spatial_size) and raw.dtype == np.float64
    assert np.array_equal(raw, _oracle_trajectories(cfg, range(n_traj)))


@pytest.mark.parametrize("family", pde_data.FAMILIES)
def test_a_trajectory_does_not_depend_on_its_batch(family):
    cfg = SolverConfig(family=family, spatial_size=16, t_count=8, seed=4)
    full = simulate_trajectories(cfg, range(7))
    for i in range(7):
        assert np.array_equal(simulate_trajectories(cfg, [i])[0], full[i]), i
    assert np.array_equal(simulate_trajectories(cfg, [5, 2, 6]), full[[5, 2, 6]])


def test_generation_error_names_the_lowest_row_at_the_first_bad_snapshot(monkeypatch):
    # snapshot_stride 2: the step of call c belongs to snapshot (c + 1) // 2
    cfg = SolverConfig(spatial_size=8, t_count=8, snapshot_stride=2, seed=0)
    poison = {3: (3, 6), 5: (1,)}  # call -> rows made NaN: rows 3, 6 at snapshot 2, row 1 at 3
    laplacian = pde_data._laplacian
    calls = []

    def poisoned(ue):
        out = laplacian(ue)
        calls.append(None)
        for row in poison.get(len(calls), ()):
            out[row, 0] = np.nan
        return out

    monkeypatch.setattr(pde_data, "_laplacian", poisoned)
    with pytest.raises(GenerationError, match=r"^non-finite state in trajectory 3 at snapshot 2$"):
        generate_dataset(cfg, 10)
    calls.clear()
    # the error names the trajectory of the row, not the row's position
    with pytest.raises(GenerationError, match=r"^non-finite state in trajectory 7 at snapshot 2$"):
        simulate_trajectories(cfg, range(4, 14))


def test_split_fractions_and_determinism(small_ds):
    counts = {name: len(small_ds.split_indices(name)) for name in ("train", "val", "test")}
    assert counts["train"] == int(0.8 * 12)
    assert counts["val"] >= 1 and counts["test"] >= 1
    assert sum(counts.values()) == 12
    assert small_ds.split == pde_data.assign_splits(12, 42)


def test_normalization_stats_on_training_split():
    cfg = SolverConfig(family="diffusion1d", seed=0)
    ds = generate_dataset(cfg, 20)
    tr = ds.data[ds.split_indices("train")].astype(np.float64)
    assert abs(np.mean(tr)) < 1e-8
    assert abs(np.std(tr) - 1.0) < 1e-8
    assert np.all(ds.norm_std > 0.0)


@pytest.mark.parametrize("family", pde_data.FAMILIES)
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_in_place_normalization_equals_the_reference_formula(family, boundary):
    # generate_dataset squares and normalizes in place; the reference
    # builds the full-size arrays with np.mean, np.std and (raw - mean) / std
    cfg = SolverConfig(family=family, boundary=boundary, spatial_size=33, t_count=12, seed=6)
    ds = generate_dataset(cfg, 17)
    raw = simulate_trajectories(cfg, range(17))
    train = raw[ds.split_indices("train")]
    mean, std = float(np.mean(train)), float(np.std(train))
    assert ds.norm_mean.tolist() == [mean] and ds.norm_std.tolist() == [std]
    assert np.array_equal(ds.data, ((raw - mean) / std)[:, :, :, None].astype(np.float32))


def test_unstable_dt_rejected():
    with pytest.raises(ConfigurationError):
        SolverConfig(family="diffusion1d", dt=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(family="burgers1d", dt=0.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(family="advection_diffusion1d", dt=0.5)


@pytest.mark.parametrize("family", pde_data.FAMILIES)
@pytest.mark.parametrize("field, value, message", [
    ("dt", float("nan"), "dt must be finite, got nan"),
    ("dt", float("inf"), "dt must be finite, got inf"),
    ("diffusivity", (float("nan"), float("nan")), "diffusivity must be finite, got (nan, nan)"),
    ("viscosity", (0.01, float("nan")), "viscosity must be finite, got (0.01, nan)"),
    ("speed", (float("nan"), 1.0), "speed must be finite, got (nan, 1.0)"),
    ("speed", (0.5, float("inf")), "speed must be finite, got (0.5, inf)"),
])
def test_non_finite_solver_settings_rejected(family, field, value, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        SolverConfig(family=family, **{field: value})


def test_n_traj_too_small_rejected():
    with pytest.raises(ConfigurationError):
        generate_dataset(SolverConfig(), 9)


def test_round_trip_identity(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    assert np.array_equal(back.data, small_ds.data)
    assert back.split == small_ds.split
    assert np.array_equal(back.norm_mean, small_ds.norm_mean)
    assert np.array_equal(back.norm_std, small_ds.norm_std)
    assert back.meta == small_ds.meta


def test_truncated_payload_rejected(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    blob = (tmp_path / "ds.f32").read_bytes()
    (tmp_path / "ds.f32").write_bytes(blob[:-16])
    with pytest.raises(DatasetFormatError, match="length mismatch"):
        read_dataset(tmp_path / "ds")


def _assert_same_dataset(a, b):
    assert np.array_equal(a.data, b.data)
    assert (a.split, a.meta) == (b.split, b.meta)
    assert np.array_equal(a.norm_mean, b.norm_mean) and np.array_equal(a.norm_std, b.norm_std)


@pytest.mark.parametrize("old_seed, old_n_traj", [(2, 20), (3, 10)])
def test_a_pair_written_over_another_leaves_exactly_the_new_one(tmp_path, old_seed, old_n_traj):
    new = generate_dataset(SolverConfig(spatial_size=8, t_count=6, seed=2), 10)
    old = generate_dataset(SolverConfig(spatial_size=8, t_count=6, seed=old_seed), old_n_traj)
    write_dataset(old, tmp_path / "ds")
    inodes = [(tmp_path / name).stat().st_ino for name in ("ds.json", "ds.f32")]
    write_dataset(new, tmp_path / "ds")
    _assert_same_dataset(read_dataset(tmp_path / "ds"), new)
    write_dataset(new, tmp_path / "fresh")
    for suffix in (".json", ".f32"):
        assert (tmp_path / f"ds{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()
    assert (tmp_path / "ds.f32").stat().st_size == 4 * 10 * 6 * 8
    # overwritten in place, not replaced by a new file
    assert [(tmp_path / name).stat().st_ino for name in ("ds.json", "ds.f32")] == inodes


def test_dotted_stems_name_their_own_pairs(tmp_path):
    first = generate_dataset(SolverConfig(spatial_size=8, t_count=6, seed=2), 10)
    second = generate_dataset(SolverConfig(spatial_size=8, t_count=6, seed=3), 10)
    assert write_dataset(first, tmp_path / "ds_0.1") == tmp_path / "ds_0.1"
    write_dataset(second, tmp_path / "ds_0.2")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ds_0.1.f32", "ds_0.1.json", "ds_0.2.f32", "ds_0.2.json"]
    _assert_same_dataset(read_dataset(tmp_path / "ds_0.1"), first)
    _assert_same_dataset(read_dataset(tmp_path / "ds_0.2.json"), second)


def test_flipped_payload_byte_fails_the_checksum(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    blob = bytearray((tmp_path / "ds.f32").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (tmp_path / "ds.f32").write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match="checksum"):
        read_dataset(tmp_path / "ds")


def test_manifest_without_a_checksum_loads_unchecked(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    assert manifest.pop("payload_crc32") == zlib.crc32((tmp_path / "ds.f32").read_bytes())
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    _assert_same_dataset(read_dataset(tmp_path / "ds"), small_ds)


def test_zero_t_count_manifest_rejected(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    manifest["t_count"] = 0
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError):
        read_dataset(tmp_path / "ds")


def test_unsupported_format_version_rejected(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match="version"):
        read_dataset(tmp_path / "ds")


def test_malformed_manifest_rejected(tmp_path, small_ds):
    write_dataset(small_ds, tmp_path / "ds")
    (tmp_path / "ds.json").write_text("{not json")
    with pytest.raises(DatasetFormatError, match="manifest"):
        read_dataset(tmp_path / "ds")


def test_normalization_length_must_match_channels(small_ds):
    with pytest.raises(DatasetFormatError, match="norm_mean"):
        TrajectoryDataset(data=small_ds.data, split=small_ds.split,
                          norm_mean=np.zeros(2), norm_std=small_ds.norm_std)
    with pytest.raises(DatasetFormatError, match="norm_std"):
        TrajectoryDataset(data=small_ds.data, split=small_ds.split,
                          norm_mean=small_ds.norm_mean, norm_std=np.ones(0))


@pytest.mark.parametrize("mean, std", [
    ([float("nan")], [1.0]), ([float("inf")], [1.0]), ([0.0], [-0.0]), ([0.0], [0.0]),
    ([0.0], [-2.0]), ([0.0], [float("nan")]), ([0.0], [float("inf")]),
])
def test_unusable_normalization_rejected(tmp_path, small_ds, mean, std):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    manifest["normalization"] = {"mean": mean, "std": std}
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match="norm_mean|norm_std"):
        read_dataset(tmp_path / "ds")


@pytest.mark.parametrize("missing", SPLIT_NAMES)
def test_split_without_a_train_val_or_test_trajectory_rejected(tmp_path, small_ds, missing):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    other = next(name for name in SPLIT_NAMES if name != missing)
    manifest["split"] = [other if s == missing else s for s in manifest["split"]]
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match=f"no '{missing}'"):
        read_dataset(tmp_path / "ds")


def test_generated_splits_are_never_empty():
    for n_traj in range(10, 130):
        for seed in range(3):
            assert set(pde_data.assign_splits(n_traj, seed)) == set(SPLIT_NAMES)
    ds = generate_dataset(SolverConfig(spatial_size=4, t_count=6, seed=5), 10)
    assert [len(ds.split_indices(name)) for name in SPLIT_NAMES] == [8, 1, 1]


@pytest.mark.parametrize("meta", [{}, {"boundary": "dirichlet"}, None, ["periodic"]])
def test_missing_or_unknown_boundary_rejected(tmp_path, small_ds, meta):
    write_dataset(small_ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    if meta is None:
        del manifest["meta"]
    else:
        manifest["meta"] = meta
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetFormatError, match="boundary"):
        read_dataset(tmp_path / "ds")


# ----------------------------------------------------------------------
# reader fuzz: every corrupt pair loads or raises DatasetFormatError
# ----------------------------------------------------------------------

_FUZZ_DS = generate_dataset(SolverConfig(spatial_size=4, t_count=6, seed=1), 10)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_dims = st.sampled_from(["n_traj", "t_count", "spatial_size", "channels"])
_mutations = st.one_of(
    st.tuples(st.just("truncate_payload"), st.integers(0, _FUZZ_DS.data.nbytes - 1)),
    st.tuples(st.just("truncate_manifest"), st.integers(0, 400)),
    st.tuples(st.just("dim"), st.tuples(_dims, st.integers(-2, 30) | _json_values)),
    st.tuples(st.just("split"), st.lists(st.sampled_from(SPLIT_NAMES + ("bogus",)),
                                         max_size=12) | _json_values),
    st.tuples(st.just("split"), st.lists(st.sampled_from(SPLIT_NAMES),
                                         min_size=_FUZZ_DS.n_traj, max_size=_FUZZ_DS.n_traj)),
    st.tuples(st.just("normalization"), st.fixed_dictionaries(
        {"mean": st.lists(st.floats(), max_size=3), "std": st.lists(st.floats(), max_size=3)}
    ) | _json_values),
    st.tuples(st.just("normalization"), st.fixed_dictionaries(
        {"mean": st.lists(st.floats(), min_size=1, max_size=1),
         "std": st.lists(st.floats(), min_size=1, max_size=1)}
    )),
    st.tuples(st.just("meta"), st.fixed_dictionaries(
        {"boundary": st.sampled_from(BOUNDARIES + ("dirichlet",)) | _json_values}
    ) | _json_values),
    st.tuples(st.just("payload_crc32"), _json_values),
    st.tuples(st.just("delete"), st.sampled_from(
        ["format_version", "n_traj", "channels", "split", "normalization", "meta",
         "payload_crc32"])),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mutations=st.lists(_mutations, min_size=1, max_size=3))
def test_reader_fuzz_raises_only_dataset_format_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "ds"
        write_dataset(_FUZZ_DS, stem)
        manifest_text = stem.with_suffix(".json").read_text()
        manifest = json.loads(manifest_text)
        payload = stem.with_suffix(".f32").read_bytes()
        for op, arg in mutations:
            if op == "truncate_payload":
                payload = payload[:arg]
            elif op == "truncate_manifest":
                manifest = None
                manifest_text = manifest_text[:arg]
            elif manifest is None:
                continue
            elif op == "dim":
                manifest[arg[0]] = arg[1]
            elif op == "delete":
                manifest.pop(arg, None)
            else:
                manifest[op] = arg
        if manifest is not None:
            manifest_text = json.dumps(manifest)
        stem.with_suffix(".json").write_text(manifest_text)
        stem.with_suffix(".f32").write_bytes(payload)
        try:
            ds = read_dataset(stem)
        except DatasetFormatError:
            return
        assert isinstance(ds, TrajectoryDataset)
        # whatever loads is usable: finite scaling, and every split present
        assert np.all(np.isfinite(ds.norm_mean))
        assert np.all(np.isfinite(ds.norm_std)) and np.all(ds.norm_std > 0.0)
        assert all(len(ds.split_indices(name)) > 0 for name in SPLIT_NAMES)
