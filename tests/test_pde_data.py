import json
import tempfile
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
    generate_dataset,
    read_dataset,
    simulate_trajectory,
    write_dataset,
)


@pytest.fixture(scope="module")
def small_ds():
    cfg = SolverConfig(family="diffusion1d", spatial_size=32, t_count=20, seed=42)
    return generate_dataset(cfg, 12)


def test_zero_diffusivity_keeps_initial_condition():
    cfg = SolverConfig(family="diffusion1d", diffusivity=(0.0, 0.0), spatial_size=32,
                       t_count=15, seed=1)
    raw = simulate_trajectory(cfg, 0)
    for t in range(1, cfg.t_count):
        assert np.array_equal(raw[t], raw[0])


def test_periodic_diffusion_conserves_spatial_mean():
    cfg = SolverConfig(family="diffusion1d", seed=3)
    raw = simulate_trajectory(cfg, 2)
    assert abs(raw[50].mean() - raw[0].mean()) < 1e-10
    # holds along the whole trajectory, not just at t=50
    means = raw.mean(axis=1)
    assert np.max(np.abs(means - means[0])) < 1e-10


def test_periodic_burgers_conserves_spatial_mean():
    cfg = SolverConfig(family="burgers1d", seed=5)
    raw = simulate_trajectory(cfg, 0)
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


def test_unstable_dt_rejected():
    with pytest.raises(ConfigurationError):
        SolverConfig(family="diffusion1d", dt=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(family="burgers1d", dt=0.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(family="advection_diffusion1d", dt=0.5)


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
    st.tuples(st.just("normalization"), st.fixed_dictionaries(
        {"mean": st.lists(st.floats(), max_size=3), "std": st.lists(st.floats(), max_size=3)}
    ) | _json_values),
    st.tuples(st.just("meta"), st.fixed_dictionaries(
        {"boundary": st.sampled_from(BOUNDARIES + ("dirichlet",)) | _json_values}
    ) | _json_values),
    st.tuples(st.just("delete"), st.sampled_from(
        ["format_version", "n_traj", "channels", "split", "normalization", "meta"])),
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
