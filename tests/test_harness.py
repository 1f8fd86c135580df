import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gits
from gits import cli, harness
from gits.diagnostics import RESULT_COLUMNS, RolloutReport
from gits.harness import (
    CellResult,
    ExperimentConfig,
    HarnessConfigError,
    compare_report,
    run_experiment,
    run_selftest,
    write_results,
)
from gits.pde_data import SolverConfig
from gits.selector import SAMPLERS
from gits.surrogate import TrainConfig


def small_experiment(**overrides):
    base = dict(
        solver=SolverConfig(family="diffusion1d", spatial_size=16, t_count=14, seed=3),
        n_traj=10,
        ratios=(0.3,),
        samplers=("uniform",),
        seeds=(0,),
        pilot_epochs=1,
        horizon=2,
        batch_traj=4,
        history_len=3,
        hidden=3,
        kernel_radius=1,
        train=TrainConfig(epochs_max=2, batch_size=16, min_epochs=1, early_stop=False),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fake_cell(sampler, ratio, seed, nrmse):
    report = RolloutReport(nrmse=nrmse, crmse=0.0, brmse=0.0, frmse_low=0.0,
                           frmse_mid=0.0, frmse_high=0.0, horizon=10, n_test=2)
    return CellResult(dataset="d", sampler=sampler, ratio=ratio, seed=seed,
                      budget=3, selected=[4, 5, 6], report=report)


# ----------------------------------------------------------------------
# experiment grid
# ----------------------------------------------------------------------

def test_single_cell_config_produces_one_csv_row(tmp_path):
    cfg = small_experiment(output_dir=str(tmp_path))
    result = run_experiment(cfg)
    assert len(result.cells) == 1 and result.failed == 0
    csv_path, json_path = write_results(result, tmp_path)
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 2
    assert rows[1][0] == "diffusion1d" and rows[1][1] == "uniform"


def _strip_timing(path):
    rows = list(csv.reader(Path(path).open()))
    drop = [rows[0].index("selection_time_s"), rows[0].index("train_time_s")]
    return [[v for i, v in enumerate(row) if i not in drop] for row in rows]


def _strip_json(path):
    payload = json.loads(Path(path).read_text())
    for cell in payload["cells"]:
        cell.pop("selection_time_s"), cell.pop("train_time_s")
    payload["config_echo"].pop("output_dir")
    return payload


def test_rerun_is_byte_identical_modulo_timing(tmp_path):
    cfg = small_experiment(samplers=SAMPLERS, seeds=(0, 1))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.failed == 0
    write_results(a, tmp_path / "a")
    write_results(b, tmp_path / "b")
    assert _strip_timing(tmp_path / "a/results.csv") == _strip_timing(tmp_path / "b/results.csv")
    assert _strip_json(tmp_path / "a/summary.json") == _strip_json(tmp_path / "b/summary.json")


def test_rerun_is_byte_identical_across_blas_thread_counts(tmp_path):
    cfg_path = _write_small_config(tmp_path, samplers=",".join(SAMPLERS))
    src = str(Path(gits.__file__).resolve().parents[1])
    outputs = []
    for threads in (1, min(2, os.cpu_count() or 1)):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "gits.cli", "run", "--config", str(cfg_path),
                        "--output", str(out)], env=env, check=True, capture_output=True)
        outputs.append(out)
    a, b = outputs
    summary = _strip_json(a / "summary.json")
    assert [c["error"] for c in summary["cells"]] == [None] * len(SAMPLERS)
    assert summary == _strip_json(b / "summary.json")
    assert _strip_timing(a / "results.csv") == _strip_timing(b / "results.csv")


def test_budget_rule_per_row():
    cfg = small_experiment(ratios=(0.05, 0.3), samplers=("uniform",), seeds=(0, 1))
    result = run_experiment(cfg)
    n_candidates = cfg.solver.t_count - cfg.history_len - 1
    for cell in result.cells:
        assert cell.budget == max(1, round(cell.ratio * n_candidates))
        assert len(cell.selected) == cell.budget


def test_seed_isolation():
    cfg2 = small_experiment(seeds=(0, 1), samplers=("gits",))
    cfg1 = small_experiment(seeds=(0,), samplers=("gits",))
    both = {(c.seed): c for c in run_experiment(cfg2).cells}
    alone = run_experiment(cfg1).cells[0]
    assert both[0].report.nrmse == alone.report.nrmse
    assert both[0].selected == alone.selected


def test_cell_failure_recorded_and_run_continues():
    # pilot training cannot run with zero pilot epochs reaching train();
    # force a failure by pointing the dataset path at a missing file for
    # one cell-level stage instead: use an unstable sampler input
    cfg = small_experiment(samplers=("uniform", "gits"), train=TrainConfig(
        epochs_max=2, batch_size=16, min_epochs=1, early_stop=False, lr=1e308,
        grad_clip=1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(cfg)
    assert result.failed == len(result.cells)
    for cell in result.cells:
        assert cell.error is not None
    # the summary still serializes
    summary = compare_report(result.cells)
    assert summary["aggregates"] == {}


def test_timing_fields_separate_selection_from_training():
    cfg = small_experiment(samplers=("gits",))
    cell = run_experiment(cfg).cells[0]
    assert cell.selection_time_s > 0.0
    assert cell.train_time_s > 0.0


def test_config_validation():
    with pytest.raises(HarnessConfigError):
        small_experiment(ratios=(1.5,))
    with pytest.raises(HarnessConfigError):
        small_experiment(seeds=())
    with pytest.raises(HarnessConfigError):
        small_experiment(samplers=("bogus",))


def test_default_protocol_settings():
    cfg = ExperimentConfig()
    assert cfg.ratios == (0.05, 0.10, 0.20)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.pilot_epochs == 5
    assert cfg.horizon == 10
    assert (cfg.lambda_cov, cfg.c_win) == (1.0, 0.5)
    assert cfg.history_len == 4
    assert cfg.n_traj == 60 and cfg.solver.t_count == 101
    assert cfg.train.lr == 1e-3
    assert cfg.train.batch_size == 64
    assert cfg.train.grad_clip == 1.0
    assert cfg.train.epochs_max == 100
    assert cfg.train.min_epochs == 10 and cfg.train.patience == 5
    assert cfg.clamp == 10.0
    assert cfg.normalize_scores is False
    obj = harness._objective(cfg, 101, 10)
    assert obj.normalize_scores is False and obj.lambda_cov == 1.0


# ----------------------------------------------------------------------
# compare report
# ----------------------------------------------------------------------

def test_compare_report_matches_manual_arithmetic():
    cells = [
        fake_cell("gits", 0.1, 0, 0.2),
        fake_cell("gits", 0.1, 1, 0.4),
        fake_cell("uniform", 0.1, 0, 0.5),
        fake_cell("uniform", 0.1, 1, 0.3),
    ]
    summary = compare_report(cells)
    agg = summary["aggregates"]
    assert agg["gits"]["0.1"]["mean"] == pytest.approx(0.3)
    assert agg["gits"]["0.1"]["std"] == pytest.approx(0.1)
    assert agg["uniform"]["0.1"]["n"] == 2
    # gits beats uniform on seed 0 only
    assert summary["wins"] == {"uniform": 1}


def test_compare_report_single_sampler_has_null_wins():
    cells = [fake_cell("uniform", 0.1, 0, 0.5)]
    summary = compare_report(cells)
    assert summary["wins"] is None
    assert "uniform" in summary["aggregates"]


def test_compare_report_without_gits_omits_wins():
    cells = [fake_cell("uniform", 0.1, 0, 0.5), fake_cell("loss_only", 0.1, 0, 0.4)]
    summary = compare_report(cells)
    assert summary["wins"] is None
    assert len(summary["aggregates"]) == 2


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

def test_selftest_full_pass():
    report = run_selftest()
    assert report.passed
    text = report.format()
    assert text.count("[PASS]") == 4


def test_selftest_detects_kernel_sign_flip():
    broken = lambda i, j, tau: -np.exp(-abs(i - j) / tau)
    report = run_selftest(suites=["submodularity"], kernel_fn=broken)
    assert not report.passed
    assert "[FAIL]" in report.format()


def test_selftest_empty_selection_trivially_passes():
    report = run_selftest(suites=[])
    assert report.passed
    assert report.outcomes == ()


def test_selftest_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_selftest(suites=["nope"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_print_defaults_round_trips(tmp_path, capsys):
    assert cli.main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    cfg = cli.load_config(str(path))
    assert cfg == ExperimentConfig()


def test_cli_family_solver_defaults_apply(tmp_path):
    path = tmp_path / "burgers.ini"
    path.write_text("[dataset]\nfamily = burgers1d\n")
    cfg = cli.load_config(str(path))
    assert cfg.solver.dt == 1e-3
    assert cfg.solver.snapshot_stride == 2
    path.write_text("[dataset]\nfamily = burgers1d\ndt = 0.0005\nsnapshot_stride = 3\n")
    cfg = cli.load_config(str(path))
    assert (cfg.solver.dt, cfg.solver.snapshot_stride) == (0.0005, 3)


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nratios = 2.0\n")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG


def _write_small_config(tmp_path, samplers="uniform,gits"):
    path = tmp_path / "small.ini"
    path.write_text(
        "[dataset]\n"
        "spatial_size = 16\n"
        "t_count = 14\n"
        "n_traj = 10\n"
        "seed = 3\n"
        "[experiment]\n"
        "ratios = 0.3\n"
        f"samplers = {samplers}\n"
        "seeds = 0\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[pilot]\n"
        "epochs = 1\n"
        "horizon = 2\n"
        "batch_traj = 4\n"
        "[model]\n"
        "history_len = 3\n"
        "hidden = 3\n"
        "kernel_radius = 1\n"
        "[train]\n"
        "epochs_max = 2\n"
        "min_epochs = 1\n"
        "batch_size = 16\n"
    )
    return path


def test_cli_run_generate_select_evaluate(tmp_path, capsys):
    cfg_path = _write_small_config(tmp_path)

    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "results.csv" in out
    assert (tmp_path / "out/results.csv").exists()
    payload = json.loads((tmp_path / "out/summary.json").read_text())
    assert payload["wins"] is not None and len(payload["cells"]) == 2

    assert cli.main(["generate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "ds")]) == 0
    assert (tmp_path / "ds.json").exists() and (tmp_path / "ds.f32").exists()

    assert cli.main(["select", "--config", str(cfg_path), "--sampler", "uniform",
                     "--ratio", "0.3", "--seed", "0",
                     "--output", str(tmp_path / "sel.json")]) == 0
    sel = json.loads((tmp_path / "sel.json").read_text())
    assert sel["sampler"] == "uniform" and len(sel["selected"]) == sel["K"]

    assert cli.main(["train", "--config", str(cfg_path), "--sampler", "uniform",
                     "--ratio", "0.3", "--seed", "0",
                     "--output", str(tmp_path / "ckpt")]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path),
                     "--params", str(tmp_path / "ckpt"),
                     "--output", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) >= {"nrmse", "crmse", "brmse", "horizon", "n_test"}


def test_cli_selftest_subcommand(capsys):
    assert cli.main(["selftest", "--suite", "none"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    assert cli.main(["selftest", "--suite", "incremental_coverage"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\[PASS\] incremental_coverage", out)
