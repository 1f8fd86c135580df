"""Command-line interface.

Subcommands mirror the pipeline stages so each can be run and inspected on
its own:

  print-defaults   dump the effective default config (INI format)
  generate         write a synthetic dataset pair (<out>.json + <out>.f32)
  select           run one sampler, write the selection as JSON
  train            select + train the downstream model, write a checkpoint
  evaluate         score a checkpoint on the test split
  run              full (ratio, sampler, seed) grid -> results.csv + summary.json
  selftest         small-scale oracle suites (greedy, coverage, gradients)

Exit codes: 0 success, 1 cell/suite failures present, 2 configuration error,
3 malformed dataset or checkpoint file.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import diagnostics, harness, pde_data, selector, surrogate
from .pilot_scoring import build_candidates
from .temporal_coverage import CoverageConfig

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_FORMAT = 3


def default_config_text() -> str:
    cfg = harness.ExperimentConfig()
    parser = configparser.ConfigParser()
    parser["dataset"] = {
        "family": cfg.solver.family,
        "spatial_size": str(cfg.solver.spatial_size),
        "t_count": str(cfg.solver.t_count),
        # blank: the family's own solver defaults apply
        "dt": "",
        "snapshot_stride": "",
        "boundary": cfg.solver.boundary,
        "seed": str(cfg.solver.seed),
        "n_traj": str(cfg.n_traj),
        "diffusivity": f"{cfg.solver.diffusivity[0]},{cfg.solver.diffusivity[1]}",
        "viscosity": f"{cfg.solver.viscosity[0]},{cfg.solver.viscosity[1]}",
        "speed": f"{cfg.solver.speed[0]},{cfg.solver.speed[1]}",
        "path": "",
    }
    parser["experiment"] = {
        "ratios": ",".join(repr(r) for r in cfg.ratios),
        "samplers": ",".join(cfg.samplers),
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "output_dir": cfg.output_dir,
    }
    parser["pilot"] = {
        "epochs": str(cfg.pilot_epochs),
        "horizon": str(cfg.horizon),
        "batch_traj": str(cfg.batch_traj),
    }
    parser["objective"] = {
        "lambda_cov": repr(cfg.lambda_cov),
        "c_win": repr(cfg.c_win),
        "normalize_scores": str(cfg.normalize_scores).lower(),
        # optional kernel overrides, all four or none: tau, window_size, window_stride, tau_w
    }
    parser["model"] = {
        "history_len": str(cfg.history_len),
        "hidden": str(cfg.hidden),
        "kernel_radius": str(cfg.kernel_radius),
        "clamp": repr(cfg.clamp),
    }
    parser["train"] = {
        "lr": repr(cfg.train.lr),
        "epochs_max": str(cfg.train.epochs_max),
        "batch_size": str(cfg.train.batch_size),
        "grad_clip": repr(cfg.train.grad_clip),
        "min_epochs": str(cfg.train.min_epochs),
        "patience": str(cfg.train.patience),
    }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _pair(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def load_config(path: str | None) -> harness.ExperimentConfig:
    """Build an ExperimentConfig from an INI file; missing keys keep defaults."""
    parser = configparser.ConfigParser()
    parser.read_string(default_config_text())
    try:
        if path is not None and not parser.read(path):
            raise harness.HarnessConfigError(f"config file {path!r} not found")
        d = parser["dataset"]
        solver = pde_data.SolverConfig(
            family=d.get("family"),
            spatial_size=d.getint("spatial_size"),
            t_count=d.getint("t_count"),
            dt=d.getfloat("dt") if d.get("dt") else None,
            snapshot_stride=d.getint("snapshot_stride") if d.get("snapshot_stride") else None,
            boundary=d.get("boundary"),
            seed=d.getint("seed"),
            diffusivity=_pair(d.get("diffusivity")),
            viscosity=_pair(d.get("viscosity")),
            speed=_pair(d.get("speed")),
        )
        e = parser["experiment"]
        o = parser["objective"]
        keys = ("tau", "window_size", "window_stride", "tau_w")
        given = [key for key in keys if o.get(key, fallback="")]
        if 0 < len(given) < len(keys):
            raise harness.HarnessConfigError(f"[objective] needs all of {', '.join(keys)} or none")
        coverage_override = None
        if given:
            coverage_override = CoverageConfig(
                tau=o.getfloat("tau"),
                window_size=o.getint("window_size"),
                window_stride=o.getint("window_stride"),
                tau_w=o.getfloat("tau_w"),
            )
        m = parser["model"]
        t = parser["train"]
        train_cfg = surrogate.TrainConfig(
            lr=t.getfloat("lr"),
            epochs_max=t.getint("epochs_max"),
            batch_size=t.getint("batch_size"),
            grad_clip=t.getfloat("grad_clip"),
            min_epochs=t.getint("min_epochs"),
            patience=t.getint("patience"),
        )
        p = parser["pilot"]
        return harness.ExperimentConfig(
            solver=solver,
            n_traj=d.getint("n_traj"),
            dataset_path=d.get("path") or None,
            ratios=tuple(float(r) for r in e.get("ratios").split(",")),
            samplers=tuple(s.strip() for s in e.get("samplers").split(",") if s.strip()),
            seeds=tuple(int(s) for s in e.get("seeds").split(",")),
            pilot_epochs=p.getint("epochs"),
            horizon=p.getint("horizon"),
            batch_traj=p.getint("batch_traj"),
            lambda_cov=o.getfloat("lambda_cov"),
            c_win=o.getfloat("c_win"),
            normalize_scores=o.getboolean("normalize_scores"),
            coverage_override=coverage_override,
            history_len=m.getint("history_len"),
            hidden=m.getint("hidden"),
            kernel_radius=m.getint("kernel_radius"),
            clamp=m.getfloat("clamp"),
            train=train_cfg,
            output_dir=e.get("output_dir"),
        )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise harness.HarnessConfigError(f"bad config: {exc}") from exc


def _apply_overrides(cfg: harness.ExperimentConfig, args) -> harness.ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seeds"] = (args.seed,)
    if getattr(args, "sampler", None):
        updates["samplers"] = (args.sampler,)
    if getattr(args, "ratio", None) is not None:
        updates["ratios"] = (args.ratio,)
    if getattr(args, "output_dir", None):
        updates["output_dir"] = args.output_dir
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_print_defaults(args) -> int:
    text = default_config_text()
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    ds = pde_data.generate_dataset(cfg.solver, cfg.n_traj)
    pde_data.write_dataset(ds, args.output)
    stem = Path(args.output)
    if stem.suffix in (".json", ".f32"):
        stem = stem.with_suffix("")
    print(f"wrote {stem}.json/.f32 "
          f"({ds.n_traj} trajectories x {ds.t_count} steps x {ds.spatial_size} cells)")
    return EXIT_OK


def _prepare_cell(cfg, sampler, ratio, seed):
    """Select one cell's starts; the selection time includes the seed's pilot, if any."""
    ds = harness.load_or_generate_dataset(cfg)
    candidates = build_candidates(ds.t_count, cfg.history_len)
    pilot = None
    if selector.SAMPLER_TABLE[sampler].needs is not None:
        pilot = harness.pilot_gradients(cfg, ds, candidates, seed)
    selection, sel_time = harness.select_starts(cfg, ds, candidates, sampler, ratio, seed,
                                                pilot=pilot)
    return ds, selection, sel_time


def _cmd_select(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    _, selection, sel_time = _prepare_cell(cfg, args.sampler, args.ratio, args.seed)
    selector.write_selection_json(
        selection, args.output, sel_time,
        config={"sampler": args.sampler, "ratio": args.ratio, "seed": args.seed},
    )
    print(f"{args.sampler}: K={selection.budget} starts -> {args.output} "
          f"(selection {sel_time:.2f}s)")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    ds, selection, _ = _prepare_cell(cfg, args.sampler, args.ratio, args.seed)
    params, history = harness.train_downstream(cfg, ds, selection.selected, args.seed)
    surrogate.save_params(params, args.output, seed=harness.stage_seed(args.seed, "train"),
                          epoch=history[-1].epoch if history else 0)
    print(f"trained on K={selection.budget} starts, {len(history)} epochs "
          f"-> {args.output}.json/.f64")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    ds = harness.load_or_generate_dataset(cfg)
    params, _ = surrogate.load_params(args.params)
    report = diagnostics.rollout_report(params, ds, split="test")
    payload = dataclasses.asdict(report)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(json.dumps(payload, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = harness.run_experiment(cfg)
    csv_path, json_path = harness.write_results(result, cfg.output_dir)
    print(harness.format_compare_table(harness.compare_report(result.cells)))
    print(f"\nwrote {csv_path} and {json_path}")
    if result.failed:
        print(f"{result.failed} cell(s) failed; see summary.json", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def _cmd_selftest(args) -> int:
    suites = args.suite if args.suite is not None else None
    if suites == ["none"]:
        suites = []
    report = harness.run_selftest(suites=suites)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gits",
        description="Gradient-informed temporal sampling for PDE surrogate training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print-defaults", help="dump the effective default config")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_print_defaults)

    p = sub.add_parser("generate", help="generate a dataset pair")
    p.add_argument("--config", default=None)
    p.add_argument("--output", required=True, help="dataset path stem")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("select", help="run one sampler and export the selection")
    p.add_argument("--config", default=None)
    p.add_argument("--sampler", default="gits", choices=selector.SAMPLERS)
    p.add_argument("--ratio", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_select)

    p = sub.add_parser("train", help="select starts and train the downstream model")
    p.add_argument("--config", default=None)
    p.add_argument("--sampler", default="gits", choices=selector.SAMPLERS)
    p.add_argument("--ratio", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="checkpoint path stem")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    p.add_argument("--config", default=None)
    p.add_argument("--params", required=True, help="checkpoint path stem")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("run", help="run the full experiment grid")
    p.add_argument("--config", default=None)
    p.add_argument("--output", dest="output_dir", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=None, help="restrict to one seed")
    p.add_argument("--sampler", default=None, choices=selector.SAMPLERS,
                   help="restrict to one sampler")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("selftest", help="run the oracle self-test suites")
    p.add_argument("--suite", action="append", default=None,
                   choices=harness.SELFTEST_SUITES + ("none",),
                   help="restrict to one or more suites; 'none' runs nothing")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.HarnessConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except pde_data.ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (pde_data.DatasetFormatError, surrogate.CheckpointFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
