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

Exit codes: 0 success, 1 cell/suite failures present, 2 configuration error
(an INI section or key that CONFIG_KEYS does not declare, a value its field
rejects, a negative seed, a non-finite dt or coefficient range, a time axis
too short for any candidate start, or a checkpoint whose history_len,
channels or padding the evaluated dataset does not fit), 3 missing or
malformed input file (a dataset or checkpoint pair that is not there, or
that its reader rejects).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import diagnostics, harness, pde_data, selector, selftest, surrogate
from .harness import ExperimentConfig, HarnessConfigError
from .pde_data import SolverConfig
from .pilot_scoring import EmptyCandidateError, build_candidates, default_arch
from .selector import ObjectiveConfig
from .surrogate import TrainConfig
from .temporal_coverage import CoverageConfig

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_FORMAT = 3


def _optional(parse):
    """``parse``, with a blank value meaning the field's default of None."""
    return lambda text: parse(text) if text else None


def _pair(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"Not a boolean: {text}")
    return states[text.lower()]


# Every INI key, in print-defaults order: (section, key, owner, field, parse).
# ExperimentConfig holds SolverConfig, ObjectiveConfig and TrainConfig as its
# solver, objective and train fields, and ObjectiveConfig holds CoverageConfig
# as its coverage field. CoverageConfig's fields have no default, so
# print-defaults leaves out its four keys, which override the derived
# kernel parameters all together or not at all.
CONFIG_KEYS = (
    ("dataset", "family", SolverConfig, "family", str),
    ("dataset", "spatial_size", SolverConfig, "spatial_size", int),
    ("dataset", "t_count", SolverConfig, "t_count", int),
    ("dataset", "dt", SolverConfig, "dt", _optional(float)),
    ("dataset", "snapshot_stride", SolverConfig, "snapshot_stride", _optional(int)),
    ("dataset", "boundary", SolverConfig, "boundary", str),
    ("dataset", "seed", SolverConfig, "seed", int),
    ("dataset", "n_traj", ExperimentConfig, "n_traj", int),
    ("dataset", "diffusivity", SolverConfig, "diffusivity", _pair),
    ("dataset", "viscosity", SolverConfig, "viscosity", _pair),
    ("dataset", "speed", SolverConfig, "speed", _pair),
    ("dataset", "path", ExperimentConfig, "dataset_path", _optional(str)),
    ("experiment", "ratios", ExperimentConfig, "ratios", _floats),
    ("experiment", "samplers", ExperimentConfig, "samplers", _names),
    ("experiment", "seeds", ExperimentConfig, "seeds", _ints),
    ("experiment", "output_dir", ExperimentConfig, "output_dir", str),
    ("pilot", "epochs", ExperimentConfig, "pilot_epochs", int),
    ("pilot", "horizon", ExperimentConfig, "horizon", int),
    ("pilot", "batch_traj", ExperimentConfig, "batch_traj", int),
    ("objective", "lambda_cov", ObjectiveConfig, "lambda_cov", float),
    ("objective", "c_win", ObjectiveConfig, "c_win", float),
    ("objective", "normalize_scores", ObjectiveConfig, "normalize_scores", _bool),
    ("objective", "tau", CoverageConfig, "tau", _optional(float)),
    ("objective", "window_size", CoverageConfig, "window_size", _optional(int)),
    ("objective", "window_stride", CoverageConfig, "window_stride", _optional(int)),
    ("objective", "tau_w", CoverageConfig, "tau_w", _optional(float)),
    ("model", "history_len", ExperimentConfig, "history_len", int),
    ("model", "hidden", ExperimentConfig, "hidden", int),
    ("model", "kernel_radius", ExperimentConfig, "kernel_radius", int),
    ("model", "clamp", ExperimentConfig, "clamp", float),
    ("train", "lr", TrainConfig, "lr", float),
    ("train", "epochs_max", TrainConfig, "epochs_max", int),
    ("train", "batch_size", TrainConfig, "batch_size", int),
    ("train", "grad_clip", TrainConfig, "grad_clip", float),
    ("train", "min_epochs", TrainConfig, "min_epochs", int),
    ("train", "patience", TrainConfig, "patience", int),
)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def default_config_text() -> str:
    sections: dict[str, dict[str, str]] = {}
    for section, key, owner, name, _ in CONFIG_KEYS:
        default = next(f.default for f in dataclasses.fields(owner) if f.name == name)
        if default is not dataclasses.MISSING:
            sections.setdefault(section, {})[key] = _format(default)
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path: str | None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file; missing keys keep defaults.

    A section or key that :data:`CONFIG_KEYS` does not declare is an error.
    """
    parser = configparser.ConfigParser()
    keys = {(section, key): entry for section, key, *entry in CONFIG_KEYS}
    given = {owner: {} for _, _, owner, _, _ in CONFIG_KEYS}
    try:
        if path is not None and not parser.read(path):
            raise HarnessConfigError(f"config file {path!r} not found")
        if parser.defaults():
            raise HarnessConfigError(f"unknown section [{parser.default_section}]")
        for section in parser.sections():
            if section not in {s for s, _ in keys}:
                raise HarnessConfigError(f"unknown section [{section}]")
            for key, text in parser.items(section):
                if (section, key) not in keys:
                    raise HarnessConfigError(f"unknown key {key!r} in [{section}]")
                owner, name, parse = keys[section, key]
                try:
                    value = parse(text)
                except ValueError as exc:
                    raise HarnessConfigError(f"[{section}] {key}: {exc}") from exc
                if value is not None:
                    given[owner][name] = value
        solver = SolverConfig(**given[SolverConfig])
        coverage = given[CoverageConfig]
        names = [f.name for f in dataclasses.fields(CoverageConfig)]
        if 0 < len(coverage) < len(names):
            raise HarnessConfigError(f"[objective] needs all of {', '.join(names)} or none")
        objective = ObjectiveConfig(coverage=CoverageConfig(**coverage) if coverage else None,
                                    **given[ObjectiveConfig])
        return ExperimentConfig(
            solver=solver,
            objective=objective,
            train=TrainConfig(**given[TrainConfig]),
            **given[ExperimentConfig],
        )
    except HarnessConfigError:
        raise
    except (ValueError, KeyError, configparser.Error) as exc:
        raise HarnessConfigError(str(exc)) from exc


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
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
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    ds = pde_data.generate_dataset(cfg.solver, cfg.n_traj)
    stem = pde_data.write_dataset(ds, args.output)
    print(f"wrote {stem}.json/.f32 "
          f"({ds.n_traj} trajectories x {ds.t_count} steps x {ds.spatial_size} cells)")
    return EXIT_OK


def _prepare_cell(cfg, sampler, ratio, seed):
    """Select one cell's starts; the selection time includes the seed's pilot, if any."""
    ds = harness.load_or_generate_dataset(cfg)
    candidates = build_candidates(ds.t_count, cfg.history_len)
    selection, sel_time = harness.select_starts(cfg, ds, candidates, sampler, ratio, seed)
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
    stem = surrogate.save_params(params, args.output,
                                 seed=harness.stage_seed(args.seed, "train"),
                                 epoch=surrogate.kept_epoch(history))
    print(f"trained on K={selection.budget} starts, {len(history)} epochs -> {stem}.json/.f64")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    ds = harness.load_or_generate_dataset(cfg)
    params, _ = surrogate.load_params(args.params)
    arch = params.arch
    if arch.channels != ds.channels:
        raise HarnessConfigError(f"checkpoint has channels={arch.channels}, "
                                 f"dataset has channels={ds.channels}")
    if ds.t_count <= arch.history_len:
        raise HarnessConfigError(f"checkpoint has history_len={arch.history_len}, dataset has "
                                 f"t_count={ds.t_count}: no frame left to roll out")
    if arch.padding != default_arch(ds).padding:
        raise HarnessConfigError(f"checkpoint has padding={arch.padding}, dataset has "
                                 f"boundary={ds.meta.get('boundary')}")
    report = diagnostics.rollout_report(params, ds, split="test")
    payload = dataclasses.asdict(report)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
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
    suites = None if args.suite is None else [s for s in args.suite if s != "none"]
    report = selftest.run_selftest(suites=suites)
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
                   choices=selftest.SELFTEST_SUITES + ("none",),
                   help="restrict to one or more suites; 'none' adds no suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HarnessConfigError, pde_data.ConfigurationError, EmptyCandidateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (pde_data.DatasetFormatError, surrogate.CheckpointFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FileNotFoundError as exc:  # writers create their directories: this is an input
        print(f"file error: {exc.filename}: not found", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
