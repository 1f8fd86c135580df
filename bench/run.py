"""Benchmark of the gits pipeline through its command-line entry points.

Each workload generates its dataset with ``gits generate`` during set-up,
then times a body of ``gits run`` or ``gits select`` calls made in-process
through ``gits.cli.main`` on the dataset written during set-up. Every output
is checked; the last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload grid_default --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run. ``--trace 1``
runs the body once untraced and three times traced (twice on the run seed,
once on a held-out seed) and reports the per-layer metrics; see README.md
in this directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3
HELD_OUT_OFFSET = 1000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
THP_SETTING = Path("/sys/kernel/mm/transparent_hugepage/enabled")
ALL_SAMPLERS = "gits,uniform,loss_only,coverage_only,grad_only,loss_div,grad_match"


@dataclass(frozen=True)
class Workload:
    # INI overrides on top of `gits print-defaults`. Every workload states dt
    # and snapshot_stride: the defaults file carries diffusion's values for
    # every family.
    config: dict
    # (sampler, ratio) per `gits select` call; empty means one `gits run`.
    selects: tuple = ()


# Training runs a fixed number of epochs (patience >= epochs_max), so the
# work per run does not depend on the seed; validation still runs after
# every epoch from min_epochs on.
WORKLOADS = {
    # The paper's grid at one ratio and one seed: five pilots and five
    # scorings run where one of each per seed would do.
    "grid_default": Workload(
        config={
            "dataset": {"family": "diffusion1d", "boundary": "periodic", "t_count": "101",
                        "spatial_size": "64", "n_traj": "30", "dt": "0.00025",
                        "snapshot_stride": "12"},
            "experiment": {"ratios": "0.1", "samplers": ALL_SAMPLERS},
            "pilot": {"epochs": "2", "horizon": "10", "batch_traj": "8"},
            "train": {"epochs_max": "10", "min_epochs": "5", "patience": "10"},
        },
    ),
    # |C| = 1496 start indices: dense greedy over |C| x |C| kernel matrices
    # is the largest layer, and every `gits select` reads the dataset. One
    # select per body, so that an untraced run holds several bodies.
    "long_axis_select": Workload(
        config={
            "dataset": {"family": "diffusion1d", "boundary": "periodic", "t_count": "1501",
                        "spatial_size": "32", "n_traj": "10", "dt": "0.00025",
                        "snapshot_stride": "2"},
            "pilot": {"epochs": "1", "horizon": "4", "batch_traj": "8"},
        },
        selects=(("gits", 0.1),),
    ),
    # Another family and the reflect-padding path; downstream training and
    # validation dominate, with one pilot per seed.
    "advdiff_neumann_train": Workload(
        config={
            "dataset": {"family": "advection_diffusion1d", "boundary": "neumann",
                        "t_count": "101", "spatial_size": "64", "n_traj": "60",
                        "dt": "0.0002", "snapshot_stride": "2"},
            "experiment": {"ratios": "0.2", "samplers": "gits,uniform,coverage_only"},
            "pilot": {"epochs": "1", "horizon": "10", "batch_traj": "8"},
            "train": {"epochs_max": "25", "min_epochs": "5", "patience": "25"},
        },
    ),
}


# ----------------------------------------------------------------------
# machine facts
# ----------------------------------------------------------------------

def pin_environment() -> None:
    """Settings numpy reads at import; call before numpy is imported.

    One process generates the load; BLAS gets at most nproc threads (default
    1). NumPy asks for transparent huge pages on large arrays by default, and
    whether the kernel grants them depends on how fragmented memory is at the
    moment, which drifts between runs. Greedy selection allocates two
    |C| x |C| temporaries per step, so on `long_axis_select` that request
    alone moved greedy's time by about a quarter between runs. The benchmark
    turns it off (default 0) so every run pays the same page faults.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))
    os.environ.setdefault(HUGEPAGE_VAR, "0")


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "transparent_hugepage": THP_SETTING.read_text().strip() if THP_SETTING.is_file() else None,
        **{var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, HUGEPAGE_VAR)},
    }


# ----------------------------------------------------------------------
# set-up, body and output checks
# ----------------------------------------------------------------------

class Case:
    """One workload at one seed, with its config file and dataset in ``work``."""

    def __init__(self, name: str, seed: int, work: Path):
        from gits import cli

        self.cli = cli  # cli.main is looked up per call, so a tracer can wrap it
        self.seed, self.work = seed, work
        self.workload = WORKLOADS[name]
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.ini"
        self.stem = work / "data" / name
        parser = configparser.ConfigParser()
        parser.read_string(cli.default_config_text())
        for section, values in self.workload.config.items():
            parser[section].update(values)
        parser["dataset"].update(seed=str(seed), path=str(self.stem))
        parser["experiment"].update(seeds=str(seed))
        with open(self.config_path, "w") as fh:
            parser.write(fh)
        self.cfg = cli.load_config(str(self.config_path))

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def setup(self) -> float:
        t0 = time.perf_counter()
        rc = self._cli(["generate", "--config", str(self.config_path), "--output", str(self.stem)])
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"gits generate exited with {rc}")
        return elapsed

    def body(self) -> tuple[float, list[dict]]:
        """Time the workload's CLI calls; returns (seconds, one outcome per cell)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cfg = str(self.config_path)
        t0 = time.perf_counter()
        if self.workload.selects:
            codes = []
            for sampler, ratio in self.workload.selects:
                codes.append(self._cli(["select", "--config", cfg, "--sampler", sampler,
                                        "--ratio", repr(ratio), "--seed", str(self.seed),
                                        "--output", str(out / f"{sampler}_{ratio}.json")]))
            elapsed = time.perf_counter() - t0
            return elapsed, self._select_outcomes(out, codes)
        code = self._cli(["run", "--config", cfg, "--output", str(out)])
        elapsed = time.perf_counter() - t0
        return elapsed, self._run_outcomes(out, code)

    def _expected_budget(self, ratio: float) -> tuple[int, int, int]:
        """(K, lowest, highest) admissible start index, computed independently."""
        lo = self.cfg.history_len
        hi = self.cfg.solver.t_count - 2
        n = hi - lo + 1
        return max(1, min(n, round(ratio * n))), lo, hi

    def _check_picks(self, ratio: float, selected) -> str | None:
        k, lo, hi = self._expected_budget(ratio)
        if not isinstance(selected, list) or len(selected) != k:
            return f"expected {k} picks"
        if len(set(selected)) != k:
            return "picks are not unique"
        if not all(isinstance(s, int) and lo <= s <= hi for s in selected):
            return "pick outside the candidate range"
        return None

    def _select_outcomes(self, out: Path, codes: list[int]) -> list[dict]:
        outcomes = []
        for (sampler, ratio), code in zip(self.workload.selects, codes):
            cell = {"cell": f"{sampler}@{ratio}/s{self.seed}", "selected": None, "nrmse": None}
            path = out / f"{sampler}_{ratio}.json"
            if code != 0 or not path.exists():
                cell["error"] = f"gits select exited with {code}"
            else:
                payload = json.loads(path.read_text())
                cell["selected"] = payload.get("selected")
                cell["error"] = self._check_picks(ratio, cell["selected"])
                if payload.get("sampler") != sampler:
                    cell["error"] = "wrong sampler label"
            outcomes.append(cell)
        return outcomes

    def _run_outcomes(self, out: Path, code: int) -> list[dict]:
        summary_path = out / "summary.json"
        cells = json.loads(summary_path.read_text())["cells"] if summary_path.exists() else []
        by_key = {(c["sampler"], c["ratio"], c["seed"]): c for c in cells}
        rows = 0
        if (out / "results.csv").exists():
            rows = len((out / "results.csv").read_text().splitlines()) - 1
        outcomes = []
        for ratio in self.cfg.ratios:
            for sampler in self.cfg.samplers:
                c = by_key.get((sampler, ratio, self.seed))
                cell = {"cell": f"{sampler}@{ratio}/s{self.seed}", "selected": None, "nrmse": None}
                if c is None:
                    cell["error"] = f"cell missing (gits run exited with {code})"
                elif c["error"]:
                    cell["error"] = c["error"].splitlines()[0]
                else:
                    cell["selected"], cell["nrmse"] = c["selected"], c["nrmse"]
                    cell["error"] = self._check_picks(ratio, c["selected"])
                    if not (isinstance(c["nrmse"], float) and math.isfinite(c["nrmse"])):
                        cell["error"] = "nRMSE is not finite"
                outcomes.append(cell)
        if rows != sum(1 for c in cells if not c["error"]):
            for c in outcomes:
                c["error"] = c["error"] or "results.csv does not list every successful cell"
        return outcomes


def digest(outcomes: list[dict]) -> str:
    """Exact fingerprint of every cell's picks and nRMSE."""
    rows = sorted((c["cell"], c["selected"], repr(c["nrmse"])) for c in outcomes)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# untraced and traced runs
# ----------------------------------------------------------------------

def run_untraced(case: Case, seconds: float) -> tuple[dict, list[dict], dict]:
    # An untimed warm-up round pays the first-call costs (imports, caches),
    # and its outputs are checked like the others. Then rounds of a set-up
    # and a body, so that both medians sample the same stretch of time on a
    # machine whose speed drifts over seconds. The warm-up counts against
    # `seconds`.
    started = time.perf_counter()
    case.setup()
    _, outcomes = case.body()
    digests, setups, times = [digest(outcomes)], [], []
    spent = time.perf_counter() - started
    while len(times) < MIN_ROUNDS or spent + spent / len(digests) <= seconds:
        setups.append(case.setup())
        elapsed, cells = case.body()
        times.append(elapsed)
        digests.append(digest(cells))
        outcomes.extend(cells)
        spent = time.perf_counter() - started
    first = outcomes[: len(outcomes) // len(digests)]
    nrmse = [c["nrmse"] for c in first if c["nrmse"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "setup_runs_s": setups,
        "body_runs_s": times,
        "nrmse_mean": statistics.fmean(nrmse) if nrmse else None,
        "digests": digests,
        "consistent": len(set(digests)) == 1,
    }
    return metrics, outcomes, report


def traced_pass(case: Case) -> tuple[tracing.Tracer, float, list[dict]]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        case.setup()
        elapsed, cells = case.body()
    finally:
        tracer.uninstall()
    return tracer, elapsed, cells


def run_traced(case: Case, held_out: Case) -> tuple[dict, list[dict], dict]:
    case.setup()
    untraced_s, plain = case.body()
    tracer_a, traced_s, cells_a = traced_pass(case)
    tracer_b, _, cells_b = traced_pass(case)
    tracer_c, _, cells_c = traced_pass(held_out)
    spans_a, spans_b, spans_c = tracer_a.spans, tracer_b.spans, tracer_c.spans

    per_layer = tracing.layer_metrics(spans_a)
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    repeat_b = tracing.layer_metrics(spans_b)
    mismatched = [k for k in tracing.EXACT_COUNTS if per_layer[k] != repeat_b[k]]
    digests = [digest(c) for c in (plain, cells_a, cells_b)]
    report = {
        "untraced_run_s": untraced_s,
        "traced_run_s": traced_s,
        "digests": digests,
        "held_out_digest": digest(cells_c),
        "consistent": len(set(digests)) == 1 and not mismatched,
        "count_mismatches": mismatched,
        "not_traced": tracer_a.missing,
        "per_call": tracing.per_call(spans_a),
        "shares": {case.seed: tracing.layer_shares(spans_a),
                   held_out.seed: tracing.layer_shares(spans_c)},
        "spans": {"run_seed": [s.as_list() for s in spans_a],
                  "repeat": [s.as_list() for s in spans_b],
                  "held_out": [s.as_list() for s in spans_c]},
    }
    return per_layer, plain + cells_a + cells_b + cells_c, report


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def print_untraced(report: dict, failed: int, attempted: int, metrics: dict) -> None:
    for name in ("setup_s", "run_s"):
        runs = report["setup_runs_s" if name == "setup_s" else "body_runs_s"]
        print(f"{name:<14} {metrics[name]['value']:10.4f} s     median of {len(runs)}: "
              + " ".join(f"{r:.4f}" for r in runs))
    if report["nrmse_mean"] is not None:
        print(f"{'nrmse_mean':<14} {report['nrmse_mean']:10.6f} 1     mean test nRMSE over cells")
    print(f"{'failed_frac':<14} {failed / attempted:10.4f} 1     {failed} of {attempted} failed")
    print(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']['value']:10.2f} MB    "
          "ru_maxrss of this process")


def print_traced(metrics: dict, report: dict, seeds: tuple[int, int]) -> None:
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:16.6f} {m['unit']}")
    print("per call: " + ", ".join(f"{k} {v:.4f} s" for k, v in report["per_call"].items()))
    layers = sorted(set(report["shares"][seeds[0]]) | set(report["shares"][seeds[1]]))
    print(f"layer shares of traced time   seed {seeds[0]:>6}   held-out seed {seeds[1]:>6}")
    for layer in layers:
        a = report["shares"][seeds[0]].get(layer, 0.0)
        b = report["shares"][seeds[1]].get(layer, 0.0)
        print(f"  {layer:<27} {a:11.3f}   {b:20.3f}")
    print(f"exact counts repeat: {'yes' if not report['count_mismatches'] else report['count_mismatches']}")
    if report["not_traced"]:
        print("not traced (absent from gits): " + ", ".join(report["not_traced"]))


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gits" / "cli.py").is_file():
        print(f"error: no gits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))

    case = Case(args.workload, args.seed, work / "run")
    if args.trace:
        held_out = Case(args.workload, args.seed + HELD_OUT_OFFSET, work / "held_out")
        values, outcomes, report = run_traced(case, held_out)
    else:
        values, outcomes, report = run_untraced(case, args.seconds)
    # BENCHMARK.json names the metrics each mode reports, with their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = len(outcomes)
    failed = sum(1 for c in outcomes if c["error"] is not None)
    for c in outcomes:
        if c["error"] is not None:
            print(f"FAILED {c['cell']}: {c['error']}", file=sys.stderr)
    if args.trace:
        print_traced(metrics, report, (case.seed, case.seed + HELD_OUT_OFFSET))
    else:
        print_untraced(report, failed, attempted, metrics)
    print(f"digest {report['digests'][0]}  identical across runs: {report['consistent']}")
    correct = failed == 0 and report["consistent"]

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "machine": facts, "result": result, "report": report}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
