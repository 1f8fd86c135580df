"""Spans around the gits modules, recorded from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers at the
name each caller looks up: scoring calls ``pilot_scoring.rollout_loss_grad``,
downstream training calls ``surrogate.rollout_loss_grad``, greedy selection
calls ``selector.kernel_matrix_global``, and so on. Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` puts every original back, so untraced
runs execute the pristine code.

Each span records a name, start, end, parent span and cell id, plus the
work counts of its call. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# Which per-layer metrics are exact work counts: two traced runs of the same
# code and inputs must give identical values for these.
EXACT_COUNTS = (
    "pde_data.read_calls",
    "pilot_scoring.pilot_calls",
    "pilot_scoring.score_calls",
    "pilot_scoring.candidates_scored",
    "surrogate.grad_calls",
    "surrogate.grad_pair_steps",
    "surrogate.train_epochs",
    "surrogate.train_steps",
    "selector.greedy_calls",
    "temporal_coverage.kernel_bytes",
    "diagnostics.val_calls",
    "diagnostics.eval_calls",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    cell: str | None
    counts: dict

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.cell, self.counts]


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    span: str
    count: Callable[[dict, object], dict] | None = None
    cell: Callable[[dict], str | None] | None = None
    keep_cell: bool = False  # the cell stays current after the call returns
    peak_memory: bool = False


# ----------------------------------------------------------------------
# work counts, computed from each call's arguments and result
# ----------------------------------------------------------------------

def _solver_steps(a, _result):
    cfg = a["cfg"]
    return {"solver_steps": a["n_traj"] * (cfg.t_count - 1) * cfg.snapshot_stride}


def _written_bytes(a, _result):
    return {"payload_bytes": a["ds"].data.nbytes}


def _read_bytes(_a, result):
    return {"payload_bytes": result.data.nbytes}


def _candidates(a, _result):
    return {"candidates": a["candidates"].size}


def _pair_steps(a, _result):
    ds = a["ds"]
    arch = a["params"].arch
    steps = sum(min(a["horizon"], ds.t_count - 1 - k) for _, k in a["batch"])
    # Multiply-adds of both convolutions, forward plus the two backward
    # products (weights and inputs): 3 x 2 x K x X x hidden x (L*C + C).
    per_step = 6 * arch.kernel_size * ds.spatial_size * arch.hidden * (
        arch.in_channels + arch.channels
    )
    return {"pair_steps": steps, "flops": steps * per_step}


def _epochs(_a, result):
    return {"epochs": len(result[1])}


def _matrix_bytes(_a, result):
    return {"bytes": result.nbytes}


def _cli_cell(a):
    argv = list(a["argv"] or [])
    if not argv:
        return None
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "select":
        return f"{opts.get('--sampler')}@{opts.get('--ratio')}/s{opts.get('--seed')}"
    return argv[0]


def _select_cell(a):
    return f"{a['sampler']}@{a['ratio']}/s{a['seed']}"


def targets() -> tuple[Target, ...]:
    """Every wrapped attribute, at the module where its caller looks it up."""
    from gits import cli, diagnostics, harness, pde_data, pilot_scoring, selector, surrogate

    return (
        Target(cli, "main", "cli.main", cell=_cli_cell),
        Target(harness, "run_experiment", "harness.run_experiment"),
        Target(harness, "select_starts", "harness.select_starts",
               cell=_select_cell, keep_cell=True),
        Target(harness, "write_results", "harness.write_results"),
        Target(pde_data, "generate_dataset", "pde_data.generate", count=_solver_steps),
        Target(pde_data, "write_dataset", "pde_data.write", count=_written_bytes),
        Target(pde_data, "read_dataset", "pde_data.read", count=_read_bytes),
        Target(pilot_scoring, "train_pilot", "pilot_scoring.pilot"),
        Target(pilot_scoring, "candidate_gradients", "pilot_scoring.score", count=_candidates),
        Target(selector, "candidate_gradients", "pilot_scoring.score", count=_candidates),
        Target(pilot_scoring, "rollout_loss_grad", "surrogate.grad", count=_pair_steps),
        Target(surrogate, "rollout_loss_grad", "surrogate.grad", count=_pair_steps),
        Target(surrogate, "train", "surrogate.train", count=_epochs),
        Target(selector, "greedy_select", "selector.greedy", peak_memory=True),
        Target(selector, "grad_match_from_gradients", "selector.grad_match"),
        Target(selector, "sample_loss_only", "selector.topk"),
        Target(selector, "sample_grad_only", "selector.topk"),
        Target(selector, "build_windows", "temporal_coverage.windows"),
        Target(selector, "kernel_matrix_global", "temporal_coverage.kernel", count=_matrix_bytes),
        Target(selector, "kernel_matrix_window", "temporal_coverage.kernel", count=_matrix_bytes),
        Target(selector, "coverage_values", "temporal_coverage.values"),
        Target(diagnostics, "rollout_nrmse", "diagnostics.val"),
        Target(diagnostics, "rollout_report", "diagnostics.eval"),
    )


class Tracer:
    """Installs span wrappers on module attributes and collects the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._cell: str | None = None
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # targets a later version of gits no longer has

    def install(self) -> None:
        for t in targets():
            original = getattr(t.module, t.attr, None)
            if original is None:
                self.missing.append(f"{t.module.__name__}.{t.attr}")
                continue
            self._originals.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrapper(t, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrapper(self, t: Target, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = None
            if t.count or t.cell:
                ba = signature.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            prev_cell = self._cell
            if t.cell:
                self._cell = t.cell(bound)
            parent = self._open[-1] if self._open else -1
            span = Span(t.span, 0.0, 0.0, parent, self._cell, {})
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            if t.peak_memory:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            finally:
                if t.peak_memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                self._open.pop()
                if not t.keep_cell:
                    self._cell = prev_cell
            if t.count:
                span.counts.update(t.count(bound, result))
            return result

        return wrapper


# ----------------------------------------------------------------------
# per-layer metrics from a list of spans
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs an untraced run."""
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    peak = 0
    train_steps = 0
    for s, self_s in zip(spans, self_times(spans)):
        busy[s.name] += s.end - s.start
        own[s.name] += self_s
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[s.name, key] += value
        peak = max(peak, s.counts.get("peak_bytes", 0))
        if s.name == "surrogate.grad" and s.parent >= 0 and spans[s.parent].name == "surrogate.train":
            train_steps += 1

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {
        "pde_data.generate_s": busy["pde_data.generate"],
        "pde_data.solver_steps": counts["pde_data.generate", "solver_steps"],
        "pde_data.steps_per_s": rate(counts["pde_data.generate", "solver_steps"],
                                     busy["pde_data.generate"]),
        "pde_data.write_s": busy["pde_data.write"],
        "pde_data.read_s": busy["pde_data.read"],
        "pde_data.read_calls": calls["pde_data.read"],
        "pde_data.payload_bytes": counts["pde_data.write", "payload_bytes"]
        + counts["pde_data.read", "payload_bytes"],
        "pilot_scoring.pilot_s": busy["pilot_scoring.pilot"],
        "pilot_scoring.pilot_calls": calls["pilot_scoring.pilot"],
        "pilot_scoring.score_s": busy["pilot_scoring.score"],
        "pilot_scoring.score_calls": calls["pilot_scoring.score"],
        "pilot_scoring.candidates_scored": counts["pilot_scoring.score", "candidates"],
        "surrogate.grad_s": busy["surrogate.grad"],
        "surrogate.grad_calls": calls["surrogate.grad"],
        "surrogate.grad_pair_steps": counts["surrogate.grad", "pair_steps"],
        "surrogate.pair_steps_per_s": rate(counts["surrogate.grad", "pair_steps"],
                                           busy["surrogate.grad"]),
        "surrogate.gflops_computed": counts["surrogate.grad", "flops"] / 1e9,
        "surrogate.train_s": busy["surrogate.train"],
        "surrogate.train_self_s": own["surrogate.train"],
        "surrogate.train_epochs": counts["surrogate.train", "epochs"],
        "surrogate.train_steps": train_steps,
        "selector.greedy_s": busy["selector.greedy"],
        "selector.greedy_calls": calls["selector.greedy"],
        "selector.greedy_peak_bytes": peak,
        "selector.grad_match_s": busy["selector.grad_match"],
        "selector.topk_s": busy["selector.topk"],
        "temporal_coverage.kernel_s": sum(
            v for k, v in busy.items() if k.startswith("temporal_coverage.")
        ),
        "temporal_coverage.kernel_bytes": counts["temporal_coverage.kernel", "bytes"],
        "diagnostics.val_s": busy["diagnostics.val"],
        "diagnostics.val_calls": calls["diagnostics.val"],
        "diagnostics.eval_s": busy["diagnostics.eval"],
        "diagnostics.eval_calls": calls["diagnostics.eval"],
        "harness.self_s": sum(v for k, v in own.items() if k.startswith("harness.")),
        "cli.self_s": own["cli.main"],
    }
    return {k: float(v) for k, v in m.items()}


def per_call(spans: list[Span]) -> dict[str, float]:
    """Mean seconds per call of the stages the north-star baseline quotes per cell."""
    stages = {"pilot": "pilot_scoring.pilot", "scoring": "pilot_scoring.score",
              "greedy": "selector.greedy", "training": "surrogate.train",
              "evaluation": "diagnostics.eval"}
    out = {}
    for label, name in stages.items():
        durations = [s.end - s.start for s in spans if s.name == name]
        if durations:
            out[label] = sum(durations) / len(durations)
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer as a share of the time under root spans."""
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    shares = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        shares[s.name.split(".")[0]] += self_s / total if total > 0 else 0.0
    return dict(shares)
