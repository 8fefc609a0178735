"""Spans of the traced run, recorded from outside the program.

Each layer is timed by wrapping one of its public entry points for the
duration of a traced pass (:func:`install`), and the wrappers are removed
afterwards, so untraced passes run the unmodified code:

* ``StageTimers`` for the five stages and class-level wrappers on
  ``PowerModel.end_cycle`` / ``end_idle_cycles`` inside ``Processor.run``;
* ``build_processor`` / ``build_smt_processor``,
  ``WorkloadSpec.build_program``, ``ResultCache.get`` / ``put``,
  ``fingerprint_of``, ``execute_cell`` and ``StudySpec.plan`` /
  ``summarize`` / ``render``.

A span is ``{id, name, cell, parent, start, end}``; spans of one cell
share its ``cell`` id.  The per-cycle layers (stages, power) would be
millions of spans, so each ``Processor.run`` span gets one aggregate child
per stage and one for power, carrying the summed seconds and the call
count; the run's self time (its duration minus those children) is
everything else in the cycle loop: scheduler, controller hooks, skip.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import replace
from time import perf_counter
from typing import Dict, List

from repro.confidence.base import ConfidenceLevel
from repro.experiments import engine
from repro.experiments.engine import ResultCache
from repro.pipeline.processor import Processor
from repro.power.model import PowerModel
from repro.smt.core import SmtProcessor
from repro.studies.spec import StudySpec
from repro.telemetry.timers import StageTimers
from repro.workloads.spec import WorkloadSpec

STAGES = ("fetch", "decode-rename", "issue", "writeback", "commit")
_LOW = [level for level in ConfidenceLevel if level.is_low]


class Tracer:
    """In-memory span recorder (written out by the caller at the end)."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[Dict] = []
        self._cells: Dict[int, int] = {}
        self._next_cell = 0
        self._power_s = 0.0
        self._in_power = False
        self._warmup: Dict[int, Dict] = {}

    def begin(self, name: str, cell=None, **attrs) -> Dict:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent["cell"]
        span = {
            "id": len(self.spans), "name": name, "cell": cell,
            "parent": parent["id"] if parent else None,
            "start": perf_counter(), "end": None,
        }
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, cell=None, **attrs):
        span = self.begin(name, cell, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def new_scope(self) -> None:
        """Start a new study: cell objects are identified by ``id()``,
        which is only stable while one study's cell list is alive."""
        self._cells = {}

    def cell_id(self, cell) -> int:
        key = id(cell)
        if key not in self._cells:
            self._cells[key] = self._next_cell
            self._next_cell += 1
        return self._cells[key]

    def aggregate(self, parent: Dict, name: str, seconds: float, calls: int) -> None:
        """A child of ``parent`` standing for many short calls."""
        self.spans.append({
            "id": len(self.spans), "name": name, "cell": parent["cell"],
            "parent": parent["id"], "start": parent["start"],
            "end": parent["start"] + seconds, "calls": calls,
            "aggregate": True,
        })


def _timed(tracer: Tracer, name: str, function, cell_arg=None):
    def wrapper(*args, **kwargs):
        cell = tracer.cell_id(args[cell_arg]) if cell_arg is not None else None
        with tracer.span(name, cell):
            return function(*args, **kwargs)

    return wrapper


def _traced_run(tracer: Tracer, original):
    def run(self, max_instructions, warmup_instructions=0):
        timers = StageTimers(self).attach()
        tracer._power_s = 0.0
        with tracer.span("pipeline.run", threads=len(self.threads)) as span:
            stats = original(self, max_instructions, warmup_instructions)
        for stage in STAGES:
            tracer.aggregate(
                span, f"pipeline.{stage}", timers.seconds[stage], timers.calls[stage]
            )
        tracer.aggregate(span, "power.cycle", tracer._power_s, 0)
        warm = tracer._warmup.pop(id(self), {"fetched": 0})
        matrix = stats.confidence
        power = self.power
        span.update(
            cycles=stats.cycles,
            cycles_total=self.cycle,
            fetch_ticks=timers.calls["fetch"],
            committed=stats.committed,
            fetched=stats.fetched,
            fetched_total=stats.fetched + warm["fetched"],
            wrong_path=stats.fetched_wrong_path,
            squashed=stats.squashed,
            branches=stats.cond_branches_committed,
            mispredicted=stats.mispredictions_committed,
            conf_mispredicted=matrix.mispredictions,
            conf_low=matrix.low_confidence_total(),
            conf_caught=sum(matrix.count(level, False) for level in _LOW),
            fetch_throttled=stats.fetch_throttled_cycles,
            decode_throttled=stats.decode_throttled_cycles,
            selection_blocked=stats.selection_blocked,
            energy=power.total_energy(),
            wasted_energy=power.total_wasted_energy(),
        )
        return stats

    return run


def _traced_reset(tracer: Tracer, original):
    def reset_measurement(self):
        tracer._warmup[id(self)] = {"fetched": self.stats.fetched}
        return original(self)

    return reset_measurement


def _traced_power(tracer: Tracer, original):
    # end_idle_cycles may loop end_cycle itself: time the outer call only.
    def method(self, *args):
        if tracer._in_power:
            return original(self, *args)
        tracer._in_power = True
        start = perf_counter()
        try:
            return original(self, *args)
        finally:
            tracer._power_s += perf_counter() - start
            tracer._in_power = False

    return method


def _traced_get(tracer: Tracer, original):
    def get(self, cell):
        with tracer.span("experiments.cache_get", tracer.cell_id(cell)) as span:
            result = original(self, cell)
            span["hit"] = result is not None
            return result

    return get


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    patches = [
        (engine, "execute_cell", _timed(tracer, "cell", engine.execute_cell, 0)),
        (engine, "build_processor",
         _timed(tracer, "pipeline.build", engine.build_processor, 0)),
        (engine, "build_smt_processor",
         _timed(tracer, "smt.build", engine.build_smt_processor, 0)),
        (engine, "fingerprint_of",
         _timed(tracer, "experiments.fingerprint", engine.fingerprint_of, 0)),
        (ResultCache, "get", _traced_get(tracer, ResultCache.get)),
        (ResultCache, "put",
         _timed(tracer, "experiments.cache_put", ResultCache.put, 1)),
        (WorkloadSpec, "build_program",
         _timed(tracer, "program.build", WorkloadSpec.build_program)),
        (StudySpec, "plan", _timed(tracer, "studies.plan", StudySpec.plan)),
        (Processor, "run", _traced_run(tracer, Processor.run)),
        (SmtProcessor, "run", _traced_run(tracer, SmtProcessor.run)),
        (Processor, "reset_measurement",
         _traced_reset(tracer, Processor.reset_measurement)),
        (PowerModel, "end_cycle", _traced_power(tracer, PowerModel.end_cycle)),
        (PowerModel, "end_idle_cycles",
         _traced_power(tracer, PowerModel.end_idle_cycles)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def traced_spec(spec: StudySpec, tracer: Tracer) -> StudySpec:
    """``spec`` with its summarize and render callables timed."""
    return replace(
        spec,
        summarize=_timed(tracer, "studies.summarize", spec.summarize),
        render=_timed(tracer, "studies.render", spec.render),
    )


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds per span name, each span minus its children."""
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_seconds[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - child_seconds[span["id"]]
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see NOTES.md for each)."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += span.get("calls", 1)
    own = self_times(spans)
    runs = [span for span in spans if span["name"] == "pipeline.run"]

    def total(key):
        return sum(run[key] for run in runs)

    run_s = seconds["pipeline.run"]
    smt_run_s = sum((r["end"] - r["start"] for r in runs if r["threads"] > 1), 0.0)
    gets = [span for span in spans if span["name"] == "experiments.cache_get"]
    metrics = {f"pipeline.{stage}_s": seconds[f"pipeline.{stage}"] for stage in STAGES}
    metrics.update({
        "power.cycle_s": seconds["power.cycle"],
        "pipeline.run_s": run_s,
        "pipeline.other_s": own.get("pipeline.run", 0.0),
        "pipeline.host_us_per_cycle": 1e6 * _ratio(run_s, total("cycles_total")),
        "pipeline.host_ns_per_fetched": 1e9 * _ratio(run_s, total("fetched_total")),
        "pipeline.skipped_cycle_frac":
            1.0 - _ratio(total("fetch_ticks"), total("cycles_total")),
        "pipeline.cycles": total("cycles"),
        "pipeline.committed": total("committed"),
        "pipeline.fetched": total("fetched"),
        "pipeline.wrong_path_fetch_frac": _ratio(total("wrong_path"), total("fetched")),
        "pipeline.squashed": total("squashed"),
        "bpred.miss_rate": _ratio(total("mispredicted"), total("branches")),
        "confidence.pvn": _ratio(total("conf_caught"), total("conf_low")),
        "confidence.spec": _ratio(total("conf_caught"), total("conf_mispredicted")),
        "core.fetch_throttled_cycles": total("fetch_throttled"),
        "core.decode_throttled_cycles": total("decode_throttled"),
        "core.selection_blocked": total("selection_blocked"),
        "power.wasted_energy_frac": _ratio(total("wasted_energy"), total("energy")),
        "program.run_build_s": seconds["program.build"],
        "program.run_builds": calls["program.build"],
        "pipeline.run_build_s":
            own.get("pipeline.build", 0.0) + own.get("smt.build", 0.0),
        "experiments.fingerprint_s": seconds["experiments.fingerprint"],
        "experiments.cache_get_ms":
            1e3 * _ratio(seconds["experiments.cache_get"], calls["experiments.cache_get"]),
        "experiments.cache_put_ms":
            1e3 * _ratio(seconds["experiments.cache_put"], calls["experiments.cache_put"]),
        "experiments.cache_hit_ratio":
            _ratio(sum(1 for get in gets if get["hit"]), len(gets)),
        "studies.plan_s": seconds["studies.plan"],
        "studies.render_s": seconds["studies.summarize"] + seconds["studies.render"],
        "smt.run_s": smt_run_s,
        "smt.ref_run_s": run_s - smt_run_s if smt_run_s else 0.0,
    })
    return metrics


def run_accounting_ok(spans: List[Dict]) -> bool:
    """Stages + power never exceed their ``Processor.run`` span, so the
    remainder (``pipeline.other_s``) is a true share of the run."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.get("aggregate"):
            children[span["parent"]] += span["end"] - span["start"]
    return all(
        children[span["id"]] <= span["end"] - span["start"] + 1e-9
        for span in spans if span["name"] == "pipeline.run"
    )
