"""One benchmark run: set-up probes, timed repetitions, checks, metrics.

Imported by ``run.py`` once ``src/`` is on the path.  A *repetition* runs
every study of the workload through every pass (plan -> results ->
rendered artifact) and is the timed unit; ``sim_ips`` is the median over
the repetitions of one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

from repro.experiments.engine import fingerprint_of, result_to_dict
from repro.experiments.scheduler import shutdown_shared_pool
from repro.smt.metrics import SmtResult, smt_result_to_dict
from repro.studies.spec import run_study
from repro.telemetry import events as telemetry
from spans import Tracer, install, layer_metrics, run_accounting_ok, self_times, traced_spec
from workloads import WORKLOADS, table_errors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
# Set-up is probed at least SETUP_PROBES times and until SETUP_PROBE_S
# seconds have been spent on it, so a ~0.1 s import jitter averages out
# even on the workload whose set-up is shortest.
SETUP_PROBES = 3
SETUP_PROBE_S = 4.0
SETUP_PROBES_MAX = 9
CALIBRATION_LOOPS = 200_000


def calibration_rate() -> float:
    """Loops per second of a fixed pure-Python loop: host speed right now."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return CALIBRATION_LOOPS / (perf_counter() - start)


def digest(result) -> str:
    """A short content hash of every field of one simulated result."""
    if isinstance(result, SmtResult):
        payload = smt_result_to_dict(result)
    else:
        payload = result_to_dict(result)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def committed(cell, result) -> int:
    """Instructions one cell committed, warm-up counted at its target."""
    if isinstance(result, SmtResult):
        return result.total_committed + cell.warmup * result.nthreads
    return result.instructions + cell.warmup


class Recorder:
    """An executor that keeps the results it hands back to the study."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.results: List = []
        self.executed = 0

    def run_cells(self, cells):
        before = self.inner.executed
        self.results = self.inner.run_cells(cells)
        self.executed = self.inner.executed - before
        return self.results


@dataclass
class Outcome:
    study: str
    cells: List
    results: List
    executed: int

    def simulated_instructions(self) -> int:
        """Committed instructions of the cells this pass simulated (cache
        hits and in-call duplicates simulate nothing)."""
        if not self.executed:
            return 0
        distinct = {}
        for cell, result in zip(self.cells, self.results):
            distinct.setdefault(fingerprint_of(cell), committed(cell, result))
        return sum(distinct.values())


def run_rep(workload, seed: int, rep: int, jobs: int, tracer=None):
    """One repetition; returns ``(wall seconds, outcomes, failed cells)``."""
    cache_dir = os.path.join(OUT, f"cache-{os.getpid()}-{rep}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    outcomes: List[Outcome] = []
    broken = []
    traced = install(tracer) if tracer else contextlib.nullcontext()
    try:
        with traced:
            start = perf_counter()
            for executor in workload.passes(jobs, cache_dir):
                for spec in workload.studies(seed, rep):
                    recorder = Recorder(executor)
                    try:
                        if tracer is None:
                            study = run_study(spec, workload.context, executor=recorder)
                            study.render()
                        else:
                            tracer.new_scope()
                            with tracer.span("study", study=spec.name):
                                study = run_study(traced_spec(spec, tracer),
                                                  workload.context, executor=recorder)
                                study.render()
                    except Exception:  # a failing cell fails its study, not the run
                        traceback.print_exc()
                        broken.append(spec)
                        continue
                    outcomes.append(Outcome(
                        spec.name, study.plan.cells, recorder.results, recorder.executed
                    ))
            wall = perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    failed = sum(len(spec.plan(workload.context).cells) for spec in broken)
    return wall, outcomes, failed


class Checks:
    """Attempt and failure counts over every cell a run executes.

    A cell fails when its study raised, or when its result differs from
    the reference: the recorded digest for these inputs when there is
    one, else the first result this run produced for the same cell (so
    repetitions, cache hits, pooled vs serial and traced vs untraced
    passes must all agree bit for bit).
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.seen: Dict = {}
        try:
            with open(EXPECTED) as handle:
                self.expected = json.load(handle).get(workload.name, {})
        except FileNotFoundError:
            self.expected = {}

    def key(self, rep: int) -> str:
        return f"{self.seed}:{rep}" if self.workload.seeded else "any"

    def account(self, rep: int, outcomes: List[Outcome], failed: int) -> None:
        self.attempted += failed
        self.failed += failed
        key = self.key(rep)
        for outcome in outcomes:
            digests = [digest(result) for result in outcome.results]
            self.attempted += len(digests)
            reference = self.expected.get(key, {}).get(outcome.study)
            if reference is None:
                reference = self.seen.setdefault((key, outcome.study), digests)
            if len(reference) != len(digests):
                self.failed += len(digests)
            else:
                self.failed += sum(a != b for a, b in zip(reference, digests))

    def record(self) -> None:
        """Store this run's digests as the reference for its inputs."""
        try:
            with open(EXPECTED) as handle:
                stored = json.load(handle)
        except FileNotFoundError:
            stored = {}
        mine = stored.setdefault(self.workload.name, {})
        for (key, study), digests in self.seen.items():
            mine.setdefault(key, {})[study] = digests
        with open(EXPECTED, "w") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")


def setup_probe(workload, seed: int, trace: bool) -> Dict:
    """Run ``setup_probe.py`` in a fresh interpreter and parse its report."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               "--workload", workload.name, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a
    pool worker: measured before any set-up probe is started)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def untraced_run(workload, seed, seconds, jobs, checks, calibration):
    """Timed repetitions until ``seconds`` have passed; end-to-end metrics."""
    workload.warm(seed)
    rates = []
    start = perf_counter()
    rep = 0
    while rep == 0 or perf_counter() - start < seconds:
        wall, outcomes, failed = run_rep(workload, seed, rep, jobs)
        checks.account(rep, outcomes, failed)
        # A failed study contributes no instructions (and fails the run).
        rates.append(sum(o.simulated_instructions() for o in outcomes) / wall)
        calibration.append(calibration_rate())
        rep += 1
    shutdown_shared_pool()
    metrics = {"peak_rss_mb": peak_rss_mb(), "sim_ips": statistics.median(rates)}
    probes = []
    start = perf_counter()
    while len(probes) < SETUP_PROBES or (
        perf_counter() - start < SETUP_PROBE_S and len(probes) < SETUP_PROBES_MAX
    ):
        probes.append(setup_probe(workload, seed, False))
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    details = {"rep_sim_ips": rates, "setup_s": [p["setup_s"] for p in probes]}
    return metrics, details, True


def traced_run(workload, seed, jobs, checks, calibration):
    """One untraced and one traced repetition of the same inputs;
    per-layer metrics from the traced one's spans."""
    workload.warm(seed)
    batches = []

    def on_event(event):
        if event["event"] == "batch-complete":
            batches.append(event)

    telemetry.configure(listener=on_event)
    try:
        wall, outcomes, failed = run_rep(workload, seed, 0, jobs)
    finally:
        telemetry.reset()
    checks.account(0, outcomes, failed)
    calibration.append(calibration_rate())
    tracer = Tracer()
    traced_wall, traced_outcomes, traced_failed = run_rep(workload, seed, 0, 1, tracer)
    checks.account(0, traced_outcomes, traced_failed)
    calibration.append(calibration_rate())
    base_wall = wall
    if jobs > 1:
        # The untraced pass above ran on the pool; time a serial one (on
        # the next repetition's fresh inputs) to compare like with like.
        base_wall, serial_outcomes, serial_failed = run_rep(workload, seed, 1, 1)
        checks.account(1, serial_outcomes, serial_failed)
    shutdown_shared_pool()

    metrics = layer_metrics(tracer.spans)
    metrics["bench.tracing_overhead"] = traced_wall / base_wall
    metrics["experiments.batches"] = len(batches)
    metrics["experiments.queue_s"] = sum(e.get("queue_seconds", 0.0) for e in batches)
    metrics["experiments.pool_util"] = (
        sum(e["wall_seconds"] for e in batches) / (jobs * wall)
    )
    cells = [c for o in outcomes for c in o.cells]
    results = [r for o in outcomes for r in o.results]
    metrics.update(table_errors(cells, results) or {})
    probe = setup_probe(workload, seed, True)
    metrics.update({
        "setup.import_s": probe["import_s"],
        "program.build_s": probe["program_build_s"],
        "program.builds": probe["program_builds"],
        "pipeline.build_s": probe["pipeline_build_s"],
    })
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.json")
    with open(spans_path, "w") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "self_s": self_times(tracer.spans), "spans": tracer.spans}, handle)
    details = {"untraced_wall_s": wall, "traced_wall_s": traced_wall,
               "spans": os.path.relpath(spans_path, ROOT)}
    return metrics, details, run_accounting_ok(tracer.spans)


def declared_metrics(trace: int) -> List[Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # run the finally blocks that stop the pool


def main(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    jobs = len(os.sched_getaffinity(0)) if workload.pooled else 1
    checks = Checks(workload, args.seed)
    calibration = [calibration_rate()]
    try:
        if args.trace:
            values, details, accounted = traced_run(
                workload, args.seed, jobs, checks, calibration)
        else:
            values, details, accounted = untraced_run(
                workload, args.seed, args.seconds, jobs, checks, calibration)
    finally:
        shutdown_shared_pool()
    if args.record:
        checks.record()

    host = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_loops_per_s": statistics.median(calibration),
        "calibration_samples": calibration,
    }
    metrics = {}
    for declared in declared_metrics(args.trace):
        name = declared["name"]
        if name not in values:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": declared["unit"]}
    correct = checks.failed == 0 and accounted
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "host": host, "details": details, "correct": correct,
              "attempted": checks.attempted, "failed": checks.failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)

    print(json.dumps({"host": host}))
    for name, metric in metrics.items():
        print(f"{workload.name:12s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0
