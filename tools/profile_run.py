#!/usr/bin/env python
"""Profile one simulation and print the hottest functions.

Future performance PRs should start from data, not intuition::

    PYTHONPATH=src python tools/profile_run.py                 # defaults
    PYTHONPATH=src python tools/profile_run.py --benchmark gcc \
        --experiment C2 --instructions 40000 --top 30
    PYTHONPATH=src python tools/profile_run.py --mix mix2-branchy  # SMT core
    PYTHONPATH=src python tools/profile_run.py --save run.pstats

The run goes through :func:`repro.experiments.engine.simulate` (or
``simulate_smt`` with ``--mix``), i.e. exactly the code path every figure,
table and campaign exercises, so the printed hotspots are the ones that
matter.  ``--save`` writes the raw pstats file for snakeviz/gprof2dot.

``--stage-timers`` swaps cProfile for the telemetry layer: each stage's
``tick`` is wrapped with a wall-clock accumulator
(:class:`repro.telemetry.timers.StageTimers`) and the probe bus supplies
active-cycle counts, answering "which stage costs the time, and is it
busy or just ticking?" without tracing overhead::

    PYTHONPATH=src python tools/profile_run.py --stage-timers
    PYTHONPATH=src python tools/profile_run.py --stage-timers --mix mix2-branchy

``--skip-stats`` (combinable with ``--stage-timers``) reports what the
scheduler's next-event cycle skip covered, from the probe bus's skip
counters: the skipped-cycle fraction and a power-of-two window-length
histogram::

    PYTHONPATH=src python tools/profile_run.py --skip-stats --experiment C2

``--build`` profiles the cold path instead of a run: generating the
program of ``--benchmark`` at ``--seed`` plus ``build_processor``, with
nothing simulated.  The default seed is a held-out one, so the program
memo starts cold and the generator shows up in full::

    PYTHONPATH=src python tools/profile_run.py --build --benchmark gcc
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from typing import List, Optional

from repro.experiments.engine import (
    build_processor,
    default_instructions,
    default_warmup,
    make_cell,
    make_smt_cell,
    make_trace_cell,
    simulate,
    simulate_smt,
)
from repro.smt.mixes import MIX_NAMES
from repro.workloads.suite import BENCHMARK_NAMES

SORT_KEYS = ("cumulative", "cumtime", "tottime", "ncalls")
SUPPLY_CHOICES = ("compiled", "live", "trace")
# --build's default program seed: no benchmark is calibrated at it, so the
# profiled build generates its program from scratch.
BUILD_SEED = 4242


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profile_run",
        description="cProfile one simulation and print the top hotspots.",
    )
    parser.add_argument(
        "--benchmark", default="go", choices=BENCHMARK_NAMES,
        help="calibrated benchmark to simulate (default: go)",
    )
    parser.add_argument(
        "--experiment", default="baseline",
        help="controller: 'baseline', a policy name (C2, A5, ...) or "
        "'gating:N' (default: baseline)",
    )
    parser.add_argument(
        "--mix", default=None, choices=MIX_NAMES,
        help="profile an SMT mix instead of a single-thread benchmark",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="program seed of a single-thread benchmark (default: its "
        f"calibrated seed; with --build the held-out seed {BUILD_SEED})",
    )
    parser.add_argument(
        "--build", action="store_true",
        help="profile program generation plus processor construction for "
        "--benchmark at --seed, without running it",
    )
    parser.add_argument(
        "--supply", default="compiled", choices=SUPPLY_CHOICES,
        help="front-end instruction supply: the pre-lowered packet supply "
        "(default), the seed per-instruction walkers, or a trace replay "
        "(needs --trace)",
    )
    parser.add_argument(
        "--trace", default=None,
        help="recorded v2 trace file for --supply trace",
    )
    parser.add_argument(
        "--instructions", type=int, default=None,
        help=f"measured instructions (default: {default_instructions()})",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help=f"warm-up instructions (default: {default_warmup()})",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="number of functions to print (default: 20)",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=SORT_KEYS,
        help="pstats sort key; cumtime is an alias of cumulative "
        "(default: cumulative)",
    )
    parser.add_argument(
        "--save", default=None,
        help="also write the raw profile to this pstats file",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write a machine-readable hotspot export: the --top "
        "functions by self time (tottime), with ncalls, cumtime and "
        "each function's share of total self time",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="profile with the pipeline invariant sanitizer enabled "
        "(shows what the per-cycle checks cost)",
    )
    parser.add_argument(
        "--stage-timers", action="store_true",
        help="per-stage wall-time attribution from the telemetry layer "
        "instead of cProfile (stage tick timers + probe-bus active "
        "cycles; no tracing overhead)",
    )
    parser.add_argument(
        "--skip-stats", action="store_true",
        help="cycle-skip fast-forward report from the probe bus instead "
        "of cProfile: skipped-cycle fraction and a window-length "
        "histogram (combines with --stage-timers)",
    )
    return parser


def _run_telemetry_modes(
    cell, label: str, smt: bool, stage_timers: bool, skip_stats: bool
) -> int:
    """The probe-bus modes: one instrumented run feeds every report."""
    from repro.experiments.engine import build_processor, build_smt_processor
    from repro.telemetry.timers import StageTimers

    processor = build_smt_processor(cell) if smt else build_processor(cell)
    timers = StageTimers(processor).attach() if stage_timers else None
    processor.run(cell.instructions, warmup_instructions=cell.warmup)

    snapshot = processor.probes.snapshot()
    if timers is not None:
        _print_stage_timers(snapshot, timers, label)
    if skip_stats:
        _print_skip_stats(snapshot, label)
    return 0


def _print_stage_timers(snapshot: dict, timers, label: str) -> None:
    """The ``--stage-timers`` report: timed ticks + probe active cycles."""
    cycles = snapshot["cycles"]
    total = timers.total_seconds
    print(
        f"stage timers for {label}: {cycles} measured cycles, "
        f"{total:.3f}s in stage ticks"
    )
    print(f"{'stage':<14s} {'wall s':>8s} {'share':>7s} "
          f"{'ticks':>9s} {'active':>9s} {'busy':>6s}")
    for name, seconds, calls in timers.report():
        active = _active_cycles(snapshot, name)
        share = seconds / total if total else 0.0
        busy = active / cycles if cycles else 0.0
        print(
            f"{name:<14s} {seconds:8.3f} {share * 100:6.1f}% "
            f"{calls:9d} {active:9d} {busy * 100:5.1f}%"
        )


def _print_skip_stats(snapshot: dict, label: str) -> None:
    """The ``--skip-stats`` report: what the next-event engine covered."""
    skip = snapshot["skip"]
    cycles = snapshot["cycles"]
    skipped = skip["skipped_cycles"]
    windows = skip["windows"]
    fraction = skipped / cycles if cycles else 0.0
    print(
        f"cycle-skip for {label}: {skipped} of {cycles} measured cycles "
        f"fast-forwarded ({fraction * 100:.1f}%) across {windows} windows"
    )
    hist = skip["length_hist"]
    if not windows or not hist:
        print("  (no windows — the machine never went provably idle)")
        return
    print(f"  mean window {skipped / windows:.1f} cycles; length histogram:")
    peak = max(hist.values())
    for bucket in sorted(hist, key=int):
        low = int(bucket)
        high = 2 * low - 1
        count = hist[bucket]
        bar = "#" * max(1, round(40 * count / peak))
        span = f"{low}" if high == low else f"{low}-{high}"
        print(f"  {span:>12s} {count:8d}  {bar}")


def _active_cycles(snapshot: dict, stage_name: str) -> int:
    """Probe-bus active cycles of a kernel stage.

    The kernel fuses decode and rename into one ``decode-rename`` stage
    while the probe bus keeps them as separate counter groups; a fused
    stage is active whenever any of its parts is, which the max of the
    parts approximates from totals.
    """
    stages = snapshot["stages"]
    if stage_name in stages:
        return stages[stage_name]["active_cycles"]
    parts = [
        stages[part]["active_cycles"]
        for part in stage_name.split("-")
        if part in stages
    ]
    return max(parts) if parts else 0


def _controller_spec(name: str) -> tuple:
    if name == "baseline":
        return ("baseline",)
    if name.startswith("gating:"):
        return ("gating", int(name.split(":", 1)[1]))
    return ("throttle", name)


def main(argv: Optional[List[str]] = None) -> int:
    options = _make_parser().parse_args(argv)

    if options.sanitize:
        # Before the cell is built: ProcessorConfig reads the environment
        # at construction time.
        os.environ["REPRO_SANITIZE"] = "1"
    if options.stage_timers or options.skip_stats:
        # Same pre-construction rule: the probe bus (active-cycle and
        # skip counters) attaches only when the config sees telemetry on.
        os.environ["REPRO_TELEMETRY"] = "1"

    if options.build:
        if options.mix or options.trace or options.stage_timers or options.skip_stats:
            raise SystemExit(
                "--build profiles one single-thread build; it does not combine "
                "with --mix, --trace, --stage-timers or --skip-stats"
            )
        seed = BUILD_SEED if options.seed is None else options.seed
        cell = make_cell(
            options.benchmark,
            controller_spec=_controller_spec(options.experiment),
            seed=seed,
            supply=options.supply,
        )
        target = lambda: build_processor(cell)  # noqa: E731
        label = f"build of {cell.benchmark} at seed {seed} ({options.supply} supply)"
    elif options.mix:
        if options.supply != "compiled" or options.trace:
            raise SystemExit(
                "--supply/--trace select single-thread supplies; they do "
                "not combine with --mix"
            )
        cell = make_smt_cell(
            options.mix,
            instructions=options.instructions,
            warmup=options.warmup,
        )
        target, label = (lambda: simulate_smt(cell)), f"mix {cell.mix}"
    elif options.supply == "trace":
        if not options.trace:
            raise SystemExit("--supply trace needs --trace PATH")
        cell = make_trace_cell(
            options.trace,
            controller_spec=_controller_spec(options.experiment),
            instructions=options.instructions,
            warmup=options.warmup,
        )
        target = lambda: simulate(cell)  # noqa: E731
        label = f"trace {options.trace} ({cell.benchmark})"
    else:
        cell = make_cell(
            options.benchmark,
            controller_spec=_controller_spec(options.experiment),
            instructions=options.instructions,
            warmup=options.warmup,
            seed=options.seed,
            supply=options.supply,
        )
        target = lambda: simulate(cell)  # noqa: E731
        label = f"{cell.benchmark} under {cell.effective_label} ({options.supply} supply)"

    if options.stage_timers or options.skip_stats:
        return _run_telemetry_modes(
            cell, label, smt=bool(options.mix),
            stage_timers=options.stage_timers,
            skip_stats=options.skip_stats,
        )

    if options.build:
        print(f"profiling {label}: program generation + processor construction")
    else:
        print(
            f"profiling {label}: {cell.instructions} instructions "
            f"(+{cell.warmup} warm-up)"
        )
    profile = cProfile.Profile()
    profile.enable()
    result = target()
    profile.disable()

    stats = pstats.Stats(profile, stream=sys.stdout)
    wall = stats.total_tt
    if options.build:
        committed = None
        print(f"built in {wall:.3f}s\n")
    else:
        committed = getattr(result, "instructions", None)
        if committed is None:  # SmtResult carries per-thread dicts instead
            committed = sum(thread["committed"] for thread in result.threads)
        print(f"committed {committed} instructions in {wall:.2f}s "
              f"({committed / wall:,.0f} instr/s)\n")
    stats.strip_dirs().sort_stats(options.sort).print_stats(options.top)
    if options.save:
        stats.dump_stats(options.save)
        print(f"wrote {options.save}")
    if options.json:
        payload = hotspot_export(stats, options.top, label, committed, wall)
        with open(options.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {options.json}")
    return 0


def hotspot_export(
    stats: pstats.Stats, top: int, label: str, committed: Optional[int], wall: float
) -> dict:
    """The ``--json`` payload: the top leaves of the profile by self time.

    Self time (``tottime``) attributes cost to the function whose frames
    actually burned it, so the export is the machine-readable answer to
    "where does the wall clock go" — the view A/B comparisons of stage
    costs (e.g. fetch with run batching on vs off) diff against.
    """
    total_tt = sum(row[2] for row in stats.stats.values()) or 1.0
    leaves = sorted(
        stats.stats.items(), key=lambda item: item[1][2], reverse=True
    )
    hotspots = [
        {
            "file": file,
            "line": line,
            "function": function,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime": tt,
            "cumtime": ct,
            "tottime_share": tt / total_tt,
        }
        for (file, line, function), (cc, nc, tt, ct, _) in leaves[:top]
    ]
    return {
        "schema": 1,
        "label": label,
        "committed": committed,
        "seconds": wall,
        "total_tottime": total_tt,
        "hotspots": hotspots,
    }


if __name__ == "__main__":
    sys.exit(main())
