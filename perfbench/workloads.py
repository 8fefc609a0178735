"""The benchmark's workloads: which studies each one runs, and how.

A workload is a list of studies (``repro.studies`` specs) plus the
executors each repetition runs them through.  One repetition is the
user-visible unit of work timed end to end: plan -> results -> rendered
artifact, for every study, through every pass.  Why each workload exists
is recorded in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.experiments import engine
from repro.experiments.engine import ResultCache, SmtCell, make_cell
from repro.experiments.results import compare
from repro.experiments.scheduler import SweepScheduler, affinity_key
from repro.experiments.tables import TABLE1_TOTAL_WASTED, TABLE1_WASTED
from repro.studies.registry import get_study
from repro.studies.spec import Axis, StudyContext, StudyPlan, StudySpec
from repro.utils.rng import derive_seed
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec


class Workload:
    """One named set of inputs.

    ``seeded`` says whether the inputs depend on the ``--seed`` argument;
    ``pooled`` whether the timed passes fan out over the shared process
    pool (``jobs = nproc``) instead of running serially.
    """

    name = ""
    seeded = False
    pooled = False
    context = StudyContext()

    def studies(self, seed: int, rep: int) -> List[StudySpec]:
        """The studies one repetition runs (same inputs for same args)."""
        raise NotImplementedError

    def passes(self, jobs: int, cache_dir: Optional[str]) -> List:
        """Executors of one repetition, each running every study once."""
        return [SweepScheduler(jobs=1)]

    def machines(self, seed: int) -> List:
        """One cell per distinct machine of repetition 0 (its set-up)."""
        seen = {}
        for spec in self.studies(seed, 0):
            for cell in spec.plan(self.context).cells:
                seen.setdefault(affinity_key(cell), cell)
        return list(seen.values())

    def warm(self, seed: int) -> None:
        """Untimed in-process set-up before the timed repetitions."""
        build_machines(self.machines(seed))


def build_machines(cells) -> None:
    """Cold-build each machine: program, supply lowering, processor."""
    # Looked up on the module so a traced set-up sees its wrappers.
    for cell in cells:
        if isinstance(cell, SmtCell):
            engine.build_smt_processor(cell)
        else:
            engine.build_processor(cell)


class PaperSuite(Workload):
    name = "paper-suite"
    context = StudyContext(instructions=4000, warmup=1000)

    def studies(self, seed, rep):
        return [get_study("table1"), get_study("figure5")]


class SmtMixes(Workload):
    name = "smt-mixes"
    context = StudyContext(instructions=2000, warmup=500)

    def studies(self, seed, rep):
        return [get_study("mix4-grid"), get_study("smt-sharing")]


class SeedSweep(Workload):
    """Eight benchmarks x held-out seeds x {baseline, C2}, cached.

    Each repetition draws fresh program seeds from ``(seed, rep)``, so no
    repetition can hit a program memo or cache entry of another.
    """

    name = "seed-sweep"
    seeded = True
    pooled = True
    context = StudyContext(instructions=2000, warmup=500)
    SEEDS_PER_REP = 3
    MECHANISMS = {"C2": ("throttle", "C2")}

    def program_seeds(self, seed: int, rep: int) -> List[int]:
        calibrated = {benchmark_spec(name).seed for name in BENCHMARK_NAMES}
        seeds = []
        index = 0
        while len(seeds) < self.SEEDS_PER_REP:
            value = derive_seed(seed, "perfbench-seed-sweep", rep, index)
            index += 1
            if value not in calibrated:
                seeds.append(value)
        return seeds

    def studies(self, seed, rep):
        return [seed_sweep_study(self.program_seeds(seed, rep), self.MECHANISMS)]

    def passes(self, jobs, cache_dir):
        # A store pass into an empty cache, then the same cells through a
        # fresh cache object on that directory: every cell is a disk hit.
        return [
            SweepScheduler(jobs=jobs, cache=ResultCache(cache_dir)),
            SweepScheduler(jobs=jobs, cache=ResultCache(cache_dir)),
        ]

    def warm(self, seed):
        # Every repetition builds new programs inside the timed run, in
        # the pool workers; warming the parent would only skew the traced
        # serial pass.
        return None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (PaperSuite(), SeedSweep(), SmtMixes())
}


# ----------------------------------------------------------------------
# The seed-sweep study
# ----------------------------------------------------------------------

def _compile_sweep(spec: StudySpec, ctx: StudyContext) -> StudyPlan:
    cells, keys = [], []
    mechanisms = {"baseline": ("baseline",)}
    mechanisms.update(spec.options["mechanisms"])
    for benchmark in BENCHMARK_NAMES:
        for seed in spec.options["seeds"]:
            for label, controller in mechanisms.items():
                cells.append(make_cell(
                    benchmark, controller, instructions=ctx.instructions,
                    warmup=ctx.warmup, seed=seed, label=label,
                ))
                keys.append((benchmark, seed, label))
    return StudyPlan(cells, keys)


def _summarize_sweep(spec, ctx, plan, results):
    by_key = dict(zip(plan.keys, results))
    seeds = spec.options["seeds"]
    rows = {}
    for benchmark in BENCHMARK_NAMES:
        baselines = [by_key[(benchmark, seed, "baseline")] for seed in seeds]
        mechanisms = {}
        for label in spec.options["mechanisms"]:
            comparisons = [
                compare(by_key[(benchmark, seed, "baseline")],
                        by_key[(benchmark, seed, label)])
                for seed in seeds
            ]
            mechanisms[label] = (
                statistics.mean(c.speedup for c in comparisons),
                statistics.mean(c.energy_savings_pct for c in comparisons),
            )
        rows[benchmark] = {
            "miss_rate": statistics.mean(r.miss_rate for r in baselines),
            "paper_miss_rate": benchmark_spec(benchmark).target_miss_rate,
            "wasted": statistics.mean(r.wasted_energy_fraction for r in baselines),
            "mechanisms": mechanisms,
        }
    return rows


def _render_sweep(rows) -> str:
    lines = ["held-out seed sweep: baseline means, mechanism speedup / energy saved"]
    for benchmark, row in rows.items():
        line = (
            f"{benchmark:10s} miss {row['miss_rate'] * 100:6.2f}% "
            f"(paper {row['paper_miss_rate'] * 100:5.2f}%) "
            f"wasted {row['wasted'] * 100:6.2f}%"
        )
        for label, (speedup, energy) in row["mechanisms"].items():
            line += f"  {label} {speedup:6.3f} {energy:6.2f}%"
        lines.append(line)
    return "\n".join(lines)


def seed_sweep_study(seeds: List[int], mechanisms: Dict[str, tuple]) -> StudySpec:
    """Baseline plus ``mechanisms`` on every benchmark at every seed."""
    return StudySpec(
        name="seed-sweep",
        title="held-out seed sweep",
        description="the eight benchmarks at program seeds never used for "
        "calibration, baseline vs each mechanism",
        axes=(
            Axis("benchmark", tuple(BENCHMARK_NAMES)),
            Axis("seed", tuple(str(s) for s in seeds)),
            Axis("mechanism", ("baseline",) + tuple(mechanisms)),
        ),
        compile=_compile_sweep,
        summarize=_summarize_sweep,
        render=_render_sweep,
        options={"seeds": list(seeds), "mechanisms": dict(mechanisms)},
    )


# ----------------------------------------------------------------------
# Closeness to the paper's tables (single-thread baseline cells only)
# ----------------------------------------------------------------------

def table_errors(cells, results) -> Optional[Dict[str, float]]:
    """Table 1 / Table 2 errors, in percentage points, of the distinct
    baseline single-thread cells among ``cells``; None when there are none.

    Table 1: mean |reproduced - paper| over the eleven units' wasted-power
    column and the total.  Table 2: mean over benchmarks of |mean miss
    rate - paper miss rate|.
    """
    unique = {}
    for cell, result in zip(cells, results):
        if not isinstance(cell, SmtCell) and cell.controller_spec == ("baseline",):
            unique.setdefault((cell.benchmark, cell.effective_seed), result)
    baselines = list(unique.values())
    if not baselines:
        return None
    errors = [
        abs(statistics.mean(r.breakdown[unit]["wasted_of_overall"] for r in baselines)
            - paper)
        for unit, paper in TABLE1_WASTED.items()
    ]
    errors.append(abs(
        statistics.mean(r.wasted_energy_fraction for r in baselines)
        - TABLE1_TOTAL_WASTED
    ))
    miss = {}
    for result in baselines:
        miss.setdefault(result.benchmark, []).append(result.miss_rate)
    table2 = [
        abs(statistics.mean(rates) - benchmark_spec(name).target_miss_rate)
        for name, rates in miss.items()
    ]
    return {
        "table1_err_pp": 100.0 * statistics.mean(errors),
        "table2_err_pp": 100.0 * statistics.mean(table2),
    }
