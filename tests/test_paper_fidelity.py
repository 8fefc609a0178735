"""Closeness to the paper's own Table 1 and Table 2 numbers.

The golden fingerprints pin the simulator bit for bit, but a golden can
be re-pinned.  This test bounds how far the reproduction may drift from
the paper, whatever the goldens say: the calibrated baseline suite runs
at the size of perfbench's paper-suite workload (4000 measured + 1000
warm-up instructions per benchmark) through ``experiments/tables.py``,
and the mean absolute errors against the paper stay inside fixed bands.

* Table 1: the wasted-power share of each of the eleven units and of
  the total, mean |reproduced - paper| <= 1.5 pp (about 0.4 pp today).
* Table 2: the baseline branch miss rate of each benchmark, mean
  |reproduced - paper| <= 3.0 pp (about 2.2 pp today).
"""

from __future__ import annotations

import statistics

from repro.experiments import tables
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

_INSTRUCTIONS = 4000
_WARMUP = 1000
_TABLE1_BAND_PP = 1.5
_TABLE2_BAND_PP = 3.0


def test_calibrated_baselines_stay_within_bands_of_the_paper():
    runner = ExperimentRunner(instructions=_INSTRUCTIONS, warmup=_WARMUP)
    rows = tables.table1(runner)
    assert set(tables.TABLE1_WASTED) | {"total"} <= set(rows)
    table1_err = 100.0 * statistics.mean(
        abs(row["wasted"] - row["paper_wasted"]) for row in rows.values()
    )
    # The Table 1 study ran every baseline cell, so these are memo hits.
    table2_err = 100.0 * statistics.mean(
        abs(runner.baseline(name).miss_rate - benchmark_spec(name).target_miss_rate)
        for name in BENCHMARK_NAMES
    )
    assert runner.engine.executed == len(BENCHMARK_NAMES)
    assert table1_err <= _TABLE1_BAND_PP, (
        f"Table 1 wasted-power error {table1_err:.2f} pp exceeds "
        f"the {_TABLE1_BAND_PP} pp band"
    )
    assert table2_err <= _TABLE2_BAND_PP, (
        f"Table 2 miss-rate error {table2_err:.2f} pp exceeds "
        f"the {_TABLE2_BAND_PP} pp band"
    )
