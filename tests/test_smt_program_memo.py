"""SMT machines share the engine's per-process program memo.

``build_smt_processor`` takes every thread's program from the same memo
as single-thread cells, keyed by ``(benchmark, seed)``.  These tests pin
what makes that safe:

* a memoised program re-run by any cell kind gives a result bit-identical
  to a fresh build (the memo never leaks state between cells);
* one process builds each distinct program of a study exactly once;
* a key repeated inside one machine still gets a private instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.experiments import engine
from repro.experiments.engine import (
    build_smt_processor,
    make_smt_cell,
    simulate,
    simulate_smt,
    smt_baseline_cells,
)
from repro.experiments.scheduler import SweepScheduler
from repro.smt import mixes
from repro.smt.core import SmtProcessor
from repro.smt.metrics import collect_smt_result, smt_result_to_dict
from repro.smt.mixes import MIX_NAMES, MixSpec, mix_spec
from repro.smt.policies import POLICY_NAMES, make_fetch_policy
from repro.studies.registry import get_study
from repro.studies.spec import StudyContext
from repro.workloads.spec import WorkloadSpec

_INSTRUCTIONS = 300
_WARMUP = 100


@pytest.fixture(autouse=True)
def _empty_memo_after():
    yield
    engine._PROGRAM_MEMO.clear()


def _smt_cell(mix, policy="confidence-gating", **overrides):
    return make_smt_cell(
        mix, policy=policy, instructions=_INSTRUCTIONS, warmup=_WARMUP,
        **overrides,
    )


def _cold(run, cell):
    """``run(cell)`` on programs built for it alone (memo cleared first)."""
    engine._PROGRAM_MEMO.clear()
    result = run(cell)
    engine._PROGRAM_MEMO.clear()
    return result


def _private_smt(cell):
    """The SMT result of a hand-built machine over private program builds."""
    mix = mix_spec(cell.mix)
    processor = SmtProcessor(
        cell.config,
        mix.build_programs(cell.effective_seed),
        mix.thread_seeds(cell.effective_seed),
        fetch_policy=make_fetch_policy(cell.policy),
        sharing=cell.sharing,
    )
    processor.run(cell.instructions, warmup_instructions=cell.warmup)
    return collect_smt_result(processor, cell.mix, cell.policy, cell.instructions)


def test_warm_memo_smt_results_equal_cold_builds_for_every_mix_and_policy():
    cells = [_smt_cell(mix, policy) for mix in MIX_NAMES for policy in POLICY_NAMES]
    engine._PROGRAM_MEMO.clear()
    # One pass over a shared memo: every cell after the first reuses
    # programs that earlier mixes and policies already ran.
    warm = [smt_result_to_dict(simulate_smt(cell)) for cell in cells]
    for cell, result in zip(cells, warm):
        cold = smt_result_to_dict(_cold(simulate_smt, cell))
        assert result == cold, (cell.mix, cell.policy)


def test_smt_then_references_then_smt_match_private_builds():
    cell = _smt_cell("mix2-skewed", sharing="shared")
    references = smt_baseline_cells(cell)
    expected_smt = smt_result_to_dict(_private_smt(cell))
    expected_refs = [_cold(simulate, ref) for ref in references]

    engine._PROGRAM_MEMO.clear()
    first = smt_result_to_dict(simulate_smt(cell))
    alone = [simulate(ref) for ref in references]
    again = smt_result_to_dict(simulate_smt(cell))

    assert first == expected_smt
    assert alone == expected_refs
    assert again == expected_smt


def test_smt_threads_and_their_references_share_one_program_instance():
    cell = _smt_cell("mix2-branchy")
    engine._PROGRAM_MEMO.clear()
    smt = build_smt_processor(cell)
    for thread, ref in zip(smt.threads, smt_baseline_cells(cell)):
        assert engine.build_processor(ref).threads[0].program is thread.program


def test_mix4_grid_builds_each_distinct_program_once(monkeypatch):
    plan = get_study("mix4-grid").plan(
        StudyContext(instructions=_INSTRUCTIONS, warmup=_WARMUP)
    )
    distinct = set()
    for cell in plan.cells:
        if hasattr(cell, "mix"):
            distinct.update(
                (spec.name, spec.seed)
                for spec in mix_spec(cell.mix).program_specs(cell.effective_seed)
            )
        else:
            distinct.add((cell.benchmark, cell.effective_seed))

    builds = []
    original = WorkloadSpec.build_program

    def counting(spec):
        builds.append((spec.name, spec.seed))
        return original(spec)

    monkeypatch.setattr(WorkloadSpec, "build_program", counting)
    engine._PROGRAM_MEMO.clear()
    SweepScheduler(jobs=1).run(plan.cells)
    engine._PROGRAM_MEMO.clear()

    assert sorted(builds) == sorted(distinct)


@dataclass(frozen=True)
class _RepeatedKeyMix(MixSpec):
    """A mix whose threads all run one program: the same seed everywhere."""

    def thread_seeds(self, base_seed=None):
        base = self.seed if base_seed is None else base_seed
        return [base] * len(self.benchmarks)


def test_a_key_repeated_inside_one_machine_gets_private_instances(monkeypatch):
    mix = _RepeatedKeyMix("twin-key", ("gzip", "gzip"), "one key, two threads")
    monkeypatch.setitem(mixes._MIXES, mix.name, mix)
    cell = _smt_cell(mix.name, policy="round-robin")

    engine._PROGRAM_MEMO.clear()
    processor = build_smt_processor(cell)
    first, second = (thread.program for thread in processor.threads)
    assert first is not second
    assert engine._PROGRAM_MEMO[("gzip", mix.seed)] is first

    result = smt_result_to_dict(simulate_smt(cell))
    engine._PROGRAM_MEMO.clear()
    assert result == smt_result_to_dict(_private_smt(cell))

