"""Program-text goldens: one SHA-256 per generated program.

Result goldens only guard the blocks a short cell visits; a cell of a few
thousand instructions never reaches most of a program, so a generator
change confined to unvisited blocks would pass them all.  These digests
cover every block field (id, function, address, terminator kind, targets,
behaviour class, parameters and seed) and every ``StaticInstruction``
slot, for the eight benchmarks at their calibrated seeds and at two
held-out seeds.  Any change to a draw stream or its order shows up here.

The goldens live in ``tests/goldens/program_digests.json``.  Re-pin (only
when an intentional generator change ships) with::

    PYTHONPATH=src python tests/test_program_goldens.py --pin
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "program_digests.json"
)

_EXTRA_SEEDS = (1, 4242)

_INSTRUCTION_SLOTS = (
    "address", "opcode", "op_class", "latency", "fu_code", "dest", "sources",
    "block_id", "mem_region", "mem_stride", "mem_footprint", "is_branch",
    "is_cond_branch", "is_load", "is_store", "is_mem",
)


def _behavior_record(behavior) -> list:
    """Class, parameters and seed of one branch behaviour (None if absent)."""
    if behavior is None:
        return [None]
    kind = type(behavior).__name__
    if kind == "BiasedBehavior":
        params = [repr(behavior.p_taken)]
    elif kind == "LoopBehavior":
        params = [behavior.mean_trip, repr(behavior.jitter)]
    elif kind == "CorrelatedBehavior":
        params = [behavior.history_mask, repr(behavior.noise)]
    elif kind == "PatternBehavior":
        params = [list(behavior.pattern)]
    else:
        raise AssertionError(f"unknown behaviour {kind}")
    return [kind, params, getattr(behavior, "_seed", None)]


def _slot(value):
    if hasattr(value, "value"):  # enum members
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def program_digest(program) -> str:
    """SHA-256 over every block field and every static-instruction slot."""
    records = [program.name, program.entry_block]
    for block in program.blocks:
        records.append([
            block.block_id, block.function_id, block.address, block.kind.value,
            block.taken_target, block.fall_target,
            _behavior_record(block.behavior),
            [[_slot(getattr(instr, slot)) for slot in _INSTRUCTION_SLOTS]
             for instr in block.instructions],
        ])
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cases():
    from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

    cases = []
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        for seed in (spec.seed,) + _EXTRA_SEEDS:
            cases.append((name, seed))
    return cases


def _build(name: str, seed: int):
    from repro.program.generator import ProgramGenerator
    from repro.workloads.suite import benchmark_spec

    spec = benchmark_spec(name)
    return ProgramGenerator(spec.shape, seed, name=spec.name).generate()


def _key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


def _generate() -> dict:
    return {_key(name, seed): program_digest(_build(name, seed))
            for name, seed in _cases()}


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case(goldens):
    assert sorted(goldens) == sorted(_key(name, seed) for name, seed in _cases())


@pytest.mark.parametrize("name,seed", _cases())
def test_program_text_is_unchanged(name, seed, goldens):
    assert program_digest(_build(name, seed)) == goldens[_key(name, seed)]


if __name__ == "__main__":
    if "--pin" not in sys.argv:
        raise SystemExit("usage: python tests/test_program_goldens.py --pin")
    payload = _generate()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(payload)} goldens to {GOLDEN_PATH}")
