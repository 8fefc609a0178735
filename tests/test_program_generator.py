"""Tests for the synthetic program generator."""

import pytest

from repro.errors import ProgramError
from repro.isa.opcodes import Opcode
from repro.program.cfg import TerminatorKind
from repro.program.generator import ProgramGenerator, ProgramShape


def _generate(seed=42, **overrides):
    shape = ProgramShape(**overrides)
    return ProgramGenerator(shape, seed=seed, name="gen-test").generate()


def test_generation_is_deterministic():
    a = _generate()
    b = _generate()
    assert len(a.blocks) == len(b.blocks)
    for block_a, block_b in zip(a.blocks, b.blocks):
        ops_a = [i.opcode for i in block_a.instructions]
        ops_b = [i.opcode for i in block_b.instructions]
        assert ops_a == ops_b
        assert block_a.kind is block_b.kind
        assert block_a.taken_target == block_b.taken_target


def test_different_seed_different_program():
    a = _generate(seed=1)
    b = _generate(seed=2)
    ops_a = [i.opcode for blk in a.blocks for i in blk.instructions]
    ops_b = [i.opcode for blk in b.blocks for i in blk.instructions]
    assert ops_a != ops_b


def test_program_validates_and_finalizes():
    program = _generate()
    assert program.finalized
    assert program.static_instruction_count() > 0


def test_every_cond_block_has_behavior():
    program = _generate()
    for block in program.blocks:
        if block.kind is TerminatorKind.COND:
            assert block.behavior is not None
            assert block.instructions[-1].opcode is Opcode.BR_COND


def test_calls_form_a_dag():
    program = _generate(num_functions=8)
    for block in program.blocks:
        if block.kind is TerminatorKind.CALL:
            callee = program.block(block.taken_target)
            assert callee.function_id > block.function_id


def test_jumps_stay_within_function():
    program = _generate()
    for block in program.blocks:
        if block.kind is TerminatorKind.JUMP:
            target = program.block(block.taken_target)
            # main's closing jump loops back to its own entry
            assert target.function_id == block.function_id


def test_loop_backedges_target_earlier_blocks():
    program = _generate()
    for block in program.blocks:
        if block.kind is TerminatorKind.COND and block.taken_target < block.block_id:
            head = program.block(block.taken_target)
            assert head.function_id == block.function_id


def test_functions_end_in_ret_except_main():
    program = _generate(num_functions=5)
    last_blocks = {}
    for block in program.blocks:
        last_blocks[block.function_id] = block
    assert last_blocks[0].kind is TerminatorKind.JUMP
    for function_id, block in last_blocks.items():
        if function_id != 0:
            assert block.kind is TerminatorKind.RET


def test_memory_ops_have_region_and_stride():
    program = _generate(mem_regions=4)
    seen_mem = False
    for block in program.blocks:
        for instr in block.instructions:
            if instr.opcode in (Opcode.LOAD, Opcode.STORE):
                seen_mem = True
                assert 0 <= instr.mem_region < 4
                assert instr.mem_stride >= 0
    assert seen_mem


def test_shape_validation():
    with pytest.raises(ProgramError):
        _generate(num_functions=0)
    with pytest.raises(ProgramError):
        _generate(blocks_per_function=(1, 2))
    with pytest.raises(ProgramError):
        _generate(block_size=(0, 3))
    with pytest.raises(ProgramError):
        _generate(p_cond=0.9, p_call=0.3, p_jump=0.3)


@pytest.mark.parametrize("overrides,field", [
    ({"block_size": (8, 4)}, "block_size"),
    ({"blocks_per_function": (9, 3)}, "blocks_per_function"),
    ({"loop_trip_range": (40, 4)}, "loop_trip_range"),
    ({"loop_trip_range": (0, 4)}, "loop_trip_range"),
    ({"pattern_length": (5, 2)}, "pattern_length"),
    ({"mem_footprint_weights": (0.5, 0.5)}, "mem_footprint_weights"),
    ({"mem_footprint_weights": (0.0, 0.0, 0.0, 0.0)}, "mem_footprint_weights"),
    ({"w_alu": 0.0, "w_mul": 0.0, "w_load": 0.0, "w_store": 0.0, "w_fp": 0.0},
     "instruction-mix"),
    ({"w_load": -0.1}, "instruction-mix"),
    ({"w_biased": 0.0, "w_pattern": 0.0, "w_correlated": 0.0, "w_random": 0.0,
      "w_bad": 0.0}, "forward-behaviour"),
    ({"mem_strides": ()}, "mem_strides"),
    ({"hard_chain_strides": ()}, "hard_chain_strides"),
    ({"correlated_history_bits": 0}, "correlated_history_bits"),
    ({"mem_regions": 0}, "mem_regions"),
    ({"loop_jitter": 1.5}, "loop_jitter"),
    ({"bad_strength": (0.5, 1.2)}, "bad_strength"),
    ({"hard_chain_registers": 61}, "hard_chain_registers"),
])
def test_validate_rejects_shapes_that_cannot_be_generated(overrides, field):
    # Each shape used to pass validate() and then fail mid-generation with
    # a bare ValueError from the RNG; validate() must name the field.
    shape = ProgramShape(**overrides)
    with pytest.raises(ProgramError, match=field):
        shape.validate()
    with pytest.raises(ProgramError, match=field):
        ProgramGenerator(shape, seed=42)


def test_every_registered_shape_validates():
    from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

    ProgramShape().validate()
    for name in BENCHMARK_NAMES:
        benchmark_spec(name).shape.validate()


def test_block_sizes_within_shape_bounds():
    program = _generate(block_size=(3, 5))
    for block in program.blocks:
        body = [i for i in block.instructions if not i.is_branch]
        assert 3 <= len(body) <= 5
