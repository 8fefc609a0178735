"""Seeded synthetic program generator.

Given a :class:`ProgramShape` (structure and branch-population parameters)
the generator builds a :class:`~repro.program.cfg.Program`: a DAG of
functions (calls only go to higher-numbered functions, so recursion is
bounded), each function a list of basic blocks with loops, forward
conditional branches, jumps and calls.  ``main`` (function 0) ends with a
jump back to its entry so the dynamic stream is unbounded; run length is
controlled by the simulator, as with any looping benchmark.

Structural guarantees:

* every backward conditional edge carries a :class:`LoopBehavior` (finite
  trip counts), so all inner loops terminate;
* forward branches/jumps only target later blocks of the same function;
* calls form a DAG over functions;

together these make every walk leave any nest in finite time — the only
infinite cycle is main's outer loop, which is the intended steady state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ProgramError
from repro.isa.instruction import StaticInstruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import FIRST_SCRATCH_REG, NUM_ARCH_REGS
from repro.program.behavior import (
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.cfg import BasicBlock, Program, TerminatorKind
from repro.utils.rng import WeightedTable, XorShiftRNG, derive_seed


@dataclass
class ProgramShape:
    """Structure and branch-population parameters of a synthetic program.

    The branch-behaviour weights are what calibrate the gshare misprediction
    rate of the generated workload; see repro.workloads.suite for the eight
    tuned instances.
    """

    num_functions: int = 8
    blocks_per_function: Tuple[int, int] = (8, 16)
    block_size: Tuple[int, int] = (4, 12)

    # Probability a non-final block ends with each terminator kind;
    # remaining mass falls through.
    p_cond: float = 0.62
    p_call: float = 0.06
    p_jump: float = 0.08

    # Of conditional branches, the fraction that are backward loop edges.
    loop_fraction: float = 0.30
    loop_trip_range: Tuple[int, int] = (4, 40)
    loop_jitter: float = 0.3

    # The forward-branch behaviour mix (weights, need not sum to 1).
    # Real integer codes are bimodal: most branches are near-deterministic
    # ("biased" with strong bias, patterns), while a few hot data-dependent
    # branches ("bad") carry most of the mispredictions.
    w_biased: float = 0.45
    w_pattern: float = 0.20
    w_correlated: float = 0.15
    w_random: float = 0.02
    w_bad: float = 0.08

    # Parameter ranges for the behaviours.
    biased_strength: Tuple[float, float] = (0.92, 0.995)
    bad_strength: Tuple[float, float] = (0.55, 0.78)
    pattern_length: Tuple[int, int] = (2, 6)
    correlated_noise: Tuple[float, float] = (0.02, 0.25)
    correlated_history_bits: int = 8

    # Instruction mix for straight-line code (weights).
    w_alu: float = 0.58
    w_mul: float = 0.03
    w_load: float = 0.25
    w_store: float = 0.12
    w_fp: float = 0.02

    # Dependence locality: probability a source register is one of the
    # most recently written registers (shapes extractable ILP).  The high
    # default keeps the baseline IPC in SPECint territory (~1.2-1.8 on the
    # 8-wide Table-3 core) rather than the inflated ILP of random code.
    dep_locality: float = 0.90
    dep_window: int = 3

    # Probability a conditional branch's condition register is produced by
    # a load in its own block (data-dependent branches resolve late, which
    # is what lets wrong-path work reach issue and execute).
    branch_load_dependence: float = 0.55

    # Hard (mispredict-prone) forward branches in real integer codes are
    # data-dependent: they test values arriving from pointer-chasing loads
    # that miss the caches, so exactly the branches that mispredict also
    # resolve late — which is what lets the wrong path flood the window,
    # the functional units and the result bus (paper Table 1: ~28% of all
    # power).  ``hard_branch_chain`` is the probability that a "bad" or
    # "random" branch gets such a slow condition chain; the chain loads
    # walk ``hard_chain_footprint`` bytes (past L2 at the default 4 MB)
    # with a stride drawn from ``hard_chain_strides``.
    hard_branch_chain: float = 1.0
    hard_chain_footprint: int = 1024 * 1024
    hard_chain_strides: Tuple[int, ...] = (4, 8, 16, 64)
    hard_chain_registers: int = 4
    # Fraction of hard condition loads that are true pointer walks (the
    # load's address is its own previous value, so successive instances
    # serialise).  The rest are independent data-dependent loads: the
    # condition still arrives a cache-miss late, but instances overlap, so
    # a resolution takes one miss latency rather than a backed-up chain.
    hard_chain_serial: float = 0.25
    # Correlated branches whose noise term is at least this are also
    # mispredict-prone enough to be treated as hard (data-dependent).
    hard_noise_threshold: float = 0.2

    # Probability a serial-chain instruction restarts the chain (writes the
    # chain register without reading it).  Restarts split the one global
    # chain into bounded segments: the ILP limit stays, but a wrong-path
    # chain segment can become ready and execute before its branch
    # resolves — as wrong-path code does on a real machine — instead of
    # being stuck forever behind the whole program's chain backlog.
    serial_chain_restart: float = 0.04

    # Probability a load's address comes from the previous load's result —
    # pointer chasing, the serialisation that keeps real SPECint IPC low.
    load_chain_fraction: float = 0.45

    # Fraction of body instructions threaded onto the program's serial
    # dependence chain (accumulators, induction arithmetic, pointer walks).
    # This is the knob that sets the baseline IPC: 0 gives the unbounded
    # ILP of random code, ~0.45 lands in SPECint territory on the 8-wide
    # Table-3 core.
    serial_chain_fraction: float = 0.45

    # Data memory: number of regions, the stride choices of memory ops and
    # the distribution of per-instruction working sets.  SPECint data mostly
    # lives in L1/L2; only a tail of accesses streams over big footprints.
    mem_regions: int = 12
    mem_strides: Tuple[int, ...] = (0, 4, 8, 16, 64)
    mem_footprints: Tuple[int, ...] = (2048, 8192, 32768, 262144)
    mem_footprint_weights: Tuple[float, ...] = (0.40, 0.30, 0.20, 0.10)

    def validate(self) -> None:
        """Raise ProgramError if the shape is internally inconsistent.

        Every shape that passes can be generated: each range the
        generator draws from is non-empty, each weighted mix has a
        positive total and each sequence it chooses from is non-empty.
        """
        if self.num_functions < 1:
            raise ProgramError("need at least one function")
        if self.blocks_per_function[0] < 2:
            raise ProgramError("functions need at least two blocks")
        if self.block_size[0] < 1:
            raise ProgramError("blocks need at least one instruction")
        for name in ("blocks_per_function", "block_size", "loop_trip_range",
                     "pattern_length"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ProgramError(f"{name}: empty range ({lo}, {hi})")
        if self.loop_trip_range[0] < 1:
            raise ProgramError("loop_trip_range: trip counts must be >= 1")
        if self.pattern_length[0] < 1:
            raise ProgramError("pattern_length: patterns need at least one outcome")
        if not 0 <= self.p_cond + self.p_call + self.p_jump <= 1.0:
            raise ProgramError("terminator probabilities must sum to <= 1")
        if not 0.0 <= self.loop_fraction <= 1.0:
            raise ProgramError("loop_fraction must be a probability")
        if not 0.0 <= self.loop_jitter <= 1.0:
            raise ProgramError("loop_jitter must be in [0, 1]")
        for name in ("biased_strength", "bad_strength", "correlated_noise"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise ProgramError(f"{name} must lie within [0, 1]")
        if self.correlated_history_bits < 1:
            raise ProgramError("correlated_history_bits must be >= 1")
        _check_weights("instruction-mix weights (w_alu..w_fp)", self.instruction_weights())
        _check_weights("forward-behaviour weights (w_biased..w_bad)",
                       self.forward_weights())
        if len(self.mem_footprint_weights) != len(self.mem_footprints):
            raise ProgramError(
                f"mem_footprint_weights has {len(self.mem_footprint_weights)} "
                f"entries for {len(self.mem_footprints)} mem_footprints"
            )
        _check_weights("mem_footprint_weights", self.mem_footprint_weights)
        if self.mem_regions < 1:
            raise ProgramError("mem_regions must be >= 1")
        if not self.mem_strides:
            raise ProgramError("mem_strides must not be empty")
        if not self.hard_chain_strides:
            raise ProgramError("hard_chain_strides must not be empty")
        if not 0.0 <= self.hard_branch_chain <= 1.0:
            raise ProgramError("hard_branch_chain must be a probability")
        if self.hard_chain_footprint & (self.hard_chain_footprint - 1):
            raise ProgramError("hard_chain_footprint must be a power of two")
        if self.hard_chain_registers < 1:
            raise ProgramError("need at least one condition-chain register")
        if NUM_ARCH_REGS - 2 - self.hard_chain_registers < FIRST_SCRATCH_REG:
            raise ProgramError("hard_chain_registers leaves no destination registers")

    def instruction_weights(self) -> Tuple[float, ...]:
        """Weights of the body-instruction kinds, in ``_BODY_KINDS`` order."""
        return (self.w_alu, self.w_mul, self.w_load, self.w_store, self.w_fp)

    def forward_weights(self) -> Tuple[float, ...]:
        """Weights of the forward-branch behaviours, in ``_FORWARD_KINDS`` order."""
        return (self.w_biased, self.w_pattern, self.w_correlated, self.w_random,
                self.w_bad)


def _check_weights(name: str, weights: Tuple[float, ...]) -> None:
    if any(weight < 0 for weight in weights):
        raise ProgramError(f"{name} must be non-negative")
    if not float(sum(weights)) > 0.0:
        raise ProgramError(f"{name} must sum to a positive value")


# The generator's fixed vocabularies, in draw order: a choice over one of
# these tuples indexes it with the drawn value, so reordering one changes
# every program.
_BODY_KINDS = ("alu", "mul", "load", "store", "fp")
_FORWARD_KINDS = ("biased", "pattern", "correlated", "random", "bad")
_ALU_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHIFT,
    Opcode.CMP, Opcode.MOV,
)
_LAST_REG = NUM_ARCH_REGS - 1
_TERMINATOR_OPCODES = {
    TerminatorKind.COND: Opcode.BR_COND,
    TerminatorKind.JUMP: Opcode.BR_UNCOND,
    TerminatorKind.CALL: Opcode.CALL,
    TerminatorKind.RET: Opcode.RET,
}


class ProgramGenerator:
    """Builds a finalized Program from a ProgramShape and a seed.

    Every field of a program comes from one of two streams, ``_rng`` (the
    main stream: structure, behaviours, body instructions) and
    ``_chain_rng`` (the side stream of the chain post-passes).  The order
    of the draws on each stream is the contract — the calibrated suite is
    defined by it, and ``tests/test_program_goldens.py`` pins the programs
    it produces — so a speed-up may restructure the code that makes the
    draws but never add, drop or reorder one.
    """

    def __init__(self, shape: ProgramShape, seed: int, name: str = "synthetic") -> None:
        shape.validate()
        self.shape = shape
        self.seed = seed
        self.name = name
        self._rng = XorShiftRNG(derive_seed(seed, "program", name))
        # Separate stream for load-chaining decisions so that tuning the
        # chain fraction never perturbs the calibrated branch population.
        self._chain_rng = XorShiftRNG(derive_seed(seed, "loadchain", name))
        self._last_load_dest = None
        self._behavior_counter = 0
        # Blocks whose conditional branch is mispredict-prone and therefore
        # receives a slow condition chain (see _install_condition_chain).
        self._hard_blocks: set = set()
        # The weighted choices, each precomputed once for every draw.
        self._kind_table = WeightedTable(_BODY_KINDS, shape.instruction_weights())
        self._forward_table = WeightedTable(_FORWARD_KINDS, shape.forward_weights())
        self._footprint_table = WeightedTable(
            shape.mem_footprints, shape.mem_footprint_weights
        )

    def generate(self) -> Program:
        """Generate, finalize and return the program."""
        blocks: List[BasicBlock] = []
        function_entries: List[int] = []
        function_block_ids: List[List[int]] = []

        # First pass: reserve block ids so calls can target later functions.
        for function_id in range(self.shape.num_functions):
            count = self._rng.randint(*self.shape.blocks_per_function)
            ids = list(range(len(blocks), len(blocks) + count))
            function_entries.append(ids[0])
            function_block_ids.append(ids)
            blocks.extend([None] * count)  # type: ignore[list-item]

        for function_id in range(self.shape.num_functions):
            self._build_function(
                function_id, function_block_ids[function_id], function_entries, blocks
            )

        program = Program(blocks, entry_block=function_entries[0], name=self.name)
        program.finalize()
        return program

    def _build_function(
        self,
        function_id: int,
        block_ids: List[int],
        function_entries: List[int],
        blocks: List[BasicBlock],
    ) -> None:
        last_index = len(block_ids) - 1
        recent_dests: List[int] = []
        self._last_load_dest = None  # pointer chains do not cross functions
        for position, block_id in enumerate(block_ids):
            if position == last_index:
                block = self._make_final_block(function_id, block_id, block_ids)
            else:
                block = self._make_inner_block(
                    function_id, position, block_id, block_ids, function_entries
                )
            self._fill_block(block, recent_dests)
            blocks[block_id] = block

    def _make_final_block(
        self, function_id: int, block_id: int, block_ids: List[int]
    ) -> BasicBlock:
        if function_id == 0:
            # main loops forever: the steady state of the benchmark.
            return BasicBlock(
                block_id, function_id, TerminatorKind.JUMP, taken_target=block_ids[0]
            )
        return BasicBlock(block_id, function_id, TerminatorKind.RET)

    def _make_inner_block(
        self,
        function_id: int,
        position: int,
        block_id: int,
        block_ids: List[int],
        function_entries: List[int],
    ) -> BasicBlock:
        shape = self.shape
        next_block = block_ids[position + 1]
        roll = self._rng.random()

        if roll < shape.p_cond:
            return self._make_cond_block(function_id, position, block_id, block_ids)
        roll -= shape.p_cond

        callable_functions = function_entries[function_id + 1:]
        if roll < shape.p_call and callable_functions:
            target = self._rng.choice(callable_functions)
            return BasicBlock(
                block_id,
                function_id,
                TerminatorKind.CALL,
                taken_target=target,
                fall_target=next_block,
            )
        roll -= shape.p_call

        if roll < shape.p_jump and position + 2 < len(block_ids):
            skip = self._rng.randint(position + 2, min(position + 4, len(block_ids) - 1))
            return BasicBlock(
                block_id, function_id, TerminatorKind.JUMP, taken_target=block_ids[skip]
            )

        return BasicBlock(
            block_id, function_id, TerminatorKind.FALL, fall_target=next_block
        )

    def _make_cond_block(
        self, function_id: int, position: int, block_id: int, block_ids: List[int]
    ) -> BasicBlock:
        shape = self.shape
        next_block = block_ids[position + 1]
        is_loop = position > 0 and self._rng.chance(shape.loop_fraction)
        if is_loop:
            head = block_ids[self._rng.randint(max(0, position - 3), position)]
            behavior = LoopBehavior(
                mean_trip=self._rng.randint(*shape.loop_trip_range),
                seed=self._next_behavior_seed(),
                jitter=shape.loop_jitter,
            )
            # Jittered (data-dependent trip count) loops model pointer
            # walks: their back-edge tests a loaded value and resolves
            # late, which is why their exits are the costly mispredicts.
            if behavior.jitter > 0 and self._chain_rng.chance(
                shape.hard_branch_chain
            ):
                self._hard_blocks.add(block_id)
            return BasicBlock(
                block_id,
                function_id,
                TerminatorKind.COND,
                taken_target=head,
                fall_target=next_block,
                behavior=behavior,
            )
        # Forward branch: skip over one to four blocks.
        hi = min(position + 4, len(block_ids) - 1)
        lo = min(position + 2, hi)
        target = block_ids[self._rng.randint(lo, hi)]
        behavior, kind = self._make_forward_behavior()
        hard = kind in ("bad", "random") or (
            isinstance(behavior, CorrelatedBehavior)
            and behavior.noise >= shape.hard_noise_threshold
        )
        if hard and self._chain_rng.chance(shape.hard_branch_chain):
            self._hard_blocks.add(block_id)
        return BasicBlock(
            block_id,
            function_id,
            TerminatorKind.COND,
            taken_target=target,
            fall_target=next_block,
            behavior=behavior,
        )

    def _make_forward_behavior(self):
        shape = self.shape
        kind = self._rng.table_choice(self._forward_table)
        seed = self._next_behavior_seed()
        if kind in ("biased", "bad"):
            lo, hi = shape.biased_strength if kind == "biased" else shape.bad_strength
            strength = lo + self._rng.random() * (hi - lo)
            p_taken = strength if self._rng.chance(0.5) else 1.0 - strength
            return BiasedBehavior(p_taken, seed), kind
        if kind == "pattern":
            length = self._rng.randint(*shape.pattern_length)
            pattern = [self._rng.chance(0.5) for _ in range(length)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            return PatternBehavior(pattern), kind
        if kind == "correlated":
            bits = shape.correlated_history_bits
            mask = 0
            for _ in range(self._rng.randint(1, 3)):
                mask |= 1 << self._rng.randint(0, bits - 1)
            noise = (
                shape.correlated_noise[0]
                + self._rng.random() * (shape.correlated_noise[1] - shape.correlated_noise[0])
            )
            return CorrelatedBehavior(mask, noise, seed), kind
        return BiasedBehavior(0.5, seed), kind

    def _next_behavior_seed(self) -> int:
        self._behavior_counter += 1
        return derive_seed(self.seed, "behavior", self._behavior_counter)

    def _fill_block(self, block: BasicBlock, recent_dests: List[int]) -> None:
        """Populate a block with straight-line code plus its terminator.

        The body loop is the generator's hot path, so it is one loop with
        the RNG methods bound to locals.  Per instruction it draws, in
        order: the kind (a table draw); the opcode (ALU choice, or the
        MUL/DIV and FADD/FMUL coin); the destination (all kinds but
        stores); the ALU source count; the sources, each a locality coin
        and a recent-register choice or a uniform register; the load-chain
        coin (side stream, loads after the function's first); and for
        memory ops the region, stride and footprint.  The destination
        window ``recent_dests`` keeps the last ``dep_window`` destinations.
        """
        shape = self.shape
        rng = self._rng
        random, randint, choice, chance = rng.random, rng.randint, rng.choice, rng.chance
        chain_chance = self._chain_rng.chance
        kind_items = self._kind_table.items
        kind_cumulative = self._kind_table.cumulative
        kind_total = self._kind_table.total
        footprint_items = self._footprint_table.items
        footprint_cumulative = self._footprint_table.cumulative
        footprint_total = self._footprint_table.total
        locality = shape.dep_locality
        window = shape.dep_window
        dest_hi = NUM_ARCH_REGS - 2 - shape.hard_chain_registers
        regions_hi = shape.mem_regions - 1
        strides = shape.mem_strides
        load_chain = shape.load_chain_fraction
        last_load_dest = self._last_load_dest
        recent = recent_dests
        append = block.instructions.append

        for _ in range(randint(*shape.block_size)):
            # Table draws are ``XorShiftRNG.table_choice``, inlined.
            kind = kind_items[bisect_right(kind_cumulative, random() * kind_total)]
            if kind == "alu":
                opcode = choice(_ALU_OPCODES)
            elif kind == "load":
                opcode = Opcode.LOAD
            elif kind == "store":
                opcode = Opcode.STORE
            elif kind == "mul":
                opcode = Opcode.MUL if chance(0.9) else Opcode.DIV
            else:
                opcode = Opcode.FADD if chance(0.6) else Opcode.FMUL
            if opcode is Opcode.STORE:
                dest = None
                two_sources = True
            else:
                # The top registers are reserved: NUM_ARCH_REGS - 1 carries
                # the serial dependence chain and the next
                # ``hard_chain_registers`` the pointer-chase condition
                # chains; ordinary destinations must not clobber them.
                dest = randint(FIRST_SCRATCH_REG, dest_hi)
                recent.append(dest)
                if len(recent) > window:
                    del recent[0]
                if kind == "alu":
                    two_sources = randint(1, 2) == 2
                else:
                    two_sources = opcode is not Opcode.LOAD
            first = (choice(recent) if recent and chance(locality)
                     else randint(FIRST_SCRATCH_REG, _LAST_REG))
            if two_sources:
                second = (choice(recent) if recent and chance(locality)
                          else randint(FIRST_SCRATCH_REG, _LAST_REG))
                sources = (first, second)
            else:
                sources = (first,)
            if opcode is Opcode.LOAD:
                if last_load_dest is not None and chain_chance(load_chain):
                    sources = (last_load_dest,)
                last_load_dest = dest
            elif opcode is not Opcode.STORE:
                append(StaticInstruction(0, opcode, dest, sources))
                continue
            append(StaticInstruction(
                0,
                opcode,
                dest=dest,
                sources=sources,
                mem_region=randint(0, regions_hi),
                mem_stride=choice(strides),
                mem_footprint=footprint_items[
                    bisect_right(footprint_cumulative, random() * footprint_total)
                ],
            ))
        self._last_load_dest = last_load_dest

        terminator_opcode = _TERMINATOR_OPCODES.get(block.kind)
        if terminator_opcode is not None:
            sources: Tuple[int, ...] = ()
            if terminator_opcode is Opcode.BR_COND:
                sources = (self._pick_branch_source(block, recent_dests),)
            block.instructions.append(
                StaticInstruction(0, terminator_opcode, dest=None, sources=sources)
            )
        if isinstance(block.behavior, LoopBehavior):
            self._install_induction_chain(block)
        self._install_serial_chain(block)
        if block.block_id in self._hard_blocks:
            self._install_condition_chain(block)

    def _install_induction_chain(self, block: BasicBlock) -> None:
        """Give a loop its induction variable: ``i = i + 1; branch on i``.

        The first body instruction becomes the induction update — a
        single-cycle ALU op whose only input is its own previous value, so
        it runs one iteration ahead of the body's dependence chains — and
        the loop branch tests it.  This is how real loop back-edges resolve
        almost as soon as they reach issue, instead of waiting for the
        iteration's data chain.  Fields are overwritten in place so the
        generator's RNG stream (and hence the calibrated branch population)
        is untouched.
        """
        body = [i for i in block.instructions if not i.is_branch]
        if not body:
            return
        head = body[0]
        induction_reg = head.dest if head.dest is not None else FIRST_SCRATCH_REG
        induction = StaticInstruction(
            0, Opcode.ADD, dest=induction_reg, sources=(induction_reg,),
            block_id=head.block_id,
        )
        block.instructions[block.instructions.index(head)] = induction
        branch = block.instructions[-1]
        if branch.is_cond_branch:
            block.instructions[-1] = StaticInstruction(
                0, Opcode.BR_COND, dest=None, sources=(induction_reg,),
                block_id=branch.block_id,
            )

    def _pick_branch_source(self, block: BasicBlock, recent_dests: List[int]) -> int:
        """Condition register of a branch.

        Forward (data-dependent) branches often test a freshly loaded value
        and therefore resolve late; loop back-edges test an induction
        variable produced by ALU code and resolve quickly.
        """
        is_loop_edge = isinstance(block.behavior, LoopBehavior)
        wants_load_source = self._rng.chance(self.shape.branch_load_dependence)
        if wants_load_source and not is_loop_edge:
            for instruction in reversed(block.instructions):
                if instruction.opcode is Opcode.LOAD and instruction.dest is not None:
                    return instruction.dest
        return self._pick_source(recent_dests)

    _SERIAL_REG = NUM_ARCH_REGS - 1

    def _install_condition_chain(self, block: BasicBlock) -> None:
        """Make a hard branch's condition arrive late (pointer chasing).

        The block's last load becomes a self-chained, cache-missing load:
        it reads and writes one of a few reserved condition registers, so
        successive executions of the same chain serialise (each walk step
        needs the previous pointer), and its working set is pushed past the
        L2 so the value arrives tens of cycles after dispatch.  The branch
        then tests that register.  Blocks without a load have their last
        rewritable ALU op converted into such a load.  All rewrites are in
        place (decisions come from the side RNG stream), so the calibrated
        branch population and the code layout are untouched.
        """
        instructions = block.instructions
        branch = instructions[-1]
        if not branch.is_cond_branch:
            return
        reg = NUM_ARCH_REGS - 2 - (block.block_id % self.shape.hard_chain_registers)
        stride = self._chain_rng.choice(self.shape.hard_chain_strides)

        chain_load = None
        for instr in reversed(instructions[:-1]):
            if instr.opcode is Opcode.LOAD:
                chain_load = instr
                break
        if chain_load is None:
            for index in range(len(instructions) - 2, -1, -1):
                instr = instructions[index]
                if instr.is_branch or instr.dest is None:
                    continue
                if instr.sources and instr.sources[0] == instr.dest == self._SERIAL_REG:
                    continue  # keep the induction/serial heads intact
                chain_load = StaticInstruction(
                    0,
                    Opcode.LOAD,
                    dest=instr.dest,
                    sources=instr.sources,
                    block_id=instr.block_id,
                    mem_region=self._chain_rng.randint(0, self.shape.mem_regions - 1),
                )
                instructions[index] = chain_load
                break
        if chain_load is None:
            return
        chain_load.dest = reg
        if self._chain_rng.chance(self.shape.hard_chain_serial):
            chain_load.sources = (reg,)  # pointer walk: serialised instances
        elif not chain_load.sources:
            chain_load.sources = (FIRST_SCRATCH_REG,)
        chain_load.mem_footprint = self.shape.hard_chain_footprint
        chain_load.mem_stride = stride
        branch.sources = (reg,)

    def _install_serial_chain(self, block: BasicBlock) -> None:
        """Thread part of the block onto the global serial dependence chain.

        Chained ALU ops and loads read and write one dedicated register, so
        they execute strictly one after another across blocks, functions and
        loop iterations — the accumulator/induction/pointer-walk chains that
        bound real integer codes' ILP.  Instruction fields are overwritten
        in place (decisions come from the side RNG stream), so the main
        generator stream and the calibrated branch outcomes are untouched.
        """
        fraction = self.shape.serial_chain_fraction
        if fraction <= 0.0:
            return
        chance = self._chain_rng.chance
        restart = self.shape.serial_chain_restart
        serial = self._SERIAL_REG
        for instr in block.instructions:
            dest = instr.dest
            if instr.is_branch or dest is None:
                continue
            sources = instr.sources
            if sources and sources[0] == dest == serial:
                continue  # the induction head keeps its private chain
            if instr.is_store or instr.op_class is OpClass.FP_ALU:
                continue
            if not chance(fraction):
                continue
            instr.dest = serial
            if chance(restart):
                continue  # restart: write the chain register, read elsewhere
            instr.sources = (serial,) + tuple(sources[1:])

    def _pick_source(self, recent_dests: List[int]) -> int:
        if recent_dests and self._rng.chance(self.shape.dep_locality):
            return self._rng.choice(recent_dests)
        return self._rng.randint(FIRST_SCRATCH_REG, _LAST_REG)
