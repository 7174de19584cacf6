"""Tests for the native functional engine and its streaming consumers:
translatability gating, the compile-once-per-machine engine, a
hand-built every-opcode differential against the interpreter, chunked
emission, and chunked-vs-materialized digest/profile parity.

Corpus-wide differential interp-vs-native equivalence (traces,
registers, memory, errors, heartbeats) lives in ``test_sim_turbo.py``,
which parametrizes the whole suite over every backend.
"""

import io
import json
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.profiler import (
    ChunkedWorkloadProfiler,
    WorkloadProfiler,
    profile_program,
)
from repro.isa import Instruction, Program, assemble
from repro.isa.assembler import DATA_BASE, TEXT_BASE
from repro.native import toolchain
from repro.obs import logging as obslog
from repro.obs.metrics import REGISTRY
from repro.sim import functional, native
from repro.sim.functional import (
    FunctionalSimulator,
    SimulationError,
    _OP_IDS,
    run_program,
)
from repro.sim.trace import TraceRef
from repro.uarch import BASE_CONFIG
from repro.uarch.sweep import (
    StreamingDigestBuilder,
    acquire_trace_digest,
    simulate_pipeline_sweep,
    trace_digest,
)
from repro.workloads import build_workload

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no working C toolchain")

LOOP_SOURCE = """
    .text
    li r5, 200
    li r6, 0
loop:
    addi r6, r6, 3
    addi r5, r5, -1
    bne r5, r0, loop
    halt
"""


def loop_program():
    return assemble(LOOP_SOURCE, name="native-loop")


class TestTranslationGate:
    def test_corpus_kernel_translatable(self):
        assert native.translatable(build_workload("fft"))

    def test_gate_result_cached_on_columns(self):
        program = loop_program()
        assert native.translatable(program)
        from repro.isa.columns import columns_for
        assert columns_for(program).derived["native_sim_ok"] is True

    def test_fp_register_as_int_operand_rejected(self):
        # Hand-built addi whose source is an FP register: the engine
        # keeps the two register files apart, so the program is rejected.
        program = Program(
            [Instruction("addi", rd=5, rs1=40, imm=1),
             Instruction("halt")], name="mixed-files")
        assert not native._translatable(program)


@needs_native
class TestEngineCache:
    def test_engine_cached_per_program(self):
        program = loop_program()
        first = native.engine_for(program)
        assert first is not None
        assert native.engine_for(program) is first

    def test_gated_off_means_no_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            assert not native.available()
            assert native.engine_for(loop_program()) is None
        finally:
            native.reset()

    def test_empty_cache_compiles_one_engine_for_every_program(
            self, monkeypatch, tmp_path, loop_nest_profile):
        from repro.core import make_clone
        from repro.core.synthesizer import SynthesisParameters
        from repro.workloads import workload_names
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        native.reset()
        try:
            programs = [build_workload(name) for name in workload_names()]
            programs += [
                make_clone(loop_nest_profile, SynthesisParameters(
                    dynamic_instructions=5_000, seed=seed)).program
                for seed in (1, 2)]
            for program in programs:
                simulator = FunctionalSimulator(program)
                executed = native.run_native(simulator, 5_000_000, False)
                assert executed == simulator.instructions_executed > 0
            libraries = sorted(name for name in os.listdir(
                toolchain.cache_dir()) if name.endswith(".so"))
        finally:
            native.reset()
        engines = [name for name in libraries
                   if name.startswith("simfunc-")]
        assert len(engines) == 1, libraries
        assert {name.split("-")[0] for name in libraries} <= {
            "probe", "simfunc", "sweeploop"}


# ----------------------------------------------------------------------
# Hand-built every-opcode differential against the interpreter
# ----------------------------------------------------------------------
#: Integer operand registers of the all-opcodes program and the values
#: they hold: INT_MIN, -1, 7, -13, 0, a shift amount past 31, a pattern.
INT_OPERANDS = {1: 0x80000000, 2: 0xFFFFFFFF, 3: 7, 4: 0xFFFFFFF3,
                5: 0, 7: 33, 8: 0x12345678}

#: FP operand registers (flat indices) and their values.
FP_OPERANDS = {33: 2.5, 34: -0.75, 35: 0.0, 36: 9.0, 37: -4.0,
               38: float("nan"), 39: 1e300}

R3_OPS = ("add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra",
          "slt", "sltu", "mul", "mulh", "div", "divu", "rem", "remu")
R2I_OPS = ("addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti",
           "sltiu")
BRANCH_OPS = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
INT_PAIRS = ((1, 2), (4, 3), (3, 5), (2, 7), (8, 4), (5, 5))
IMMEDIATES = (-1, 0, 5, 33, -32768, 0x7FFF)


class _Builder:
    """Straight-line program builder that spills every result to memory
    (``r6`` is the data pointer), so intermediate values are compared
    too, not only the final register file."""

    def __init__(self):
        self.code = []
        self.offset = 0

    def emit(self, opcode, **fields):
        self.code.append(Instruction(opcode, **fields))
        return len(self.code) - 1

    def spill(self, reg):
        if reg >= 32:
            self.emit("fsw", rs1=6, rs2=reg, imm=self.offset)
            self.offset += 8
        else:
            self.emit("sw", rs1=6, rs2=reg, imm=self.offset)
            self.offset += 4

    def result(self, opcode, rd, **fields):
        """The op into ``rd`` (spilled), then again into ``r0`` when the
        destination is an integer register."""
        self.emit(opcode, rd=rd, **fields)
        self.spill(rd)
        if rd < 32:
            self.emit(opcode, rd=0, **fields)


def all_opcodes_program():
    b = _Builder()
    b.emit("lui", rd=6, imm=DATA_BASE >> 16)
    for reg, value in INT_OPERANDS.items():
        b.emit("lui", rd=reg, imm=value >> 16)
        b.emit("ori", rd=reg, rs1=reg, imm=value & 0xFFFF)
    for reg, value in FP_OPERANDS.items():
        b.emit("fli", rd=reg, imm=value)
    b.emit("fli", rd=40, imm=3)  # an integer fli immediate
    b.spill(40)
    for opcode in R3_OPS:
        for rs1, rs2 in INT_PAIRS:
            b.result(opcode, 10, rs1=rs1, rs2=rs2)
    for opcode in R2I_OPS:
        for rs1 in (1, 4, 8):
            for imm in IMMEDIATES:
                b.result(opcode, 11, rs1=rs1, imm=imm)
    b.result("lui", 12, imm=0xABCD)
    fp_pairs = ((33, 34), (34, 35), (36, 37), (38, 33), (39, 39))
    for opcode in ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"):
        for rs1, rs2 in fp_pairs:
            b.result(opcode, 41, rs1=rs1, rs2=rs2)
    for opcode in ("fsqrt", "fneg", "fabs", "fmv"):
        for rs1 in range(33, 40):
            b.result(opcode, 42, rs1=rs1)
    for opcode in ("feq", "flt", "fle"):
        for rs1, rs2 in fp_pairs + ((33, 33),):
            b.result(opcode, 13, rs1=rs1, rs2=rs2)
    for rs1 in (33, 34, 36, 37):  # int(NaN) raises in the reference
        b.result("fcvtws", 14, rs1=rs1)
    for rs1 in (1, 2, 3, 4):
        b.result("fcvtsw", 43, rs1=rs1)
    # Memory: loads of what was spilled (the double at offset 0), an
    # unaligned word, sign- and zero-extended bytes from byte stores.
    stored = b.offset
    b.offset += 4
    b.emit("addi", rd=9, rs1=0, imm=0x7F80)
    b.emit("sb", rs1=6, rs2=9, imm=stored)
    b.emit("sb", rs1=6, rs2=2, imm=stored + 1)
    for opcode in ("lw", "lb", "lbu"):
        for imm in (0, 4, stored, stored + 1):
            b.result(opcode, 15, rs1=6, imm=imm)
    b.result("flw", 44, rs1=6, imm=0)
    # Branches, taken and not: a taken branch skips one marker addi.
    for opcode in BRANCH_OPS:
        for rs1, rs2 in INT_PAIRS:
            pc = b.emit(opcode, rs1=rs1, rs2=rs2)
            b.code[pc].target = pc + 2
            b.emit("addi", rd=16, rs1=16, imm=1)
    b.spill(16)
    # Jumps: j / jal / jalr with rd=0 skip a marker; jal and jalr
    # through r31 call a subroutine that returns through jr.
    for opcode, fields in (("j", {}), ("jal", {"rd": 0})):
        pc = b.emit(opcode, **fields)
        b.code[pc].target = pc + 2
        b.emit("addi", rd=17, rs1=17, imm=1)
    skip = b.emit("addi", rd=19, rs1=0, imm=0)
    b.code[skip].imm = TEXT_BASE + 4 * (b.emit("jalr", rd=0, rs1=19) + 2)
    b.emit("addi", rd=17, rs1=17, imm=1)
    call = b.emit("jal", rd=31)
    b.spill(31)
    address = b.emit("addi", rd=18, rs1=0, imm=0)
    b.emit("jalr", rd=31, rs1=18)
    b.spill(31)
    b.spill(17)
    b.emit("halt")
    subroutine = b.emit("addi", rd=17, rs1=17, imm=100)
    b.emit("jr", rs1=31)
    b.code[call].target = subroutine
    b.code[address].imm = TEXT_BASE + 4 * subroutine
    return Program(b.code, name="all-opcodes")


def _fp_bits(regs):
    return [struct.pack("<d", float(value)) for value in regs[32:]]


def _run_both(program, max_instructions=1_000_000, **native_kwargs):
    """(interp, native) simulators plus their traces or errors."""
    outcomes = []
    for backend in ("interp", "native"):
        simulator = FunctionalSimulator(program, backend=backend)
        try:
            outcome = simulator.run(max_instructions=max_instructions,
                                    trace=True)
        except SimulationError as exc:
            outcome = exc
        outcomes.append((simulator, outcome))
    return outcomes


def _assert_same_state(interp, fast):
    assert interp.regs[:32] == fast.regs[:32]
    assert _fp_bits(interp.regs) == _fp_bits(fast.regs)
    assert bytes(interp.memory.data) == bytes(fast.memory.data)


@needs_native
class TestHandBuiltDifferential:
    def test_program_covers_every_op_id(self):
        program = all_opcodes_program()
        assert native.translatable(program)
        ops = {_OP_IDS[instr.opcode] for instr in program.instructions}
        assert ops == set(range(61))
        zero_dest = {instr.opcode for instr in program.instructions
                     if instr.rd == 0}
        assert {"add", "addi", "lui", "lw", "lb", "lbu", "jal", "jalr",
                "feq", "fcvtws", "div", "mulh"} <= zero_dest

    def test_all_opcodes_bit_identical(self):
        program = all_opcodes_program()
        (interp, reference), (fast, trace) = _run_both(program)
        np.testing.assert_array_equal(reference.pcs, trace.pcs)
        np.testing.assert_array_equal(reference.addrs, trace.addrs)
        np.testing.assert_array_equal(reference.taken, trace.taken)
        assert interp.instructions_executed == fast.instructions_executed
        assert fast.regs[0] == 0
        assert set(trace.taken.tolist()) == {-1, 0, 1}
        _assert_same_state(interp, fast)

    @pytest.mark.parametrize("opcode,far", [
        (op, far) for op in ("lw", "lb", "lbu", "sw", "sb", "flw", "fsw")
        for far in (True, False)])
    def test_memory_range_errors(self, opcode, far):
        size = FunctionalSimulator(loop_program()).memory.size
        width = {"lw": 4, "sw": 4, "flw": 8, "fsw": 8}.get(opcode, 1)
        # Far: the top of the address space; near: straddling the end.
        address = 0xFFFF0000 if far else size - width + 1
        value_reg = 40 if opcode in ("flw", "fsw") else 9
        fields = ({"rd": value_reg} if opcode in ("lw", "lb", "lbu", "flw")
                  else {"rs2": value_reg})
        program = Program([
            Instruction("addi", rd=9, rs1=0, imm=77),
            Instruction("lui", rd=5, imm=address >> 16),
            Instruction("ori", rd=5, rs1=5, imm=address & 0xFFFF),
            Instruction("sw", rs1=0, rs2=9, imm=DATA_BASE),
            Instruction(opcode, rs1=5, imm=0, **fields),
            Instruction("halt"),
        ], name=f"oob-{opcode}")
        (interp, expected), (fast, got) = _run_both(program)
        assert isinstance(expected, SimulationError)
        assert str(got) == str(expected)
        assert str(expected) == f"{opcode} out of range: {address:#x}"
        assert (got.pc, got.instructions) == (expected.pc,
                                              expected.instructions)
        _assert_same_state(interp, fast)

    @pytest.mark.parametrize("opcode,address", [
        ("jr", 4), ("jr", TEXT_BASE + 4 * 1000), ("jalr", 4),
        ("jalr", TEXT_BASE - 4)])
    def test_indirect_jump_to_bad_pc(self, opcode, address):
        fields = {"rd": 31} if opcode == "jalr" else {}
        program = Program([
            Instruction("addi", rd=5, rs1=0, imm=address),
            Instruction(opcode, rs1=5, **fields),
            Instruction("halt"),
        ], name=f"bad-{opcode}")
        (interp, expected), (fast, got) = _run_both(program)
        assert "pc out of range" in str(expected)
        assert str(got) == str(expected)
        assert (got.pc, got.instructions) == (expected.pc,
                                              expected.instructions)
        _assert_same_state(interp, fast)

    def test_falling_off_the_end(self):
        program = Program([Instruction("addi", rd=5, rs1=0, imm=1),
                           Instruction("addi", rd=5, rs1=5, imm=1)],
                          name="no-halt")
        (interp, expected), (fast, got) = _run_both(program)
        assert str(expected) == "pc out of range: 2 in no-halt"
        assert str(got) == str(expected)
        assert (got.pc, got.instructions) == (2, 2) == (
            expected.pc, expected.instructions)
        _assert_same_state(interp, fast)

    @pytest.mark.parametrize("cap", [1, 17, 400])
    def test_cap_hit_mid_run(self, cap):
        program = all_opcodes_program()
        (interp, expected), (fast, got) = _run_both(program,
                                                    max_instructions=cap)
        assert "instruction cap exceeded" in str(expected)
        assert str(got) == str(expected)
        assert (got.pc, got.instructions, got.block) == (
            expected.pc, expected.instructions, expected.block)
        _assert_same_state(interp, fast)

    @pytest.mark.parametrize("chunk_events", [1, 997])
    def test_heartbeat_reentry_at_chunk_size(self, monkeypatch,
                                             chunk_events):
        monkeypatch.setattr(functional, "HEARTBEAT_INTERVAL", 13)
        program = all_opcodes_program()
        buffer = io.StringIO()
        old_level = obslog.current_level()
        old_stream = obslog._CONFIG.stream
        old_json = obslog._CONFIG.json_lines
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        obslog.configure(level=obslog.INFO, stream=buffer, json_lines=True)
        try:
            interp = FunctionalSimulator(program, backend="interp")
            reference = interp.run(trace=True)
            expected = buffer.getvalue()
            buffer.seek(0)
            buffer.truncate(0)
            chunks = []
            fast = FunctionalSimulator(program, backend="native")
            executed = native.stream_trace(
                fast, 1_000_000,
                lambda pcs, addrs, taken: chunks.append(
                    (pcs.copy(), addrs.copy(), taken.copy())),
                chunk_events=chunk_events)
            got = buffer.getvalue()
        finally:
            obslog.configure(level=old_level, json_lines=old_json)
            obslog._CONFIG.stream = old_stream
            if not was_enabled:
                REGISTRY.disable()

        def heartbeats(text):
            records = [json.loads(line) for line in text.splitlines()]
            return [(r["instructions"], r["pc"]) for r in records
                    if r["event"] == "sim.heartbeat"]

        assert executed == len(reference)
        assert all(len(pcs) <= chunk_events for pcs, _, _ in chunks)
        assert len(heartbeats(expected)) == len(reference) // 13
        assert heartbeats(got) == heartbeats(expected)
        for column, name in enumerate(("pcs", "addrs", "taken")):
            np.testing.assert_array_equal(
                np.concatenate([chunk[column] for chunk in chunks]),
                getattr(reference, name))
        _assert_same_state(interp, fast)


@needs_native
class TestStreaming:
    def test_chunked_stream_concatenates_to_run_trace(self):
        program = build_workload("adpcm")
        reference = run_program(program, backend="interp")
        chunks = []
        simulator = FunctionalSimulator(program, backend="native")
        executed = native.stream_trace(
            simulator, 5_000_000,
            lambda pcs, addrs, taken: chunks.append(
                (pcs.copy(), addrs.copy(), taken.copy())),
            chunk_events=997)
        assert executed == len(reference)
        assert len(chunks) > 1  # the chunk size actually chunked
        assert all(len(pcs) <= 997 for pcs, _, _ in chunks)
        np.testing.assert_array_equal(
            np.concatenate([pcs for pcs, _, _ in chunks]), reference.pcs)
        np.testing.assert_array_equal(
            np.concatenate([addrs for _, addrs, _ in chunks]),
            reference.addrs)
        np.testing.assert_array_equal(
            np.concatenate([taken for _, _, taken in chunks]),
            reference.taken)

    def test_zero_chunk_raises_instead_of_spinning(self):
        # In a child process with a timeout: an engine that accepted a
        # zero-capacity chunk would loop forever without executing.
        script = textwrap.dedent("""
            from repro.sim import FunctionalSimulator, native
            from repro.workloads import build_workload
            simulator = FunctionalSimulator(build_workload("crc32"),
                                            backend="native")
            try:
                native.stream_trace(simulator, 1_000_000,
                                    lambda *chunk: None, chunk_events=0)
            except ValueError as exc:
                assert "chunk_events" in str(exc), exc
                print("rejected")
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "rejected"

    def test_streamed_digest_matches_materialized(self):
        program = build_workload("qsort")
        trace = run_program(program, backend="interp")
        reference = trace_digest(trace)
        builder = StreamingDigestBuilder(program)
        step = 1013
        for start in range(0, len(trace), step):
            builder.feed(trace.pcs[start:start + step],
                         trace.addrs[start:start + step],
                         trace.taken[start:start + step])
        streamed = builder.finish()
        assert isinstance(streamed.trace, TraceRef)
        assert len(streamed.trace) == len(trace)
        for name in ("b_pos", "b_pcs", "b_taken", "m_pos", "m_addrs",
                     "pcs"):
            np.testing.assert_array_equal(getattr(streamed, name),
                                          getattr(reference, name),
                                          err_msg=name)

    def test_acquired_digest_times_identically(self):
        program = build_workload("crc32")
        trace = run_program(program, backend="interp")
        [reference] = simulate_pipeline_sweep(trace, [BASE_CONFIG])
        digest = acquire_trace_digest(program)
        assert isinstance(digest.trace, TraceRef)
        [result] = simulate_pipeline_sweep(digest.trace, [BASE_CONFIG])
        expected = dict(vars(reference))
        got = dict(vars(result))
        expected.pop("wall_seconds", None)
        got.pop("wall_seconds", None)
        assert got == expected

    def test_profile_program_streams_and_matches(self):
        program = build_workload("susan")
        trace = run_program(program, backend="interp")
        reference = WorkloadProfiler().profile(trace)
        streamed = profile_program(program)
        assert streamed.to_dict() == reference.to_dict()


class TestChunkedProfilerUnit:
    def test_rejects_mid_block_start(self, loop_nest_trace):
        profiler = ChunkedWorkloadProfiler(loop_nest_trace.program)
        with pytest.raises(ValueError, match="block leader"):
            profiler.feed(loop_nest_trace.pcs[1:],
                          loop_nest_trace.addrs[1:],
                          loop_nest_trace.taken[1:])

    @pytest.mark.parametrize("step", [1, 7, 97, 10_000_000])
    def test_chunked_equals_one_pass(self, loop_nest_trace, step):
        reference = WorkloadProfiler().profile(loop_nest_trace)
        profiler = ChunkedWorkloadProfiler(loop_nest_trace.program)
        for start in range(0, len(loop_nest_trace), step):
            profiler.feed(loop_nest_trace.pcs[start:start + step],
                          loop_nest_trace.addrs[start:start + step],
                          loop_nest_trace.taken[start:start + step])
        assert profiler.finish().to_dict() == reference.to_dict()
