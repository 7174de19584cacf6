"""Native functional-execution backend (``repro.sim.native``).

One fixed C interpreter — embedded below as source, compiled once per
machine through the shared :mod:`repro.native` toolchain, exactly like
the sweep's timing loop in :mod:`repro.uarch.native` — executes every
program.  Nothing is generated per program: each program is lowered
once to flat decoded arrays (op id, register indices, a pre-masked
``uint32`` constant, an ``fli`` double, the branch/jump target), cached
on its shared :class:`~repro.isa.columns.ProgramColumns`, and handed to
the engine by pointer.  A fresh clone therefore costs no compile at all.

The engine writes the columnar trace event arrays *directly* into
fixed-size chunks: no per-instruction Python dispatch, no Python-object
trace, bounded memory on long caps.

Bit-identity with the interpreter is the same hard contract turbo
honors (``tests/test_sim_turbo.py`` / ``tests/test_sim_native.py``):
identical trace arrays, final registers and memory, retired-instruction
counts, cap/heartbeat accounting, and ``SimulationError`` context.  The
re-entry protocol keeps the interpreter's counting exact: the C loop
returns to Python whenever ``executed`` crosses ``check_limit`` (cap or
heartbeat boundary), the wrapper emits the interpreter's heartbeat (or
raises its cap error), then resumes the same instruction with the
pre-increment count restored.

Everything degrades gracefully: no C compiler, ``REPRO_NATIVE=off``, or
a program whose operands lie outside the register file its opcode
format implies simply means the engine is unavailable and callers fall
back to turbo.  Semantics are identical either way; only the wall time
differs.
"""

import ctypes
import functools
import time

import numpy as np

from repro.isa.assembler import TEXT_BASE
from repro.isa.columns import columns_for
from repro.isa.instructions import OPCODES
from repro.native import toolchain
from repro.obs.journal import active_journal, emit_event
from repro.obs.logging import INFO, get_logger
from repro.obs.metrics import REGISTRY
from repro.sim import functional as _functional
from repro.sim.functional import SimulationError, _OP_IDS
from repro.sim.trace import DynamicTrace

_LOG = get_logger("repro.sim")

#: Trace events per columnar chunk handed back to Python.  Large enough
#: to amortize the ctypes round trip (one per ~65k instructions), small
#: enough that a streaming consumer's working set stays in cache.
CHUNK_EVENTS = 1 << 16

#: ``ctl`` scratch-array slots shared with the C engine.
_CTL_PC, _CTL_EXECUTED, _CTL_LIMIT, _CTL_COUNT, _CTL_ERR_OP, \
    _CTL_ERR_ADDR = range(6)

#: Return reasons of ``repro_sim_run``.
_R_HALT, _R_LIMIT, _R_CHUNK, _R_BADPC, _R_MEMERR, _R_BADARG = range(6)

#: op id -> opcode name for memory-range error messages.
_MEM_OP_NAMES = {2: "lw", 3: "sw", 33: "lb", 34: "lbu", 35: "sb",
                 36: "flw", 37: "fsw"}

#: Register slot an integer write to ``r0`` (or to no register) lands
#: in: a scratch slot past the architected file, never read back.
_SINK = 32

#: Per-instruction record, laid out exactly like the C ``insn_t``.
_INSN = np.dtype([("op", "<i4"), ("rd", "<i4"), ("rs1", "<i4"),
                  ("rs2", "<i4"), ("k", "<u4"), ("target", "<i4")])

#: The text base is baked into the C source; fail loudly at import if
#: the assembler's layout ever drifts.
assert TEXT_BASE == 0x1000

_U32P = ctypes.POINTER(ctypes.c_uint32)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I8P = ctypes.POINTER(ctypes.c_int8)

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* Exact port of repro.sim.functional._run_interp over the decoded
 * arrays built by repro/sim/native.py.  Register fields index the
 * local files: FP operands are rebased to 0..31 and an integer write
 * to r0 targets the scratch slot 32; k is the pre-masked immediate,
 * lui value or link address. */
typedef struct {
    int32_t op, rd, rs1, rs2;
    uint32_t k;
    int32_t target;
} insn_t;

enum { R_HALT, R_LIMIT, R_CHUNK, R_BADPC, R_MEMERR, R_BADARG };

#define TEXT_BASE 0x1000

/* Effective address of a W-byte access, or a range error. */
#define EA(W) \
    addr = a = x + c->k; \
    if (addr + (W) > mem_size) { \
        ctl[4] = c->op; ctl[5] = addr; reason = R_MEMERR; goto out; }

#define TRACE(A, T) \
    t_pcs[n] = (int32_t)pc; t_addrs[n] = (A); t_taken[n] = (T); n++;

int64_t repro_sim_run(const insn_t *code, const double *fimm,
                      int64_t n_instrs, uint32_t *ir, double *fr,
                      uint8_t *mem, int64_t mem_size, int64_t *ctl,
                      int32_t *t_pcs, int64_t *t_addrs, int8_t *t_taken,
                      int64_t cap)
{
    uint32_t r[33];
    double f[32];
    int64_t pc = ctl[0], executed = ctl[1], check_limit = ctl[2];
    int64_t n = 0, reason;

    /* A zero-capacity chunk would return R_CHUNK forever. */
    if (cap < 1 || n_instrs < 0 || mem_size < 0) {
        ctl[3] = 0;
        return R_BADARG;
    }
    memcpy(r, ir, 32 * sizeof *r);
    r[32] = 0;
    memcpy(f, fr, sizeof f);
    for (;;) {
        if ((uint64_t)pc >= (uint64_t)n_instrs) { reason = R_BADPC; break; }
        if (n >= cap) { reason = R_CHUNK; break; }
        if (++executed > check_limit) { reason = R_LIMIT; break; }
        const insn_t *c = code + pc;
        uint32_t x = r[c->rs1], y = r[c->rs2], a;
        int64_t addr = -1, next = pc + 1;
        int8_t taken = -1;
        switch (c->op) {
        case 0: r[c->rd] = x + c->k; break;                     /* addi */
        case 1: r[c->rd] = x + y; break;                        /* add */
        case 2: { EA(4) memcpy(&r[c->rd], mem + a, 4); break; } /* lw */
        case 3: { EA(4) memcpy(mem + a, &y, 4); break; }        /* sw */
        case 4: taken = x == y; break;                          /* beq */
        case 5: taken = x != y; break;                          /* bne */
        case 6: taken = (int32_t)x < (int32_t)y; break;         /* blt */
        case 7: taken = (int32_t)x >= (int32_t)y; break;        /* bge */
        case 8: r[c->rd] = x - y; break;                        /* sub */
        case 9: r[c->rd] = x & y; break;                        /* and */
        case 10: r[c->rd] = x | y; break;                       /* or */
        case 11: r[c->rd] = x ^ y; break;                       /* xor */
        case 12: r[c->rd] = x << (y & 31); break;               /* sll */
        case 13: r[c->rd] = x >> (y & 31); break;               /* srl */
        case 14: r[c->rd] = (uint32_t)((int32_t)x >> (y & 31)); break;
        case 15: r[c->rd] = (int32_t)x < (int32_t)y; break;     /* slt */
        case 16: r[c->rd] = x < y; break;                       /* sltu */
        case 17: r[c->rd] = x & c->k; break;                    /* andi */
        case 18: r[c->rd] = x | c->k; break;                    /* ori */
        case 19: r[c->rd] = x ^ c->k; break;                    /* xori */
        case 20: r[c->rd] = x << (c->k & 31); break;            /* slli */
        case 21: r[c->rd] = x >> (c->k & 31); break;            /* srli */
        case 22: r[c->rd] = (uint32_t)((int32_t)x >> (c->k & 31)); break;
        case 23: r[c->rd] = (int32_t)x < (int32_t)c->k; break;  /* slti */
        case 24: r[c->rd] = x < c->k; break;                    /* sltiu */
        case 25: r[c->rd] = c->k; break;                        /* lui */
        case 26: r[c->rd] = ~(x | y); break;                    /* nor */
        case 27: r[c->rd] = (uint32_t)((int64_t)(int32_t)x
                                       * (int32_t)y); break;    /* mul */
        case 28: r[c->rd] = (uint32_t)(((int64_t)(int32_t)x
                                        * (int32_t)y) >> 32); break;
        case 29: { int64_t p = (int32_t)x, q = (int32_t)y;      /* div */
                   r[c->rd] = (uint32_t)(q ? p / q : 0); break; }
        case 30: r[c->rd] = y ? x / y : 0; break;               /* divu */
        case 31: { int64_t p = (int32_t)x, q = (int32_t)y;      /* rem */
                   r[c->rd] = (uint32_t)(q ? p % q : 0); break; }
        case 32: r[c->rd] = y ? x % y : 0; break;               /* remu */
        case 33: { EA(1) r[c->rd] = (uint32_t)(int8_t)mem[a]; break; }
        case 34: { EA(1) r[c->rd] = mem[a]; break; }            /* lbu */
        case 35: { EA(1) mem[a] = (uint8_t)y; break; }          /* sb */
        case 36: { EA(8) memcpy(&f[c->rd], mem + a, 8); break; } /* flw */
        case 37: { EA(8) memcpy(mem + a, &f[c->rs2], 8); break; } /* fsw */
        case 38: taken = x < y; break;                          /* bltu */
        case 39: taken = x >= y; break;                         /* bgeu */
        case 40: next = c->target; break;                       /* j */
        case 41: r[c->rd] = c->k; next = c->target; break;      /* jal */
        case 42: next = ((int64_t)x - TEXT_BASE) >> 2; break;   /* jr */
        case 43: r[c->rd] = c->k;                               /* jalr */
                 next = ((int64_t)x - TEXT_BASE) >> 2; break;
        case 44: f[c->rd] = f[c->rs1] + f[c->rs2]; break;       /* fadd */
        case 45: f[c->rd] = f[c->rs1] - f[c->rs2]; break;       /* fsub */
        case 46: f[c->rd] = f[c->rs1] * f[c->rs2]; break;       /* fmul */
        case 47: { double q = f[c->rs2];                        /* fdiv */
                   f[c->rd] = q != 0.0 ? f[c->rs1] / q : 0.0; break; }
        case 48: { double v = f[c->rs1];                        /* fsqrt */
                   f[c->rd] = v > 0.0 ? sqrt(v) : 0.0; break; }
        case 49: f[c->rd] = -f[c->rs1]; break;                  /* fneg */
        case 50: f[c->rd] = fabs(f[c->rs1]); break;             /* fabs */
        case 51: f[c->rd] = f[c->rs1]; break;                   /* fmv */
        case 52: { double p = f[c->rs1], q = f[c->rs2];         /* fmin */
                   f[c->rd] = q < p ? q : p; break; }
        case 53: { double p = f[c->rs1], q = f[c->rs2];         /* fmax */
                   f[c->rd] = q > p ? q : p; break; }
        case 54: r[c->rd] = f[c->rs1] == f[c->rs2]; break;      /* feq */
        case 55: r[c->rd] = f[c->rs1] < f[c->rs2]; break;       /* flt */
        case 56: r[c->rd] = f[c->rs1] <= f[c->rs2]; break;      /* fle */
        case 57: r[c->rd] = (uint32_t)(int64_t)f[c->rs1]; break; /* fcvtws */
        case 58: f[c->rd] = (double)(int32_t)x; break;          /* fcvtsw */
        case 59: f[c->rd] = fimm[pc]; break;                    /* fli */
        default: TRACE(-1, -1) reason = R_HALT; goto out;       /* halt */
        }
        TRACE(addr, taken)
        pc = taken > 0 ? c->target : next;
    }
out:
    ctl[0] = pc; ctl[1] = executed; ctl[3] = n;
    memcpy(ir, r, 32 * sizeof *r);
    memcpy(fr, f, sizeof f);
    return reason;
}
"""


# ----------------------------------------------------------------------
# Availability / translatability gates
# ----------------------------------------------------------------------
def available():
    """Whether this host can run native functional execution at all.

    Cheap: probes the toolchain but does not build the engine, which
    compiles lazily on first use.
    """
    return toolchain.enabled() and toolchain.probe()


#: None = not yet loaded this process, False = unavailable, else the
#: ctypes entry point of the compiled engine.
_ENGINE = None


def reset():
    """Forget the toolchain probe and the loaded engine (tests toggling
    REPRO_NATIVE / cc)."""
    global _ENGINE
    _ENGINE = None
    toolchain.reset()


def _load():
    """The engine's ctypes entry point, compiling it on first use."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = False
        library = toolchain.load_library(_C_SOURCE, "simfunc")
        if library is not None:
            run = library.repro_sim_run
            run.restype = ctypes.c_int64
            run.argtypes = [
                ctypes.c_void_p, _F64P, ctypes.c_int64,
                _U32P, _F64P, _U8P, ctypes.c_int64, _I64P,
                _I32P, _I64P, _I8P, ctypes.c_int64,
            ]
            _ENGINE = run
    return _ENGINE or None


def _is_int(reg):
    return reg is not None and 0 <= reg < 32


def _is_fp(reg):
    return reg is not None and 32 <= reg < 64


def _int_dest(reg):
    """Guarded integer destination: ``None`` and ``r0`` are no-ops."""
    return reg is None or 0 <= reg < 32


def _translatable(program):
    """Whether the C engine can run every instruction of ``program``.

    The interpreter dispatches on the opcode and trusts operand fields
    to be in the register file the format implies; the C engine keeps
    the files apart (uint32 vs double), so a hand-built program that
    mixes them is simply left to the other backends.
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return False
    for instr in instructions:
        op_id = _OP_IDS.get(instr.opcode)
        if op_id is None:
            return False
        fmt = OPCODES[instr.opcode].fmt
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        imm, target = instr.imm, instr.target
        in_range = target is not None and 0 <= target < n
        if fmt == "r3":
            ok = _int_dest(rd) and _is_int(rs1) and _is_int(rs2)
        elif fmt == "r2i":
            ok = (_int_dest(rd) and _is_int(rs1)
                  and isinstance(imm, int))
            if ok and instr.opcode == "slti":
                # slti compares the raw (unmasked) immediate.
                ok = -(1 << 31) <= imm < (1 << 31)
        elif fmt == "ri":
            ok = _int_dest(rd) and isinstance(imm, int)
        elif fmt == "f3":
            ok = _is_fp(rd) and _is_fp(rs1) and _is_fp(rs2)
        elif fmt == "f2":
            ok = _is_fp(rd) and _is_fp(rs1)
        elif fmt == "fcmp":
            ok = _int_dest(rd) and _is_fp(rs1) and _is_fp(rs2)
        elif fmt == "fcvt_wf":
            ok = _int_dest(rd) and _is_fp(rs1)
        elif fmt == "fcvt_fw":
            ok = _is_fp(rd) and _is_int(rs1)
        elif fmt == "fli":
            ok = _is_fp(rd) and isinstance(imm, (int, float))
        elif fmt == "load":
            ok = (_int_dest(rd) and _is_int(rs1)
                  and isinstance(imm, int))
        elif fmt == "fload":
            ok = _is_fp(rd) and _is_int(rs1) and isinstance(imm, int)
        elif fmt == "store":
            ok = _is_int(rs1) and _is_int(rs2) and isinstance(imm, int)
        elif fmt == "fstore":
            ok = _is_int(rs1) and _is_fp(rs2) and isinstance(imm, int)
        elif fmt == "br":
            ok = _is_int(rs1) and _is_int(rs2) and in_range
        elif fmt == "j":
            ok = in_range
        elif fmt == "jal":
            ok = _int_dest(rd) and in_range
        elif fmt == "jr":
            ok = _is_int(rs1)
        elif fmt == "jalr":
            ok = _int_dest(rd) and _is_int(rs1)
        elif fmt == "none":
            ok = True
        else:
            ok = False
        if not ok:
            return False
    return True


def translatable(program):
    """Per-program translatability, cached on the shared columns."""
    columns = columns_for(program)
    cached = columns.derived.get("native_sim_ok")
    if cached is None:
        cached = _translatable(program)
        columns.derived["native_sim_ok"] = cached
        if not cached:
            _LOG.debug("sim.native.untranslatable", program=program.name)
    return cached


def usable(program):
    """Cheap resolution gate: gated on, toolchain probed, program
    translatable.  The engine itself is not built here — that happens
    lazily on first run (and a failed compile falls back to turbo)."""
    return available() and translatable(program)


# ----------------------------------------------------------------------
# Decoded program arrays
# ----------------------------------------------------------------------
def _register(reg, sink=_SINK):
    """Engine register slot: FP rebased, ``r0``/none to ``sink``."""
    if not reg:
        return sink
    return reg - 32 if reg >= 32 else reg


def _decode(program):
    """``(insns, fimm)``: the per-program arrays the engine reads."""
    columns = columns_for(program)
    decoded = columns.derived.get("functional_decode")
    if decoded is None:
        from repro.sim.functional import FunctionalSimulator
        FunctionalSimulator(program)  # populates the decode cache
        decoded = columns.derived["functional_decode"]
    insns = np.zeros(len(decoded), dtype=_INSN)
    fimm = np.zeros(len(decoded), dtype=np.float64)
    for pc, (op_id, rd, rs1, rs2, imm, target) in enumerate(decoded):
        if op_id == 25:  # lui
            k = imm << 16
        elif op_id in (41, 43):  # jal / jalr link address
            k = TEXT_BASE + 4 * (pc + 1)
        elif op_id == 59:  # fli
            k = 0
            fimm[pc] = float(imm)
        else:
            k = imm if isinstance(imm, int) else 0
        insns[pc] = (op_id, _register(rd), _register(rs1, 0),
                     _register(rs2, 0), k & 0xFFFFFFFF,
                     target if target is not None else 0)
    return insns, fimm


def engine_for(program):
    """The native engine bound to ``program``'s arrays, or ``None``.

    The returned callable takes the remaining ``repro_sim_run``
    arguments (register files, memory, ``ctl``, trace chunk, capacity).
    The engine compiles once per machine on first use; the decoded
    arrays and the bound callable are cached on the program's shared
    columns.
    """
    if not usable(program):
        return None
    columns = columns_for(program)
    cached = columns.derived.get("native_sim")
    if cached is None:
        run = _load()
        if run is None:
            return None
        insns, fimm = _decode(program)
        cached = functools.partial(
            run, insns.ctypes.data_as(ctypes.c_void_p),
            fimm.ctypes.data_as(_F64P), len(insns))
        cached.arrays = (insns, fimm)  # the engine reads them by pointer
        columns.derived["native_sim"] = cached
    return cached


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _drive(simulator, max_instructions, sink, chunk_events=CHUNK_EVENTS):
    """Run the compiled engine to completion, streaming trace chunks.

    ``sink`` (if given) receives ``(pcs, addrs, taken)`` numpy views
    per chunk, valid only until the next resume.  Replicates the
    interpreter's cap/heartbeat protocol and error semantics exactly;
    returns instructions executed.
    """
    program = simulator.program
    run = engine_for(program)
    if run is None:
        raise SimulationError(
            f"native backend unavailable for {program.name}")
    regs = simulator.regs
    memory = simulator.memory
    ir = np.array(regs[:32], dtype=np.uint32)
    fr = np.array([float(value) for value in regs[32:]], dtype=np.float64)
    mem_view = np.frombuffer(memory.data, dtype=np.uint8)
    t_pcs = np.empty(chunk_events, dtype=np.int32)
    t_addrs = np.empty(chunk_events, dtype=np.int64)
    t_taken = np.empty(chunk_events, dtype=np.int8)
    ctl = np.zeros(6, dtype=np.int64)
    args = (ir.ctypes.data_as(_U32P), fr.ctypes.data_as(_F64P),
            mem_view.ctypes.data_as(_U8P), memory.size,
            ctl.ctypes.data_as(_I64P), t_pcs.ctypes.data_as(_I32P),
            t_addrs.ctypes.data_as(_I64P), t_taken.ctypes.data_as(_I8P),
            chunk_events)

    # Identical heartbeat arming to the interpreter loop (the interval
    # is read through the module so test monkeypatching applies here).
    heartbeat_interval = _functional.HEARTBEAT_INTERVAL
    wall_start = time.perf_counter()
    if REGISTRY.enabled and (_LOG.is_enabled_for(INFO)
                             or active_journal() is not None):
        next_heartbeat = heartbeat_interval
    else:
        next_heartbeat = max_instructions + 1
    ctl[_CTL_PC] = program.entry
    ctl[_CTL_LIMIT] = min(max_instructions, next_heartbeat - 1)

    def sync_regs():
        regs[:32] = [int(value) for value in ir]
        regs[32:] = [float(value) for value in fr]

    while True:
        reason = run(*args)
        count = int(ctl[_CTL_COUNT])
        if count and sink is not None:
            sink(t_pcs[:count], t_addrs[:count], t_taken[:count])
        if reason == _R_CHUNK:
            continue
        executed = int(ctl[_CTL_EXECUTED])
        pc = int(ctl[_CTL_PC])
        if reason == _R_LIMIT:
            if executed > max_instructions:
                sync_regs()
                raise simulator._cap_error(pc, executed, max_instructions)
            next_heartbeat += heartbeat_interval
            elapsed = time.perf_counter() - wall_start
            mips = executed / elapsed / 1e6 if elapsed else 0.0
            _LOG.info("sim.heartbeat", program=program.name,
                      instructions=executed, pc=pc, mips=mips)
            emit_event("progress", done=executed, total=max_instructions,
                       unit="instructions", label=program.name,
                       mips=round(mips, 2))
            # Restore the pre-increment count: the C loop re-increments
            # when it re-executes the interrupted instruction, exactly
            # like the interpreter's single count per retirement.
            ctl[_CTL_EXECUTED] = executed - 1
            ctl[_CTL_LIMIT] = min(max_instructions, next_heartbeat - 1)
            continue
        if reason == _R_BADPC:
            sync_regs()
            raise SimulationError(
                f"pc out of range: {pc} in {program.name}",
                pc=pc, instructions=executed)
        if reason == _R_MEMERR:
            sync_regs()
            op = _MEM_OP_NAMES[int(ctl[_CTL_ERR_OP])]
            addr = int(ctl[_CTL_ERR_ADDR])
            raise SimulationError(f"{op} out of range: {addr:#x}")
        if reason == _R_BADARG:
            raise ValueError(
                f"native engine needs chunk_events >= 1, a non-negative "
                f"program length and memory size, got chunk_events="
                f"{chunk_events}, instructions={len(run.arrays[0])}, "
                f"mem_size={memory.size}")
        break  # _R_HALT
    sync_regs()
    simulator._finish_run(executed, wall_start, "native")
    return executed


def run_native(simulator, max_instructions, trace):
    """Drop-in replacement for ``_run_interp`` via the C engine."""
    if not trace:
        return _drive(simulator, max_instructions, None)
    parts = []

    def sink(pcs, addrs, taken):
        parts.append((pcs.copy(), addrs.copy(), taken.copy()))

    _drive(simulator, max_instructions, sink)
    if parts:
        pcs = np.concatenate([part[0] for part in parts])
        addrs = np.concatenate([part[1] for part in parts])
        taken = np.concatenate([part[2] for part in parts])
    else:
        pcs = np.empty(0, dtype=np.int32)
        addrs = np.empty(0, dtype=np.int64)
        taken = np.empty(0, dtype=np.int8)
    return DynamicTrace(simulator.program, pcs, addrs, taken)


def stream_trace(simulator, max_instructions, sink,
                 chunk_events=CHUNK_EVENTS):
    """Execute natively, feeding columnar trace chunks to ``sink``.

    ``sink(pcs, addrs, taken)`` is called with numpy views valid only
    until it returns — consumers keep what they need.  The full trace
    is never materialized.  Returns instructions executed.
    """
    return _drive(simulator, max_instructions, sink, chunk_events)
