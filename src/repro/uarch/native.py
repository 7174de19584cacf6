"""The uarch layer's C kernels: timing loop, LRU and predictor replay.

One embedded C source, compiled once per machine through the shared
:mod:`repro.native` toolchain into the content-addressed ``sweeploop``
library under the repro cache dir and called through ctypes.  It holds
three kernels, all plain arrays in and out (no CPython API):

* ``repro_run_range`` — ``run()``'s fetch/dispatch/issue/commit
  scheduling recurrence over precomputed cache and predictor event
  streams; an exact port of ``sweep._interpreted_range`` (the packed
  state is shared, so a trace can switch engines at any position).
* ``repro_cache_replay`` — true-LRU replay of a block stream against
  ``sets x ways``: misses, evictions and optionally each access's hit
  flag.  Every batched cache simulation (``simulate_cache_sweep``,
  ``per_access_hits``) runs on it; :class:`repro.uarch.cache.Cache` is
  its spec.
* ``repro_counter_replay`` — 2-bit saturating counters (all starting
  weakly not-taken) replayed over a PHT index stream: each branch's
  mispredict flag.  Every predictor outcome bank with a counter table
  (gap, gshare, bimodal) runs on it; the ``make_predictor`` classes in
  :mod:`repro.uarch.branch_predictors` are its spec.

All kernels re-check their preconditions and return an error code
rather than index out of bounds; the wrappers turn that into
``ValueError``.  No C compiler, a failed compile, or ``REPRO_NATIVE=off``
makes :func:`available` False (the reason is logged once and kept in
:func:`fallback_reason`); callers then take their Python paths, with
identical results.
"""

import ctypes

import numpy as np

from repro.isa.instructions import IClass
from repro.native import toolchain
from repro.obs.logging import get_logger

_LOG = get_logger("repro.uarch.native")

#: The class codes are baked into the C source; fail loudly at import
#: if the ISA enumeration ever drifts.
assert (int(IClass.IDIV), int(IClass.FDIV), int(IClass.LOAD),
        int(IClass.JUMP)) == (2, 5, 6, 9)

_C_SOURCE = r"""
#include <stdint.h>

/* Exact port of repro.uarch.sweep._interpreted_range: run()'s
 * scheduling recurrence over dynamic positions [low, high), consuming
 * precomputed cache/predictor event streams by cursor.  The packed
 * state mirrors _initial_state: 19 scalars, 64 register-ready times,
 * the ROB/LSQ/fetch-queue rings, and the flattened FU pools. */
int64_t repro_run_range(
    int64_t low, int64_t high,
    const int64_t *pcs,
    const int32_t *st_iclass, const int32_t *st_dest,
    const int32_t *st_src1, const int32_t *st_src2,
    const int32_t *st_pool,
    const int64_t *latency_of_class,
    const int64_t *iacc_pos, const int64_t *iacc_extra, int64_t n_iacc,
    const int64_t *m_pos, const int64_t *dacc_lat, int64_t n_mem,
    const int64_t *b_pos, const uint8_t *b_taken, const uint8_t *b_miss,
    int64_t n_branch,
    int64_t width, int64_t in_order, int64_t rob_size, int64_t lsq_size,
    int64_t fetch_queue, int64_t mispredict_penalty, int64_t decode_depth,
    const int64_t *pool_base, const int64_t *pool_sizes, int64_t n_pools,
    int64_t *sc, int64_t *reg_ready, int64_t *rob_ring,
    int64_t *lsq_ring, int64_t *fetchq_ring, int64_t *fus)
{
    if (width < 1 || rob_size < 1 || lsq_size < 1 || fetch_queue < 1)
        return -1;
    for (int64_t p = 0; p < n_pools; p++)
        if (pool_sizes[p] < 1) return -1;
    int64_t i = sc[0], fetch_cycle = sc[1], fetch_used = sc[2];
    int64_t fetch_break = sc[3], fetch_stall_until = sc[4];
    int64_t last_issue = sc[5], last_commit = sc[6], mem_index = sc[7];
    int64_t dispatch_cycle = sc[8], dispatch_used = sc[9];
    int64_t commit_cycle = sc[10], commit_used = sc[11];
    int64_t rob_stalls = sc[12], lsq_stalls = sc[13];
    int64_t fetch_queue_stalls = sc[14], redirect_cycles = sc[15];
    int64_t ii = sc[16], di = sc[17], bi = sc[18];

    for (int64_t position = low; position < high; position++) {
        int64_t pc = pcs[position];
        int32_t iclass = st_iclass[pc];

        /* fetch */
        if (fetch_stall_until > fetch_cycle) {
            redirect_cycles += fetch_stall_until - fetch_cycle;
            fetch_cycle = fetch_stall_until;
            fetch_used = 0;
            fetch_break = 0;
        }
        if (ii < n_iacc && iacc_pos[ii] == position) {
            int64_t extra = iacc_extra[ii];
            ii++;
            if (extra) {
                fetch_cycle += extra;
                fetch_used = 0;
                fetch_break = 0;
            }
        }
        if (fetch_break || fetch_used >= width) {
            fetch_cycle += 1;
            fetch_used = 0;
            fetch_break = 0;
        }
        int64_t fetch_time = fetch_cycle;
        fetch_used += 1;

        int64_t queue_slot = i % fetch_queue;
        if (fetch_time < fetchq_ring[queue_slot]) {
            fetch_time = fetchq_ring[queue_slot];
            fetch_cycle = fetch_time;
            fetch_used = 1;
            fetch_queue_stalls += 1;
        }

        /* dispatch */
        int64_t dispatch_earliest = fetch_time + decode_depth;
        int64_t rob_slot = i % rob_size;
        if (rob_ring[rob_slot] > dispatch_earliest) {
            dispatch_earliest = rob_ring[rob_slot];
            rob_stalls += 1;
        }
        int is_mem = (di < n_mem && m_pos[di] == position);
        int64_t lsq_slot = 0;
        if (is_mem) {
            lsq_slot = mem_index % lsq_size;
            if (lsq_ring[lsq_slot] > dispatch_earliest) {
                dispatch_earliest = lsq_ring[lsq_slot];
                lsq_stalls += 1;
            }
        }
        if (dispatch_earliest > dispatch_cycle) {
            dispatch_cycle = dispatch_earliest;
            dispatch_used = 1;
        } else if (dispatch_used < width) {
            dispatch_used += 1;
        } else {
            dispatch_cycle += 1;
            dispatch_used = 1;
        }
        fetchq_ring[queue_slot] = dispatch_cycle;

        /* issue */
        int64_t ready = dispatch_cycle + 1;
        int32_t src = st_src1[pc];
        if (src >= 0) {
            if (reg_ready[src] > ready) ready = reg_ready[src];
            src = st_src2[pc];
            if (src >= 0 && reg_ready[src] > ready) ready = reg_ready[src];
        }
        if (in_order && ready < last_issue) ready = last_issue;

        int32_t pool = st_pool[pc];
        int64_t base = pool_base[pool];
        int64_t end = base + pool_sizes[pool];
        int64_t unit = base;
        int64_t unit_free = fus[base];
        for (int64_t u = base + 1; u < end; u++) {
            if (fus[u] < unit_free) {
                unit_free = fus[u];
                unit = u;
            }
        }
        int64_t issue_time = ready > unit_free ? ready : unit_free;
        if (in_order) last_issue = issue_time;

        /* execute */
        int64_t complete;
        if (is_mem) {
            complete = issue_time + (iclass == 6 ? dacc_lat[di] : 1);
            di++;
        } else {
            complete = issue_time + latency_of_class[iclass];
        }
        fus[unit] = (iclass == 2 || iclass == 5) ? complete
                                                 : issue_time + 1;
        int32_t dest = st_dest[pc];
        if (dest >= 0) reg_ready[dest] = complete;

        /* control flow */
        if (bi < n_branch && b_pos[bi] == position) {
            if (b_miss[bi]) {
                int64_t redirect = complete + mispredict_penalty;
                if (redirect > fetch_stall_until)
                    fetch_stall_until = redirect;
            } else if (b_taken[bi]) {
                fetch_break = 1;
            }
            bi++;
        } else if (iclass == 9) {
            fetch_break = 1;
        }

        /* commit */
        int64_t commit_earliest = complete + 1;
        if (commit_earliest < last_commit) commit_earliest = last_commit;
        if (commit_earliest > commit_cycle) {
            commit_cycle = commit_earliest;
            commit_used = 1;
        } else if (commit_used < width) {
            commit_used += 1;
        } else {
            commit_cycle += 1;
            commit_used = 1;
        }
        last_commit = commit_cycle;
        rob_ring[rob_slot] = commit_cycle;
        if (is_mem) {
            lsq_ring[lsq_slot] = commit_cycle;
            mem_index += 1;
        }
        i += 1;
    }

    sc[0] = i; sc[1] = fetch_cycle; sc[2] = fetch_used;
    sc[3] = fetch_break; sc[4] = fetch_stall_until;
    sc[5] = last_issue; sc[6] = last_commit; sc[7] = mem_index;
    sc[8] = dispatch_cycle; sc[9] = dispatch_used;
    sc[10] = commit_cycle; sc[11] = commit_used;
    sc[12] = rob_stalls; sc[13] = lsq_stalls;
    sc[14] = fetch_queue_stalls; sc[15] = redirect_cycles;
    sc[16] = ii; sc[17] = di; sc[18] = bi;
    return 0;
}

/* True-LRU replay of n blocks against sets x ways, the set index being
 * Python's block % sets.  Set s keeps its fill[s] resident tags MRU-first
 * in tags[s*ways ...] (fill must arrive zeroed).  One pass moves each tag
 * down a slot until the block turns up (a hit) or the set runs out (a
 * miss: the carried-out LRU tag refills a free way or is evicted), and
 * the block lands in front.  Returns the miss count, or -1 for a bad
 * geometry; writes *evictions and, when hits is non-null, each access's
 * hit flag. */
int64_t repro_cache_replay(
    const int64_t *blocks, int64_t n, int64_t sets, int64_t ways,
    int64_t *tags, int64_t *fill, uint8_t *hits, int64_t *evictions)
{
    if (sets < 1 || ways < 1 || n < 0) return -1;
    int64_t mask = (sets & (sets - 1)) == 0 ? sets - 1 : -1;
    int64_t misses = 0, evicted = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t block = blocks[k];
        int64_t s = mask >= 0 ? (block & mask) : block % sets;
        if (s < 0) s += sets;
        int64_t *line = tags + s * ways;
        int64_t used = fill[s], carry = block, way = 0;
        for (; way < used; way++) {
            int64_t tag = line[way];
            line[way] = carry;
            if (tag == block) break;
            carry = tag;
        }
        if (way == used) {
            misses++;
            if (used < ways) {
                line[used] = carry;
                fill[s] = used + 1;
            } else {
                evicted++;
            }
        }
        if (hits) hits[k] = way < used;
    }
    *evictions = evicted;
    return misses;
}

/* 2-bit saturating-counter replay: branch k reads and trains counter
 * indices[k] of an entries-long table whose counters all start at 1
 * (weakly not-taken); a counter >= 2 predicts taken.  Writes each
 * branch's mispredict flag and returns the mispredict count, or -1 for
 * n < 0, entries < 1 or an index outside the table.  counters is an
 * entries-byte work buffer. */
int64_t repro_counter_replay(
    const int64_t *indices, const uint8_t *taken, int64_t n,
    int64_t entries, uint8_t *counters, uint8_t *miss)
{
    if (n < 0 || entries < 1) return -1;
    for (int64_t e = 0; e < entries; e++) counters[e] = 1;
    int64_t misses = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t index = indices[k];
        if (index < 0 || index >= entries) return -1;
        uint8_t counter = counters[index], outcome = taken[k] != 0;
        uint8_t wrong = (counter >= 2) != outcome;
        miss[k] = wrong;
        misses += wrong;
        if (outcome) {
            if (counter < 3) counters[index] = counter + 1;
        } else if (counter > 0) {
            counters[index] = counter - 1;
        }
    }
    return misses;
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)

#: None = not yet probed, False = unavailable, else the ctypes library.
_LIBRARY = None

#: Why the library is unavailable (None while it is, or before a probe).
_FALLBACK_REASON = None


def _load():
    """The ctypes library, probing/compiling on first use."""
    global _LIBRARY, _FALLBACK_REASON
    if _LIBRARY is not None:
        return _LIBRARY or None
    library = toolchain.load_library(_C_SOURCE, "sweeploop")
    if library is None:
        _LIBRARY = False
        _FALLBACK_REASON = (
            "REPRO_NATIVE is off" if not toolchain.enabled()
            else "no working C compiler" if not toolchain.probe()
            else "sweeploop failed to build or load")
        _LOG.info("uarch.native.fallback", reason=_FALLBACK_REASON)
        return None
    run_range = library.repro_run_range
    run_range.restype = ctypes.c_int64
    run_range.argtypes = [
        ctypes.c_int64, ctypes.c_int64,                    # low, high
        _I64,                                              # pcs
        _I32, _I32, _I32, _I32, _I32,                      # static
        _I64,                                              # latencies
        _I64, _I64, ctypes.c_int64,                        # iacc
        _I64, _I64, ctypes.c_int64,                        # dacc
        _I64, _U8, _U8, ctypes.c_int64,                    # branches
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64,                                    # config
        _I64, _I64, ctypes.c_int64,                        # pools
        _I64, _I64, _I64, _I64, _I64, _I64,                # state
    ]
    replay = library.repro_cache_replay
    replay.restype = ctypes.c_int64
    replay.argtypes = [_I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                       _I64, _I64, _U8, _I64]
    counters = library.repro_counter_replay
    counters.restype = ctypes.c_int64
    counters.argtypes = [_I64, _U8, ctypes.c_int64, ctypes.c_int64, _U8,
                         _U8]
    _LIBRARY = library
    return library


def available():
    """Whether the native kernels can be used (compiles lazily)."""
    return _load() is not None


def fallback_reason():
    """Why the probed library is unavailable; None if it is (or unprobed)."""
    return _FALLBACK_REASON


def reset():
    """Forget the probe result (tests toggling REPRO_NATIVE)."""
    global _LIBRARY, _FALLBACK_REASON
    _LIBRARY = None
    _FALLBACK_REASON = None
    toolchain.reset()


def cache_replay(blocks, sets, ways, hits=None):
    """True-LRU replay of a block stream through the C kernel.

    Returns ``(misses, evictions)``; when ``hits`` (a bool array as long
    as ``blocks``) is given, each access's hit flag is written into it.
    Raises ``ValueError`` for a geometry the kernel rejects.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if hits is not None and (hits.dtype != np.bool_ or hits.shape
                             != blocks.shape
                             or not hits.flags.c_contiguous):
        raise ValueError("hits must be a contiguous bool array shaped "
                         f"like blocks {blocks.shape}")
    tags = np.empty(max(sets, 0) * max(ways, 0), dtype=np.int64)
    fill = np.zeros(max(sets, 0), dtype=np.int64)
    evictions = ctypes.c_int64(0)
    misses = _load().repro_cache_replay(
        _ptr64(blocks), len(blocks), sets, ways, _ptr64(tags),
        _ptr64(fill), None if hits is None else hits.ctypes.data_as(_U8),
        ctypes.byref(evictions))
    if misses < 0:
        raise ValueError(f"cache replay needs sets >= 1 and ways >= 1, "
                         f"got sets={sets}, ways={ways}")
    return misses, evictions.value


def counter_replay(indices, taken, entries):
    """2-bit counter replay of a PHT index stream through the C kernel.

    ``indices`` and ``taken`` are parallel arrays; every counter of the
    ``entries``-long table starts at 1.  Returns each branch's
    mispredict flag as a bool array.  Raises ``ValueError`` for an
    empty table or an index outside it.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    taken = np.ascontiguousarray(taken, dtype=bool)
    if indices.ndim != 1 or taken.shape != indices.shape:
        raise ValueError(f"indices {indices.shape} and taken "
                         f"{taken.shape} must be one-dimensional and "
                         f"equally long")
    miss = np.empty(len(indices), dtype=bool)
    counters = np.empty(max(entries, 0), dtype=np.uint8)
    misses = _load().repro_counter_replay(
        _ptr64(indices), taken.ctypes.data_as(_U8), len(indices), entries,
        counters.ctypes.data_as(_U8), miss.ctypes.data_as(_U8))
    if misses < 0:
        raise ValueError(f"counter replay needs entries >= 1 and every "
                         f"index in [0, entries), got entries={entries}")
    return miss


def _static_columns(columns):
    """C-facing int32 copies of the decode columns, built once."""
    cached = columns.derived.get("native_static")
    if cached is None:
        cached = (
            columns.iclass.astype(np.int32),
            columns.dest.astype(np.int32),
            columns.src1.astype(np.int32),
            columns.src2.astype(np.int32),
            np.asarray(columns.pool_list, dtype=np.int32),
        )
        columns.derived["native_static"] = cached
    return cached


def _ptr64(array):
    return array.ctypes.data_as(_I64)


def run_range(low, high, digest, config, cache_bank, pred_bank, state):
    """Drop-in replacement for ``_interpreted_range`` via the C loop.

    Packs the scheduling state into int64 scratch arrays, runs the
    native loop, and unpacks — so callers can mix native and Python
    execution of the same trace at any boundary.
    """
    run = _load().repro_run_range
    iclass, dest, src1, src2, pool = _static_columns(
        digest.static.columns)
    latencies = np.array(
        (config.latency_ialu, config.latency_imul, config.latency_idiv,
         config.latency_falu, config.latency_fmul, config.latency_fdiv,
         0, 1, config.latency_ialu, config.latency_ialu,
         config.latency_ialu), dtype=np.int64)
    iacc_pos, _ = digest.iacc(cache_bank.shift)
    sizes = np.array(
        (config.n_int_alu, config.n_int_mul, config.n_fp_alu,
         config.n_fp_mul, config.n_mem_ports), dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    scalars = np.array([int(value) for value in state[0]], dtype=np.int64)
    reg_ready = np.array(state[1], dtype=np.int64)
    rob_ring = np.array(state[2], dtype=np.int64)
    lsq_ring = np.array(state[3], dtype=np.int64)
    fetchq_ring = np.array(state[4], dtype=np.int64)
    fus = np.array(state[5], dtype=np.int64)

    status = run(low, high, _ptr64(digest.pcs),
        iclass.ctypes.data_as(_I32), dest.ctypes.data_as(_I32),
        src1.ctypes.data_as(_I32), src2.ctypes.data_as(_I32),
        pool.ctypes.data_as(_I32), _ptr64(latencies),
        _ptr64(iacc_pos), _ptr64(cache_bank.iacc_extra), len(iacc_pos),
        _ptr64(digest.m_pos), _ptr64(cache_bank.dacc_lat),
        len(digest.m_pos), _ptr64(digest.b_pos),
        digest.b_taken.ctypes.data_as(_U8),
        pred_bank.miss.ctypes.data_as(_U8), len(digest.b_pos),
        config.width, int(config.in_order), config.rob_size,
        config.lsq_size, config.fetch_queue, config.mispredict_penalty,
        _decode_depth(), _ptr64(base), _ptr64(sizes), len(sizes),
        _ptr64(scalars), _ptr64(reg_ready), _ptr64(rob_ring),
        _ptr64(lsq_ring), _ptr64(fetchq_ring), _ptr64(fus))
    if status < 0:
        raise ValueError(
            f"native timing loop rejected config {config.name!r}: needs "
            f"width, rob_size, lsq_size, fetch_queue >= 1 and non-empty "
            f"FU pools, got width={config.width}, rob_size="
            f"{config.rob_size}, lsq_size={config.lsq_size}, fetch_queue="
            f"{config.fetch_queue}, pools={sizes.tolist()}")

    state[0] = tuple(int(value) for value in scalars)
    state[1] = reg_ready.tolist()
    state[2] = rob_ring.tolist()
    state[3] = lsq_ring.tolist()
    state[4] = fetchq_ring.tolist()
    state[5] = tuple(fus.tolist())


def _decode_depth():
    from repro.uarch.pipeline import DECODE_DEPTH
    return DECODE_DEPTH
