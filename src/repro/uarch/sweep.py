"""One-pass multi-configuration microarchitecture sweep.

``simulate_pipeline_sweep(trace, configs)`` reproduces
``PipelineModel.run`` field for field over a whole configuration grid
while digesting the trace only once:

* **Trace digest** (:func:`trace_digest`) — config-independent tables:
  the block-visit sequence, branch and memory event streams, and
  per-line-size I-access event positions.  Computed once per trace,
  cached on it, and (for corpus-sized traces) persisted through the
  exec artifact store keyed by trace content + program fingerprint.
* **Cache outcome banks** — per-access L1I/L1D hit flags, the merged
  L2 miss-stream replay, and the per-event latency arrays the timing
  loop consumes, one bank per *distinct hierarchy* (configs sharing
  cache geometry and latencies share one bank).  Built on
  :func:`repro.uarch.cache.per_access_hits`; prefix sums make any
  ``max_instructions`` cut exact.
* **Predictor outcome banks** — per-branch mispredict flags per
  distinct predictor, from
  :func:`repro.uarch.branch_predictors.predictor_outcome_bank`.
  Both kinds of bank are derived state: built in memory on the native
  replay kernels (cheaper than a store round trip) and cached on the
  digest for the life of the process, never persisted.
* **Compiled scheduling kernels** — the remaining per-config work (the
  fetch/dispatch/issue/commit scheduling loop) is compiled once per
  (program, scheduling-knob) pair into a specialized function with one
  unrolled body per basic block (operands, latencies, FU pools and
  bandwidth ports folded to constants), dispatched over the block-visit
  sequence.  A generic interpreted loop finishes partially executed
  final blocks and serves as the full fallback whenever a trace breaks
  the block-structure assumptions.

The decomposition leans on trace invariants that are *validated*, not
assumed: traces enter at a block leader, visits walk their block
sequentially, and control transfers only appear block-last — any
violation flips ``blocks_ok`` and the config falls back to the
interpreted loop, which is an exact port of ``run``.

Everything observable (PipelineResult fields, cache stats, predictor
stats, the telemetry-gated stall counters) matches ``PipelineModel.run``
bit for bit; ``tests/test_uarch_sweep.py`` asserts equality across the
corpus and every design change.
"""

import hashlib
import marshal
import os
import sys
import time

import numpy as np

from repro.isa.columns import columns_for
from repro.isa.instructions import IClass
from repro.sim.trace import (TraceRef, _column_bytes,
                             combine_column_digests, write_npz)
from repro.obs.journal import emit_event
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.timing import span
from repro.uarch import native, steady
from repro.uarch.branch_predictors import (make_predictor,
                                           predictor_outcome_bank)
from repro.uarch.cache import per_access_hits
from repro.uarch.pipeline import DECODE_DEPTH, PipelineResult

_LOG = get_logger("repro.uarch.sweep")

#: Bump when digest/kernel layout or semantics change; combined
#: with the store's ARTIFACT_SCHEMA_VERSION in every persisted key.
BANK_SCHEMA_VERSION = 1

#: Traces shorter than this are not worth a store round-trip.
_PERSIST_MIN_INSTRUCTIONS = 10_000

#: Below this cut the timing loop is cheaper than steady-state
#: detection + verification snapshots, so fast-forward is skipped.
_STEADY_MIN_INSTRUCTIONS = 20_000

_LOAD = int(IClass.LOAD)
_STORE = int(IClass.STORE)
_BRANCH = int(IClass.BRANCH)
_JUMP = int(IClass.JUMP)
_IDIV = int(IClass.IDIV)
_FDIV = int(IClass.FDIV)

#: Functional-unit pools in state order; the class->pool mapping lives
#: with the shared columnar tables (repro.isa.columns.POOL_OF_CLASS).
_POOL_NAMES = ("ialu", "imul", "falu", "fmul", "mem")


# ----------------------------------------------------------------------
# Sweep statistics (feeds uarch.sweep.* telemetry and `repro report`)
# ----------------------------------------------------------------------
_INT_STATS = (
    "grids", "configs", "instructions",
    "digests_built", "digests_reused", "digests_loaded", "digests_saved",
    "digests_streamed",
    "cache_banks_built", "cache_banks_reused",
    "pred_banks_built", "pred_banks_reused",
    "kernels_compiled", "kernels_reused", "kernels_loaded",
    "kernels_saved", "fallback_configs", "native_configs",
    "distinct_hierarchies", "distinct_predictors",
    "steady_segments", "steady_ff_configs", "steady_ff_instructions",
    "steady_rejects",
    "incremental_plans", "incremental_full_rebuilds",
    "incremental_reused_artifacts", "incremental_rebuilt_artifacts",
    "predictor_sweeps", "predictor_sweep_kinds",
    "power_models_built", "power_models_reused",
)
_FLOAT_STATS = ("codegen_seconds", "config_seconds", "grid_seconds",
                "steady_seconds")

_SWEEP_STATS = {key: 0 for key in _INT_STATS}
_SWEEP_STATS.update({key: 0.0 for key in _FLOAT_STATS})


def _note(key, amount=1):
    _SWEEP_STATS[key] += amount
    if REGISTRY.enabled:
        REGISTRY.counter(f"uarch.sweep.{key}").inc(amount)


def _note_seconds(key, seconds):
    _SWEEP_STATS[key] += seconds
    if REGISTRY.enabled:
        REGISTRY.gauge(f"uarch.sweep.{key}").set(_SWEEP_STATS[key])


def sweep_stats_snapshot():
    """Process-cumulative sweep accounting (manifests, `repro report`)."""
    snapshot = dict(_SWEEP_STATS)
    configs = snapshot["configs"]
    snapshot["mean_config_seconds"] = (
        snapshot["config_seconds"] / configs if configs else 0.0)
    # Which cache- and predictor-replay engines ran (repro.uarch.cache,
    # repro.uarch.branch_predictors), beside the timing loop's
    # native/fallback config counts.
    for layer in ("cache", "predictor"):
        for engine in ("native", "reference"):
            counter = REGISTRY.get(f"uarch.{layer}_replay.{engine}")
            snapshot[f"{layer}_replays_{engine}"] = (
                counter.value if counter else 0)
    if native.fallback_reason():
        snapshot["native_fallback_reason"] = native.fallback_reason()
    return snapshot


def reset_sweep_stats():
    """Zero the cumulative counters (tests and per-command accounting)."""
    for key in _INT_STATS:
        _SWEEP_STATS[key] = 0
    for key in _FLOAT_STATS:
        _SWEEP_STATS[key] = 0.0


# ----------------------------------------------------------------------
# Static per-program tables
# ----------------------------------------------------------------------
class _StaticTables:
    """Sweep-facing view of the shared :class:`ProgramColumns`.

    A pure field-renaming adapter — no per-instruction work happens
    here; every array is the columns' own (iclass widened to int64 for
    the bincount/codegen paths that always used that dtype).  The
    kernels assume blocks tile the program in bid order with control
    transfers only in the block-last slot (``structure_ok``); anything
    else routes through the interpreted fallback.
    """

    __slots__ = (
        "n", "pc_addresses", "iclass", "iclass_list", "dest_list",
        "srcs_list", "pool_list", "is_mem", "is_cond", "block_start",
        "block_id", "block_bounds", "block_size", "structure_ok",
        "columns",
    )

    def __init__(self, columns):
        self.columns = columns
        self.n = columns.n
        self.pc_addresses = columns.pc_addresses
        self.iclass = columns.iclass.astype(np.int64)
        self.iclass_list = columns.iclass_list
        self.dest_list = columns.dest_list
        self.srcs_list = columns.srcs_list
        self.pool_list = columns.pool_list
        self.is_mem = columns.is_mem
        self.is_cond = columns.is_cond
        self.block_start = columns.is_block_start
        self.block_id = columns.block_of
        self.block_bounds = columns.block_bounds
        self.block_size = columns.block_size
        self.structure_ok = columns.structure_ok

    def fingerprint(self):
        """Content hash of everything the kernels/banks depend on."""
        return self.columns.fingerprint()


def _static_tables(program):
    cached = getattr(program, "_sweep_static", None)
    if cached is not None:
        return cached
    static = _StaticTables(columns_for(program))
    program._sweep_static = static
    return static


# ----------------------------------------------------------------------
# Trace digest
# ----------------------------------------------------------------------
class TraceDigest:
    """Config-independent tables for one trace (built or restored once).

    Also acts as the per-trace home for outcome banks and derived lists,
    so repeated sweeps over the same trace share everything.
    """

    def __init__(self, trace, _restored=None, _prebuilt=None):
        self.trace = trace
        self.static = _static_tables(trace.program)
        self.n = len(trace)
        self.pcs = np.asarray(trace.pcs, dtype=np.int64)
        self._iacc = {}        # shift -> (event positions, line indices)
        self._iacc_lists = {}  # shift -> positions as a plain list
        self._vfi = {}         # shift -> visit-first-I-access flags
        self._visits_list = None
        self._pcs_list = None
        self._m_pos_list = None
        self._b_pos_list = None
        self._b_taken_list = None
        self.cache_banks = {}  # hierarchy key -> _CacheBank
        self.pred_banks = {}   # predictor key -> _PredictorBank
        self.steady_runs = {}  # shift -> visit-periodicity run | False
        self.steady = {}       # (shift, hier, pred) -> Segment | False
        self._prefix = {}      # total -> (v_stop, covered)
        self._class_counts = {}
        self._persisted = False
        if _restored is not None:
            self._restore(*_restored)
        elif _prebuilt is not None:
            # Event streams accumulated chunk-by-chunk by the streaming
            # acquisition path; only the visit derivation (cheap, over
            # the retained pcs column) remains.
            for name in ("b_pos", "b_pcs", "b_taken", "m_pos", "m_addrs",
                         "masks_agree"):
                setattr(self, name, _prebuilt[name])
            self._derive_visits()
        else:
            self._build()

    # -- construction ---------------------------------------------------
    def _build(self):
        trace, static, n = self.trace, self.static, self.n
        branch_mask = trace.taken >= 0
        self.b_pos = np.nonzero(branch_mask)[0]
        self.b_pcs = self.pcs[self.b_pos]
        self.b_taken = trace.taken[self.b_pos] == 1
        memory_mask = (static.is_mem[self.pcs] if n
                       else np.zeros(0, dtype=bool))
        self.m_pos = np.nonzero(memory_mask)[0]
        self.m_addrs = trace.addrs[self.m_pos].astype(np.int64)
        # The kernels key branch handling off *static* cond-branch
        # positions; the banks and run() key it off dynamic taken>=0.
        # They must coincide for the compiled path to be exact.
        self.masks_agree = bool(
            np.array_equal(branch_mask, static.is_cond[self.pcs])
            if n else True)
        self._derive_visits()

    def _derive_visits(self):
        static, n = self.static, self.n
        empty = np.zeros(0, dtype=np.int64)
        self.visit_starts = empty
        self.visit_blocks = empty
        self.visit_ends = empty
        self.complete_visits = 0
        self.blocks_ok = False
        if (n == 0 or not static.structure_ok
                or not bool(static.block_start[self.pcs[0]])):
            return
        starts_mask = static.block_start[self.pcs]
        self.visit_starts = np.nonzero(starts_mask)[0]
        self.visit_blocks = static.block_id[self.pcs[self.visit_starts]]
        self.visit_ends = np.append(self.visit_starts[1:], n)
        sizes = static.block_size[self.visit_blocks]
        lengths = self.visit_ends - self.visit_starts
        full = lengths == sizes
        if full.all():
            self.complete_visits = len(full)
        elif bool(full[:-1].all()) and lengths[-1] < sizes[-1]:
            # Only the final visit may be cut short (trace cap).
            self.complete_visits = len(full) - 1
        else:
            return
        # Every visit must be a sequential walk of its block.
        visit_of = np.cumsum(starts_mask) - 1
        offsets = np.arange(n, dtype=np.int64) \
            - self.visit_starts[visit_of]
        block_first = np.array(
            [start for start, _ in static.block_bounds], dtype=np.int64)
        expected = block_first[self.visit_blocks[visit_of]] + offsets
        self.blocks_ok = (bool(np.array_equal(expected, self.pcs))
                          and self.masks_agree)

    def _restore(self, meta, arrays):
        self.b_pos = arrays["b_pos"]
        self.b_pcs = arrays["b_pcs"]
        self.b_taken = arrays["b_taken"].astype(bool)
        self.m_pos = arrays["m_pos"]
        self.m_addrs = arrays["m_addrs"]
        self.visit_starts = arrays["visit_starts"]
        self.visit_blocks = arrays["visit_blocks"]
        if len(self.visit_starts):
            self.visit_ends = np.append(self.visit_starts[1:], self.n)
        else:
            self.visit_ends = np.zeros(0, dtype=np.int64)
        self.blocks_ok = bool(meta["blocks_ok"])
        self.masks_agree = bool(meta["masks_agree"])
        self.complete_visits = int(meta["complete_visits"])
        for shift in meta.get("shifts", []):
            shift = int(shift)
            self._iacc[shift] = (arrays[f"iacc_pos_{shift}"],
                                 arrays[f"iacc_lines_{shift}"])
        self._persisted = True

    # -- derived tables -------------------------------------------------
    def iacc(self, shift):
        """I-access event (positions, line indices) for one line size.

        The event stream is the consecutive-deduplication of the dynamic
        line-index stream — exactly the accesses run()'s ``last_line``
        check performs, and prefix-stable under truncation.
        """
        cached = self._iacc.get(shift)
        if cached is None:
            lines = self.static.pc_addresses[self.pcs] >> shift
            change = np.empty(self.n, dtype=bool)
            if self.n:
                change[0] = True
                change[1:] = lines[1:] != lines[:-1]
            positions = np.nonzero(change)[0]
            cached = self._iacc[shift] = (positions, lines[positions])
        return cached

    def iacc_pos_list(self, shift):
        cached = self._iacc_lists.get(shift)
        if cached is None:
            cached = self._iacc_lists[shift] = self.iacc(shift)[0].tolist()
        return cached

    def vfi_list(self, shift):
        """Per-visit flag: does the visit's first instruction I-access?"""
        cached = self._vfi.get(shift)
        if cached is None:
            flags = np.zeros(self.n, dtype=bool)
            flags[self.iacc(shift)[0]] = True
            cached = self._vfi[shift] = flags[self.visit_starts].tolist()
        return cached

    def visits_list(self):
        if self._visits_list is None:
            self._visits_list = self.visit_blocks.tolist()
        return self._visits_list

    def pcs_list(self):
        if self._pcs_list is None:
            self._pcs_list = self.pcs.tolist()
        return self._pcs_list

    def m_pos_list(self):
        if self._m_pos_list is None:
            self._m_pos_list = self.m_pos.tolist()
        return self._m_pos_list

    def b_pos_list(self):
        if self._b_pos_list is None:
            self._b_pos_list = self.b_pos.tolist()
        return self._b_pos_list

    def b_taken_list(self):
        if self._b_taken_list is None:
            self._b_taken_list = self.b_taken.tolist()
        return self._b_taken_list

    def kernel_prefix(self, total):
        """(visit count, instructions covered) the kernel may run for a
        ``total``-instruction cut; the interpreted loop finishes the
        rest (a partial final visit, or a visit cut by the cap)."""
        cached = self._prefix.get(total)
        if cached is None:
            v_stop = int(np.searchsorted(self.visit_ends, total,
                                         side="right"))
            if v_stop > self.complete_visits:
                v_stop = self.complete_visits
            covered = int(self.visit_ends[v_stop - 1]) if v_stop else 0
            cached = self._prefix[total] = (v_stop, covered)
        return cached

    def class_counts(self, total):
        """Instruction-class histogram of the first ``total`` entries,
        exactly as run() computes it (callers copy before mutating)."""
        cached = self._class_counts.get(total)
        if cached is None:
            cached = [0] * IClass.COUNT
            if total:
                histogram = np.bincount(self.static.iclass[self.pcs[:total]],
                                        minlength=IClass.COUNT)
                cached = [int(count) for count in histogram]
            self._class_counts[total] = cached
        return cached


# ----------------------------------------------------------------------
# Outcome banks
# ----------------------------------------------------------------------
class _CacheBank:
    """Per-access cache outcomes for one hierarchy over one trace."""

    __slots__ = ("shift", "i_hit", "d_hit", "l2_pos", "l2_hit", "has_l2",
                 "iacc_extra", "dacc_lat", "iacc_extra_list",
                 "dacc_lat_list", "i_hit_cum", "d_hit_cum", "l2_hit_cum")


def _hierarchy_key(config):
    return (config.l1i, config.l1d, config.l2, config.l1_latency,
            config.l2_latency, config.memory_latency)


def _predictor_key(config):
    return (config.predictor,
            tuple(sorted(config.predictor_kwargs.items())))


def _build_cache_bank(digest, config):
    """Replay I/D/L2 once for one hierarchy; all outcomes per access.

    The unified L2 sees exactly run()'s access stream: each L1 miss, in
    instruction order, with an instruction's I-side miss (line-aligned
    address) ahead of its D-side miss (raw address).  A stable sort of
    ``2*pos + side`` keys realizes that interleaving, and the inverse
    permutation routes the replayed outcomes back to each L1 stream.
    """
    bank = _CacheBank()
    shift = bank.shift = config.l1i.shift
    iacc_pos, iacc_lines = digest.iacc(shift)
    bank.i_hit = per_access_hits(iacc_lines, config.l1i)
    data_shift = config.l1d.shift
    bank.d_hit = per_access_hits(digest.m_addrs >> data_shift, config.l1d)

    i_miss = ~bank.i_hit
    d_miss = ~bank.d_hit
    keys = np.concatenate((iacc_pos[i_miss] * 2,
                           digest.m_pos[d_miss] * 2 + 1))
    miss_addresses = np.concatenate((iacc_lines[i_miss] << shift,
                                     digest.m_addrs[d_miss]))
    order = np.argsort(keys, kind="stable")
    bank.l2_pos = keys[order] >> 1
    n_l2 = len(order)
    bank.has_l2 = config.l2 is not None
    if bank.has_l2 and n_l2:
        l2_shift = config.l2.shift
        bank.l2_hit = per_access_hits(miss_addresses[order] >> l2_shift,
                                      config.l2)
        miss_latency = np.where(bank.l2_hit, config.l2_latency,
                                config.l2_latency + config.memory_latency)
    else:
        bank.l2_hit = np.zeros(n_l2, dtype=bool)
        miss_latency = np.full(n_l2, config.memory_latency, dtype=np.int64)
    inverse = np.empty(n_l2, dtype=np.int64)
    inverse[order] = np.arange(n_l2, dtype=np.int64)
    n_i_miss = int(np.count_nonzero(i_miss))
    # run() stalls fetch only by the latency *beyond* the L1 hit time.
    bank.iacc_extra = np.zeros(len(bank.i_hit), dtype=np.int64)
    bank.iacc_extra[i_miss] = np.maximum(
        miss_latency[inverse[:n_i_miss]] - config.l1_latency, 0)
    bank.dacc_lat = np.full(len(bank.d_hit), config.l1_latency,
                            dtype=np.int64)
    bank.dacc_lat[d_miss] = miss_latency[inverse[n_i_miss:]]
    # The loop-facing lists and the prefix sums behind exact caps.
    bank.iacc_extra_list = bank.iacc_extra.tolist()
    bank.dacc_lat_list = bank.dacc_lat.tolist()
    bank.i_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.i_hit, dtype=np.int64)))
    bank.d_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.d_hit, dtype=np.int64)))
    bank.l2_hit_cum = np.concatenate(
        ([0], np.cumsum(bank.l2_hit, dtype=np.int64)))
    return bank


class _PredictorBank:
    """Per-branch mispredict flags for one predictor over one trace."""

    __slots__ = ("miss", "miss_list", "miss_cum")


def _build_pred_bank(digest, config):
    bank = _PredictorBank()
    bank.miss = predictor_outcome_bank(digest.b_pcs, digest.b_taken,
                                       config.predictor,
                                       **config.predictor_kwargs)
    bank.miss_list = bank.miss.tolist()
    bank.miss_cum = np.concatenate(
        ([0], np.cumsum(bank.miss, dtype=np.int64)))
    return bank


# ----------------------------------------------------------------------
# Artifact-store persistence for digests
# ----------------------------------------------------------------------
def _store_key(kind, digest, component=""):
    from repro.exec.store import ARTIFACT_SCHEMA_VERSION
    material = "\x1f".join([
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"bank_schema={BANK_SCHEMA_VERSION}",
        f"kind={kind}",
        f"trace={digest.trace.content_digest()}",
        f"program={digest.static.fingerprint()}",
        f"component={component}",
    ])
    content = hashlib.sha256(material.encode()).hexdigest()[:24]
    return f"sweep-{kind}-{content}"


def _npz_writer(arrays):
    # Uncompressed on purpose: digest saves sit on the cold-sweep
    # critical path and zlib costs more than the disk it saves here.
    def write(path):
        write_npz(path, arrays, compress=False)
    return write


def _load_npz_entry(store, key, filename):
    """(meta, materialized arrays) from the store, or None."""
    loaded = store.load(key)
    if loaded is None:
        return None
    meta, entry_dir = loaded
    if meta.get("bank_schema") != BANK_SCHEMA_VERSION:
        return None
    try:
        with np.load(os.path.join(entry_dir, filename)) as blob:
            arrays = {name: blob[name] for name in blob.files}
    except (OSError, ValueError, KeyError) as exc:
        _LOG.warning("sweep.entry_corrupt", key=key, error=str(exc))
        return None
    return meta, arrays


def _resolve_store(trace, store):
    """The store digests and kernels persist through, or None to skip."""
    if store is None:
        if len(trace) < _PERSIST_MIN_INSTRUCTIONS:
            return None
        from repro.exec.store import default_store
        store = default_store()
    return store if store.enabled else None


def digest_store_key(trace):
    """Store key of ``trace``'s persisted digest entry.

    Computable without building the digest (the trace content digest
    and program fingerprint are memoized), which is what lets the
    fleet's pin-while-leased layer shield a live run's warm digest from
    LRU pruning.  Outcome banks are never stored, and compiled-kernel
    entries are deliberately not covered: their keys need the emit
    order, and they are the cheapest artifact to rebuild.
    """
    probe = TraceDigest.__new__(TraceDigest)
    probe.trace = trace
    probe.static = _static_tables(trace.program)
    return _store_key("digest", probe)


def trace_digest(trace, store=None):
    """The (cached) config-independent digest of one trace.

    With a ``store``, a previously persisted digest for the same trace
    content and program is restored instead of being re-derived, and
    fresh digests are persisted by :func:`simulate_pipeline_sweep` once
    their per-line-size tables have materialized.
    """
    digest = getattr(trace, "_sweep_digest", None)
    if digest is not None:
        _note("digests_reused")
        return digest
    if store is not None:
        probe = TraceDigest.__new__(TraceDigest)
        probe.trace = trace
        probe.static = _static_tables(trace.program)
        restored = _load_npz_entry(store, _store_key("digest", probe),
                                   "digest.npz")
        if restored is not None:
            digest = TraceDigest(trace, _restored=restored)
            _note("digests_loaded")
    if digest is None:
        digest = TraceDigest(trace)
        _note("digests_built")
    trace._sweep_digest = digest
    return digest


def _persist_digest(digest, store):
    if digest._persisted:
        return
    digest._persisted = True
    key = _store_key("digest", digest)
    if store.has(key):
        return
    arrays = {
        "b_pos": digest.b_pos, "b_pcs": digest.b_pcs,
        "b_taken": digest.b_taken, "m_pos": digest.m_pos,
        "m_addrs": digest.m_addrs, "visit_starts": digest.visit_starts,
        "visit_blocks": digest.visit_blocks,
    }
    for shift, (positions, lines) in digest._iacc.items():
        arrays[f"iacc_pos_{shift}"] = positions
        arrays[f"iacc_lines_{shift}"] = lines
    meta = {
        "kind": "sweep-digest",
        "bank_schema": BANK_SCHEMA_VERSION,
        "instructions": digest.n,
        "blocks_ok": digest.blocks_ok,
        "masks_agree": digest.masks_agree,
        "complete_visits": digest.complete_visits,
        "shifts": sorted(digest._iacc),
    }
    store.save(key, meta, {"digest.npz": _npz_writer(arrays)})
    _note("digests_saved")


class StreamingDigestBuilder:
    """Accumulates a :class:`TraceDigest` from columnar trace chunks.

    A sink for :func:`repro.sim.native.stream_trace`: each ``feed``
    folds one chunk into the digest's event streams (branch positions
    and outcomes, memory positions and addresses) and the per-column
    content hashes, keeping only the ``pcs`` column whole.  ``finish``
    yields a digest bound to a :class:`~repro.sim.trace.TraceRef` whose
    content digest — and therefore every store key — matches the
    materialized trace's exactly, without a ``DynamicTrace`` ever
    existing.
    """

    def __init__(self, program):
        self.program = program
        self.static = _static_tables(program)
        self._pcs_parts = []
        self._b_pos, self._b_taken = [], []
        self._m_pos, self._m_addrs = [], []
        self._offset = 0
        self._masks_agree = True
        self._hashers = [hashlib.sha256() for _ in range(3)]

    def feed(self, pcs, addrs, taken):
        for hasher, column in zip(self._hashers, (pcs, addrs, taken)):
            hasher.update(_column_bytes(column))
        pcs64 = pcs.astype(np.int64)
        branch_mask = taken >= 0
        b_local = np.nonzero(branch_mask)[0]
        self._b_pos.append(b_local + self._offset)
        self._b_taken.append(taken[b_local] == 1)
        m_local = np.nonzero(self.static.is_mem[pcs64])[0]
        self._m_pos.append(m_local + self._offset)
        self._m_addrs.append(addrs[m_local].astype(np.int64))
        if self._masks_agree:
            self._masks_agree = bool(np.array_equal(
                branch_mask, self.static.is_cond[pcs64]))
        self._pcs_parts.append(pcs64)
        self._offset += len(pcs)

    def _concat(self, parts, dtype):
        if parts:
            return np.concatenate(parts)
        return np.zeros(0, dtype=dtype)

    def finish(self):
        """The completed (TraceRef-bound) digest, cached on the ref."""
        pcs = self._concat(self._pcs_parts, np.int64)
        content = combine_column_digests(
            *(hasher.hexdigest() for hasher in self._hashers))
        ref = TraceRef(self.program, pcs, content)
        b_pos = self._concat(self._b_pos, np.int64)
        prebuilt = {
            "b_pos": b_pos,
            "b_pcs": pcs[b_pos],
            "b_taken": self._concat(self._b_taken, bool),
            "m_pos": self._concat(self._m_pos, np.int64),
            "m_addrs": self._concat(self._m_addrs, np.int64),
            "masks_agree": self._masks_agree,
        }
        digest = TraceDigest(ref, _prebuilt=prebuilt)
        _note("digests_streamed")
        ref._sweep_digest = digest
        return digest


def acquire_trace_digest(program, max_instructions=50_000_000,
                         store=None, backend=None):
    """Acquire a sweep-ready trace digest for ``program``.

    The default acquisition path for fleet workers and incremental
    sessions: when the native engine can take the program, execution
    streams columnar chunks straight into a
    :class:`StreamingDigestBuilder` and the full trace never exists;
    otherwise the trace is materialized through the resolved backend
    and digested conventionally.  Either way the result is
    interchangeable — identical content digest, store keys, and tables.
    """
    from repro.sim import native as sim_native
    from repro.sim.functional import FunctionalSimulator, run_program
    from repro.sim.turbo import resolve_backend
    resolved = resolve_backend(backend, program)
    if resolved == "native" and sim_native.engine_for(program) is not None:
        with span("sim.run", program=program.name, backend="native"):
            builder = StreamingDigestBuilder(program)
            simulator = FunctionalSimulator(program, backend="native")
            sim_native.stream_trace(simulator, max_instructions,
                                    builder.feed)
        return builder.finish()
    trace = run_program(program, max_instructions=max_instructions,
                        trace=True, backend=resolved)
    return trace_digest(trace, store)


def _cache_bank_for(digest, config):
    key = _hierarchy_key(config)
    bank = digest.cache_banks.get(key)
    if bank is not None:
        _note("cache_banks_reused")
        return bank
    bank = digest.cache_banks[key] = _build_cache_bank(digest, config)
    _note("cache_banks_built")
    return bank


def _pred_bank_for(digest, config):
    key = _predictor_key(config)
    bank = digest.pred_banks.get(key)
    if bank is not None:
        _note("pred_banks_reused")
        return bank
    bank = digest.pred_banks[key] = _build_pred_bank(digest, config)
    _note("pred_banks_built")
    return bank


class _PredictorSpec:
    """Just enough config surface for ``_predictor_key`` /
    ``_pred_bank_for`` when there is no full MachineConfig."""

    __slots__ = ("predictor", "predictor_kwargs")

    def __init__(self, predictor, predictor_kwargs):
        self.predictor = predictor
        self.predictor_kwargs = predictor_kwargs


def simulate_predictor_sweep(trace, specs, store=None):
    """Misprediction stats for many predictors from one branch stream.

    ``specs`` is an iterable of predictor kinds (``"gap"``) or
    ``(kind, kwargs)`` pairs.  Returns one predictor object per spec,
    in order, with ``stats`` populated exactly as
    :func:`repro.uarch.branch_predictors.simulate_predictor` would —
    but the per-branch outcome flags come from the sweep engine's
    predictor outcome banks, so they are derived once per (trace,
    predictor) across the whole process: every later sweep or
    experiment on the same trace object reuses them.  ``store`` is
    only read, for a persisted trace digest.
    """
    specs = [(spec, {}) if isinstance(spec, str) else (spec[0],
                                                      dict(spec[1]))
             for spec in specs]
    store = _resolve_store(trace, store)
    digest = trace_digest(trace, store)
    lookups = len(digest.b_pos)
    results = []
    for kind, kwargs in specs:
        spec = _PredictorSpec(kind, kwargs)
        bank = _pred_bank_for(digest, spec)
        predictor = make_predictor(kind, **kwargs)
        predictor.stats.lookups = lookups
        predictor.stats.mispredictions = int(bank.miss_cum[-1])
        results.append(predictor)
    _note("predictor_sweeps")
    _note("predictor_sweep_kinds", len(specs))
    return results


# ----------------------------------------------------------------------
# Compiled scheduling kernels
# ----------------------------------------------------------------------
def _is_pow2(value):
    return value & (value - 1) == 0


def _kernel_knobs(config, shift):
    """The *structural* shape of the generated source.

    Everything else — ring sizes, mispredict penalty, per-class
    latencies, the width value itself for superscalar configs — is
    passed at call time through the ``params`` tuple, so e.g. the whole
    table-3 design-change grid shares kernels wherever the code shape
    coincides (only width-1 vs superscalar, in-order issue, the I-line
    size, ring power-of-two-ness and FU pool sizes change the shape).
    The L1 hit latency is folded into the banks and is not a knob
    either.
    """
    return (1 if config.width == 1 else 0, bool(config.in_order), shift,
            _is_pow2(config.rob_size), _is_pow2(config.lsq_size),
            _is_pow2(config.fetch_queue),
            (config.n_int_alu, config.n_int_mul, config.n_fp_alu,
             config.n_fp_mul, config.n_mem_ports))


def _kernel_params(config):
    """Runtime values consumed by a generated kernel's prologue."""

    def ring(size):
        return size - 1 if _is_pow2(size) else size

    return (config.width, ring(config.rob_size), ring(config.lsq_size),
            ring(config.fetch_queue), config.mispredict_penalty,
            config.latency_ialu, config.latency_imul, config.latency_idiv,
            config.latency_falu, config.latency_fmul, config.latency_fdiv)


#: Latency local consumed per instruction class (LOAD/STORE are special
#: cased against the data bank in the emitter).
_LATENCY_NAME = {
    int(IClass.IALU): "lat_ialu", int(IClass.IMUL): "lat_imul",
    int(IClass.IDIV): "lat_idiv", int(IClass.FALU): "lat_falu",
    int(IClass.FMUL): "lat_fmul", int(IClass.FDIV): "lat_fdiv",
    int(IClass.BRANCH): "lat_ialu", int(IClass.JUMP): "lat_ialu",
    int(IClass.OTHER): "lat_ialu",
}


def _generate_kernel_source(static, config, shift, emit_order):
    """Specialized scheduling loop: one unrolled body per hot block.

    Cache/predictor outcomes arrive as precomputed event arrays
    (``iacc_extra``/``dacc_lat``/``bmiss``) consumed by cursor, so the
    only remaining per-instruction work is run()'s integer scheduling —
    emitted with the structural config folded in and the numeric knobs
    read from ``params``.  Two block-local static facts shrink the body
    further: past a block's entry instruction ``fetch_break`` is
    provably False and (width 1) ``fetch_used`` is provably 1, so the
    fetch bookkeeping collapses; and the ``i``/``mem_index``/``di``
    cursors advance by a compile-time-known amount per block, so they
    are folded into literal offsets with one increment per visit.
    Only ``emit_order`` blocks are unrolled; on a visit to any other
    block the kernel repacks its state and returns the visit index so
    the caller can interpret that visit and re-enter.
    """
    width1 = int(config.width) == 1
    in_order = bool(config.in_order)
    rob_mod = "&" if _is_pow2(config.rob_size) else "%"
    lsq_mod = "&" if _is_pow2(config.lsq_size) else "%"
    fq_mod = "&" if _is_pow2(config.fetch_queue) else "%"
    counts = (int(config.n_int_alu), int(config.n_int_mul),
              int(config.n_fp_alu), int(config.n_fp_mul),
              int(config.n_mem_ports))

    lines = []

    def w(depth, text):
        lines.append("    " * depth + text)

    def offset(base, delta):
        return base if delta == 0 else f"({base} + {delta})"

    def emit_instruction(d, pc, entry, k, m_k):
        iclass = static.iclass_list[pc]
        is_load = iclass == _LOAD
        is_mem = is_load or iclass == _STORE
        is_cond = bool(static.is_cond[pc])
        unpipelined = iclass in (_IDIV, _FDIV)
        line_break = (not entry and
                      (static.pc_addresses[pc] >> shift)
                      != (static.pc_addresses[pc - 1] >> shift))
        # fetch: the entry instruction sees the full redirect / I-access
        # / break machinery; mid-block fetch_break is statically False.
        if entry:
            w(d, "if fetch_stall_until > fetch_cycle:")
            w(d + 1, "redirect_cycles += fetch_stall_until - fetch_cycle")
            w(d + 1, "fetch_cycle = fetch_stall_until")
            w(d + 1, "fetch_used = 0")
            w(d + 1, "fetch_break = False")
            w(d, "if vfi[v]:")
            w(d + 1, "_x = iacc_extra[ii]")
            w(d + 1, "ii += 1")
            w(d + 1, "if _x:")
            w(d + 2, "fetch_cycle += _x")
            w(d + 2, "fetch_used = 0")
            w(d + 2, "fetch_break = False")
            if width1:
                w(d, "if fetch_break:")
                w(d + 1, "fetch_cycle += 1")
                w(d + 1, "fetch_break = False")
                w(d, "elif fetch_used:")
                w(d + 1, "fetch_cycle += 1")
                w(d, "fetch_time = fetch_cycle")
            else:
                w(d, "if fetch_break or fetch_used >= width:")
                w(d + 1, "fetch_cycle += 1")
                w(d + 1, "fetch_used = 0")
                w(d + 1, "fetch_break = False")
                w(d, "fetch_time = fetch_cycle")
                w(d, "fetch_used += 1")
        elif width1:
            if line_break:
                w(d, "_x = iacc_extra[ii]")
                w(d, "ii += 1")
                w(d, "if _x:")
                w(d + 1, "fetch_cycle += _x")
                w(d, "else:")
                w(d + 1, "fetch_cycle += 1")
            else:
                w(d, "fetch_cycle += 1")
            w(d, "fetch_time = fetch_cycle")
        else:
            if line_break:
                w(d, "_x = iacc_extra[ii]")
                w(d, "ii += 1")
                w(d, "if _x:")
                w(d + 1, "fetch_cycle += _x")
                w(d + 1, "fetch_used = 0")
            w(d, "if fetch_used >= width:")
            w(d + 1, "fetch_cycle += 1")
            w(d + 1, "fetch_used = 0")
            w(d, "fetch_time = fetch_cycle")
            w(d, "fetch_used += 1")
        w(d, f"_qs = {offset('i', k)} {fq_mod} fq_m")
        w(d, "_t = fetchq_ring[_qs]")
        w(d, "if fetch_time < _t:")
        w(d + 1, "fetch_time = _t")
        w(d + 1, "fetch_cycle = _t")
        if not width1:
            w(d + 1, "fetch_used = 1")
        w(d + 1, "fetch_queue_stalls += 1")
        # dispatch: ROB/LSQ rings + bandwidth port
        w(d, f"_de = fetch_time + {DECODE_DEPTH}")
        w(d, f"_rs = {offset('i', k)} {rob_mod} rob_m")
        w(d, "_t = rob_ring[_rs]")
        w(d, "if _t > _de:")
        w(d + 1, "_de = _t")
        w(d + 1, "rob_stalls += 1")
        if is_mem:
            w(d, f"_ls = {offset('mem_index', m_k)} {lsq_mod} lsq_m")
            w(d, "_t = lsq_ring[_ls]")
            w(d, "if _t > _de:")
            w(d + 1, "_de = _t")
            w(d + 1, "lsq_stalls += 1")
        if width1:
            w(d, "if _de > dispatch_cycle:")
            w(d + 1, "dispatch_cycle = _de")
            w(d, "else:")
            w(d + 1, "dispatch_cycle += 1")
        else:
            w(d, "if _de > dispatch_cycle:")
            w(d + 1, "dispatch_cycle = _de")
            w(d + 1, "dispatch_used = 1")
            w(d, "elif dispatch_used < width:")
            w(d + 1, "dispatch_used += 1")
            w(d, "else:")
            w(d + 1, "dispatch_cycle += 1")
            w(d + 1, "dispatch_used = 1")
        w(d, "fetchq_ring[_qs] = dispatch_cycle")
        # issue: operand readiness + FU structural hazard
        w(d, "ready = dispatch_cycle + 1")
        for source in static.srcs_list[pc]:
            w(d, f"_t = reg_ready[{source}]")
            w(d, "if _t > ready:")
            w(d + 1, "ready = _t")
        if in_order:
            w(d, "if ready < last_issue:")
            w(d + 1, "ready = last_issue")
        if is_load:
            complete_stmt = ("complete = issue_time + dacc_lat["
                             + offset("di", m_k) + "]")
        elif is_mem:
            complete_stmt = "complete = issue_time + 1"
        else:
            complete_stmt = f"complete = issue_time + {_LATENCY_NAME[iclass]}"
        access = pool_access[static.pool_list[pc]]
        if access[0] == "one":
            name = access[1]
            w(d, f"issue_time = ready if ready > {name} else {name}")
            if unpipelined:
                w(d, complete_stmt)
                w(d, f"{name} = complete")
            else:
                w(d, f"{name} = issue_time + 1")
                w(d, complete_stmt)
        elif access[0] == "two":
            lo, hi = access[1], access[2]
            w(d, f"if {hi} < {lo}:")
            if unpipelined:
                w(d + 1, f"issue_time = ready if ready > {hi} else {hi}")
                w(d + 1, complete_stmt)
                w(d + 1, f"{hi} = complete")
                w(d, "else:")
                w(d + 1, f"issue_time = ready if ready > {lo} else {lo}")
                w(d + 1, complete_stmt)
                w(d + 1, f"{lo} = complete")
            else:
                w(d + 1, f"issue_time = ready if ready > {hi} else {hi}")
                w(d + 1, f"{hi} = issue_time + 1")
                w(d, "else:")
                w(d + 1, f"issue_time = ready if ready > {lo} else {lo}")
                w(d + 1, f"{lo} = issue_time + 1")
                w(d, complete_stmt)
        else:
            name = access[1]
            w(d, "_u = 0")
            w(d, f"_t = {name}[0]")
            for unit in range(1, access[2]):
                w(d, f"if {name}[{unit}] < _t:")
                w(d + 1, f"_t = {name}[{unit}]")
                w(d + 1, f"_u = {unit}")
            w(d, "issue_time = ready if ready > _t else _t")
            if unpipelined:
                w(d, complete_stmt)
                w(d, f"{name}[_u] = complete")
            else:
                w(d, f"{name}[_u] = issue_time + 1")
                w(d, complete_stmt)
        if in_order:
            w(d, "last_issue = issue_time")
        dest = static.dest_list[pc]
        if dest >= 0:
            w(d, f"reg_ready[{dest}] = complete")
        # control flow (fetch_break is statically False before this)
        if is_cond:
            w(d, "if bmiss[bi]:")
            w(d + 1, "_r = complete + mp_pen")
            w(d + 1, "if _r > fetch_stall_until:")
            w(d + 2, "fetch_stall_until = _r")
            w(d, "elif btaken[bi]:")
            w(d + 1, "fetch_break = True")
            w(d, "bi += 1")
        elif iclass == _JUMP:
            w(d, "fetch_break = True")
        # commit
        w(d, "_ce = complete + 1")
        w(d, "if _ce < last_commit:")
        w(d + 1, "_ce = last_commit")
        if width1:
            w(d, "if _ce > commit_cycle:")
            w(d + 1, "commit_cycle = _ce")
            w(d, "else:")
            w(d + 1, "commit_cycle += 1")
        else:
            w(d, "if _ce > commit_cycle:")
            w(d + 1, "commit_cycle = _ce")
            w(d + 1, "commit_used = 1")
            w(d, "elif commit_used < width:")
            w(d + 1, "commit_used += 1")
            w(d, "else:")
            w(d + 1, "commit_cycle += 1")
            w(d + 1, "commit_used = 1")
        w(d, "last_commit = commit_cycle")
        w(d, "rob_ring[_rs] = commit_cycle")
        if is_mem:
            w(d, "lsq_ring[_ls] = commit_cycle")

    def emit_epilogue(d, return_expr):
        if width1:
            # The collapsed width-1 ports leave any allocation with
            # used == 1; restore the invariant the generic port code
            # (interpreted tail) relies on, unless nothing ran.
            w(d, "if i != _i0:")
            w(d + 1, "dispatch_used = 1")
            w(d + 1, "commit_used = 1")
        w(d, "state[0] = (i, fetch_cycle, fetch_used, fetch_break,")
        w(d, "            fetch_stall_until, last_issue, last_commit,")
        w(d, "            mem_index, dispatch_cycle, dispatch_used,")
        w(d, "            commit_cycle, commit_used, rob_stalls,")
        w(d, "            lsq_stalls, fetch_queue_stalls,")
        w(d, "            redirect_cycles, ii, di, bi)")
        w(d, f"state[5] = ({', '.join(repack)},)")
        w(d, f"return {return_expr}")

    w(0, "def _kernel(visits, vfi, iacc_extra, dacc_lat, bmiss, btaken,")
    w(0, "            v_lo, v_hi, state, params):")
    w(1, "(width, rob_m, lsq_m, fq_m, mp_pen, lat_ialu, lat_imul,")
    w(1, " lat_idiv, lat_falu, lat_fmul, lat_fdiv) = params")
    w(1, "(i, fetch_cycle, fetch_used, fetch_break, fetch_stall_until,")
    w(1, " last_issue, last_commit, mem_index, dispatch_cycle,")
    w(1, " dispatch_used, commit_cycle, commit_used, rob_stalls,")
    w(1, " lsq_stalls, fetch_queue_stalls, redirect_cycles,")
    w(1, " ii, di, bi) = state[0]")
    if width1:
        w(1, "_i0 = i")
    w(1, "reg_ready = state[1]")
    w(1, "rob_ring = state[2]")
    w(1, "lsq_ring = state[3]")
    w(1, "fetchq_ring = state[4]")
    w(1, "fus = state[5]")
    pool_access = []
    repack = []
    fu_offset = 0
    for pool_index, count in enumerate(counts):
        base = _POOL_NAMES[pool_index]
        if count == 1:
            name = f"{base}0"
            w(1, f"{name} = fus[{fu_offset}]")
            pool_access.append(("one", name))
            repack.append(name)
        elif count == 2:
            names = (f"{base}0", f"{base}1")
            w(1, f"{names[0]} = fus[{fu_offset}]")
            w(1, f"{names[1]} = fus[{fu_offset + 1}]")
            pool_access.append(("two", names[0], names[1]))
            repack.extend(names)
        else:
            name = f"{base}_pool"
            w(1, f"{name} = list(fus[{fu_offset}:{fu_offset + count}])")
            pool_access.append(("list", name, count))
            repack.append(f"*{name}")
        fu_offset += count
    w(1, "for v in range(v_lo, v_hi):")
    w(2, "b = visits[v]")
    branch_keyword = "if"
    for bid in emit_order:
        start, end = static.block_bounds[bid]
        w(2, f"{branch_keyword} b == {bid}:")
        branch_keyword = "elif"
        n_mem = 0
        for pc in range(start, end):
            emit_instruction(3, pc, pc == start, pc - start, n_mem)
            if static.is_mem[pc]:
                n_mem += 1
        w(3, f"i += {end - start}")
        if n_mem:
            w(3, f"mem_index += {n_mem}")
            w(3, f"di += {n_mem}")
        if width1:
            w(3, "fetch_used = 1")
        lines.append("")
    w(2, "else:")
    emit_epilogue(3, "v")
    emit_epilogue(1, "v_hi")
    return "\n".join(lines) + "\n"


#: Blocks below this share of a trace's visits are left to the
#: interpreter (exit/re-enter) instead of being unrolled — compile time
#: scales with emitted code while they contribute almost no visits.
_EMIT_VISIT_SHARE = 0.001


def _emit_order(digest):
    """Hot block ids, most visited first, covering ~all visits."""
    n_blocks = len(digest.static.block_bounds)
    visit_counts = np.bincount(digest.visit_blocks, minlength=n_blocks)
    threshold = max(1, int(len(digest.visit_blocks) * _EMIT_VISIT_SHARE))
    hot = [bid for bid in range(n_blocks) if visit_counts[bid] >= threshold]
    hot.sort(key=lambda bid: (-int(visit_counts[bid]), bid))
    return hot


def _kernel_store_key(digest, knobs, emit_order):
    """Store key for a marshalled kernel code object.

    Kernels depend on the program (operands, blocks), the structural
    knobs, which blocks were unrolled, and — because ``marshal`` is not
    stable across interpreters — the exact Python bytecode version.
    """
    from repro.exec.store import ARTIFACT_SCHEMA_VERSION
    material = "\x1f".join([
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"bank_schema={BANK_SCHEMA_VERSION}",
        f"program={digest.static.fingerprint()}",
        f"knobs={knobs!r}",
        f"blocks={emit_order!r}",
        f"python={sys.version_info[:3]}" f"+{sys.implementation.name}",
    ])
    content = hashlib.sha256(material.encode()).hexdigest()[:24]
    return f"sweep-kernel-{content}"


def _kernel_for(digest, config, shift, store=None):
    """(kernel, params) for one config, compiled or cached per program.

    Compiled code objects are additionally persisted through the store
    (marshalled, keyed by program + knobs + bytecode version) so fresh
    processes skip the ``compile()`` cost, which otherwise dominates a
    cold sweep of a small grid.
    """
    program = digest.trace.program
    kernels = getattr(program, "_sweep_kernels", None)
    if kernels is None:
        kernels = program._sweep_kernels = {}
    knobs = _kernel_knobs(config, shift)
    kernel = kernels.get(knobs)
    if kernel is not None:
        _note("kernels_reused")
        return kernel, _kernel_params(config)
    started = time.perf_counter()
    emit_order = _emit_order(digest)
    store_key = None
    code = None
    if store is not None:
        store_key = _kernel_store_key(digest, knobs, emit_order)
        loaded = store.load(store_key)
        if loaded is not None:
            _, entry_dir = loaded
            try:
                with open(os.path.join(entry_dir, "kernel.marshal"),
                          "rb") as handle:
                    code = marshal.loads(handle.read())
            except (OSError, ValueError, EOFError, TypeError) as exc:
                _LOG.warning("sweep.kernel_corrupt", key=store_key,
                             error=str(exc))
                code = None
    if code is not None:
        _note("kernels_loaded")
    else:
        source = _generate_kernel_source(digest.static, config, shift,
                                         emit_order)
        code = compile(source, "<uarch-sweep-kernel>", "exec")
        _note("kernels_compiled")
        if store_key is not None and not store.has(store_key):
            payload = marshal.dumps(code)

            def write(path, payload=payload):
                with open(path, "wb") as handle:
                    handle.write(payload)

            store.save(store_key,
                       {"kind": "sweep-kernel",
                        "bank_schema": BANK_SCHEMA_VERSION,
                        "knobs": repr(knobs)},
                       {"kernel.marshal": write})
            _note("kernels_saved")
    namespace = {}
    exec(code, namespace)
    kernel = kernels[knobs] = namespace["_kernel"]
    _note_seconds("codegen_seconds", time.perf_counter() - started)
    return kernel, _kernel_params(config)


# ----------------------------------------------------------------------
# Interpreted tail / fallback loop
# ----------------------------------------------------------------------
def _initial_state(config):
    """The packed scheduling state shared by kernel and tail.

    ``state`` is ``[scalars, reg_ready, rob_ring, lsq_ring, fetchq_ring,
    fus]`` with the scalar order documented by the kernel prologue; the
    initial values mirror run()'s locals (inlined bandwidth ports start
    at cycle -1).
    """
    units = (config.n_int_alu + config.n_int_mul + config.n_fp_alu
             + config.n_fp_mul + config.n_mem_ports)
    return [
        (0, 0, 0, False, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0),
        [0] * 64,
        [0] * config.rob_size,
        [0] * config.lsq_size,
        [0] * config.fetch_queue,
        (0,) * int(units),
    ]


def _interpreted_range(low, high, digest, config, cache_bank, pred_bank,
                       state):
    """Exact port of run()'s loop over dynamic positions [low, high).

    Cache and predictor outcomes come from the banks (consumed by event
    position), so this handles *any* trace — including ones that fail
    the block-structure validation — and finishes partial final blocks
    for the compiled kernels.
    """
    if low >= high:
        return
    static = digest.static
    pcs = digest.pcs_list()
    iacc_pos = digest.iacc_pos_list(cache_bank.shift)
    iacc_extra = cache_bank.iacc_extra_list
    dacc_lat = cache_bank.dacc_lat_list
    m_pos = digest.m_pos_list()
    b_pos = digest.b_pos_list()
    b_taken = digest.b_taken_list()
    b_miss = pred_bank.miss_list
    n_iacc = len(iacc_pos)
    n_mem = len(m_pos)
    n_branch = len(b_pos)

    latency_of_class = (
        config.latency_ialu, config.latency_imul, config.latency_idiv,
        config.latency_falu, config.latency_fmul, config.latency_fdiv,
        0, 1, config.latency_ialu, config.latency_ialu,
        config.latency_ialu)
    st_iclass = static.iclass_list
    st_dest = static.dest_list
    st_srcs = static.srcs_list
    st_pool = static.pool_list

    width = config.width
    in_order = config.in_order
    rob_size = config.rob_size
    lsq_size = config.lsq_size
    fetch_queue = config.fetch_queue
    mispredict_penalty = config.mispredict_penalty

    (i, fetch_cycle, fetch_used, fetch_break, fetch_stall_until,
     last_issue, last_commit, mem_index, dispatch_cycle, dispatch_used,
     commit_cycle, commit_used, rob_stalls, lsq_stalls,
     fetch_queue_stalls, redirect_cycles, ii, di, bi) = state[0]
    reg_ready = state[1]
    rob_ring = state[2]
    lsq_ring = state[3]
    fetchq_ring = state[4]
    pools = []
    flat = state[5]
    offset = 0
    for count in (config.n_int_alu, config.n_int_mul, config.n_fp_alu,
                  config.n_fp_mul, config.n_mem_ports):
        pools.append(list(flat[offset:offset + count]))
        offset += count

    for position in range(low, high):
        pc = pcs[position]
        iclass = st_iclass[pc]

        # ----- fetch ---------------------------------------------------
        if fetch_stall_until > fetch_cycle:
            redirect_cycles += fetch_stall_until - fetch_cycle
            fetch_cycle = fetch_stall_until
            fetch_used = 0
            fetch_break = False
        if ii < n_iacc and iacc_pos[ii] == position:
            extra = iacc_extra[ii]
            ii += 1
            if extra:
                fetch_cycle += extra
                fetch_used = 0
                fetch_break = False
        if fetch_break or fetch_used >= width:
            fetch_cycle += 1
            fetch_used = 0
            fetch_break = False
        fetch_time = fetch_cycle
        fetch_used += 1

        queue_slot = i % fetch_queue
        if fetch_time < fetchq_ring[queue_slot]:
            fetch_time = fetchq_ring[queue_slot]
            fetch_cycle = fetch_time
            fetch_used = 1
            fetch_queue_stalls += 1

        # ----- dispatch ------------------------------------------------
        dispatch_earliest = fetch_time + DECODE_DEPTH
        rob_slot = i % rob_size
        if rob_ring[rob_slot] > dispatch_earliest:
            dispatch_earliest = rob_ring[rob_slot]
            rob_stalls += 1
        is_mem = di < n_mem and m_pos[di] == position
        if is_mem:
            lsq_slot = mem_index % lsq_size
            if lsq_ring[lsq_slot] > dispatch_earliest:
                dispatch_earliest = lsq_ring[lsq_slot]
                lsq_stalls += 1
        if dispatch_earliest > dispatch_cycle:
            dispatch_cycle = dispatch_earliest
            dispatch_used = 1
        elif dispatch_used < width:
            dispatch_used += 1
        else:
            dispatch_cycle += 1
            dispatch_used = 1
        fetchq_ring[queue_slot] = dispatch_cycle

        # ----- issue ---------------------------------------------------
        ready = dispatch_cycle + 1
        for source in st_srcs[pc]:
            source_ready = reg_ready[source]
            if source_ready > ready:
                ready = source_ready
        if in_order and ready < last_issue:
            ready = last_issue
        pool = pools[st_pool[pc]]
        unit = 0
        unit_free = pool[0]
        for index_unit in range(1, len(pool)):
            if pool[index_unit] < unit_free:
                unit_free = pool[index_unit]
                unit = index_unit
        issue_time = ready if ready > unit_free else unit_free
        if in_order:
            last_issue = issue_time

        # ----- execute -------------------------------------------------
        if is_mem:
            complete = (issue_time + dacc_lat[di] if iclass == _LOAD
                        else issue_time + 1)
            di += 1
        else:
            complete = issue_time + latency_of_class[iclass]
        pool[unit] = (complete if iclass in (_IDIV, _FDIV)
                      else issue_time + 1)
        dest = st_dest[pc]
        if dest >= 0:
            reg_ready[dest] = complete

        # ----- control flow --------------------------------------------
        if bi < n_branch and b_pos[bi] == position:
            if b_miss[bi]:
                redirect = complete + mispredict_penalty
                if redirect > fetch_stall_until:
                    fetch_stall_until = redirect
            elif b_taken[bi]:
                fetch_break = True
            bi += 1
        elif iclass == _JUMP:
            fetch_break = True

        # ----- commit --------------------------------------------------
        commit_earliest = complete + 1
        if commit_earliest < last_commit:
            commit_earliest = last_commit
        if commit_earliest > commit_cycle:
            commit_cycle = commit_earliest
            commit_used = 1
        elif commit_used < width:
            commit_used += 1
        else:
            commit_cycle += 1
            commit_used = 1
        last_commit = commit_cycle
        rob_ring[rob_slot] = commit_cycle
        if is_mem:
            lsq_ring[lsq_slot] = commit_cycle
            mem_index += 1
        i += 1

    state[0] = (i, fetch_cycle, fetch_used, fetch_break,
                fetch_stall_until, last_issue, last_commit, mem_index,
                dispatch_cycle, dispatch_used, commit_cycle, commit_used,
                rob_stalls, lsq_stalls, fetch_queue_stalls,
                redirect_cycles, ii, di, bi)
    state[5] = tuple(value for pool in pools for value in pool)


# ----------------------------------------------------------------------
# Per-config execution and the public sweep entry point
# ----------------------------------------------------------------------
def _run_visits(digest, config, cache_bank, pred_bank, state, v_from,
                v_to, kernel, params):
    """Execute visits [v_from, v_to) via the kernel, interpreting any
    cold (un-emitted) block visits it bounces off."""
    if v_from >= v_to:
        return
    visits = digest.visits_list()
    vfi = digest.vfi_list(cache_bank.shift)
    visit_starts = digest.visit_starts
    visit_ends = digest.visit_ends
    v_done = v_from
    while v_done < v_to:
        v_next = kernel(visits, vfi, cache_bank.iacc_extra_list,
                        cache_bank.dacc_lat_list, pred_bank.miss_list,
                        digest.b_taken_list(), v_done, v_to, state, params)
        if v_next >= v_to:
            break
        _interpreted_range(int(visit_starts[v_next]),
                           int(visit_ends[v_next]), digest, config,
                           cache_bank, pred_bank, state)
        v_done = v_next + 1


def _fast_forward(digest, config, cache_bank, pred_bank, hier_key,
                  pred_key, v_stop, state, kernel, params):
    """Execute-and-extrapolate the steady portion of [0, v_stop).

    Returns the number of visits already accounted for (warmup and
    verification executed normally, steady periods applied as exact
    state deltas); the caller executes the rest.  Falls back to 0 (no
    progress) whenever no verified segment or provable delta exists.
    """
    key = (cache_bank.shift, hier_key, pred_key)
    segment = digest.steady.get(key)
    if segment is None:
        started = time.perf_counter()
        segment = steady.find_segment(digest, cache_bank.shift,
                                      cache_bank, pred_bank)
        digest.steady[key] = segment if segment is not None else False
        _note_seconds("steady_seconds", time.perf_counter() - started)
        if segment is not None:
            _note("steady_segments")
    if not segment:
        return 0
    ff = steady.plan(segment, config, digest, v_stop)
    if ff is None:
        return 0
    used_pools = steady.pools_used(segment, digest)
    _run_visits(digest, config, cache_bank, pred_bank, state, 0,
                ff.anchor, kernel, params)
    s_a = steady.snapshot(state)
    _run_visits(digest, config, cache_bank, pred_bank, state, ff.anchor,
                ff.anchor + ff.ext_visits, kernel, params)
    s_b = steady.snapshot(state)
    _run_visits(digest, config, cache_bank, pred_bank, state,
                ff.anchor + ff.ext_visits, ff.anchor + 2 * ff.ext_visits,
                kernel, params)
    s_c = steady.snapshot(state)
    v_done = ff.anchor + 2 * ff.ext_visits
    delta = steady.classify(s_a, s_b, s_c, config, used_pools)
    tries = 0
    # The pipeline may still be draining a transient at the anchor;
    # slide the three-snapshot window forward a few periods.
    while (delta is None and tries < steady.MAX_CLASSIFY_TRIES
           and v_done + ff.ext_visits <= ff.limit):
        s_a, s_b = s_b, s_c
        _run_visits(digest, config, cache_bank, pred_bank, state, v_done,
                    v_done + ff.ext_visits, kernel, params)
        v_done += ff.ext_visits
        s_c = steady.snapshot(state)
        delta = steady.classify(s_a, s_b, s_c, config, used_pools)
        tries += 1
    if delta is None:
        _note("steady_rejects")
        return v_done
    periods = (ff.limit - v_done) // ff.ext_visits
    if periods > 0:
        steady.apply_delta(state, delta, periods)
        v_done += periods * ff.ext_visits
        _note("steady_ff_configs")
        _note("steady_ff_instructions", periods * ff.ext_instr)
    return v_done


def _run_config(digest, config, cache_bank, pred_bank, total,
                class_counts, store=None, hier_key=None, pred_key=None):
    started = time.perf_counter()
    state = _initial_state(config)
    covered = 0
    if total and native.available():
        # The C loop covers the whole range — no kernels, no steady
        # detection — and shares the banks' event arrays in place.
        native.run_range(0, total, digest, config, cache_bank,
                         pred_bank, state)
        covered = total
        _note("native_configs")
    elif total and digest.blocks_ok:
        kernel, params = _kernel_for(digest, config, cache_bank.shift,
                                     store)
        v_stop, covered = digest.kernel_prefix(total)
        if v_stop:
            v_done = 0
            if total >= _STEADY_MIN_INSTRUCTIONS:
                v_done = _fast_forward(digest, config, cache_bank,
                                       pred_bank, hier_key, pred_key,
                                       v_stop, state, kernel, params)
            _run_visits(digest, config, cache_bank, pred_bank, state,
                        v_done, v_stop, kernel, params)
    elif total:
        _note("fallback_configs")
    if covered < total:
        _interpreted_range(covered, total, digest, config, cache_bank,
                           pred_bank, state)

    scalars = state[0]
    last_commit = scalars[6]
    n_iacc = int(np.searchsorted(digest.iacc(cache_bank.shift)[0], total,
                                 side="left"))
    n_data = int(np.searchsorted(digest.m_pos, total, side="left"))
    n_branch = int(np.searchsorted(digest.b_pos, total, side="left"))
    if cache_bank.has_l2:
        n_l2 = int(np.searchsorted(cache_bank.l2_pos, total, side="left"))
        l2_accesses = n_l2
        l2_misses = n_l2 - int(cache_bank.l2_hit_cum[n_l2])
    else:
        l2_accesses = 0
        l2_misses = 0
    telemetry = REGISTRY.enabled
    result = PipelineResult(
        config=config,
        instructions=total,
        cycles=max(1, last_commit if total else 0),
        class_counts=list(class_counts),
        icache_accesses=n_iacc,
        icache_misses=n_iacc - int(cache_bank.i_hit_cum[n_iacc]),
        dcache_accesses=n_data,
        dcache_misses=n_data - int(cache_bank.d_hit_cum[n_data]),
        l2_accesses=l2_accesses,
        l2_misses=l2_misses,
        branch_lookups=n_branch,
        branch_mispredictions=int(pred_bank.miss_cum[n_branch]),
        rob_stalls=scalars[12] if telemetry else 0,
        lsq_stalls=scalars[13] if telemetry else 0,
        fetch_queue_stalls=scalars[14] if telemetry else 0,
        redirect_cycles=scalars[15] if telemetry else 0,
    )
    result.wall_seconds = time.perf_counter() - started
    _note_seconds("config_seconds", result.wall_seconds)
    if telemetry:
        # Same accounting PipelineModel.run emits, so grids keep
        # feeding the pipeline.* dashboards whichever engine times them.
        REGISTRY.counter("pipeline.instructions").inc(total)
        REGISTRY.counter("pipeline.runs").inc()
        REGISTRY.counter("uarch.time_seconds").inc(result.wall_seconds)
        REGISTRY.gauge("pipeline.sim_mips").set(result.simulated_mips)
    return result


def simulate_pipeline_sweep(trace, configs, max_instructions=None,
                            store=None):
    """Time one trace against many configs; one digestion, shared banks.

    Returns one :class:`PipelineResult` per config, in config order,
    each field-for-field identical to
    ``PipelineModel(config).run(trace, max_instructions)``.  ``store``
    overrides the artifact store used for digest and kernel persistence
    (``None`` means the default store for corpus-sized traces).
    """
    configs = list(configs)
    if not configs:
        return []
    grid_started = time.perf_counter()
    with span("uarch.sweep", configs=len(configs)):
        store = _resolve_store(trace, store)
        digest = trace_digest(trace, store)
        total = len(trace)
        if max_instructions is not None and total > max_instructions:
            total = max_instructions
        class_counts = digest.class_counts(total)
        hierarchy_banks = {}
        predictor_banks = {}
        for config in configs:
            key = _hierarchy_key(config)
            if key not in hierarchy_banks:
                hierarchy_banks[key] = _cache_bank_for(digest, config)
            key = _predictor_key(config)
            if key not in predictor_banks:
                predictor_banks[key] = _pred_bank_for(digest, config)
        if store is not None:
            _persist_digest(digest, store)
        results = []
        for index, config in enumerate(configs):
            # Per-config scheduling keeps run()'s span name, so grid
            # manifests still break out pipeline-timing wall time
            # (as ``uarch.sweep/uarch.pipeline``).
            hier_key = _hierarchy_key(config)
            pred_key = _predictor_key(config)
            with span("uarch.pipeline", config=config.name):
                results.append(_run_config(
                    digest, config, hierarchy_banks[hier_key],
                    predictor_banks[pred_key], total, class_counts,
                    store, hier_key, pred_key))
            emit_event("progress", done=index + 1, total=len(configs),
                       unit="configs", label=config.name)
    _note("grids")
    _note("configs", len(configs))
    _note("instructions", total * len(configs))
    _note("distinct_hierarchies", len(hierarchy_banks))
    _note("distinct_predictors", len(predictor_banks))
    _note_seconds("grid_seconds", time.perf_counter() - grid_started)
    if REGISTRY.enabled:
        _LOG.debug("uarch.sweep", configs=len(configs),
                   instructions=total, blocks_ok=digest.blocks_ok,
                   hierarchies=len(hierarchy_banks),
                   predictors=len(predictor_banks))
    return results
