"""One fleet worker process: claim, execute, publish, steal.

A worker owns one shard of the run's affinity-ordered cells
(:mod:`repro.fleet.scheduler`) and works it head to tail one *unit* at
a time: it leases a unit (the cells of one trace and one cache and
predictor bank pair) through the :class:`~repro.fleet.queue.FleetQueue`,
times all of the unit's configs with one
:meth:`~repro.uarch.incremental.IncrementalSession.run_grid` call — a
single ``simulate_pipeline_sweep`` over the already-digested trace and
in-memory outcome banks — and publishes one result file for the unit.
Because a shard keeps all of a trace's units contiguous, the worker
holds one session per trace, and the session plans each config against
the one before it.

The worker keeps the set of done units in memory and lists the run
directory only when its own shard is drained.  It then steals units
from the other shards' tails; when nothing is claimable it reclaims
abandoned leases (dead pid / expired TTL) and retries, so a killed
sibling's in-flight unit is re-executed rather than stranded.  Each
retry pass re-scans the own shard too: a thief can die holding a lease
on an own-shard unit, and after the reclaim the shard owner may be the
only worker left to run it (thieves never steal from their own shard).
While a unit executes its lease is refreshed from one daemon heartbeat
thread per worker, so a unit that outlives the lease TTL (trace
acquisition under a 20M-instruction functional cap can) is never
mistaken for abandoned.  The metrics of every published cell are
deterministic — exclusively :func:`cell_metrics` fields, which hold
only simulation-defined numbers — so re-execution after a crash (or a
racing duplicate publish) always yields the same matrix.

An exception while a unit executes does not stop the worker: it
records the unit as failed, with the exception's type and message, and
moves on.  ``repro fleet status`` lists the failed cells and
``repro fleet resume`` runs them again.

``chaos`` is the fault-injection hook used by tests and the CI smoke
job: ``(worker_index, after_cells)`` makes that worker SIGKILL itself
*mid-unit* — after claiming a unit but before publishing it — at the
first unit that would take it past ``after_cells`` completed cells.  It
dies with at most ``after_cells`` cells published, in the unit that
holds its next cell; with one-cell units that is the old per-cell
meaning exactly.
"""

import json
import os
import signal
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager

from repro.core.synthesizer import SynthesisParameters
from repro.exec.artifacts import pipeline_artifacts
from repro.fleet.queue import FleetQueue, _pid_alive
from repro.fleet.recipe import recipe_from_dict
from repro.fleet.scheduler import (
    build_shards,
    build_units,
    count_cells,
    steal_candidates,
)
from repro.isa.assembler import assemble
from repro.obs.journal import emit_event, emit_metric_deltas
from repro.obs.logging import get_logger
from repro.obs.timing import TRACER
from repro.uarch.incremental import IncrementalSession
from repro.uarch.power import shared_power_model
from repro.uarch.sweep import acquire_trace_digest
from repro.workloads import get_workload

_LOG = get_logger("repro.fleet.worker")

#: Result payload layout version (1: one file per cell; 2: one file
#: per unit holding a list of per-cell entries).
RESULT_SCHEMA_VERSION = 2

#: In-process IncrementalSessions kept warm at once (a session pins its
#: trace and every derived bank in memory; two covers the common
#: "finish my group, steal into another" pattern without ballooning).
_MAX_SESSIONS = 2

#: Poll interval while waiting on other workers' live leases.
_POLL_SECONDS = 0.05

#: A held lease is refreshed at this fraction of the TTL while its unit
#: executes, keeping cross-host TTL reclaim honest for slow cells.
_HEARTBEAT_FRACTION = 1 / 3

RECIPE_FILENAME = "recipe.json"
CELLS_FILENAME = "cells.json"
WORKERS_DIR = "workers"


def parse_chaos(spec):
    """``"index:after"`` (or ``(index, after)``) -> chaos tuple."""
    if spec is None:
        return None
    if isinstance(spec, (tuple, list)):
        index, after = spec
        return int(index), int(after)
    text = str(spec)
    index, _, after = text.partition(":")
    if not after:
        index, after = "0", index
    return int(index), int(after)


def cell_metrics(result, power):
    """The canonical (deterministic) metric dict for one cell.

    Only simulation-defined numbers belong here: telemetry-gated
    counters (rob/lsq/fetch-queue stalls, redirect cycles) and wall
    times vary run to run and would break the byte-identical matrix
    contract, so they are deliberately excluded.
    """
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.instructions / result.cycles,
        "icache_accesses": result.icache_accesses,
        "icache_misses": result.icache_misses,
        "dcache_accesses": result.dcache_accesses,
        "dcache_misses": result.dcache_misses,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
        "branch_lookups": result.branch_lookups,
        "branch_mispredictions": result.branch_mispredictions,
        "power": power,
    }


class FleetWorker:
    """Executes one worker index's share of a fleet run.

    ``cells`` is the run's expanded cell list when the caller already
    has it; otherwise the worker expands the run directory's recipe.
    """

    def __init__(self, run_dir, worker_index, n_workers,
                 lease_ttl=None, chaos=None, cells=None):
        self.run_dir = run_dir
        self.index = worker_index
        self.n_workers = max(1, n_workers)
        recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
        with open(recipe_path) as handle:
            self.recipe = recipe_from_dict(json.load(handle))
        self.cells = self.recipe.expand() if cells is None else cells
        self.shards = build_shards(self.cells, self.n_workers)
        self.unit_shards = [build_units(shard) for shard in self.shards]
        self.units = [unit for shard in self.unit_shards for unit in shard]
        kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
        self.queue = FleetQueue(run_dir, **kwargs)
        self.chaos = parse_chaos(chaos)
        self.worker_id = f"w{worker_index}-{os.getpid()}"
        self.executed = 0
        self.stolen = 0
        self.failed = 0
        self.acquire_seconds = 0.0
        self.uarch_seconds = 0.0
        self._done = set()
        self._done_cells = 0
        self._sessions = OrderedDict()
        self._held = None
        self._beat_lock = threading.Lock()
        self._beat_stop = threading.Event()
        self._beat_thread = None

    # ------------------------------------------------------------------
    def _trace_for(self, cell):
        source = get_workload(cell.kernel).source()
        cap = self.recipe.functional_cap
        if cell.subject == "clone":
            parameters = SynthesisParameters(seed=cell.seed)
            return pipeline_artifacts(cell.kernel, source, parameters,
                                      max_instructions=cap).clone_trace
        # On the native engine, execution streams columnar chunks
        # straight into the sweep digest and the full trace is never
        # materialized; otherwise the trace is run on the resolved
        # backend.  The returned trace (or TraceRef) carries the
        # finished digest for the session's sweeps.
        program = assemble(source, name=cell.kernel)
        return acquire_trace_digest(program, max_instructions=cap).trace

    def _session_for(self, cell):
        key = cell.trace_key
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session
        acquire_started = time.perf_counter()
        with TRACER.span("fleet.acquire_trace", kernel=cell.kernel,
                         subject=cell.subject):
            trace = self._trace_for(cell)
        self.acquire_seconds += time.perf_counter() - acquire_started
        session = IncrementalSession(
            trace, max_instructions=self.recipe.pipeline_cap)
        self._sessions[key] = session
        while len(self._sessions) > _MAX_SESSIONS:
            self._sessions.popitem(last=False)
        return session

    def _execute(self, unit):
        """Time every cell of ``unit`` in one sweep; the result payload."""
        session = self._session_for(unit.cells[0])
        configs = [cell.config for cell in unit.cells]
        timing_started = time.perf_counter()
        results = session.run_grid(configs)
        self.uarch_seconds += time.perf_counter() - timing_started
        entries = []
        for cell, config, result in zip(unit.cells, configs, results):
            power = shared_power_model(config).evaluate(result).total
            entries.append({"cell": cell.cell_id,
                            "metrics": cell_metrics(result, power),
                            "wall_seconds": result.wall_seconds})
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "unit": unit.unit_id,
            "cells": entries,
            "meta": {"worker": self.worker_id,
                     "ts": round(time.time(), 6)},
        }

    def _failure(self, unit, exc):
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "unit": unit.unit_id,
            "cells": [{"cell": cell.cell_id} for cell in unit.cells],
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "traceback": traceback.format_exc(),
            "meta": {"worker": self.worker_id,
                     "ts": round(time.time(), 6)},
        }

    # ------------------------------------------------------------------
    def _maybe_chaos_kill(self, unit):
        if self.chaos is None:
            return
        index, after = self.chaos
        if self.index == index and \
                self.executed + len(unit.cells) > after:
            # Mid-unit on purpose: the lease for ``unit`` is held and
            # will be stranded until a sibling (or resume) reclaims it.
            _LOG.warning("fleet.chaos_kill", worker=self.worker_id,
                         unit=unit.unit_id, executed=self.executed)
            emit_event("fleet", event="chaos_kill", unit=unit.unit_id,
                       worker=self.worker_id)
            os.kill(os.getpid(), signal.SIGKILL)

    @contextmanager
    def _heartbeating(self, unit_id):
        """Refresh the held lease while the unit executes, so a unit
        outliving the TTL is never TTL-reclaimed by a cross-host
        sibling mid-flight.

        One daemon thread per worker beats whichever lease is held.
        The held id is cleared under the lock before the unit's result
        is published, so no beat can recreate a released lease.
        """
        if self._beat_thread is None:
            interval = max(self.queue.lease_ttl * _HEARTBEAT_FRACTION,
                           _POLL_SECONDS)
            self._beat_thread = threading.Thread(
                target=self._beat, args=(interval,), daemon=True,
                name=f"fleet-hb-{self.worker_id}")
            self._beat_thread.start()
        with self._beat_lock:
            self._held = unit_id
        try:
            yield
        finally:
            with self._beat_lock:
                self._held = None

    def _beat(self, interval):
        while not self._beat_stop.wait(interval):
            with self._beat_lock:
                if self._held is not None:
                    self.queue.heartbeat(self._held, self.worker_id)

    def _try_unit(self, unit, stolen=False):
        if not self.queue.claim(unit.unit_id, self.worker_id,
                                stolen=stolen):
            return False
        self._maybe_chaos_kill(unit)
        cells = len(unit.cells)
        with TRACER.span("fleet.unit", unit=unit.unit_id,
                         kernel=unit.cells[0].kernel, cells=cells,
                         stolen=stolen), \
                self._heartbeating(unit.unit_id):
            try:
                payload = self._execute(unit)
            except Exception as exc:  # noqa: BLE001 - contained per unit
                payload = self._failure(unit, exc)
        self._done.add(unit.unit_id)
        self._done_cells += cells
        if "error" in payload:
            _LOG.warning("fleet.unit_failed", worker=self.worker_id,
                         unit=unit.unit_id, **payload["error"])
            self.queue.fail(unit.unit_id, payload, worker=self.worker_id)
            self.failed += cells
        else:
            self.queue.complete(unit.unit_id, payload,
                                worker=self.worker_id)
            self.executed += cells
            if stolen:
                self.stolen += cells
        emit_event("progress", done=self._done_cells,
                   total=len(self.cells), unit="cells", label=unit.unit_id)
        emit_metric_deltas()
        return True

    def _refresh_done(self):
        """Re-list the run directory's done units (results + failures)."""
        self._done = self.queue.done_ids()
        self._done_cells = count_cells(self.units, self._done)

    def _live_lease_pending(self, pending):
        """Whether any pending unit's lease looks alive (wait, don't
        quit): held by a live same-host pid or heartbeat-fresh."""
        now = time.time()
        for unit in pending:
            info = self.queue.lease_info(unit.unit_id)
            if info is None:
                return True  # released between scans: claimable next pass
            if (info.get("host") == self.queue.host
                    and isinstance(info.get("pid"), int)):
                if _pid_alive(info["pid"]):
                    return True
                continue
            if now - float(info.get("ts") or 0.0) <= self.queue.lease_ttl:
                return True
        return False

    def run(self):
        """Work the shard, then steal, until the matrix has no pending
        claimable units; returns a summary dict."""
        self.queue.ensure_dirs()
        started = time.perf_counter()
        own = self.unit_shards[self.index] \
            if self.index < len(self.unit_shards) else []
        emit_event("fleet", event="worker_begin", worker=self.worker_id,
                   shard=self.index, shard_units=len(own),
                   shard_cells=sum(len(unit.cells) for unit in own),
                   total=len(self.cells))
        self._refresh_done()
        while True:
            progress = False
            # Each pass re-scans the own shard before stealing: a thief
            # may have died holding one of these units and, since
            # thieves never steal from their own shard, after the
            # reclaim the shard owner can be the only worker left able
            # to claim it.
            for unit in own:
                if unit.unit_id not in self._done and self._try_unit(unit):
                    progress = True
            # The own shard is drained: learn what the siblings did.
            self._refresh_done()
            for unit in steal_candidates(
                    self.unit_shards, self.index,
                    lambda unit: unit.unit_id not in self._done):
                if self._try_unit(unit, stolen=True):
                    progress = True
            self._refresh_done()
            pending = [unit for unit in self.units
                       if unit.unit_id not in self._done]
            if not pending:
                break
            if progress:
                continue
            if self.queue.reclaim((unit.unit_id for unit in pending),
                                  worker=self.worker_id):
                continue
            if self._live_lease_pending(pending):
                time.sleep(_POLL_SECONDS)
                continue
            break  # nothing claimable, nothing reclaimable, owners gone
        self._beat_stop.set()
        summary = {
            "worker": self.worker_id,
            "index": self.index,
            "executed": self.executed,
            "stolen": self.stolen,
            "failed": self.failed,
            "wall_seconds": round(time.perf_counter() - started, 6),
            # Where the wall went: functional acquisition vs pipeline
            # timing (mirrors the sim.acquire_seconds/uarch.time_seconds
            # journal counters, but attributed per worker).
            "sim_acquire_seconds": round(self.acquire_seconds, 6),
            "uarch_time_seconds": round(self.uarch_seconds, 6),
        }
        self._write_summary(summary)
        emit_event("fleet", event="worker_end", **summary)
        emit_metric_deltas()
        return summary

    def _write_summary(self, summary):
        workers_dir = os.path.join(self.run_dir, WORKERS_DIR)
        os.makedirs(workers_dir, exist_ok=True)
        path = os.path.join(workers_dir, f"{self.worker_id}.json")
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")


def worker_entry(run_dir, worker_index, n_workers, lease_ttl=None,
                 chaos=None, cells=None):
    """Module-level process target (picklable for multiprocessing)."""
    worker = FleetWorker(run_dir, worker_index, n_workers,
                         lease_ttl=lease_ttl, chaos=chaos, cells=cells)
    return worker.run()
