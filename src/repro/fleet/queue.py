"""File-backed work-stealing unit queue (leases + results on disk).

Every fleet run directory holds three flat namespaces keyed by unit id
(a unit is the cells of one trace and one cache/predictor bank pair,
see :func:`repro.fleet.scheduler.build_units`)::

    <run>/leases/<unit_id>.json    one worker's live claim
    <run>/results/<unit_id>.json   the unit's published per-cell results
    <run>/failed/<unit_id>.json    the exception that stopped the unit

Claiming is an ``O_CREAT | O_EXCL`` open — the filesystem arbitrates,
so any number of worker processes (and multiple hosts sharing the run
directory) can race on the same unit and exactly one wins.  Results are
published with the same temp-file + ``os.rename`` idiom the artifact
store uses, so a reader never sees a torn result and re-publication of
an identical result is harmless (the cells are deterministic).  A unit
with a result or a failure is done for this run: it is never claimed
again until :meth:`FleetQueue.clear_failures` (the resume path) drops
its failure.

A lease carries the owner's pid/host and is refreshed by
:meth:`FleetQueue.heartbeat` (workers beat from a daemon thread for as
long as a unit executes); :meth:`reclaim` releases leases whose owner
is provably dead (same host, pid gone) immediately and any other lease
after ``lease_ttl`` seconds without a heartbeat — so a SIGKILL-ed
worker strands its in-flight unit for at most one TTL, and in the
common single-host case for no time at all.  A same-host owner whose
pid is still alive is authoritative: its lease is never reclaimed on
TTL age alone, so a unit that outlives the TTL is not re-executed by a
sibling.

Every claim / steal / complete / fail / reclaim emits a ``fleet``
journal event, giving ``repro tail`` and post-mortem ``repro trace``
the full scheduling history.
"""

import errno
import json
import os
import socket
import tempfile
import time
from contextlib import suppress

from repro.obs.journal import emit_event
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

_LOG = get_logger("repro.fleet.queue")

#: Seconds without a heartbeat after which a foreign-host (or
#: unidentifiable) lease is considered abandoned.
DEFAULT_LEASE_TTL = 60.0

LEASES_DIR = "leases"
RESULTS_DIR = "results"
FAILED_DIR = "failed"


def _pid_alive(pid):
    """Best-effort liveness of a same-host pid (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


def _json_stems(directory):
    try:
        names = os.listdir(directory)
    except OSError:
        return set()
    return {name[:-5] for name in names if name.endswith(".json")}


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class FleetQueue:
    """Lease/result bookkeeping for one run directory."""

    def __init__(self, run_dir, lease_ttl=DEFAULT_LEASE_TTL):
        self.run_dir = run_dir
        self.lease_ttl = lease_ttl
        self.leases_dir = os.path.join(run_dir, LEASES_DIR)
        self.results_dir = os.path.join(run_dir, RESULTS_DIR)
        self.failed_dir = os.path.join(run_dir, FAILED_DIR)
        self.host = socket.gethostname()

    def ensure_dirs(self):
        os.makedirs(self.leases_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.failed_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def lease_path(self, unit_id):
        return os.path.join(self.leases_dir, f"{unit_id}.json")

    def result_path(self, unit_id):
        return os.path.join(self.results_dir, f"{unit_id}.json")

    def failure_path(self, unit_id):
        return os.path.join(self.failed_dir, f"{unit_id}.json")

    def has_result(self, unit_id):
        return os.path.exists(self.result_path(unit_id))

    def is_done(self, unit_id):
        """Published, or failed in this run: not to be claimed again."""
        return (self.has_result(unit_id)
                or os.path.exists(self.failure_path(unit_id)))

    def completed_ids(self):
        """Unit ids with a published result."""
        return _json_stems(self.results_dir)

    def failed_ids(self):
        """Unit ids whose last attempt raised."""
        return _json_stems(self.failed_dir)

    def done_ids(self):
        return self.completed_ids() | self.failed_ids()

    def leased_ids(self):
        return _json_stems(self.leases_dir)

    # ------------------------------------------------------------------
    def claim(self, unit_id, worker, stolen=False):
        """Try to lease one unit; True exactly once across all racers."""
        if self.is_done(unit_id):
            return False
        try:
            fd = os.open(self.lease_path(unit_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError as exc:
            if exc.errno == errno.EEXIST:
                return False
            raise
        if self.is_done(unit_id):
            # A sibling published and released between the check above
            # and our lease: the unit is done, do not run it again.
            os.close(fd)
            self.release(unit_id)
            return False
        record = self._lease_record(worker)
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle)
        REGISTRY.counter("fleet.claims").inc()
        if stolen:
            REGISTRY.counter("fleet.steals").inc()
        emit_event("fleet", event="steal" if stolen else "claim",
                   unit=unit_id, worker=worker)
        return True

    def _lease_record(self, worker):
        return {"worker": worker, "pid": os.getpid(), "host": self.host,
                "ts": round(time.time(), 6)}

    def heartbeat(self, unit_id, worker):
        """Refresh a held lease (atomic rewrite keeps readers whole)."""
        record = self._lease_record(worker)
        fd, staging = tempfile.mkstemp(prefix=f".hb-{os.getpid()}-",
                                       dir=self.leases_dir)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.rename(staging, self.lease_path(unit_id))
        except OSError:
            with suppress(OSError):
                os.remove(staging)

    def lease_info(self, unit_id):
        """The lease record, or None; torn/invalid reads degrade to an
        mtime-only record so reclaim can still age it out."""
        path = self.lease_path(unit_id)
        try:
            with open(path) as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except OSError:
            return None
        except ValueError:
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                return None
            record = {"worker": None, "pid": None, "host": None,
                      "ts": mtime}
        return record

    def release(self, unit_id):
        with suppress(OSError):
            os.remove(self.lease_path(unit_id))

    # ------------------------------------------------------------------
    def complete(self, unit_id, payload, worker=None):
        """Atomically publish one unit's result and drop its lease."""
        self._publish(self.result_path(unit_id), payload)
        self.release(unit_id)
        REGISTRY.counter("fleet.units_completed").inc()
        emit_event("fleet", event="complete", unit=unit_id, worker=worker)

    def fail(self, unit_id, payload, worker=None):
        """Record a unit whose execution raised, and drop its lease."""
        self._publish(self.failure_path(unit_id), payload)
        self.release(unit_id)
        REGISTRY.counter("fleet.units_failed").inc()
        emit_event("fleet", event="fail", unit=unit_id, worker=worker,
                   error=payload.get("error"))

    def clear_failures(self):
        """Forget every recorded failure so the units run again."""
        for unit_id in self.failed_ids():
            with suppress(OSError):
                os.remove(self.failure_path(unit_id))

    def _publish(self, path, payload):
        fd, staging = tempfile.mkstemp(prefix=f".res-{os.getpid()}-",
                                       dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "w") as handle:
                # No indent: the C encoder writes it.
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
            os.rename(staging, path)
        except BaseException:
            with suppress(OSError):
                os.remove(staging)
            raise

    def read_result(self, unit_id):
        """The published result payload, or None (torn reads -> None)."""
        return _read_json(self.result_path(unit_id))

    def read_failure(self, unit_id):
        return _read_json(self.failure_path(unit_id))

    # ------------------------------------------------------------------
    def reclaim(self, unit_ids=None, worker=None):
        """Release abandoned leases; returns the reclaimed unit ids.

        A lease is abandoned when its unit is not done and either its
        owner pid is dead on this host (immediate) or its last
        heartbeat is older than the TTL (cross-host fallback).  A
        same-host owner whose pid is alive keeps the lease regardless
        of TTL — matching the workers' own wait logic — so a slow unit
        is never stolen from a live process.
        """
        if unit_ids is None:
            unit_ids = self.leased_ids()
        now = time.time()
        reclaimed = []
        for unit_id in sorted(unit_ids):
            if self.is_done(unit_id):
                # Done units should have no lease; sweep leftovers.
                self.release(unit_id)
                continue
            info = self.lease_info(unit_id)
            if info is None:
                continue
            same_host = (info.get("host") == self.host
                         and isinstance(info.get("pid"), int))
            alive_here = same_host and _pid_alive(info["pid"])
            dead = same_host and not alive_here
            expired = now - float(info.get("ts") or 0.0) > self.lease_ttl
            if not dead and (alive_here or not expired):
                continue
            self.release(unit_id)
            reclaimed.append(unit_id)
            REGISTRY.counter("fleet.reclaims").inc()
            emit_event("fleet", event="reclaim", unit=unit_id,
                       worker=worker, previous=info.get("worker"),
                       reason="dead_pid" if dead else "expired")
            _LOG.info("fleet.reclaim", unit=unit_id,
                      previous=info.get("worker"),
                      reason="dead_pid" if dead else "expired")
        return reclaimed
