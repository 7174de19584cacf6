"""Fleet run orchestration: init, run, resume, status, matrix export.

A run directory is the whole state of one matrix execution::

    <run>/recipe.json    canonical recipe (digest-checked on resume)
    <run>/cells.json     the expanded cell list
    <run>/leases/        live unit claims (FleetQueue)
    <run>/results/       one file per completed unit: its cells' metrics
    <run>/failed/        one file per failed unit: the exception
    <run>/workers/       per-worker summaries
    <run>/matrix.json    canonical matrix, written when complete
    <run>/journal-*.jsonl  run journal (claims, progress, spans)

Work is leased, timed and published per *unit* — the cells that share
one trace and one cache/predictor bank pair
(:func:`repro.fleet.scheduler.build_units`) — but every count reported
here (``completed``, ``executed``, ``skipped``, ``failed``,
``pending``) is in cells.

:func:`run_fleet` expands the recipe once, reclaims abandoned leases,
and fans the shards out to worker processes.  Workers re-acquire every
trace they time; the artifact store holds only clone cells' profiles
and clone sources, so a store eviction mid-run costs at most one
re-synthesis.  Invoking it again on the same directory *is* the
resume path: completed units are skipped byte-for-byte (their result
files are never rewritten), failed units are retried, only pending
units execute.  When the last cell lands the canonical matrix —
deterministic metrics only, sorted keys — is exported, so an
interrupted-then-resumed run produces a ``matrix.json`` byte-identical
to an uninterrupted one.  While any cell has failed no matrix is
written.
"""

import json
import multiprocessing
import os
import time

from repro.fleet.queue import FleetQueue
from repro.fleet.recipe import (
    Recipe,
    RecipeError,
    load_recipe,
    recipe_from_dict,
    save_recipe,
)
from repro.fleet.scheduler import build_units, count_cells, order_cells
from repro.fleet.worker import (
    CELLS_FILENAME,
    RECIPE_FILENAME,
    RESULT_SCHEMA_VERSION,
    WORKERS_DIR,
    FleetWorker,
    parse_chaos,
    worker_entry,
)
from repro.obs.journal import active_journal, configure_journal, emit_event
from repro.obs.logging import get_logger

_LOG = get_logger("repro.fleet.run")

#: Canonical matrix layout version.
MATRIX_SCHEMA_VERSION = 1

MATRIX_FILENAME = "matrix.json"


class FleetError(RuntimeError):
    """A run directory in a state the fleet cannot proceed from."""


# ----------------------------------------------------------------------
# Run directory state
# ----------------------------------------------------------------------
def init_run(run_dir, recipe):
    """Create (or validate) a run directory for ``recipe``.

    Re-initializing with a *different* recipe is refused — a run
    directory is bound to one matrix for its whole life, which is what
    makes resume and the byte-identical export sound.  A recipe whose
    configs do not validate raises ``RecipeError`` before anything is
    written.  Returns the expanded cells.
    """
    cells = recipe.expand()
    os.makedirs(run_dir, exist_ok=True)
    recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
    if os.path.exists(recipe_path):
        existing = load_recipe(recipe_path)
        if existing.digest() != recipe.digest():
            raise FleetError(
                f"run directory {run_dir} was initialized for recipe "
                f"{existing.name!r} ({existing.digest()}); refusing to "
                f"run {recipe.name!r} ({recipe.digest()}) in it")
    else:
        save_recipe(recipe, recipe_path)
        with open(os.path.join(run_dir, CELLS_FILENAME), "w") as handle:
            handle.write(json.dumps(
                {"schema": MATRIX_SCHEMA_VERSION,
                 "recipe_digest": recipe.digest(),
                 "cells": [cell.to_dict() for cell in cells]},
                sort_keys=True) + "\n")
    FleetQueue(run_dir).ensure_dirs()
    return cells


def run_units(cells):
    """The run's units in affinity order (the same units every worker
    builds from its shard, whatever the shard count)."""
    return build_units(order_cells(cells))


def _check_result_schema(run_dir, queue, units):
    """Refuse a run directory holding results of another layout.

    Schema-1 directories hold one result file per cell; their names are
    no unit ids, so they would be neither read nor replaced.
    """
    stale = sorted(queue.completed_ids() - {unit.unit_id for unit in units})
    if not stale:
        return
    payload = queue.read_result(stale[0]) or {}
    schema = payload.get("schema", "unknown")
    raise FleetError(
        f"run directory {run_dir} holds {len(stale)} result file(s) in "
        f"result schema {schema} (e.g. results/{stale[0]}.json); this "
        f"version reads only schema {RESULT_SCHEMA_VERSION} (one file "
        f"per unit). Start a fresh run directory for this recipe.")


def load_run_recipe(run_dir):
    recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
    if not os.path.exists(recipe_path):
        raise FleetError(f"{run_dir} is not a fleet run directory "
                         f"(no {RECIPE_FILENAME})")
    return load_recipe(recipe_path)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_fleet(run_dir, recipe=None, workers=1, lease_ttl=None,
              chaos=None):
    """Execute (or resume) a fleet run; returns a summary dict.

    ``recipe`` may be a :class:`Recipe`, a recipe dict, or ``None`` to
    load the run directory's own recipe (the resume path).  ``workers``
    is the process count; ``chaos`` is the fault-injection spec passed
    through to :class:`FleetWorker` (tests / CI smoke only).
    """
    if recipe is None:
        recipe = load_run_recipe(run_dir)
    elif isinstance(recipe, dict):
        recipe = recipe_from_dict(recipe)
    elif not isinstance(recipe, Recipe):
        raise RecipeError(f"not a recipe: {recipe!r}")
    cells = init_run(run_dir, recipe)
    units = run_units(cells)
    workers = max(1, int(workers))
    chaos = parse_chaos(chaos)
    lease_kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
    queue = FleetQueue(run_dir, **lease_kwargs)
    _check_result_schema(run_dir, queue, units)

    own_journal = active_journal() is None
    if own_journal:
        # Journal into the run directory itself (never fresh: resumed
        # runs append to the same stream) so `repro tail <run_dir>`
        # follows progress with no extra flags.
        configure_journal(run_dir)
    started = time.perf_counter()
    try:
        # A resume retries every unit that failed before.
        retried = count_cells(units, queue.failed_ids())
        queue.clear_failures()
        reclaimed = queue.reclaim(worker="orchestrator")
        completed_before = count_cells(units, queue.completed_ids())
        emit_event("fleet", event="run_begin", recipe=recipe.name,
                   recipe_digest=recipe.digest(), cells=len(cells),
                   units=len(units), completed=completed_before,
                   workers=workers, reclaimed=len(reclaimed),
                   retried=retried, resumed=completed_before > 0)
        emit_event("progress", done=completed_before, total=len(cells),
                   unit="cells", label=recipe.name)
        summaries = []
        dead_workers = 0
        if completed_before < len(cells):
            if workers == 1 and chaos is None:
                summaries.append(FleetWorker(
                    run_dir, 0, 1, lease_ttl=lease_ttl,
                    cells=cells).run())
            else:
                dead_workers = _spawn_workers(run_dir, workers,
                                              lease_ttl, chaos, cells)
        # A chaos-killed (or crashed) worker strands its in-flight
        # lease; siblings usually reclaim it live, but if *they* exited
        # first the run ends incomplete — exactly what resume is for.
        queue.reclaim(worker="orchestrator")
        completed = count_cells(units, queue.completed_ids())
        failed = count_cells(units, queue.failed_ids())
        complete = completed >= len(cells)
        if complete:
            export_matrix(run_dir, cells)
        summary = {
            "run_dir": run_dir,
            "recipe": recipe.name,
            "recipe_digest": recipe.digest(),
            "cells": len(cells),
            "completed": completed,
            "skipped": completed_before,
            "executed": completed - completed_before,
            "failed": failed,
            "workers": workers,
            "dead_workers": dead_workers,
            "complete": complete,
            "wall_seconds": round(time.perf_counter() - started, 6),
            "worker_summaries": summaries,
        }
        emit_event("fleet", event="run_end", **{
            key: value for key, value in summary.items()
            if key != "worker_summaries"})
        return summary
    finally:
        if own_journal:
            configure_journal(None)


def _spawn_workers(run_dir, workers, lease_ttl, chaos, cells):
    """Fan out worker processes; returns how many died abnormally.

    Plain ``multiprocessing.Process`` rather than a pool: a SIGKILL-ed
    worker must not poison its siblings (a broken pool would), and the
    queue on disk *is* the work distribution — processes share nothing.
    """
    processes = []
    for index in range(workers):
        process = multiprocessing.Process(
            target=worker_entry,
            args=(run_dir, index, workers, lease_ttl, chaos, cells),
            name=f"fleet-w{index}")
        process.start()
        processes.append(process)
    dead = 0
    for process in processes:
        process.join()
        if process.exitcode != 0:
            dead += 1
            _LOG.warning("fleet.worker_died", worker=process.name,
                         exitcode=process.exitcode)
    return dead


# ----------------------------------------------------------------------
# Status / export
# ----------------------------------------------------------------------
def fleet_status(run_dir):
    """Queue/progress snapshot of a run directory (read-only), in
    cells; ``failures`` lists every failed cell with its cause."""
    recipe = load_run_recipe(run_dir)
    cells = recipe.expand()
    units = run_units(cells)
    queue = FleetQueue(run_dir)
    _check_result_schema(run_dir, queue, units)
    completed = queue.completed_ids()
    failed = queue.failed_ids()
    leased = queue.leased_ids() - completed - failed
    failures = []
    for unit in units:
        if unit.unit_id not in failed:
            continue
        error = (queue.read_failure(unit.unit_id) or {}).get("error") or {}
        cause = f"{error.get('type', 'unknown')}: {error.get('message', '')}"
        failures.extend({"cell_id": cell.cell_id, "kernel": cell.kernel,
                         "config": cell.config.name, "unit": unit.unit_id,
                         "error": cause} for cell in unit.cells)
    workers = []
    workers_dir = os.path.join(run_dir, WORKERS_DIR)
    if os.path.isdir(workers_dir):
        for name in sorted(os.listdir(workers_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(workers_dir, name)) as handle:
                    workers.append(json.load(handle))
            except (OSError, ValueError):
                continue
    n_completed = count_cells(units, completed)
    return {
        "run_dir": run_dir,
        "recipe": recipe.name,
        "recipe_digest": recipe.digest(),
        "cells": len(cells),
        "completed": n_completed,
        "failed": len(failures),
        "leased": count_cells(units, leased),
        "pending": len(cells) - n_completed - len(failures),
        "complete": n_completed >= len(cells),
        "matrix": os.path.exists(os.path.join(run_dir, MATRIX_FILENAME)),
        "failures": failures,
        "workers": workers,
    }


def collect_matrix(run_dir, cells=None):
    """The canonical matrix dict (raises FleetError if incomplete).

    Strictly deterministic content: recipe identity plus each cell's
    id/coordinates and :func:`~repro.fleet.worker.cell_metrics` block,
    in expansion order.  Worker attribution, timestamps, and wall times
    stay in the per-unit result files and are excluded here.  ``cells``
    is the recipe's expansion when the caller already has it.
    """
    recipe = load_run_recipe(run_dir)
    if cells is None:
        cells = recipe.expand()
    queue = FleetQueue(run_dir)
    metrics = {}
    for unit in run_units(cells):
        payload = queue.read_result(unit.unit_id)
        if payload is None:
            continue
        if payload.get("schema") != RESULT_SCHEMA_VERSION:
            raise FleetError(
                f"result {queue.result_path(unit.unit_id)} has result "
                f"schema {payload.get('schema')}, expected "
                f"{RESULT_SCHEMA_VERSION}")
        for entry in payload["cells"]:
            metrics[entry["cell"]] = entry["metrics"]
    missing = [cell.cell_id for cell in cells if cell.cell_id not in metrics]
    if missing:
        raise FleetError(
            f"matrix incomplete: {len(missing)} of {len(cells)} cells "
            f"missing (first: {missing[0]})")
    return {
        "schema": MATRIX_SCHEMA_VERSION,
        "recipe": recipe.name,
        "recipe_digest": recipe.digest(),
        "cells": [{
            "cell_id": cell.cell_id,
            "kernel": cell.kernel,
            "subject": cell.subject,
            "seed": cell.seed,
            "config": cell.config.name,
            "metrics": metrics[cell.cell_id],
        } for cell in cells],
    }


def matrix_bytes(run_dir, cells=None):
    """The canonical matrix serialization (the byte-identity contract)."""
    matrix = collect_matrix(run_dir, cells)
    return (json.dumps(matrix, indent=2, sort_keys=True) + "\n").encode()


def export_matrix(run_dir, cells=None):
    """Write ``matrix.json`` atomically; returns its path."""
    payload = matrix_bytes(run_dir, cells)
    path = os.path.join(run_dir, MATRIX_FILENAME)
    staging = path + f".tmp-{os.getpid()}"
    with open(staging, "wb") as handle:
        handle.write(payload)
    os.rename(staging, path)
    return path
