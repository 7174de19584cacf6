"""Fleet orchestration: end-to-end runs, crash/resume byte-identity."""

import json
import os
import threading
import time

import pytest

import repro.uarch.incremental as incremental
from repro.fleet import (
    FleetError,
    FleetQueue,
    FleetWorker,
    Recipe,
    collect_matrix,
    fleet_status,
    init_run,
    matrix_bytes,
    run_fleet,
)
from repro.fleet.run import run_units
from repro.uarch.sweep import sweep_stats_snapshot


def dead_pid():
    """A pid that provably does not exist right now."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid

PAIR = Recipe(name="pair", kernels=["crc32"], pipeline_cap=20_000,
              axes={"width": [1, 2]})

GRID = Recipe(name="grid", kernels=["crc32", "sha"], pipeline_cap=20_000,
              axes={"width": [1, 2], "predictor": ["gap", "nottaken"]})


def result_snapshot(run_dir):
    """(bytes, mtime_ns) of every published result file."""
    results_dir = os.path.join(run_dir, "results")
    snapshot = {}
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        with open(path, "rb") as handle:
            snapshot[name] = (handle.read(), os.stat(path).st_mtime_ns)
    return snapshot


class TestRun:
    def test_single_worker_completes_and_exports(self, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, PAIR)
        assert summary["complete"] is True
        assert summary["cells"] == summary["completed"] == 2
        assert summary["executed"] == 2 and summary["skipped"] == 0
        assert os.path.exists(os.path.join(run_dir, "matrix.json"))
        matrix = collect_matrix(run_dir)
        assert [row["config"] for row in matrix["cells"]] == \
            ["width=1", "width=2"]
        for row in matrix["cells"]:
            metrics = row["metrics"]
            assert metrics["instructions"] > 0
            assert metrics["cycles"] > 0
            assert metrics["power"] > 0

    def test_resume_skips_completed_byte_for_byte(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        before = result_snapshot(run_dir)
        matrix_before = open(os.path.join(run_dir, "matrix.json"),
                             "rb").read()
        summary = run_fleet(run_dir)  # recipe=None: the resume path
        assert summary["executed"] == 0
        assert summary["skipped"] == 2
        assert result_snapshot(run_dir) == before  # bytes AND mtimes
        assert open(os.path.join(run_dir, "matrix.json"),
                    "rb").read() == matrix_before

    def test_two_workers_match_one_worker_bytes(self, tmp_path):
        solo = str(tmp_path / "solo")
        duo = str(tmp_path / "duo")
        run_fleet(solo, GRID, workers=1)
        summary = run_fleet(duo, GRID, workers=2)
        assert summary["complete"] is True
        assert matrix_bytes(duo) == matrix_bytes(solo)

    def test_run_dir_bound_to_one_recipe(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="refusing"):
            init_run(run_dir, GRID)

    def test_incomplete_matrix_refuses_collection(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="incomplete"):
            collect_matrix(run_dir)

    def test_real_subject_run_stores_nothing(self, tmp_path, monkeypatch):
        from repro.exec import default_store, reset_default_store
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        reset_default_store()
        try:
            run_fleet(str(tmp_path / "run"), PAIR)
            assert default_store().entries() == []
            assert not (cache_dir / "pins").exists()
        finally:
            reset_default_store()

    def test_journal_lands_in_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        kinds = {event.get("event") for event in events
                 if event.get("kind") == "fleet"}
        assert {"run_begin", "claim", "complete", "run_end"} <= kinds
        assert any(event.get("kind") == "progress"
                   and event.get("unit") == "cells" for event in events)


class TestStatus:
    def test_fresh_dir_status(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["cells"] == 2 and status["completed"] == 0
        assert status["pending"] == 2 and not status["complete"]
        assert status["matrix"] is False

    def test_complete_status_carries_worker_summaries(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["complete"] is True and status["matrix"] is True
        assert status["leased"] == 0
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 2

    def test_not_a_run_dir(self, tmp_path):
        with pytest.raises(FleetError, match="not a fleet run"):
            fleet_status(str(tmp_path / "nope"))


class TestCrashResume:
    """The acceptance scenario: SIGKILL a worker mid-unit, resume, and
    get a byte-identical matrix with completed cells skipped."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        crashed = run_fleet(run_dir, GRID, workers=1, chaos="0:2")
        assert crashed["complete"] is False
        assert crashed["dead_workers"] == 1
        assert crashed["completed"] == 2  # chaos fired after 2 cells
        # The stranded mid-unit lease was reclaimed by the orchestrator.
        queue = FleetQueue(run_dir)
        assert queue.leased_ids() - queue.completed_ids() == set()

        survivors = result_snapshot(run_dir)
        resumed = run_fleet(run_dir)
        assert resumed["complete"] is True
        assert resumed["skipped"] == 2
        assert resumed["executed"] == 6
        # Surviving results were never rewritten (bytes and mtimes)...
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        # ...no duplicates appeared (one file per unit: 2 kernels x 2
        # predictors)...
        assert len(after) == 4
        # ...and the final matrix is byte-identical to the
        # never-interrupted reference run.
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_sibling_reclaims_dead_workers_cell_live(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        # Worker 0 dies mid-unit in its first (two-cell) unit; worker 1
        # must pick up the stranded lease (dead-pid fast path) and
        # finish the whole matrix in this single invocation.
        summary = run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        assert summary["dead_workers"] == 1
        assert summary["complete"] is True
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_reclaim_event_journaled(self, tmp_path):
        run_dir = str(tmp_path / "chaotic")
        run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        reclaims = [event for event in events
                    if event.get("kind") == "fleet"
                    and event.get("event") == "reclaim"]
        assert reclaims
        assert any(event.get("reason") == "dead_pid"
                   for event in reclaims)

    def test_dead_thief_own_shard_lease_recovered(self, tmp_path):
        """Regression: a dead thief's lease on an own-shard unit must be
        re-run by the shard owner, not livelock the poll loop (thieves
        never steal from their own shard, so after the reclaim the
        owner can be the only worker able to claim it)."""
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1)
        target = worker.unit_shards[0][0]
        record = {"worker": "thief", "pid": dead_pid(),
                  "host": worker.queue.host, "ts": 9_999_999_999.0}
        with open(worker.queue.lease_path(target.unit_id), "w") as fh:
            json.dump(record, fh)
        done = {}
        thread = threading.Thread(
            target=lambda: done.setdefault("summary", worker.run()),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert "summary" in done, "worker livelocked on own-shard unit"
        assert done["summary"]["executed"] == 2
        assert FleetQueue(run_dir).completed_ids() == \
            {unit.unit_id for unit in worker.units}


class TestHeartbeat:
    def test_lease_refreshed_while_cell_runs(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1, lease_ttl=0.2)
        cell = worker.shards[0][0]
        assert worker.queue.claim(cell.cell_id, worker.worker_id)
        before = worker.queue.lease_info(cell.cell_id)["ts"]
        with worker._heartbeating(cell.cell_id):
            time.sleep(0.5)
        assert worker.queue.lease_info(cell.cell_id)["ts"] > before
        worker.queue.release(cell.cell_id)

    def test_slow_cells_never_expiry_stolen_from_live_workers(
            self, tmp_path):
        """With a TTL far below cell runtime, live same-host leases must
        survive (no 'expired' reclaims, no duplicated execution)."""
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID, workers=2, lease_ttl=0.01)
        assert summary["complete"] is True
        status = fleet_status(run_dir)
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 8
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        assert not any(event.get("event") == "reclaim"
                       and event.get("reason") == "expired"
                       for event in events
                       if event.get("kind") == "fleet")


class TestUnits:
    def test_results_hold_one_file_per_unit(self, tmp_path):
        run_dir = str(tmp_path / "run")
        cells = init_run(run_dir, GRID)
        run_fleet(run_dir)
        units = run_units(cells)
        assert len(units) == 4  # 2 kernels x 2 predictors, 2 widths each
        assert sorted(os.listdir(os.path.join(run_dir, "results"))) == \
            sorted(f"{unit.unit_id}.json" for unit in units)
        for unit in units:
            payload = FleetQueue(run_dir).read_result(unit.unit_id)
            assert payload["schema"] == 2
            assert [entry["cell"] for entry in payload["cells"]] == \
                [cell.cell_id for cell in unit.cells]
            assert all(entry["wall_seconds"] > 0
                       for entry in payload["cells"])

    def test_one_sweep_per_unit_one_plan_per_config(self, tmp_path):
        before = sweep_stats_snapshot()
        run_fleet(str(tmp_path / "run"), GRID)
        after = sweep_stats_snapshot()

        def delta(key):
            return after[key] - before[key]
        assert delta("grids") == 4
        assert delta("configs") == 8
        # Every config after the first of its trace's session is
        # planned against the config before it.
        assert delta("incremental_plans") == 8 - 2


def fail_for_kernel(monkeypatch, kernel):
    real = incremental.simulate_pipeline_sweep

    def sweep(trace, configs, **kwargs):
        if trace.program.name == kernel:
            raise RuntimeError(f"injected fault in {kernel}")
        return real(trace, configs, **kwargs)
    monkeypatch.setattr(incremental, "simulate_pipeline_sweep", sweep)


class TestFailures:
    def test_failed_unit_is_contained_then_retried(self, tmp_path,
                                                   monkeypatch):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "run")
        with monkeypatch.context() as patch:
            fail_for_kernel(patch, "sha")
            summary = run_fleet(run_dir, GRID)
        assert summary["dead_workers"] == 0
        assert summary["completed"] == 4 and summary["failed"] == 4
        assert summary["complete"] is False
        assert not os.path.exists(os.path.join(run_dir, "matrix.json"))

        status = fleet_status(run_dir)
        assert status["completed"] == 4 and status["failed"] == 4
        assert status["pending"] == 0
        assert {failure["kernel"] for failure in status["failures"]} == \
            {"sha"}
        assert len({failure["cell_id"]
                    for failure in status["failures"]}) == 4
        assert all(failure["error"] == "RuntimeError: injected fault in sha"
                   for failure in status["failures"])

        survivors = result_snapshot(run_dir)
        resumed = run_fleet(run_dir)  # fault removed: resume retries
        assert resumed["complete"] is True
        assert resumed["skipped"] == 4 and resumed["executed"] == 4
        assert resumed["failed"] == 0
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        assert fleet_status(run_dir)["failures"] == []
        assert open(os.path.join(run_dir, "matrix.json"), "rb").read() \
            == matrix_bytes(reference)

    def test_failure_is_journaled(self, tmp_path, monkeypatch):
        run_dir = str(tmp_path / "run")
        fail_for_kernel(monkeypatch, "crc32")
        run_fleet(run_dir, PAIR)
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        [failed] = [event for event in events
                    if event.get("kind") == "fleet"
                    and event.get("event") == "fail"]
        assert failed["error"] == {"type": "RuntimeError",
                                   "message": "injected fault in crc32"}


class TestOldRunDirectory:
    def test_schema_1_results_are_refused(self, tmp_path):
        run_dir = str(tmp_path / "run")
        cells = init_run(run_dir, GRID)
        # A schema-1 run published one file per cell, named by cell id.
        FleetQueue(run_dir).complete(cells[0].cell_id, {
            "schema": 1, "cell": cells[0].to_dict(),
            "metrics": {"cycles": 1}})
        before = sorted(os.listdir(os.path.join(run_dir, "results")))
        for action in (run_fleet, fleet_status):
            with pytest.raises(FleetError,
                               match="result schema 1.*fresh run directory"):
                action(run_dir)
        assert sorted(os.listdir(os.path.join(run_dir, "results"))) == \
            before
        assert not os.listdir(os.path.join(run_dir, "leases"))
