"""Throughput of the ``repro.exec`` layer: batched cache sweeps, the
persistent artifact store, and the parallel grid runner.

Three wall-time comparisons, each paired with an equality assertion so
the recorded speedups are guaranteed to be numerics-preserving:

* per-config ``simulate_cache`` loop (the pure-Python reference) vs
  one ``simulate_cache_sweep`` call over the 28-configuration grid,
  which runs each geometry through the native LRU kernel when a C
  compiler is available (identical miss counts);
* cold pipeline builds vs warm artifact-store hits (identical profiles,
  clone assembly, and traces — and the warm path must be faster, since
  a hit skips profiling and synthesis and only re-runs the two
  functional simulations);
* serial vs parallel ``cache_correlation_study`` (identical
  correlations and MPI matrices).
"""

import shutil
import tempfile
import time

import numpy as np

from repro.core.synthesizer import SynthesisParameters
from repro.evaluation import (
    cache_correlation_study,
    clear_artifact_cache,
    format_table,
)
from repro.exec import ArtifactStore, pipeline_artifacts
from repro.uarch import CACHE_SWEEP, simulate_cache, simulate_cache_sweep
from repro.workloads import get_workload

from _shared import emit, run_once

NAMES = ["crc32", "sha", "bitcount"]
GRID_NAMES = ["adpcm", "bitcount", "crc32", "dijkstra", "qsort", "sha"]
PARAMS = SynthesisParameters(dynamic_instructions=100_000)
MAX_FUNCTIONAL = 5_000_000
JOBS = 2


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _build_all(store):
    return [pipeline_artifacts(name, get_workload(name).source(), PARAMS,
                               max_instructions=MAX_FUNCTIONAL, store=store)
            for name in NAMES]


def _measure():
    rows = []

    # -- batched sweep vs per-config loop (one shared address stream) --
    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        store = ArtifactStore(root=root, enabled=True)
        cold, cold_seconds = _timed(lambda: _build_all(store))
        addresses = cold[0].trace.memory_addresses()
        serial_stats, serial_seconds = _timed(
            lambda: [simulate_cache(addresses, config)
                     for config in CACHE_SWEEP])
        batched_stats, batched_seconds = _timed(
            lambda: simulate_cache_sweep(addresses, CACHE_SWEEP))
        assert ([stats.misses for stats in batched_stats]
                == [stats.misses for stats in serial_stats])
        rows.append(["sweep 28 configs, per-config loop", serial_seconds, 1.0])
        rows.append(["sweep 28 configs, batched", batched_seconds,
                     serial_seconds / batched_seconds])

        # -- cold pipeline vs warm artifact-store hit -------------------
        warm, warm_seconds = _timed(lambda: _build_all(store))
        assert store.stats()["hits"] == len(NAMES)
        for before, after in zip(cold, warm):
            assert before.profile.to_dict() == after.profile.to_dict()
            assert before.clone.asm_source == after.clone.asm_source
            assert np.array_equal(before.trace.addrs, after.trace.addrs)
        assert warm_seconds < cold_seconds
        rows.append([f"pipeline x{len(NAMES)}, cold build", cold_seconds, 1.0])
        rows.append([f"pipeline x{len(NAMES)}, warm cache", warm_seconds,
                     cold_seconds / warm_seconds])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # -- serial vs parallel experiment grid ----------------------------
    # Drop the in-process memo before each timed run so both paths do
    # the full per-workload work (the persistent store may still serve
    # artifacts — identically to both, and that IS the deployed shape:
    # a warm disk cache behind a cold process).
    clear_artifact_cache()
    study_serial, grid_serial_seconds = _timed(
        lambda: cache_correlation_study(names=GRID_NAMES, jobs=1))
    clear_artifact_cache()
    study_parallel, grid_parallel_seconds = _timed(
        lambda: cache_correlation_study(names=GRID_NAMES, jobs=JOBS))
    assert study_parallel["correlations"] == study_serial["correlations"]
    assert study_parallel["mpi_real"] == study_serial["mpi_real"]
    assert study_parallel["mpi_clone"] == study_serial["mpi_clone"]
    rows.append(["correlation study, jobs=1", grid_serial_seconds, 1.0])
    rows.append([f"correlation study, jobs={JOBS}", grid_parallel_seconds,
                 grid_serial_seconds / grid_parallel_seconds])
    return rows


def test_exec_throughput(benchmark):
    rows = run_once(benchmark, _measure)
    emit("exec_throughput", format_table(
        ["stage", "seconds", "speedup"], rows, float_format="{:.3f}"),
        data={"rows": rows, "names": NAMES, "grid_names": GRID_NAMES,
              "jobs": JOBS, "configs": len(CACHE_SWEEP)})
