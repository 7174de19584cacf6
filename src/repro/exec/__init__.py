"""Experiment execution engine (``repro.exec``).

Three cooperating layers make the (workload × microarchitecture) grid —
the paper's whole evaluation — cheap to re-run:

* :mod:`repro.exec.store` — a persistent content-addressed artifact
  cache (profiles, clone assembly) shared across processes, keyed so
  hits are bit-identical to cold runs;
* :mod:`repro.exec.artifacts` — the cache-backed pipeline runner that
  experiments, the CLI, and benchmarks all call;
* :mod:`repro.exec.parallel` — order-preserving process-pool mapping
  with ``--jobs`` / ``REPRO_JOBS`` resolution and a bit-identical
  serial fallback.
"""

from repro.exec.artifacts import (
    DEFAULT_MAX_FUNCTIONAL,
    Artifacts,
    pipeline_artifacts,
)
from repro.exec.parallel import parallel_map, resolve_jobs, shared_state_map
from repro.exec.store import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    artifact_key,
    cache_enabled,
    default_cache_dir,
    default_store,
    reset_default_store,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "Artifacts",
    "ArtifactStore",
    "DEFAULT_MAX_FUNCTIONAL",
    "artifact_key",
    "cache_enabled",
    "default_cache_dir",
    "default_store",
    "parallel_map",
    "pipeline_artifacts",
    "reset_default_store",
    "resolve_jobs",
    "shared_state_map",
]
