"""Sweep-engine differential suite: one-pass grids vs the reference.

``simulate_pipeline_sweep`` promises *field-for-field identity* with
``PipelineModel.run`` for every config in a grid.  This suite enforces
the whole contract:

* identical ``PipelineResult`` fields on all 23 corpus kernels and a
  synthesized clone, across the base config, every paper design change,
  and a superscalar width sweep;
* identical results with and without telemetry, under a cap that lands
  mid basic-block, and with no cap at all;
* traces that start mid-block, on both timing loops;
* a sweep writes nothing to the artifact store: digests and outcome
  banks are rebuilt in memory;
* serial vs ``--jobs`` grid studies produce identical JSON;
* the predictor outcome banks match the scalar predictor
  specification kind by kind.

It doubles as the tier-1 CI gate for sweep-engine regressions.
"""

import dataclasses
import json

import pytest

from repro.evaluation import design_change_study
from repro.exec.store import default_store, reset_default_store
from repro.obs.metrics import REGISTRY
from repro.obs.runinfo import RunManifest, validate_manifest
from repro.sim import FunctionalSimulator
from repro.sim.trace import DynamicTrace
from repro.uarch import (
    BASE_CONFIG,
    DESIGN_CHANGES,
    simulate_pipeline,
    simulate_pipeline_sweep,
)
from repro.uarch.branch_predictors import (
    simulate_predictor,
    simulate_predictor_reference,
)
from repro.uarch import native
from repro.uarch.sweep import reset_sweep_stats, sweep_stats_snapshot
from repro.workloads import build_workload, workload_names

KERNELS = workload_names()

#: The grids the paper's evaluation actually runs: base + Table 3's
#: design changes + the Figure 8 width sweep.
GRID = ([BASE_CONFIG] + list(DESIGN_CHANGES)
        + [BASE_CONFIG.renamed(f"width-{width}", width=width)
           for width in (2, 4, 8)])

#: Enough instructions to exercise every structure (ROB/LSQ wrap,
#: fetch-queue stalls, L2 traffic) while keeping the corpus run fast.
CAP = 20_000


@pytest.fixture(params=["native", "python"])
def engine(request, monkeypatch):
    """Run a test under both timing engines (native C and Python).

    The native loop quietly stands down when no C compiler is present,
    so the "native" parameter only asserts availability where the
    environment actually provides one.
    """
    if request.param == "python":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset()
    yield request.param
    native.reset()


@pytest.fixture()
def python_engine(monkeypatch):
    """Force the interpreted timing loop (no C loop)."""
    monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset()
    yield
    native.reset()


def result_fields(result):
    """Every comparable field of a PipelineResult (host timing aside)."""
    data = dataclasses.asdict(result)
    data.pop("wall_seconds")
    data["class_counts"] = [int(count) for count in data["class_counts"]]
    return data


def assert_sweep_equivalent(trace, configs, max_instructions=CAP):
    """Sweep the grid and compare each config against the reference."""
    swept = simulate_pipeline_sweep(trace, configs,
                                    max_instructions=max_instructions)
    assert len(swept) == len(configs)
    for config, result in zip(configs, swept):
        reference = simulate_pipeline(trace, config,
                                      max_instructions=max_instructions)
        assert result_fields(result) == result_fields(reference), \
            f"sweep diverges from run for config {config.name!r}"


_TRACES = {}


def kernel_trace(name):
    if name not in _TRACES:
        program = build_workload(name)
        _TRACES[name] = FunctionalSimulator(program).run(
            max_instructions=5_000_000, trace=True)
    return _TRACES[name]


# ----------------------------------------------------------------------
# Corpus-wide differential equivalence
# ----------------------------------------------------------------------
class TestCorpusEquivalence:
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_bit_identical(self, name, engine):
        assert_sweep_equivalent(kernel_trace(name), GRID)

    def test_clone_bit_identical(self, loop_nest_clone_trace, engine):
        assert_sweep_equivalent(loop_nest_clone_trace, GRID)

    def test_uncapped_trace(self, loop_nest_trace, engine):
        assert_sweep_equivalent(loop_nest_trace, GRID,
                                max_instructions=None)

    def test_cap_lands_mid_block(self, loop_nest_trace, engine):
        # 12345 is deliberately not a multiple of any block length, so
        # the cap cuts the final block visit short.
        assert_sweep_equivalent(loop_nest_trace, GRID,
                                max_instructions=12_345)

    def test_empty_grid(self, loop_nest_trace):
        assert simulate_pipeline_sweep(loop_nest_trace, []) == []

    def test_results_follow_config_order(self, loop_nest_trace):
        results = simulate_pipeline_sweep(loop_nest_trace, GRID,
                                          max_instructions=CAP)
        assert [result.config.name for result in results] \
            == [config.name for config in GRID]


# ----------------------------------------------------------------------
# Telemetry parity
# ----------------------------------------------------------------------
class TestTelemetryParity:
    def test_equivalent_with_metrics_enabled(self, loop_nest_trace):
        # Stall/redirect counters are collected only while the registry
        # is enabled; the sweep must mirror run() in both modes.
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            assert_sweep_equivalent(loop_nest_trace, GRID[:4])
        finally:
            if not was_enabled:
                REGISTRY.disable()

    def test_stall_counters_populated(self, loop_nest_trace):
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            [result] = simulate_pipeline_sweep(
                loop_nest_trace, [BASE_CONFIG], max_instructions=CAP)
        finally:
            if not was_enabled:
                REGISTRY.disable()
        assert result.rob_stalls + result.lsq_stalls \
            + result.fetch_queue_stalls + result.redirect_cycles > 0


# ----------------------------------------------------------------------
# Interpreted fallback
# ----------------------------------------------------------------------
class TestFallback:
    @pytest.fixture()
    def shifted_trace(self, loop_nest_trace):
        # Dropping the first instruction makes the trace start mid-block.
        return DynamicTrace(loop_nest_trace.program,
                            loop_nest_trace.pcs[1:].copy(),
                            loop_nest_trace.addrs[1:].copy(),
                            loop_nest_trace.taken[1:].copy())

    def test_mid_block_start_is_exact(self, shifted_trace, engine):
        assert_sweep_equivalent(shifted_trace, GRID[:4])

    def test_fallback_is_still_exact(self, shifted_trace, python_engine):
        reset_sweep_stats()
        assert_sweep_equivalent(shifted_trace, GRID[:4])
        stats = sweep_stats_snapshot()
        assert stats["fallback_configs"] == 4
        assert stats["native_configs"] == 0

    def test_corpus_runs_never_fall_back(self, loop_nest_trace):
        if not native.available():
            pytest.skip("without a C loop every config is a fallback")
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        assert sweep_stats_snapshot()["fallback_configs"] == 0


# ----------------------------------------------------------------------
# Nothing persists: digests and outcome banks live in memory only
# ----------------------------------------------------------------------
class TestPersistence:
    def test_sweep_writes_nothing_to_the_store(
            self, loop_nest_trace, tmp_path, monkeypatch, engine):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "on")
        reset_default_store()
        try:
            store = default_store()
            assert store.enabled
            for holder, attr in ((loop_nest_trace, "_sweep_digest"),
                                 (loop_nest_trace.program,
                                  "_sweep_static")):
                if hasattr(holder, attr):
                    delattr(holder, attr)
            assert_sweep_equivalent(loop_nest_trace, GRID[:4])
            assert store.stats()["writes"] == 0
            assert store.entries() == []
        finally:
            reset_default_store()


# ----------------------------------------------------------------------
# Sweep reuse accounting
# ----------------------------------------------------------------------
class TestSweepStats:
    def test_shared_banks_counted(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["grids"] == 1
        assert stats["configs"] == len(GRID)
        # Width variants share the base cache hierarchy and predictor,
        # so the banks must be deduplicated across the grid.
        assert stats["distinct_hierarchies"] < len(GRID)
        assert stats["distinct_predictors"] < len(GRID)
        reused = (stats["digests_reused"] + stats["cache_banks_reused"]
                  + stats["pred_banks_reused"])
        assert reused > 0

    def test_manifest_carries_sweep_block(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID[:2],
                                max_instructions=CAP)
        manifest = RunManifest.collect("test", target="loop-nest")
        assert manifest.sweep is not None
        assert manifest.sweep["grids"] == 1
        assert validate_manifest(manifest.to_dict()) == []

    def test_manifest_names_replay_engines(self, loop_nest_trace, engine):
        """Each bank built counts toward the engine that replayed it, and
        the manifest's sweep block carries both layers' counts."""
        fresh = DynamicTrace(loop_nest_trace.program,
                             loop_nest_trace.pcs.copy(),
                             loop_nest_trace.addrs.copy(),
                             loop_nest_trace.taken.copy())
        ran = "native" if native.available() else "reference"
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            before = sweep_stats_snapshot()
            # gap (base) and nottaken (design change 4): only the
            # counter predictor needs a replay.
            simulate_pipeline_sweep(fresh, GRID, max_instructions=CAP)
            manifest = RunManifest.collect("test", target="loop-nest")
        finally:
            if not was_enabled:
                REGISTRY.disable()
        sweep = manifest.sweep
        for layer in ("cache", "predictor"):
            for name in ("native", "reference"):
                assert f"{layer}_replays_{name}" in sweep
        assert (sweep["predictor_replays_" + ran]
                - before["predictor_replays_" + ran]) == 1
        assert (sweep["cache_replays_" + ran]
                > before["cache_replays_" + ran])
        assert validate_manifest(manifest.to_dict()) == []

    def test_manifest_omits_sweep_when_none_ran(self):
        reset_sweep_stats()
        manifest = RunManifest.collect("test")
        assert manifest.sweep is None
        assert validate_manifest(manifest.to_dict()) == []


# ----------------------------------------------------------------------
# Native timing loop
# ----------------------------------------------------------------------
class TestNative:
    needs_native = pytest.mark.skipif(not native.available(),
                                      reason="no C compiler on host")

    def test_env_gate_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        native.reset()
        try:
            assert not native.available()
        finally:
            native.reset()

    @needs_native
    def test_native_configs_counted(self, loop_nest_trace):
        reset_sweep_stats()
        simulate_pipeline_sweep(loop_nest_trace, GRID,
                                max_instructions=CAP)
        stats = sweep_stats_snapshot()
        assert stats["native_configs"] == len(GRID)
        assert stats["fallback_configs"] == 0

    @needs_native
    def test_state_handoff_matches_interpreter(self, loop_nest_trace):
        # The C loop and the interpreter share the packed-state layout,
        # so timing [0, k) natively and [k, total) interpreted must land
        # in exactly the state the interpreter reaches alone.
        from repro.uarch.sweep import (_build_cache_bank,
                                       _build_pred_bank,
                                       _initial_state,
                                       _interpreted_range, trace_digest)
        digest = trace_digest(loop_nest_trace)
        config = BASE_CONFIG
        cache_bank = _build_cache_bank(digest, config)
        pred_bank = _build_pred_bank(digest, config)
        total = min(CAP, digest.n)
        split = total // 3 + 1

        mixed = _initial_state(config)
        native.run_range(0, split, digest, config, cache_bank,
                         pred_bank, mixed)
        _interpreted_range(split, total, digest, config, cache_bank,
                           pred_bank, mixed)

        pure = _initial_state(config)
        _interpreted_range(0, total, digest, config, cache_bank,
                           pred_bank, pure)
        assert mixed[0] == pure[0]
        assert mixed[1:5] == pure[1:5]
        assert tuple(mixed[5]) == tuple(pure[5])

    @needs_native
    def test_library_cache_survives_reset(self):
        native.reset()
        assert native.available()


# ----------------------------------------------------------------------
# Grid studies: serial vs --jobs
# ----------------------------------------------------------------------
class TestStudyParallelism:
    def test_design_change_study_jobs_invariant(self):
        serial = design_change_study(["crc32"], max_instructions=CAP,
                                     jobs=1)
        parallel = design_change_study(["crc32"], max_instructions=CAP,
                                       jobs=2)
        assert json.dumps(serial, sort_keys=True, default=str) \
            == json.dumps(parallel, sort_keys=True, default=str)


# ----------------------------------------------------------------------
# Predictor outcome banks vs the scalar specification
# ----------------------------------------------------------------------
class TestPredictorEquivalence:
    KINDS = ["nottaken", "taken", "bimodal", "gap", "gshare"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_loop_nest(self, kind, loop_nest_trace):
        fast = simulate_predictor(loop_nest_trace, kind)
        slow = simulate_predictor_reference(loop_nest_trace, kind)
        assert fast.stats.lookups == slow.stats.lookups
        assert fast.stats.mispredictions == slow.stats.mispredictions

    @pytest.mark.parametrize("kind", KINDS)
    def test_corpus_kernel(self, kind):
        trace = kernel_trace("qsort")
        fast = simulate_predictor(trace, kind)
        slow = simulate_predictor_reference(trace, kind)
        assert fast.stats.lookups == slow.stats.lookups
        assert fast.stats.mispredictions == slow.stats.mispredictions

    @pytest.mark.parametrize("kind,kwargs", [
        ("bimodal", {"entries": 64}),
        ("gshare", {"history_bits": 6}),
        ("gap", {"history_bits": 3, "pc_bits": 4}),
    ])
    def test_sized_variants(self, kind, kwargs, loop_nest_trace):
        fast = simulate_predictor(loop_nest_trace, kind, **kwargs)
        slow = simulate_predictor_reference(loop_nest_trace, kind,
                                            **kwargs)
        assert fast.stats.mispredictions == slow.stats.mispredictions
