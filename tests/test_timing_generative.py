"""Generative differential tests for the timing layer's engines.

Hypothesis draws machine configs at the edges the paper's grid never
visits: width 1 and wider, ROB/LSQ/fetch-queue sizes of 1 and
non-powers of two, single-unit FU pools, in-order issue, and zero
latencies and mispredict penalties.  Each config times capped corpus
and clone traces (including a cap that cuts a block visit short) four
ways, which must agree field for field: ``simulate_pipeline_sweep`` on
the native C loop, the same sweep under ``REPRO_NATIVE=off`` (the
interpreted loop), ``PipelineModel.run_reference`` (the spec) and
``PipelineModel.run``.  Each sweep must also count every config
against the engine that timed it.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_clone, profile_trace
from repro.core.synthesizer import SynthesisParameters
from repro.isa.columns import columns_for
from repro.obs.metrics import REGISTRY
from repro.sim import FunctionalSimulator
from repro.sim.trace import DynamicTrace
from repro.uarch import MachineConfig, PipelineModel, native
from repro.uarch.branch_predictors import PREDICTOR_KINDS
from repro.uarch.cache import CacheConfig
from repro.uarch.sweep import (reset_sweep_stats, simulate_pipeline_sweep,
                               sweep_stats_snapshot)
from repro.workloads import build_workload

#: Corpus traces are cut to these lengths: small enough for the Python
#: reference, odd so the trace itself ends inside a block.
CORPUS_CAPS = {"crc32": 6_001, "qsort": 4_999, "sha": 5_003}


def _prefix(trace, length):
    return DynamicTrace(trace.program, trace.pcs[:length].copy(),
                        trace.addrs[:length].copy(),
                        trace.taken[:length].copy())


def _mid_visit_cap(trace):
    """A cap past the warm-up whose next instruction is not a block
    leader, so the last timed block visit is cut short."""
    leaders = columns_for(trace.program).is_block_start[trace.pcs]
    for position in range(min(len(trace) - 1, 1_500), 0, -1):
        if not leaders[position]:
            return position
    return len(trace)


@pytest.fixture(scope="module")
def traces(loop_nest_clone_trace):
    full = {name: FunctionalSimulator(build_workload(name)).run(
        max_instructions=5_000_000, trace=True) for name in CORPUS_CAPS}
    built = [_prefix(full[name], cap) for name, cap in CORPUS_CAPS.items()]
    clone = make_clone(profile_trace(full["crc32"]), SynthesisParameters(
        dynamic_instructions=6_000, seed=7))
    built.append(_prefix(FunctionalSimulator(clone.program).run(
        max_instructions=5_000_000, trace=True), 7_001))
    built.append(loop_nest_clone_trace)
    return [(trace, _mid_visit_cap(trace)) for trace in built]


@pytest.fixture(scope="module", params=["native", "off"])
def engine(request):
    """Select the sweep's timing loop for a whole module pass.

    Module-scoped (Hypothesis re-runs a test body many times per
    fixture instance), so the environment is set and restored by hand.
    Telemetry is on so the stall counters are compared too.
    """
    previous = os.environ.get("REPRO_NATIVE")
    if request.param == "off":
        os.environ["REPRO_NATIVE"] = "off"
    native.reset()
    if request.param == "native" and not native.available():
        pytest.skip("no C compiler on host")
    was_enabled = REGISTRY.enabled
    REGISTRY.enable()
    yield request.param
    if not was_enabled:
        REGISTRY.disable()
    if previous is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = previous
    native.reset()


CACHES = st.sampled_from([
    CacheConfig(256, 1, 16), CacheConfig(1024, 2, 32),
    CacheConfig(16 * 1024, 2, 32), CacheConfig(512, "full", 64),
    CacheConfig(96, 3, 32),
])

SIZES = st.one_of(st.just(1), st.integers(1, 40))
UNITS = st.integers(1, 3)
LATENCIES = st.one_of(st.just(0), st.integers(0, 14))


@st.composite
def machine_configs(draw):
    predictor = draw(st.sampled_from(PREDICTOR_KINDS))
    return MachineConfig(
        name="generated",
        width=draw(st.sampled_from([1, 1, 2, 3, 4, 8])),
        fetch_queue=draw(SIZES), rob_size=draw(SIZES),
        lsq_size=draw(SIZES),
        n_int_alu=draw(UNITS), n_int_mul=draw(UNITS),
        n_fp_alu=draw(UNITS), n_fp_mul=draw(UNITS),
        n_mem_ports=draw(UNITS),
        in_order=draw(st.booleans()),
        l1i=draw(CACHES), l1d=draw(CACHES),
        l2=draw(st.one_of(st.none(), CACHES)),
        l1_latency=draw(st.integers(0, 3)),
        l2_latency=draw(LATENCIES),
        memory_latency=draw(st.one_of(st.just(0), st.integers(0, 60))),
        predictor=predictor,
        mispredict_penalty=draw(LATENCIES),
        latency_ialu=draw(LATENCIES), latency_imul=draw(LATENCIES),
        latency_idiv=draw(LATENCIES), latency_falu=draw(LATENCIES),
        latency_fmul=draw(LATENCIES), latency_fdiv=draw(LATENCIES),
    )


#: ``None`` times the whole trace; "mid" resolves to the trace's
#: mid-visit cap.
CAPS = st.one_of(st.none(), st.integers(1, 2_500), st.just("mid"))


def result_fields(result):
    data = dataclasses.asdict(result)
    data.pop("wall_seconds")
    data["class_counts"] = [int(count) for count in data["class_counts"]]
    return data


@settings(max_examples=40, deadline=None)
@given(configs=st.lists(machine_configs(), min_size=1, max_size=3),
       which=st.integers(0, 4), cap=CAPS)
def test_sweep_matches_reference_and_run(engine, traces, configs, which,
                                         cap):
    trace, mid_visit = traces[which]
    if cap == "mid":
        cap = mid_visit
    reset_sweep_stats()
    swept = simulate_pipeline_sweep(trace, configs, max_instructions=cap)
    stats = sweep_stats_snapshot()
    assert stats["native_configs"] + stats["fallback_configs"] \
        == stats["configs"] == len(configs)
    ran = "native_configs" if engine == "native" else "fallback_configs"
    assert stats[ran] == len(configs)
    for config, result in zip(configs, swept):
        model = PipelineModel(config)
        reference = model.run_reference(trace, max_instructions=cap)
        assert result_fields(result) == result_fields(reference), config
        assert result_fields(model.run(trace, max_instructions=cap)) \
            == result_fields(reference), config
