"""The benchmark's own accounting: medians, failures, spans, self time.

Run with ``python3 -m pytest perfbench/tests`` from the root of a
checkout; nothing here needs the program under test.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import layers  # noqa: E402
import tracing  # noqa: E402
from accounting import (FailureLedger, layer_self_seconds,  # noqa: E402
                        self_times, summarize)
from workloads import PER_LAYER  # noqa: E402


# ----------------------------------------------------------------------
# Median and sample count
# ----------------------------------------------------------------------
def test_summarize_reports_median_and_sample_count():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    assert summarize([4, 1, 3, 2]) == {"median": 2.5, "n": 4}


def test_summarize_refuses_an_empty_series():
    with pytest.raises(ValueError):
        summarize([])


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def test_ledger_counts_each_failed_operation_once():
    ledger = FailureLedger()
    ledger.attempt(4)
    ledger.fail("round1:crc32", "LintGateError")
    ledger.fail("round1:crc32", "check mismatch")  # same op, still one
    ledger.fail("round1:sha", "exception")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.failed_frac == 0.5
    assert ledger.reasons()[0] == "round1:crc32: LintGateError"


def test_ledger_counts_groups_and_extra_failures():
    ledger = FailureLedger()
    ledger.attempt(100)
    ledger.fail("round1:table3", "raised", count=30)
    ledger.fail_extra("a fleet worker died")
    assert ledger.failed == 31


def test_ledger_never_reports_more_failures_than_attempts():
    ledger = FailureLedger()
    ledger.attempt(2)
    ledger.fail("round1:run_fleet", "raised", count=50)
    assert ledger.failed == 2
    assert ledger.failed_frac == 1.0


def test_ledger_with_no_attempts_is_all_failed():
    assert FailureLedger().failed_frac == 1.0


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def _span(ident, parent, start, end, layer="x", name="x"):
    return {"id": ident, "parent": parent, "start": start, "end": end,
            "layer": layer, "name": name}


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 1.0, 3.0),
             _span(2, 0, 5.0, 9.0),
             _span(3, 2, 6.0, 7.0)]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # Children overlap (another thread, or clock skew): the covered part
    # of the parent is their union, clipped to the parent.
    spans = [_span(0, None, 0.0, 10.0),
             _span(1, 0, 2.0, 6.0),
             _span(2, 0, 4.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_self_seconds_sums_per_layer():
    spans = [_span(0, None, 0.0, 10.0, layer="repro.exec"),
             _span(1, 0, 1.0, 4.0, layer="repro.sim"),
             _span(2, 1, 2.0, 3.0, layer="repro.native"),
             _span(3, None, 20.0, 22.0, layer="repro.sim")]
    totals = layer_self_seconds(spans)
    assert totals == {"repro.exec": 7.0, "repro.sim": 4.0,
                      "repro.native": 1.0}


def test_recorder_links_parents_and_survives_exceptions():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("a", "outer")
    inner = recorder.open("b", "inner")
    # An exception unwound past ``inner`` without closing it.
    recorder.close(outer)
    after = recorder.open("c", "after")
    recorder.close(after)
    assert inner["parent"] == outer["id"]
    assert after["parent"] is None
    assert [span["name"] for span in recorder.closed()] == ["outer", "after"]


# ----------------------------------------------------------------------
# Installing span recorders
# ----------------------------------------------------------------------
def test_install_wraps_sites_and_reports_missing_ones():
    recorder = tracing.SpanRecorder()
    entry_points = (
        ("stdlib.json", "dumps", ("json:dumps", "json:no_such_function"),
         None, lambda before, args, kwargs, result: {"size": len(result)}),
        ("stdlib.gone", "gone", ("no_such_module_xyz:f",), None, None),
    )
    original = json.dumps
    installed, missing = tracing.install(recorder, entry_points)
    try:
        assert json.dumps is not original
        assert json.dumps([1, 2]) == "[1, 2]"
    finally:
        tracing.uninstall(installed)
    assert json.dumps is original
    [span] = recorder.closed()
    assert (span["layer"], span["name"], span["size"]) == \
        ("stdlib.json", "dumps", 6)
    assert set(missing) == {"json:no_such_function", "no_such_module_xyz:f"}
    assert set(tracing.unmeasured_layers(missing, entry_points)) == \
        {"stdlib.gone"}


def test_wrapper_records_errors_and_reraises():
    recorder = tracing.SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = tracing._wrap(recorder, "l", "boom", boom, None, None)
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.closed()[0]["error"] == "KeyError"


def test_a_failing_attribute_hook_never_breaks_the_call():
    recorder = tracing.SpanRecorder()
    wrapped = tracing._wrap(recorder, "l", "f", lambda: 7, None,
                            lambda *args: 1 / 0)
    assert wrapped() == 7
    assert "ZeroDivisionError" in recorder.closed()[0]["attrs_error"]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def test_span_metrics_split_compile_from_acquisition():
    spans = [
        _span(0, None, 0.0, 5.0, "repro.exec", "pipeline_artifacts"),
        _span(1, 0, 0.0, 4.0, "repro.sim", "run_program"),
        _span(2, 1, 0.5, 3.5, "repro.native", "compile_cached"),
        _span(3, 0, 4.0, 5.0, "repro.core", "make_clone"),
        _span(4, 3, 4.2, 4.6, "repro.lint", "lint_gate"),
    ]
    spans[1]["instructions"] = 2_000_000
    spans[2]["compiled"] = True
    metrics = layers.span_metrics(spans, new_libraries=1)
    assert metrics["native.compile_s"] == 3.0
    assert metrics["sim.acquire_s"] == 1.0
    assert metrics["sim.mips"] == pytest.approx(2.0)
    assert metrics["core.synthesize_s"] == pytest.approx(0.6)
    assert metrics["lint.gate_s"] == pytest.approx(0.4)
    assert metrics["native.compile_hit_ratio"] == 0.0
    assert metrics["native.compiles"] == 1.0
    # Entry points that never ran are not reported as measured zeros.
    assert "uarch.sweep_s" not in metrics


def test_complete_reports_every_metric_with_notes():
    values, notes = layers.complete(
        {"sim.acquire_s": 1.5}, {"repro.native": "compile_cached missing"})
    assert set(values) == set(PER_LAYER)
    assert values["sim.acquire_s"] == 1.5
    assert notes["native.compile_s"].startswith("unmeasured")
    assert notes["fleet.claims"] == "not exercised on this workload"
    assert "sim.acquire_s" not in notes


def test_fleet_metrics_from_worker_summaries():
    status = {"workers": [
        {"executed": 60, "wall_seconds": 4.0, "sim_acquire_seconds": 0.5,
         "uarch_time_seconds": 2.5},
        {"executed": 40, "wall_seconds": 4.0, "sim_acquire_seconds": 0.5,
         "uarch_time_seconds": 2.0}]}
    deltas = {"fleet.claims": 100, "uarch.sweep.native_configs": 90,
              "uarch.sweep.fallback_configs": 10}
    metrics = layers.fleet_metrics(status, deltas, store_bytes=1 << 20)
    assert metrics["fleet.overhead_s"] == pytest.approx(2.5)
    assert metrics["fleet.worker_imbalance"] == pytest.approx(1.2)
    assert metrics["uarch.native_config_share"] == pytest.approx(0.9)
    assert metrics["exec.store_mb_written"] == 1.0
    assert metrics["uarch.sweep_cells"] == 100.0
