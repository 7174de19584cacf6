"""Per-layer metrics of one traced round, from spans and public counters.

Pure functions over plain data: the child process that ran the round
hands in its spans, the sweep/store counters it read, and (for
``fleet_dse``) the fleet status and journaled counter deltas of the
worker processes, whose spans the benchmark cannot see.
"""

from accounting import layer_self_seconds, ratio
from workloads import PER_LAYER

MB = float(1 << 20)

#: Entry points behind each span-derived metric (for "unmeasured").
_SPAN_SOURCES = {
    "native.": ("repro.native",),
    "sim.": ("repro.sim",),
    "core.profile": ("repro.core",),
    "core.synthesize": ("repro.core",),
    "lint.": ("repro.lint",),
    "exec.": ("repro.exec",),
    "uarch.sweep": ("repro.uarch",),
    "uarch.cache_sweep": ("repro.uarch",),
    "uarch.power": ("repro.uarch",),
    "evaluation.self": ("repro.evaluation",),
    "isa.": ("repro.isa",),
}


def _sum(spans, name, field):
    return sum(span.get(field, 0) for span in spans if span["name"] == name)


def _count(spans, name, predicate=lambda span: True):
    return sum(1 for span in spans
               if span["name"] == name and predicate(span))


def bank_ratios(stats):
    """Reuse ratios from ``sweep_stats_snapshot()``-style counters."""
    made = stats.get("cache_banks_built", 0) + stats.get("pred_banks_built", 0)
    reused = sum(stats.get(key, 0) for key in (
        "cache_banks_reused", "cache_banks_loaded",
        "pred_banks_reused", "pred_banks_loaded"))
    native = stats.get("native_configs", 0)
    fallback = stats.get("fallback_configs", 0)
    kept = stats.get("incremental_reused_artifacts", 0)
    rebuilt = stats.get("incremental_rebuilt_artifacts", 0)
    return {
        "uarch.bank_reuse_ratio": ratio(reused, made + reused),
        "uarch.native_config_share": ratio(native, native + fallback),
        "uarch.incremental_reuse_ratio": ratio(kept, kept + rebuilt),
    }


#: Entry points whose spans each span-derived metric is computed from;
#: a metric whose entry points never ran in the round is left out.
_SPAN_INPUTS = {
    "native.compile_s": ("compile_cached",),
    "native.compile_hit_ratio": ("compile_cached",),
    "sim.acquire_s": ("run_program", "acquire_trace_digest"),
    "sim.instructions": ("run_program", "acquire_trace_digest"),
    "sim.mips": ("run_program", "acquire_trace_digest"),
    "core.profile_s": ("profile_trace",),
    "core.profile_minst_per_s": ("profile_trace",),
    "core.synthesize_s": ("make_clone",),
    "lint.gate_s": ("lint_gate",),
    "lint.gate_failures": ("lint_gate",),
    "exec.self_s": ("pipeline_artifacts", "store_load", "store_save"),
    "exec.store_load_s": ("store_load",),
    "exec.store_hit_ratio": ("store_load",),
    "exec.store_save_s": ("store_save",),
    "exec.store_mb_written": ("store_save",),
    "uarch.sweep_s": ("simulate_pipeline_sweep",),
    "uarch.sweep_cells": ("simulate_pipeline_sweep",),
    "uarch.sweep_minst_per_s": ("simulate_pipeline_sweep",),
    "uarch.cache_sweep_s": ("simulate_cache_sweep",),
    "uarch.power_s": ("power_evaluate",),
    "evaluation.self_s": ("study",),
    "isa.assemble_s": ("assemble",),
}


def span_metrics(spans, new_libraries):
    """Layer metrics of an in-process job, from its spans.

    ``new_libraries`` is the number of ``.so`` files the job added to
    the toolchain cache (``native.compiles``).  Self times exclude the
    time of nested entry points: ``sim.acquire_s`` excludes compiles,
    ``core.synthesize_s`` excludes the lint gate and assembly.
    """
    own = layer_self_seconds(spans, key="name")
    layer_own = layer_self_seconds(spans, key="layer")
    acquire_s = own.get("run_program", 0.0) + own.get(
        "acquire_trace_digest", 0.0)
    instructions = (_sum(spans, "run_program", "instructions")
                    + _sum(spans, "acquire_trace_digest", "instructions"))
    profile_s = own.get("profile_trace", 0.0)
    sweep_s = own.get("simulate_pipeline_sweep", 0.0)
    compiles = _count(spans, "compile_cached")
    loads = _count(spans, "store_load")
    metrics = {
        "native.compile_s": own.get("compile_cached", 0.0),
        "native.compile_hit_ratio": ratio(
            _count(spans, "compile_cached",
                   lambda span: not span.get("compiled")), compiles),
        "sim.acquire_s": acquire_s,
        "sim.instructions": float(instructions),
        "sim.mips": ratio(instructions, acquire_s) / 1e6,
        "core.profile_s": profile_s,
        "core.profile_minst_per_s": ratio(
            _sum(spans, "profile_trace", "instructions"), profile_s) / 1e6,
        "core.synthesize_s": own.get("make_clone", 0.0),
        "lint.gate_s": own.get("lint_gate", 0.0),
        "lint.gate_failures": float(_count(
            spans, "lint_gate",
            lambda span: span.get("error") == "LintGateError"
            or span.get("lint_ok") is False)),
        "exec.self_s": layer_own.get("repro.exec", 0.0),
        "exec.store_load_s": own.get("store_load", 0.0),
        "exec.store_save_s": own.get("store_save", 0.0),
        "exec.store_hit_ratio": ratio(
            _count(spans, "store_load", lambda span: span.get("hit")),
            loads),
        "exec.store_mb_written": _sum(spans, "store_save", "bytes") / MB,
        "uarch.sweep_s": sweep_s,
        "uarch.sweep_cells": float(
            _sum(spans, "simulate_pipeline_sweep", "cells")),
        "uarch.sweep_minst_per_s": ratio(
            _sum(spans, "simulate_pipeline_sweep", "instructions"),
            sweep_s) / 1e6,
        "uarch.cache_sweep_s": own.get("simulate_cache_sweep", 0.0),
        "uarch.power_s": own.get("power_evaluate", 0.0),
        "evaluation.self_s": own.get("study", 0.0),
        "isa.assemble_s": own.get("assemble", 0.0),
    }
    ran = {span["name"] for span in spans}
    metrics = {name: value for name, value in metrics.items()
               if ran.intersection(_SPAN_INPUTS[name])}
    metrics["native.compiles"] = float(new_libraries)
    return metrics


def fleet_metrics(status, deltas, store_bytes):
    """Layer metrics of fleet workers, from ``fleet_status`` and the
    counter deltas the workers journaled."""
    workers = status.get("workers") or []
    acquire_s = sum(w.get("sim_acquire_seconds", 0.0) for w in workers)
    uarch_s = sum(w.get("uarch_time_seconds", 0.0) for w in workers)
    executed = [w.get("executed", 0) for w in workers]
    instructions = deltas.get("sim.instructions", 0)
    hits = deltas.get("exec.store.hit", 0)
    misses = deltas.get("exec.store.miss", 0)
    stats = {key[len("uarch.sweep."):]: value
             for key, value in deltas.items()
             if key.startswith("uarch.sweep.")}
    metrics = {
        "sim.acquire_s": acquire_s,
        "sim.instructions": float(instructions),
        "sim.mips": ratio(instructions, acquire_s) / 1e6,
        "exec.store_hit_ratio": ratio(hits, hits + misses),
        "exec.store_mb_written": store_bytes / MB,
        "uarch.sweep_s": uarch_s,
        "uarch.sweep_cells": float(sum(executed)),
        "uarch.sweep_minst_per_s": ratio(
            deltas.get("pipeline.instructions", 0), uarch_s) / 1e6,
        "fleet.claims": float(deltas.get("fleet.claims", 0)),
        "fleet.steals": float(deltas.get("fleet.steals", 0)),
        "fleet.reclaims": float(deltas.get("fleet.reclaims", 0)),
        "fleet.overhead_s": sum(
            w.get("wall_seconds", 0.0) - w.get("sim_acquire_seconds", 0.0)
            - w.get("uarch_time_seconds", 0.0) for w in workers),
        "fleet.worker_imbalance": ratio(
            max(executed, default=0), ratio(sum(executed), len(executed))),
    }
    metrics.update(bank_ratios(stats))
    return metrics


#: Metrics that fleet workers produce but cannot be timed from outside.
FLEET_INVISIBLE = ("exec.store_load_s", "exec.store_save_s",
                   "uarch.power_s")


def complete(metrics, unmeasured_layers, invisible=(),
             reason_invisible=""):
    """Every per-layer metric, with a note for each that is not a
    measurement: its layer's entry points are missing, the workload does
    not exercise it, or it happens where the benchmark cannot look.

    Returns ``(values, notes)``; a metric with a note reads 0.0.
    """
    values, notes = {}, {}
    for name in PER_LAYER:
        layers = next((sources for prefix, sources in _SPAN_SOURCES.items()
                       if name.startswith(prefix)), ())
        missing = [layer for layer in layers if layer in unmeasured_layers]
        if missing:
            notes[name] = "unmeasured: " + "; ".join(
                unmeasured_layers[layer] for layer in missing)
        elif name in invisible:
            notes[name] = "unmeasured: " + reason_invisible
        elif name not in metrics:
            notes[name] = "not exercised on this workload"
        if name in notes:
            values[name] = 0.0
        else:
            values[name] = float(metrics[name])
    return values, notes
