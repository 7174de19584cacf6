"""The benchmark's workloads, metrics and fixed inputs.

Plain data, importable without the program under test: ``run.py``,
``jobs.py`` and the unit tests all read it.
"""

#: clone_new: programs cloned from nothing, one after another.  They span
#: small to large clones (about 700, 1,000 and 1,250 static instructions).
CLONE_PROGRAMS = ("crc32", "sha", "fft")

#: Clone run length for clone_new (the ``repro compare`` default).
CLONE_INSTRUCTIONS = 120_000

#: ``repro compare``'s functional-simulation cap.
COMPARE_MAX_FUNCTIONAL = 50_000_000

#: fleet_dse: the config-heavy axis grid over every kernel
#: (3 x 3 x 3 x 2 = 54 configs, 1,242 cells on the 23-kernel corpus).
FLEET_AXES = (
    ("width", [1, 2, 4]),
    ("rob_size", [16, 32, 64]),
    ("l1d", [[8192, 2, 32], [16384, 2, 32], [32768, 4, 32]]),
    ("predictor", ["gap", "gshare"]),
)
FLEET_WORKERS = 2

#: paper_eval: the timing cap of the committed Figs. 6-9 and Table 3
#: (``benchmarks/_shared.PIPELINE_CAP``).
PAPER_PIPELINE_CAP = 100_000

#: paper_eval: the committed paper figures, at their printed precision
#: (benchmarks/results: Fig. 6, Fig. 7, Table 3, Fig. 4).
PAPER_FIGURES = {
    "ipc_error": (0.074, 3),
    "power_error": (0.036, 3),
    "design_change_error": (0.0499, 4),
    "cache_corr": (0.731, 3),
}

WORKLOADS = ("clone_new", "paper_eval", "fleet_dse")

#: End-to-end metrics: name -> unit.  Every workload reports all.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "turnaround_p50_s": "s",
    "sim_minst_per_s": "Minstr/s",
}

#: Per-layer metrics from the traced run: name -> unit.
PER_LAYER = {
    "native.compile_s": "s",
    "native.compiles": "count",
    "native.compile_hit_ratio": "ratio",
    "sim.acquire_s": "s",
    "sim.instructions": "count",
    "sim.mips": "Minstr/s",
    "core.profile_s": "s",
    "core.profile_minst_per_s": "Minstr/s",
    "core.synthesize_s": "s",
    "lint.gate_s": "s",
    "lint.gate_failures": "count",
    "exec.self_s": "s",
    "exec.store_load_s": "s",
    "exec.store_save_s": "s",
    "exec.store_hit_ratio": "ratio",
    "exec.store_mb_written": "MB",
    "uarch.sweep_s": "s",
    "uarch.sweep_cells": "count",
    "uarch.sweep_minst_per_s": "Minstr/s",
    "uarch.cache_sweep_s": "s",
    "uarch.power_s": "s",
    "uarch.bank_reuse_ratio": "ratio",
    "uarch.native_config_share": "ratio",
    "uarch.incremental_reuse_ratio": "ratio",
    "evaluation.self_s": "s",
    "evaluation.ipc_error": "ratio",
    "evaluation.power_error": "ratio",
    "evaluation.design_change_error": "ratio",
    "evaluation.cache_corr": "ratio",
    "fleet.claims": "count",
    "fleet.steals": "count",
    "fleet.reclaims": "count",
    "fleet.overhead_s": "s",
    "fleet.worker_imbalance": "ratio",
    "isa.assemble_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.failed_frac": "ratio",
    "bench.unmeasured": "count",
}
