"""One step of a benchmark round, run in a fresh process.

Usage: ``python3 perfbench/jobs.py SPEC.json`` with ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` set to the round's private cache
directory.  ``SPEC.json`` names the step and its inputs; the step writes
its result as JSON to ``spec["out"]``.

Steps: ``clone_round`` and ``fleet_round`` (set-up plus the timed job in
one process), ``paper_setup`` and ``paper_job`` (the paper re-evaluation
times its job in a second fresh process), ``paper_build`` (compile the
engines the paper's programs need, once per checkout) and ``check``
(re-derive a sample of a round's outputs with the Python references).
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import (CLONE_INSTRUCTIONS, CLONE_PROGRAMS,  # noqa: E402
                       COMPARE_MAX_FUNCTIONAL, FLEET_AXES, FLEET_WORKERS,
                       PAPER_FIGURES, PAPER_PIPELINE_CAP)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def cache_state(cache_dir):
    """What a round's private cache holds: store entries and ``.so``s."""
    from repro.exec.store import ArtifactStore
    native_dir = os.path.join(cache_dir, "native")
    libraries = sorted(name for name in os.listdir(native_dir)
                       if name.endswith(".so")) \
        if os.path.isdir(native_dir) else []
    return {"store_entries": len(ArtifactStore(root=cache_dir).entries()),
            "native_libraries": len(libraries)}


def check_private_cache(cache_dir):
    from repro.exec.store import default_cache_dir
    from repro.native import toolchain
    home_cache = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    if default_cache_dir() != cache_dir or toolchain.cache_dir() != \
            os.path.join(cache_dir, "native"):
        raise RuntimeError(f"cache dir is {default_cache_dir()!r}, "
                           f"expected the private {cache_dir!r}")
    if os.path.abspath(cache_dir).startswith(home_cache):
        raise RuntimeError("refusing to run in the user's repro cache")


def _usage():
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_usage.ru_utime + self_usage.ru_stime
            + child_usage.ru_utime + child_usage.ru_stime)


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child."""
    kilobytes = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kilobytes / 1024.0


class TimedJob:
    """Wall and CPU (self plus children) of the timed region."""

    def __enter__(self):
        self.cpu = _usage()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        self.cpu_s = _usage() - self.cpu
        return False


def cc_version():
    try:
        done = subprocess.run(["cc", "--version"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable ({exc})"
    return (done.stdout.splitlines() or ["unavailable"])[0]


def provenance(backends, sweep_counts):
    """Which engines produced the numbers (compared between rounds)."""
    from repro.exec.store import default_store
    from repro.uarch import native as uarch_native
    return {
        "sim_backends": backends,
        "uarch_native_loop": uarch_native.available(),
        "native_configs": sweep_counts.get("native_configs", 0),
        "fallback_configs": sweep_counts.get("fallback_configs", 0),
        "store": default_store().stats(),
        "cc": cc_version(),
        "nproc": os.cpu_count(),
    }


class Tracer:
    """Span recorders around the layer entry points, when tracing."""

    def __init__(self, enabled, spans_path):
        self.enabled = enabled
        self.spans_path = spans_path
        self.recorder = tracing.SpanRecorder()
        self.installed, self.missing = [], {}

    def __enter__(self):
        if self.enabled:
            self.installed, self.missing = tracing.install(self.recorder)
        return self

    def __exit__(self, *exc):
        tracing.uninstall(self.installed)
        if self.enabled:
            with open(self.spans_path, "w") as handle:
                json.dump({"spans": self.recorder.closed(),
                           "missing": self.missing}, handle)
        return False

    def unmeasured(self):
        return tracing.unmeasured_layers(self.missing)


def new_library_count(cache_dir, before):
    return cache_state(cache_dir)["native_libraries"] - before


def _mean_abs_error(pairs):
    return sum(abs(clone - real) / real for real, clone in pairs) / len(pairs)


# ----------------------------------------------------------------------
# clone_new
# ----------------------------------------------------------------------
def clone_round(spec):
    from repro.native import toolchain
    from repro.uarch import native as uarch_native
    cache_dir = spec["cache_dir"]
    check_private_cache(cache_dir)
    # Set-up: the per-machine engines (toolchain probe, sweep loop).
    toolchain.probe()
    uarch_native.available()
    setup_s = time.perf_counter() - STARTED
    state = cache_state(cache_dir)

    from repro.core.synthesizer import SynthesisParameters
    from repro.exec import artifacts
    from repro.uarch import sweep
    from repro.uarch.config import BASE_CONFIG
    from repro.uarch.power import estimate_power
    from repro.workloads import get_workload

    begun = cache_state(cache_dir)
    failures = {}
    if begun["store_entries"] != 0 or begun != state:
        failures["start-state"] = [f"began from {begun}, set up {state}", 1]
    ops, turnarounds, backends = [], [], {}
    sweep.reset_sweep_stats()
    parameters = SynthesisParameters(dynamic_instructions=CLONE_INSTRUCTIONS,
                                     seed=spec["seed"])
    with Tracer(spec["trace"], spec["spans"]) as tracer, \
            TimedJob() as timed:
        for name in CLONE_PROGRAMS:
            started = time.perf_counter()
            try:
                source = get_workload(name).source()
                built = artifacts.pipeline_artifacts(
                    name, source, parameters,
                    max_instructions=COMPARE_MAX_FUNCTIONAL)
                [real] = sweep.simulate_pipeline_sweep(built.trace,
                                                       [BASE_CONFIG])
                [clone] = sweep.simulate_pipeline_sweep(built.clone_trace,
                                                        [BASE_CONFIG])
                power_real, power_clone = (estimate_power(real),
                                           estimate_power(clone))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failures[name] = [f"{type(exc).__name__}: {exc}", 1]
                continue
            turnarounds.append(time.perf_counter() - started)
            backends[name] = built.sim_backend
            ops.append({"name": name,
                        "ipc_real": real.ipc, "ipc_clone": clone.ipc,
                        "cycles_real": real.cycles,
                        "cycles_clone": clone.cycles,
                        "power_real": power_real,
                        "power_clone": power_clone,
                        "instructions": real.instructions
                        + clone.instructions})
    stats = sweep.sweep_stats_snapshot()
    result = {
        "setup_s": setup_s, "state": state,
        "wall_s": timed.wall_s, "cpu_s": timed.cpu_s,
        "peak_rss_mb": peak_rss_mb(), "turnarounds": turnarounds,
        "attempted": len(CLONE_PROGRAMS), "failures": failures,
        "sim_instructions": sum(op["instructions"] for op in ops),
        "outputs": ops,
        "provenance": provenance(backends, stats),
    }
    if spec["trace"]:
        metrics = layers.span_metrics(
            tracer.recorder.closed(),
            new_library_count(cache_dir, begun["native_libraries"]))
        metrics.update(layers.bank_ratios(stats))
        if ops:
            metrics["evaluation.ipc_error"] = _mean_abs_error(
                [(op["ipc_real"], op["ipc_clone"]) for op in ops])
            metrics["evaluation.power_error"] = _mean_abs_error(
                [(op["power_real"], op["power_clone"]) for op in ops])
        result["layers"] = metrics
        result["unmeasured"] = tracer.unmeasured()
    return result


# ----------------------------------------------------------------------
# paper_eval
# ----------------------------------------------------------------------
def _fill_store(names):
    """Per-machine engines, then the pipeline artifacts of ``names``."""
    from repro.evaluation.experiments import workload_artifacts
    from repro.uarch import native as uarch_native
    uarch_native.available()
    return {name: workload_artifacts(name).sim_backend for name in names}


def paper_build(spec):
    """Compile the engines of the paper's programs (one share of them)."""
    from repro.workloads import workload_names
    names = workload_names()[spec["share"]::spec["of"]]
    _fill_store(names)
    return {"built": names}


def paper_setup(spec):
    cache_dir = spec["cache_dir"]
    check_private_cache(cache_dir)
    native_dir = os.path.join(cache_dir, "native")
    os.makedirs(native_dir, exist_ok=True)
    engines = spec["engines"]
    shipped = set(os.listdir(engines)) if os.path.isdir(engines) else set()
    for name in shipped:
        shutil.copy2(os.path.join(engines, name), native_dir)
    from repro.workloads import workload_names
    backends = _fill_store(workload_names())
    setup_s = time.perf_counter() - STARTED
    compiled = sorted(set(os.listdir(native_dir)) - shipped)
    return {"setup_s": setup_s, "state": cache_state(cache_dir),
            "backends": backends,
            # Engines the shipped set lacked (the program changed since
            # it was built): the parent adds them to the shipped set.
            "compiled": [os.path.join(native_dir, name)
                         for name in compiled if name.endswith(".so")]}


def paper_job(spec):
    cache_dir = spec["cache_dir"]
    check_private_cache(cache_dir)
    from repro.evaluation import experiments
    from repro.obs.metrics import REGISTRY
    from repro.uarch import sweep

    failures = {}
    begun = cache_state(cache_dir)
    if begun != spec["state"]:
        failures["start-state"] = (f"began from {begun}, "
                                   f"set up {spec['state']}")
    counter = REGISTRY.counter("pipeline.instructions")
    timed_before = counter.value
    sweep.reset_sweep_stats()
    capped = {"max_instructions": PAPER_PIPELINE_CAP}
    studies = (("fig4_5", "cache_correlation_study", {}),
               ("fig6_7", "base_config_comparison", capped),
               ("table3", "design_change_study", capped))
    outputs = {}
    with Tracer(spec["trace"], spec["spans"]) as tracer, \
            TimedJob() as timed:
        for label, study, kwargs in studies:
            try:
                # Looked up here, so a traced run calls the wrapper.
                outputs[label] = getattr(experiments, study)(jobs=1,
                                                             **kwargs)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failures[label] = f"{type(exc).__name__}: {exc}"
    stats = sweep.sweep_stats_snapshot()
    n = len(experiments.workload_names())
    counts = {"fig4_5": 2 * n * len(experiments.CACHE_SWEEP),
              "fig6_7": 2 * n,
              "table3": 2 * n * (1 + len(experiments.DESIGN_CHANGES))}
    figures, checked = {}, {}
    if len(outputs) == len(studies):
        figures = _paper_figures(outputs)
        checked = _paper_outputs(outputs)
    result = {
        "setup_s": None, "state": begun,
        "wall_s": timed.wall_s, "cpu_s": timed.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        # The architect's job is the whole re-evaluation: timing each
        # figure on its own (about 1 s) only measured host noise.
        "turnarounds": [timed.wall_s] if not failures else [],
        "attempted": sum(counts.values()),
        "failures": {label: [why, counts.get(label, 1)]
                     for label, why in failures.items()},
        "sim_instructions": counter.value - timed_before,
        "figures": figures, "outputs": checked,
        "provenance": provenance(spec["backends"], stats),
    }
    if spec["trace"]:
        metrics = layers.span_metrics(tracer.recorder.closed(),
                                      new_library_count(
                                          cache_dir,
                                          begun["native_libraries"]))
        metrics.update(layers.bank_ratios(stats))
        metrics.update({f"evaluation.{name}": value
                        for name, value in figures.items()})
        result["layers"] = metrics
        result["unmeasured"] = tracer.unmeasured()
    return result


def _paper_figures(outputs):
    changes = outputs["table3"]["changes"]
    return {
        "ipc_error": outputs["fig6_7"]["average_ipc_error"],
        "power_error": outputs["fig6_7"]["average_power_error"],
        "design_change_error": sum(
            row["avg_ipc_relative_error"] for row in changes) / len(changes),
        "cache_corr": outputs["fig4_5"]["average_correlation"],
    }


def _paper_outputs(outputs):
    """The study outputs the reference check re-derives."""
    return {
        "base": {row["name"]: row for row in outputs["fig6_7"]["rows"]},
        "width": {row["name"]: row
                  for row in outputs["table3"]["width_detail"]},
        "mpi_real": outputs["fig4_5"]["mpi_real"],
        "mpi_clone": outputs["fig4_5"]["mpi_clone"],
    }


# ----------------------------------------------------------------------
# fleet_dse
# ----------------------------------------------------------------------
def fleet_recipe(kernels):
    return {"schema": 1, "name": "perfbench-dse", "kernels": list(kernels),
            "subject": "real",
            "axes": [[field, values] for field, values in FLEET_AXES]}


def _journal_deltas(run_dir):
    from repro.obs.journal import read_journal
    totals = {}
    for event in read_journal(run_dir).of_kind("metrics"):
        for name, value in (event.get("deltas") or {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def fleet_round(spec):
    from repro.isa.assembler import assemble
    from repro.native import toolchain
    from repro.sim import native as sim_native
    from repro.uarch import native as uarch_native
    from repro.workloads import get_workload, workload_names
    cache_dir = spec["cache_dir"]
    check_private_cache(cache_dir)
    # Set-up: per-machine engines plus every kernel's compiled engine.
    toolchain.probe()
    uarch_native.available()
    programs = {name: assemble(get_workload(name).source(), name=name)
                for name in workload_names()}
    for program in programs.values():
        sim_native.engine_for(program)
    setup_s = time.perf_counter() - STARTED
    state = cache_state(cache_dir)

    from repro.exec.store import ArtifactStore
    from repro.fleet.recipe import recipe_from_dict
    from repro.fleet.run import collect_matrix, fleet_status, run_fleet
    from repro.sim.turbo import resolve_backend
    failures = {}
    begun = cache_state(cache_dir)
    if begun["store_entries"] != 0 or begun != state:
        failures["start-state"] = [f"began from {begun}, set up {state}", 1]
    recipe = fleet_recipe(programs)
    n_cells = len(recipe_from_dict(recipe).expand())
    run_dir = spec["run_dir"]
    summary = None
    with Tracer(spec["trace"], spec["spans"]) as tracer, \
            TimedJob() as timed:
        try:
            summary = run_fleet(run_dir, recipe, workers=FLEET_WORKERS)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            failures["run_fleet"] = [f"{type(exc).__name__}: {exc}",
                                     n_cells]
    completed = summary["completed"] if summary else 0
    instructions = 0
    if summary is not None:
        if summary["dead_workers"]:
            failures["dead_workers"] = [
                f"{summary['dead_workers']} fleet workers died",
                summary["dead_workers"]]
        if summary["complete"]:
            instructions = sum(row["metrics"]["instructions"]
                               for row in collect_matrix(run_dir)["cells"])
        else:
            failures["matrix"] = [
                f"matrix incomplete: {completed} of {n_cells} cells",
                n_cells - completed]
    deltas = _journal_deltas(run_dir)
    stats = {key[len("uarch.sweep."):]: value
             for key, value in deltas.items()
             if key.startswith("uarch.sweep.")}
    result = {
        "setup_s": setup_s, "state": state,
        "wall_s": timed.wall_s, "cpu_s": timed.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "turnarounds": [timed.wall_s] if summary else [],
        "attempted": n_cells,
        "failures": failures,
        "sim_instructions": instructions,
        "provenance": provenance(
            {name: resolve_backend(None, program)
             for name, program in programs.items()}, stats),
    }
    if spec["trace"]:
        status = fleet_status(run_dir)
        store_bytes = ArtifactStore(root=cache_dir).total_bytes()
        metrics = layers.span_metrics(
            tracer.recorder.closed(),
            new_library_count(cache_dir, begun["native_libraries"]))
        metrics.update(layers.fleet_metrics(status, deltas, store_bytes))
        result["layers"] = metrics
        result["unmeasured"] = tracer.unmeasured()
        result["invisible"] = list(layers.FLEET_INVISIBLE)
    return result


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------
def _same_trace(left, right):
    import numpy as np
    return (len(left) == len(right)
            and np.array_equal(left.pcs, right.pcs)
            and np.array_equal(left.addrs, right.addrs)
            and np.array_equal(left.taken, right.taken))


def _reference_timing(trace, config, cap=None):
    from repro.uarch.pipeline import PipelineModel
    from repro.uarch.power import PowerModel
    result = PipelineModel(config).run_reference(trace, max_instructions=cap)
    return result, PowerModel(config).evaluate(result).total


def _interp(program):
    from repro.sim.functional import run_program
    return run_program(program, max_instructions=COMPARE_MAX_FUNCTIONAL,
                       backend="interp")


def _sample_by_engine(rng, names, engine_of, size):
    """``size`` names, with at least one per distinct engine."""
    names = sorted(names)
    picked = []
    for engine in sorted(set(engine_of[name] for name in names)):
        picked.append(rng.choice([n for n in names if engine_of[n] == engine]))
    rest = [name for name in names if name not in picked]
    rng.shuffle(rest)
    return sorted(picked + rest[:max(0, size - len(picked))])


def _check_clone(spec, rng, failures):
    from repro.core.cloning import make_clone
    from repro.core.profiler import profile_trace
    from repro.core.synthesizer import SynthesisParameters
    from repro.exec.artifacts import pipeline_artifacts
    from repro.exec.store import default_store
    from repro.uarch.config import BASE_CONFIG
    from repro.workloads import get_workload
    outputs = {op["name"]: op for op in spec["outputs"]}
    backends = spec["backends"]
    sample = _sample_by_engine(rng, outputs, backends, 2)
    parameters = SynthesisParameters(dynamic_instructions=CLONE_INSTRUCTIONS,
                                     seed=spec["seed"])
    for name in sample:
        op = outputs[name]
        hits = default_store().hits
        built = pipeline_artifacts(name, get_workload(name).source(),
                                   parameters,
                                   max_instructions=COMPARE_MAX_FUNCTIONAL)
        if default_store().hits != hits + 1:
            failures[name] = "outputs not found in the round's store"
            continue
        trace = _interp(built.program)
        if not _same_trace(trace, built.trace):
            failures[name] = "real trace differs from the interpreter's"
            continue
        profile = profile_trace(trace)
        if profile.to_dict() != built.profile.to_dict():
            failures[name] = "profile differs from the reference profile"
            continue
        if make_clone(profile, parameters).asm_source != \
                built.clone.asm_source:
            failures[name] = "clone differs from a fresh synthesis"
            continue
        clone_trace = _interp(built.clone.program)
        if not _same_trace(clone_trace, built.clone_trace):
            failures[name] = "clone trace differs from the interpreter's"
            continue
        for side, reference_trace in (("real", trace),
                                      ("clone", clone_trace)):
            result, power = _reference_timing(reference_trace, BASE_CONFIG)
            if (result.cycles, result.ipc, power) != (
                    op[f"cycles_{side}"], op[f"ipc_{side}"],
                    op[f"power_{side}"]):
                failures[name] = f"{side} timing/power differs from " \
                                 "PipelineModel.run_reference"
    return sample


def _check_paper(spec, rng, failures):
    from repro.evaluation.experiments import workload_artifacts
    from repro.uarch.cache import simulate_cache
    from repro.uarch.config import BASE_CONFIG, CACHE_SWEEP, DESIGN_CHANGES
    outputs = spec["outputs"]
    figures = spec["figures"]
    for name, (committed, digits) in PAPER_FIGURES.items():
        if name not in figures or round(figures[name], digits) != committed:
            failures[f"figure:{name}"] = (
                f"{figures.get(name)} does not print as committed "
                f"{committed}")
    width = next(config for config in DESIGN_CHANGES
                 if config.name == "2x-width")
    sample = _sample_by_engine(rng, outputs["base"], spec["backends"], 2)
    for name in sample:
        built = workload_artifacts(name)
        traces = {"real": _interp(built.program),
                  "clone": _interp(built.clone.program)}
        for side, stored in (("real", built.trace),
                             ("clone", built.clone_trace)):
            if not _same_trace(traces[side], stored):
                failures[f"{name}:{side}"] = \
                    "stored trace differs from the interpreter's"
        for side, trace in traces.items():
            base, power = _reference_timing(trace, BASE_CONFIG,
                                            PAPER_PIPELINE_CAP)
            row = outputs["base"][name]
            if (base.ipc, power) != (row[f"ipc_{side}"],
                                     row[f"power_{side}"]):
                failures[f"{name}:{side}@base"] = \
                    "IPC/power differs from PipelineModel.run_reference"
            wide, _ = _reference_timing(trace, width, PAPER_PIPELINE_CAP)
            if wide.ipc / base.ipc != \
                    outputs["width"][name][f"speedup_{side}"]:
                failures[f"{name}:{side}@2x-width"] = \
                    "speedup differs from PipelineModel.run_reference"
            addresses = trace.memory_addresses()
            for index in rng.sample(range(len(CACHE_SWEEP)), 2):
                misses = simulate_cache(addresses, CACHE_SWEEP[index]).misses
                if misses / len(trace) != \
                        outputs[f"mpi_{side}"][name][index]:
                    failures[f"{name}:{side}@cache{index}"] = \
                        "MPI differs from the reference cache replay"
    return sample


def _check_fleet(spec, rng, failures):
    from repro.fleet.run import collect_matrix, load_run_recipe
    from repro.isa.assembler import assemble
    from repro.workloads import get_workload
    run_dir = spec["run_dir"]
    configs = {cell.cell_id: cell.config
               for cell in load_run_recipe(run_dir).expand()}
    rows = collect_matrix(run_dir)["cells"]
    kernels = _sample_by_engine(rng, {row["kernel"] for row in rows},
                                spec["backends"], 2)
    sample = []
    for kernel in kernels:
        own = [row for row in rows if row["kernel"] == kernel]
        picked = [rng.choice([row for row in own
                              if configs[row["cell_id"]].predictor == kind])
                  for kind in ("gap", "gshare")]
        picked.append(rng.choice(own))
        trace = _interp(assemble(get_workload(kernel).source(),
                                 name=kernel))
        for row in picked:
            result, power = _reference_timing(trace, configs[row["cell_id"]])
            expected = row["metrics"]
            got = {key: getattr(result, key) for key in expected
                   if key not in ("ipc", "power")}
            got["ipc"] = result.instructions / result.cycles
            got["power"] = power
            if got != expected:
                failures[row["cell_id"]] = (
                    "cell differs from PipelineModel.run_reference: "
                    + ", ".join(key for key in expected
                                if got[key] != expected[key]))
            sample.append(row["cell_id"])
    return sample


def check(spec):
    """Re-derive a seeded sample of the last round's outputs."""
    check_private_cache(spec["cache_dir"])
    rng = random.Random(spec["seed"])
    failures = {}
    checker = {"clone_new": _check_clone, "paper_eval": _check_paper,
               "fleet_dse": _check_fleet}[spec["workload"]]
    try:
        sample = checker(spec, rng, failures)
    except Exception as exc:  # noqa: BLE001 - counted, reported
        failures["check"] = f"{type(exc).__name__}: {exc}"
        sample = []
    return {"sample": sample, "failures": failures}


STEPS = {"clone_round": clone_round, "paper_build": paper_build,
         "paper_setup": paper_setup, "paper_job": paper_job,
         "fleet_round": fleet_round, "check": check}


def main(argv):
    with open(argv[1]) as handle:
        spec = json.load(handle)
    result = STEPS[spec["step"]](spec)
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
