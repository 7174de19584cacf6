"""Span recorders installed around each layer's public entry points.

The benchmark measures the program from outside: :func:`install`
replaces each entry point, at every name its callers import it by, with
a wrapper that records a span (layer, entry point, start, end, parent)
in memory.  Spans are written out once, when the run ends.  An entry
point that is missing is reported, and its layer listed as unmeasured,
instead of failing the run.
"""

import functools
import importlib
import os
import time


class SpanRecorder:
    """In-memory spans with parent links (single-threaded callers)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, layer, name):
        span = {"id": len(self.spans), "layer": layer, "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": self.clock(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = self.clock()
        span.update(attrs)
        # Pop through any child a non-local exit left open.
        while self._stack:
            if self._stack.pop() is span:
                break

    def closed(self):
        return [span for span in self.spans if span["end"] is not None]


def _entry_files(directory):
    try:
        return set(os.listdir(directory))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Per-entry-point attributes taken from arguments and results
# ----------------------------------------------------------------------
def _compile_before(args, kwargs):
    from repro.native import toolchain
    return _entry_files(toolchain.cache_dir())


def _compile_attrs(before, args, kwargs, result):
    return {"compiled": os.path.basename(result) not in before}


def _trace_attrs(before, args, kwargs, result):
    return {"instructions": len(result) if result is not None else 0}


def _digest_attrs(before, args, kwargs, result):
    return {"instructions": len(result.trace)}


def _profile_attrs(before, args, kwargs, result):
    return {"instructions": len(args[0])}


def _lint_attrs(before, args, kwargs, result):
    clone = args[1] if len(args) > 1 else kwargs.get("result")
    verdict = (getattr(clone, "stats", None) or {}).get("lint") or {}
    return {"lint_ok": bool(verdict.get("ok", True))}


def _load_attrs(before, args, kwargs, result):
    return {"hit": result is not None}


def _entry_bytes(path):
    total = 0
    for parent, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(parent, name))
            except OSError:
                continue
    return total


def _save_attrs(before, args, kwargs, result):
    store = args[0]
    key = kwargs["key"] if "key" in kwargs else args[1]
    return {"bytes": _entry_bytes(store.entry_dir(key))}


def _sweep_attrs(before, args, kwargs, result):
    results = list(result)
    return {"cells": len(results),
            "instructions": sum(item.instructions for item in results)}


def _cache_sweep_attrs(before, args, kwargs, result):
    return {"rows": len(result)}


#: (layer, entry point, import sites, before hook, attrs hook).  A site
#: is ``module:attribute`` or ``module:Class.method``.
ENTRY_POINTS = (
    ("repro.isa", "assemble",
     ("repro.exec.artifacts:assemble", "repro.core.synthesizer:assemble",
      "repro.fleet.worker:assemble"), None, None),
    ("repro.native", "compile_cached",
     ("repro.native.toolchain:compile_cached",),
     _compile_before, _compile_attrs),
    ("repro.sim", "run_program",
     ("repro.exec.artifacts:run_program",
      "repro.evaluation.experiments:run_program"), None, _trace_attrs),
    ("repro.sim", "acquire_trace_digest",
     ("repro.fleet.worker:acquire_trace_digest",
      "repro.uarch.sweep:acquire_trace_digest"), None, _digest_attrs),
    ("repro.core", "profile_trace",
     ("repro.exec.artifacts:profile_trace",), None, _profile_attrs),
    ("repro.core", "make_clone",
     ("repro.exec.artifacts:make_clone",), None, None),
    ("repro.lint", "lint_gate",
     ("repro.core.synthesizer:CloneSynthesizer._lint_gate",),
     None, _lint_attrs),
    ("repro.exec", "pipeline_artifacts",
     ("repro.exec.artifacts:pipeline_artifacts",
      "repro.evaluation.experiments:pipeline_artifacts",
      "repro.fleet.worker:pipeline_artifacts"), None, None),
    ("repro.exec", "store_load",
     ("repro.exec.store:ArtifactStore.load",), None, _load_attrs),
    ("repro.exec", "store_save",
     ("repro.exec.store:ArtifactStore.save",), None, _save_attrs),
    ("repro.uarch", "simulate_pipeline_sweep",
     ("repro.uarch.sweep:simulate_pipeline_sweep",
      "repro.evaluation.experiments:simulate_pipeline_sweep",
      "repro.uarch.incremental:simulate_pipeline_sweep"),
     None, _sweep_attrs),
    ("repro.uarch", "simulate_cache_sweep",
     ("repro.uarch.cache:simulate_cache_sweep",
      "repro.evaluation.experiments:simulate_cache_sweep"),
     None, _cache_sweep_attrs),
    ("repro.uarch", "power_evaluate",
     ("repro.uarch.power:PowerModel.evaluate",), None, None),
    ("repro.evaluation", "study",
     ("repro.evaluation.experiments:cache_correlation_study",
      "repro.evaluation.experiments:base_config_comparison",
      "repro.evaluation.experiments:design_change_study"), None, None),
    ("repro.fleet", "run_fleet",
     ("repro.fleet.run:run_fleet",), None, None),
)


def _wrap(recorder, layer, name, function, before_hook, attrs_hook):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        before = None
        if before_hook:
            try:
                before = before_hook(args, kwargs)
            except Exception:  # noqa: BLE001 - never break the program
                before = None
        span = recorder.open(layer, name)
        try:
            result = function(*args, **kwargs)
        except BaseException as exc:
            recorder.close(span, error=type(exc).__name__)
            raise
        attrs = {}
        if attrs_hook:
            try:
                attrs = attrs_hook(before, args, kwargs, result)
            except Exception as exc:  # noqa: BLE001 - never break the program
                attrs = {"attrs_error": repr(exc)}
        recorder.close(span, **attrs)
        return result
    return traced


def _resolve(site):
    """(owner object, attribute name) for an import site, or a reason."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        return None, None, f"cannot import {module_name}: {exc}"
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, f"{module_name} has no {part}"
    if not callable(getattr(owner, attribute, None)):
        return None, None, f"{site} is missing"
    return owner, attribute, None


def install(recorder, entry_points=ENTRY_POINTS):
    """Wrap every entry point at every import site.

    Returns ``(installed, missing)``: the sites wrapped, and a
    ``{site: reason}`` dict for those that could not be.  Call
    :func:`uninstall` with ``installed`` to restore the originals.
    """
    installed, missing = [], {}
    for layer, name, sites, before_hook, attrs_hook in entry_points:
        for site in sites:
            owner, attribute, reason = _resolve(site)
            if reason is not None:
                missing[site] = reason
                continue
            original = owner.__dict__.get(attribute,
                                          getattr(owner, attribute))
            setattr(owner, attribute,
                    _wrap(recorder, layer, name, original, before_hook,
                          attrs_hook))
            installed.append((owner, attribute, original))
    return installed, missing


def uninstall(installed):
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)


def unmeasured_layers(missing, entry_points=ENTRY_POINTS):
    """``{layer: reason}`` for layers none of whose sites were wrapped."""
    sites_by_layer = {}
    for layer, _name, sites, _before, _attrs in entry_points:
        sites_by_layer.setdefault(layer, []).extend(sites)
    return {layer: "; ".join(missing[site] for site in sites)
            for layer, sites in sites_by_layer.items()
            if all(site in missing for site in sites)}
