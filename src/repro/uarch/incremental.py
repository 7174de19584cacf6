"""Incremental re-simulation: reuse-aware planning for grid refinement.

A grid study rarely starts from nothing.  Refinement loops — the
MicroGrad-style clone-tuning inner loop, dense config neighborhoods
around a design point, a human nudging one knob in the CLI — re-time
traces that differ from the previous cell by a *single* parameter.
Every sweep artifact is already keyed by the subset of config/profile
state it depends on:

========================  =============================================
artifact                  depends on
========================  =============================================
trace digest              trace content + program only (no config)
cache outcome bank        ``_hierarchy_key`` — L1I/L1D/L2 geometry and
                          the three access latencies
predictor outcome bank    ``_predictor_key`` — predictor kind + kwargs
========================  =============================================

The scheduling knobs (width, ring sizes, FU pools, latencies, ...)
key no artifact at all: the timing loop reads them per call.

This module makes that reuse *inspectable and accountable*: the
planners diff two configs (or two profiles) against those key
functions and report exactly which artifacts the next cell will reuse,
before it runs.  :class:`IncrementalSession` wraps the sweep engine
with that accounting — every config a ``run`` or ``run_grid`` times
after the first emits a ``sweep.incremental_plan`` journal event and
feeds the ``incremental_*`` counters that run manifests and
``repro report`` display.

Correctness is by construction, not by trust: the session delegates
timing to :func:`repro.uarch.sweep.simulate_pipeline_sweep`, whose
per-key artifact caches realize the plan's reuse and whose results are
enforced field-for-field identical to ``PipelineModel.run`` by the
corpus-wide differential suite.  The plan never steers execution; it
predicts (and then accounts for) what the engine's keying already
guarantees.
"""

import dataclasses

from repro.obs.journal import emit_event
from repro.uarch.sweep import (
    _hierarchy_key,
    _note,
    _predictor_key,
    acquire_trace_digest,
    simulate_pipeline_sweep,
)

#: The three artifact kinds a plan accounts for, in build order.
ARTIFACTS = ("digest", "cache_bank", "pred_bank")

#: Config field -> artifact kinds its value can invalidate.  ``name``
#: is pure labeling and the scheduling-only knobs invalidate nothing
#: (the planner consults the actual key functions; this map is the
#: documentation/reporting layer saying what *may* be affected).
CONFIG_FIELD_DEPS = {
    "name": (),
    "l1i": ("cache_bank",),
    "l1d": ("cache_bank",),
    "l2": ("cache_bank",),
    "l1_latency": ("cache_bank",),
    "l2_latency": ("cache_bank",),
    "memory_latency": ("cache_bank",),
    "predictor": ("pred_bank",),
    "predictor_kwargs": ("pred_bank",),
    "width": (),
    "fetch_queue": (),
    "rob_size": (),
    "lsq_size": (),
    "n_int_alu": (),
    "n_int_mul": (),
    "n_fp_alu": (),
    "n_fp_mul": (),
    "n_mem_ports": (),
    "in_order": (),
    "mispredict_penalty": (),
    "latency_ialu": (),
    "latency_imul": (),
    "latency_idiv": (),
    "latency_falu": (),
    "latency_fmul": (),
    "latency_fdiv": (),
}

#: Profile fields that change only labeling, never artifact content.
_PROFILE_LABEL_FIELDS = frozenset({"name"})


@dataclasses.dataclass(frozen=True)
class IncrementalPlan:
    """What a re-run with ``new`` reuses from a run keyed by ``old``."""

    changed_fields: tuple
    reused: tuple
    rebuilt: tuple

    @property
    def full_rebuild(self):
        return not self.reused

    def to_dict(self):
        return {
            "changed_fields": list(self.changed_fields),
            "reused": list(self.reused),
            "rebuilt": list(self.rebuilt),
            "full_rebuild": self.full_rebuild,
        }


def _changed_fields(old, new):
    names = [field.name for field in dataclasses.fields(old)]
    return tuple(name for name in names
                 if getattr(old, name) != getattr(new, name))


def plan_incremental(old_config, new_config):
    """The artifact reuse a sweep of ``new_config`` gets after
    ``old_config``, judged by the engine's own key functions.

    The digest is config-independent, so a config edit can never
    invalidate it; the banks survive exactly when their keys match.
    Scheduling-only edits reuse every artifact.
    """
    reused = ["digest"]
    rebuilt = []
    bank = (reused if _hierarchy_key(old_config) == _hierarchy_key(new_config)
            else rebuilt)
    bank.append("cache_bank")
    bank = (reused if _predictor_key(old_config) == _predictor_key(new_config)
            else rebuilt)
    bank.append("pred_bank")
    return IncrementalPlan(
        changed_fields=_changed_fields(old_config, new_config),
        reused=tuple(reused),
        rebuilt=tuple(rebuilt),
    )


def plan_profile_delta(old_profile, new_profile):
    """The reuse surviving a profile edit in a clone-refinement loop.

    Profile content determines the synthesized clone's source, hence
    its trace, hence *every* trace-derived artifact: any material field
    change is a full rebuild of all three kinds.  Only pure relabeling
    (``name``) — or no change at all — preserves them.  Blunt, but
    honest: a new clone is a new trace, and every artifact is cached on
    its trace, so nothing carries over.  It is the part refinement
    loops must budget for (the config axis, by contrast, reuses almost
    everything; see :func:`plan_incremental`).
    """
    changed = _changed_fields(old_profile, new_profile)
    if all(name in _PROFILE_LABEL_FIELDS for name in changed):
        reused, rebuilt = ARTIFACTS, ()
    else:
        reused, rebuilt = (), ARTIFACTS
    return IncrementalPlan(changed_fields=changed, reused=reused,
                           rebuilt=rebuilt)


def _account(plan):
    """Feed one plan into sweep stats and the run journal."""
    _note("incremental_plans")
    _note("incremental_reused_artifacts", len(plan.reused))
    _note("incremental_rebuilt_artifacts", len(plan.rebuilt))
    if plan.full_rebuild:
        _note("incremental_full_rebuilds")
    emit_event("sweep", event="incremental_plan", **plan.to_dict())


class IncrementalSession:
    """Stateful re-simulation of one trace across config refinements.

    Successive :meth:`run` and :meth:`run_grid` calls share the trace
    digest and every config-keyed bank through the sweep engine's
    per-trace caches, so a single-knob edit re-times in milliseconds
    while remaining bit-identical to a cold ``PipelineModel.run``.  Each
    config after the first plans the delta from the previous config,
    emits the ``sweep.incremental_plan`` journal event, and keeps the
    plan at :attr:`last_plan` for callers that want to display it.
    """

    def __init__(self, trace, max_instructions=None):
        self.trace = trace
        self.max_instructions = max_instructions
        self.last_config = None
        self.last_plan = None

    @classmethod
    def from_program(cls, program, max_instructions=None,
                     functional_cap=50_000_000, backend=None):
        """Open a session straight from a program, acquiring its trace
        through the streaming path when the native engine is available:
        the simulator feeds columnar chunks into the sweep digest and
        the session holds a :class:`~repro.sim.trace.TraceRef` instead
        of a materialized trace.  ``functional_cap`` bounds the
        functional simulation; ``max_instructions`` (as in the
        constructor) bounds each timed sweep."""
        digest = acquire_trace_digest(program,
                                      max_instructions=functional_cap,
                                      backend=backend)
        return cls(digest.trace, max_instructions=max_instructions)

    def run(self, config):
        """Time ``config``; returns the engine's ``PipelineResult``."""
        [result] = self.run_grid([config])
        return result

    def run_grid(self, configs):
        """Time a whole grid in one sweep call, planning each config
        against the one before it (the first against the session's
        last config).  Returns one ``PipelineResult`` per config."""
        configs = list(configs)
        previous = self.last_config
        for config in configs:
            if previous is not None:
                self.last_plan = plan_incremental(previous, config)
                _account(self.last_plan)
            previous = config
        results = simulate_pipeline_sweep(
            self.trace, configs, max_instructions=self.max_instructions)
        if configs:
            self.last_config = configs[-1]
        return results
