"""Reuse-affinity scheduling: shard cells so shared work stays local.

The sweep engine's artifacts are keyed by trace and by config subsets
(:mod:`repro.uarch.incremental` documents the table): the trace digest
is per-trace, cache banks per hierarchy, predictor banks per predictor.
A scheduler that scatters a kernel's cells across workers makes every
worker acquire the trace and re-derive each bank; one that keeps a
trace's cells on a single worker back-to-back turns all of that into
in-process cache hits and single-knob :class:`~repro.uarch.incremental.IncrementalSession`
steps.

So the fleet orders and shards on exactly those keys:

* cells are grouped by trace (kernel, subject, seed) — a group never
  splits across shards;
* inside a group, cells sort by (hierarchy key, predictor key) so
  neighbors differ in as few artifact keys as possible;
* groups are packed onto shards largest-first onto the currently
  lightest shard (LPT), so shard loads balance without breaking
  affinity;
* a shard is leased and timed in *units* (:func:`build_units`): the
  cells sharing one trace and one (hierarchy key, predictor key) pair,
  which one ``simulate_pipeline_sweep`` call times against a single
  cache bank and a single predictor bank;
* a worker that drains its own shard steals units from the *tail* of
  the currently heaviest remaining shard — the victim works its shard
  head-to-tail, so tail units are the ones it would reach last and
  stealing them collides least with the victim's warm state.

Everything here is deterministic: same cells + same shard count =>
same shards, same order.  Unit ids depend only on their member cells,
so they are the same for every shard count.
"""

import dataclasses
import hashlib

from repro.uarch.sweep import _hierarchy_key, _predictor_key


def affinity_key(cell):
    """Sort key placing bank-sharing cells back-to-back.

    Hierarchy first (cache banks are the most expensive artifact to
    rebuild), then predictor, then expansion index as the
    deterministic tiebreak.
    """
    return (repr(_hierarchy_key(cell.config)),
            repr(_predictor_key(cell.config)),
            cell.index)


def order_cells(cells):
    """Cells grouped by trace, affinity-sorted inside each group."""
    ordered = []
    for group in group_by_trace(cells):
        ordered.extend(group)
    return ordered


def group_by_trace(cells):
    """Trace-sharing cell groups, each affinity-ordered, in first-seen
    trace order (expansion order is kernel-major, so this is stable)."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell.trace_key, []).append(cell)
    return [sorted(group, key=affinity_key) for group in groups.values()]


def build_shards(cells, n_shards):
    """Partition cells into ``n_shards`` affinity-preserving shards.

    Returns a list of cell lists (some possibly empty when there are
    fewer trace groups than shards).  Groups are assigned largest-first
    to the lightest shard; ties break on shard index, group order on
    first appearance — fully deterministic.
    """
    n_shards = max(1, int(n_shards))
    groups = group_by_trace(cells)
    shards = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    # Stable largest-first: sort by (-size, first-seen order).
    order = sorted(range(len(groups)),
                   key=lambda position: (-len(groups[position]), position))
    for position in order:
        group = groups[position]
        target = min(range(n_shards), key=lambda shard: (loads[shard],
                                                         shard))
        shards[target].extend(group)
        loads[target] += len(group)
    return shards


@dataclasses.dataclass(frozen=True)
class Unit:
    """The lease and sweep granule: cells sharing one trace and one
    (hierarchy, predictor) bank pair, in affinity order."""

    unit_id: str
    cells: tuple


def _unit_id(cells):
    """``<kernel>-s<seed>-u<hash of the member cell ids>``."""
    material = "\n".join(cell.cell_id for cell in cells)
    digest = hashlib.sha256(material.encode()).hexdigest()[:12]
    prefix = cells[0].cell_id.rsplit("-", 1)[0]
    return f"{prefix}-u{digest}"


def build_units(shard):
    """Split a shard into units, in shard order.

    A unit holds every cell of the shard with its trace key, hierarchy
    key and predictor key; ``build_shards`` keeps those cells next to
    each other, so units come out in the shard's own order.
    """
    groups = {}
    for cell in shard:
        key = (cell.trace_key, _hierarchy_key(cell.config),
               _predictor_key(cell.config))
        groups.setdefault(key, []).append(cell)
    return [Unit(_unit_id(cells), tuple(cells)) for cells in groups.values()]


def count_cells(units, unit_ids):
    """How many cells the units named in ``unit_ids`` hold."""
    return sum(len(unit.cells) for unit in units if unit.unit_id in unit_ids)


def steal_candidates(shards, own_index, remaining):
    """Items (units or cells) to try stealing, best-victim-first,
    tail-first.

    ``remaining`` is a predicate (item -> bool) selecting items still
    worth claiming (no published result).  Victim shards are visited
    heaviest-remaining first; within a victim, items come from the tail
    backwards so the thief and the victim converge from opposite ends.
    """
    victims = []
    for index, shard in enumerate(shards):
        if index == own_index:
            continue
        pending = [item for item in shard if remaining(item)]
        if pending:
            victims.append((len(pending), -index, pending))
    victims.sort(reverse=True)
    for _, _, pending in victims:
        yield from reversed(pending)
