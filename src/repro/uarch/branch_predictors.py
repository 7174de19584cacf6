"""Branch direction predictors.

The base machine uses the paper's 2-level GAp predictor (global history
register, per-address pattern history tables); design change 4 swaps it
for always-not-taken.  Bimodal and gshare are included for wider studies.
All predictors share the ``predict(pc) -> bool`` / ``update(pc, taken)``
protocol and track their own accuracy; these classes are the spec.

:func:`predictor_outcome_bank` resolves a whole ``(pc, taken)`` branch
stream at once.  The PHT index sequence is derived in numpy from the
already-known taken sequence (global history is just shifted outcome
bits), and the 2-bit counters are replayed over it by one C kernel,
:func:`repro.uarch.native.counter_replay`.  Without a C compiler, or
under ``REPRO_NATIVE=off``, the stream replays through the predictor
class itself instead: identical flags, slower — a correctness fallback,
not a performance tier.  Each counter replay counts toward the
``uarch.predictor_replay.native`` or ``uarch.predictor_replay.reference``
registry counter.  :func:`simulate_predictor` rides on the bank; the
scalar loop is kept as :func:`simulate_predictor_reference` and
equality-tested.
"""

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.uarch import native


class _PredictorStats:
    __slots__ = ("lookups", "mispredictions")

    def __init__(self):
        self.lookups = 0
        self.mispredictions = 0

    @property
    def misprediction_rate(self):
        if self.lookups == 0:
            return 0.0
        return self.mispredictions / self.lookups


class BranchPredictorBase:
    """Shared bookkeeping; subclasses implement _predict/_update."""

    def __init__(self):
        self.stats = _PredictorStats()

    def predict(self, pc):
        return self._predict(pc)

    def update(self, pc, taken):
        self.stats.lookups += 1
        if self._predict(pc) != taken:
            self.stats.mispredictions += 1
        self._update(pc, taken)

    def _predict(self, pc):
        raise NotImplementedError

    def _update(self, pc, taken):
        raise NotImplementedError


class AlwaysNotTaken(BranchPredictorBase):
    def _predict(self, pc):
        return False

    def _update(self, pc, taken):
        pass


class AlwaysTaken(BranchPredictorBase):
    def _predict(self, pc):
        return True

    def _update(self, pc, taken):
        pass


class Bimodal(BranchPredictorBase):
    """PC-indexed 2-bit saturating counters."""

    def __init__(self, entries=2048):
        super().__init__()
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counters = [1] * entries  # weakly not-taken

    def _index(self, pc):
        return pc & (self.entries - 1)

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)


class TwoLevelGAp(BranchPredictorBase):
    """2-level GAp: one Global history register, per-Address PHTs.

    The pattern-history-table index concatenates low PC bits with the
    global history, i.e. each static branch gets its own history-indexed
    table slice.
    """

    def __init__(self, history_bits=8, pc_bits=6):
        super().__init__()
        self.history_bits = history_bits
        self.pc_bits = pc_bits
        self.history = 0
        self.counters = [1] * (1 << (history_bits + pc_bits))

    def _index(self, pc):
        return ((pc & ((1 << self.pc_bits) - 1)) << self.history_bits) \
            | self.history

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)


class GShare(BranchPredictorBase):
    """Global history XOR-ed into the PC index."""

    def __init__(self, history_bits=10):
        super().__init__()
        self.history_bits = history_bits
        self.history = 0
        self.counters = [1] * (1 << history_bits)

    def _index(self, pc):
        return (pc ^ self.history) & ((1 << self.history_bits) - 1)

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)


_PREDICTORS = {
    "nottaken": AlwaysNotTaken,
    "taken": AlwaysTaken,
    "bimodal": Bimodal,
    "gap": TwoLevelGAp,
    "gshare": GShare,
}

#: The predictor names ``MachineConfig.predictor`` accepts.
PREDICTOR_KINDS = tuple(_PREDICTORS)


def make_predictor(kind, **kwargs):
    """Instantiate a predictor by name (see keys of ``_PREDICTORS``)."""
    try:
        cls = _PREDICTORS[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}") from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Outcome banks (the sweep engine's predictor side)
# ----------------------------------------------------------------------
def _global_history(taken, history_bits):
    """Global-history register value *before* each branch.

    ``history = ((history << 1) | taken) & mask`` means the register
    seen by branch ``i`` holds outcome ``i-1`` in bit 0, ``i-2`` in
    bit 1, ...: pure shifts of the known taken sequence.
    """
    n = len(taken)
    history = np.zeros(n, dtype=np.int64)
    bits = taken.astype(np.int64)
    for age in range(1, history_bits + 1):
        history[age:] |= bits[:-age] << (age - 1)
    return history


def _counter_indices(model, pcs, taken):
    """The PHT index each branch reads in ``model``'s counter table, or
    None for a predictor this derivation does not know."""
    if isinstance(model, Bimodal):
        return pcs & (model.entries - 1)
    if isinstance(model, TwoLevelGAp):
        history = _global_history(taken, model.history_bits)
        return (((pcs & ((1 << model.pc_bits) - 1))
                 << model.history_bits) | history)
    if isinstance(model, GShare):
        history = _global_history(taken, model.history_bits)
        return (pcs ^ history) & ((1 << model.history_bits) - 1)
    return None


def _replay_reference(model, pcs, taken):
    """Mispredict flags from replaying the stream through ``model``."""
    flags = np.empty(len(pcs), dtype=bool)
    update = model.update
    predict = model._predict
    for position, (pc, was_taken) in enumerate(
            zip(pcs.tolist(), taken.tolist())):
        flags[position] = predict(pc) != was_taken
        update(pc, was_taken)
    return flags


def predictor_outcome_bank(pcs, taken, kind="gap", **kwargs):
    """Per-branch mispredict flags for one ``(pc, outcome)`` stream.

    Equal to replaying the stream through
    ``make_predictor(kind, **kwargs)`` and recording each update's
    mispredict outcome.  ``pcs`` and ``taken`` are parallel arrays (any
    int / bool dtypes).  The static predictors need no replay; the
    counter predictors run on the native kernel when it is available
    and on the predictor class otherwise.
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    taken = np.asarray(taken, dtype=bool)
    model = make_predictor(kind, **kwargs)
    if isinstance(model, AlwaysNotTaken):
        return taken.copy()
    if isinstance(model, AlwaysTaken):
        return ~taken
    indices = (_counter_indices(model, pcs, taken) if native.available()
               else None)
    if indices is not None:
        flags = native.counter_replay(indices, taken, len(model.counters))
        engine = "native"
    else:
        flags = _replay_reference(model, pcs, taken)
        engine = "reference"
    REGISTRY.counter(f"uarch.predictor_replay.{engine}").inc()
    return flags


def simulate_predictor(trace, kind="gap", **kwargs):
    """Replay all conditional branches of a trace through a predictor.

    Returns the predictor (its ``stats`` hold the misprediction rate).
    Outcomes come from :func:`predictor_outcome_bank`;
    :func:`simulate_predictor_reference` is the scalar specification
    this is equality-tested against.  The returned predictor's *stats*
    are exact; its internal table state is not replayed.
    """
    predictor = make_predictor(kind, **kwargs)
    branch_positions = trace.branch_indices()
    pcs = trace.pcs[branch_positions]
    outcomes = trace.taken[branch_positions] == 1
    mispredicts = predictor_outcome_bank(pcs, outcomes, kind, **kwargs)
    predictor.stats.lookups = len(pcs)
    predictor.stats.mispredictions = int(np.count_nonzero(mispredicts))
    return predictor


def simulate_predictor_reference(trace, kind="gap", **kwargs):
    """The original per-branch loop, kept as the executable spec for
    :func:`simulate_predictor` (differential tests compare both)."""
    predictor = make_predictor(kind, **kwargs)
    update = predictor.update
    branch_positions = trace.branch_indices()
    pcs = trace.pcs[branch_positions].tolist()
    outcomes = (trace.taken[branch_positions] == 1).tolist()
    for pc, taken in zip(pcs, outcomes):
        update(pc, taken)
    return predictor
