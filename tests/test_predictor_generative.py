"""Generative differential tests for the predictor layer's two engines.

Hypothesis draws branch streams — random, and adversarial: empty, one
branch, all-taken, all-not-taken, PCs that alias in every table size,
long periodic runs — and geometries: GAp ``history_bits``/``pc_bits``,
gshare ``history_bits`` and bimodal ``entries`` down to a one-counter
table.  ``predictor_outcome_bank`` must equal the flags of a replay
through ``make_predictor(...).update``, the scalar spec.  Every case
runs once on the native counter kernel and once under
``REPRO_NATIVE=off`` (the reference fallback), and checks that the
replay was counted against the engine that ran it.  The kernel's own
argument checks are exercised in a child process that must survive.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import REGISTRY
from repro.uarch import native
from repro.uarch.branch_predictors import make_predictor, \
    predictor_outcome_bank


@pytest.fixture(scope="module", params=["native", "reference"])
def engine(request):
    """Select the replay engine for a whole module pass.

    Module-scoped (Hypothesis re-runs a test body many times per
    fixture instance), so the environment is set and restored by hand.
    """
    previous = os.environ.get("REPRO_NATIVE")
    if request.param == "reference":
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


def replays(engine):
    counter = REGISTRY.get(f"uarch.predictor_replay.{engine}")
    return counter.value if counter else 0


GEOMETRIES = st.one_of(
    st.builds(lambda history, pc: ("gap", {"history_bits": history,
                                          "pc_bits": pc}),
              st.integers(0, 10), st.integers(0, 6)),
    st.builds(lambda history: ("gshare", {"history_bits": history}),
              st.integers(0, 12)),
    st.builds(lambda bits: ("bimodal", {"entries": 1 << bits}),
              st.integers(0, 12)),
)

PCS = st.one_of(st.integers(0, 64), st.integers(0, 1 << 20),
                st.integers(-(1 << 40), 1 << 40))


STREAMS = st.one_of(
    st.just([]),
    st.lists(st.tuples(PCS, st.booleans()), min_size=1, max_size=1),
    st.builds(lambda pcs: [(pc, True) for pc in pcs],
              st.lists(PCS, max_size=200)),
    st.builds(lambda pcs: [(pc, False) for pc in pcs],
              st.lists(PCS, max_size=200)),
    # PCs a power-of-two stride apart share a slot in every table
    # narrower than the stride.
    st.builds(lambda base, shift, picks: [
        (base + (index << shift), taken) for index, taken in picks],
        st.integers(0, 4096), st.integers(0, 16),
        st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                 max_size=300)),
    st.lists(st.tuples(PCS, st.booleans()), max_size=300),
    # Long periodic runs: loops whose period the history may or may
    # not cover.
    st.builds(lambda pattern, repeats: pattern * repeats,
              st.lists(st.tuples(st.integers(0, 32), st.booleans()),
                       min_size=1, max_size=12),
              st.integers(1, 200)),
)


def spec_flags(kind, kwargs, stream):
    """Mispredict flags from ``make_predictor(...).update``."""
    predictor = make_predictor(kind, **kwargs)
    flags = []
    for pc, taken in stream:
        before = predictor.stats.mispredictions
        predictor.update(pc, taken)
        flags.append(predictor.stats.mispredictions != before)
    return flags


def as_arrays(stream):
    pcs = np.array([pc for pc, _ in stream], dtype=np.int64)
    taken = np.array([taken for _, taken in stream], dtype=bool)
    return pcs, taken


@settings(max_examples=300, deadline=None)
@given(stream=STREAMS, geometry=GEOMETRIES)
def test_bank_matches_predictor_updates(engine, stream, geometry):
    kind, kwargs = geometry
    pcs, taken = as_arrays(stream)
    before = replays(engine)
    flags = predictor_outcome_bank(pcs, taken, kind, **kwargs)
    assert flags.dtype == np.bool_
    assert flags.tolist() == spec_flags(kind, kwargs, stream)
    assert replays(engine) == before + 1


@settings(max_examples=50, deadline=None)
@given(stream=STREAMS, kind=st.sampled_from(["nottaken", "taken"]))
def test_static_predictors_need_no_replay(engine, stream, kind):
    pcs, taken = as_arrays(stream)
    before = {name: replays(name) for name in ("native", "reference")}
    flags = predictor_outcome_bank(pcs, taken, kind)
    assert flags.tolist() == spec_flags(kind, {}, stream)
    assert {name: replays(name) for name in before} == before


# ----------------------------------------------------------------------
# The kernel's argument checks
# ----------------------------------------------------------------------
needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C compiler on host")

#: Runs in a child process, so a kernel that indexed out of bounds
#: would fail the test instead of killing the test runner.
_BOUNDARY_SCRIPT = textwrap.dedent("""
    import ctypes
    import numpy as np
    from repro.uarch import native

    assert native.available()
    U8 = ctypes.POINTER(ctypes.c_uint8)
    I64 = ctypes.POINTER(ctypes.c_int64)
    kernel = native._load().repro_counter_replay
    indices = np.zeros(4, dtype=np.int64)
    taken = np.ones(4, dtype=np.uint8)
    counters = np.empty(4, dtype=np.uint8)
    miss = np.empty(4, dtype=np.uint8)
    status = kernel(indices.ctypes.data_as(I64), taken.ctypes.data_as(U8),
                    -1, 4, counters.ctypes.data_as(U8),
                    miss.ctypes.data_as(U8))
    assert status == -1, status

    for bad, entries in (([0, 1, 4], 4), ([0, -1], 4), ([1 << 40], 16),
                         ([0], 0), ([], -3)):
        try:
            native.counter_replay(np.array(bad, dtype=np.int64),
                                  np.ones(len(bad), dtype=bool), entries)
        except ValueError:
            pass
        else:
            raise SystemExit(f"counter_replay accepted {bad} in {entries}")
    print("survived")
""")


@needs_native
def test_kernel_rejects_bad_arguments_and_survives():
    # The module's engine fixture may still hold REPRO_NATIVE=off.
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_NATIVE"}
    done = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT],
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("survived")


@needs_native
def test_counter_replay_rejects_misshapen_taken():
    with pytest.raises(ValueError, match="taken"):
        native.counter_replay(np.zeros(4, dtype=np.int64),
                              np.zeros(3, dtype=bool), 4)
