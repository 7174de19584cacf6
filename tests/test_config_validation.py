"""Invalid configurations fail loudly at the boundary.

Each case here once crashed or silently mis-modeled a run: a zero ROB,
LSQ or fetch queue killed the process with SIGFPE in the native timing
loop, zero memory ports corrupted the heap, zero width or integer ALUs
were accepted, and a 24-byte line was modeled as 16 bytes.  Configs
now reject such values at construction, recipes at expansion, and the
C kernels re-check their preconditions at the ctypes boundary.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.fleet import Recipe, RecipeError
from repro.uarch import BASE_CONFIG, CacheConfig, native


@pytest.mark.parametrize("field", [
    "width", "fetch_queue", "rob_size", "lsq_size", "n_int_alu",
    "n_int_mul", "n_fp_alu", "n_fp_mul", "n_mem_ports",
])
def test_zero_sizes_rejected(field):
    with pytest.raises(ValueError, match=rf"{field}=0 "):
        BASE_CONFIG.renamed("bad", **{field: 0})


@pytest.mark.parametrize("field", [
    "l1_latency", "l2_latency", "memory_latency", "mispredict_penalty",
    "latency_ialu", "latency_idiv", "latency_fdiv",
])
def test_negative_latencies_rejected(field):
    with pytest.raises(ValueError, match=rf"{field}=-1 "):
        BASE_CONFIG.renamed("bad", **{field: -1})


def test_zero_latency_allowed():
    assert BASE_CONFIG.renamed("fast", mispredict_penalty=0,
                               l1_latency=0).l1_latency == 0


@pytest.mark.parametrize("value", [1.5, "2", True, None])
def test_non_integer_width_rejected(value):
    with pytest.raises(ValueError, match="width="):
        BASE_CONFIG.renamed("bad", width=value)


def test_unknown_predictor_rejected():
    with pytest.raises(ValueError, match="predictor='tage'"):
        BASE_CONFIG.renamed("bad", predictor="tage")


@pytest.mark.parametrize("line", [24, 3, 48])
def test_non_power_of_two_line_rejected(line):
    with pytest.raises(ValueError, match=f"line={line} is not a power"):
        CacheConfig(line * 4, 1, line)


def test_recipe_with_zero_rob_fails_at_expansion():
    recipe = Recipe(name="bad-rob", kernels=["crc32"],
                    axes={"rob_size": [16, 0]})
    with pytest.raises(RecipeError, match="rob_size=0"):
        recipe.expand()


def test_recipe_with_bad_line_fails_at_expansion():
    recipe = Recipe(name="bad-line", kernels=["crc32"],
                    axes={"l1d": [[96, 1, 24]]})
    with pytest.raises(RecipeError, match="l1d: cache line=24"):
        recipe.expand()


def test_bad_recipe_leaves_no_run_dir(tmp_path):
    from repro.fleet import run_fleet
    run_dir = tmp_path / "run"
    with pytest.raises(RecipeError, match="rob_size=0"):
        run_fleet(str(run_dir), {"name": "bad", "kernels": ["crc32"],
                                 "axes": {"rob_size": [16, 0]}})
    assert not run_dir.exists()


# ----------------------------------------------------------------------
# The ctypes boundary, bypassing config validation
# ----------------------------------------------------------------------
needs_native = pytest.mark.skipif(not native.available(),
                                  reason="no C compiler on host")

#: Runs in a child process, so a kernel that still crashed on a bad
#: argument would fail the test instead of killing the test runner.
_BOUNDARY_SCRIPT = textwrap.dedent("""
    import copy
    import numpy as np
    from repro.isa import assemble
    from repro.sim import run_program
    from repro.uarch import BASE_CONFIG, native
    from repro.uarch.sweep import (_build_cache_bank, _build_pred_bank,
                                   _initial_state, trace_digest)

    assert native.available()
    for sets, ways in ((0, 4), (4, 0), (-1, 2)):
        try:
            native.cache_replay(np.arange(8), sets, ways)
        except ValueError:
            pass
        else:
            raise SystemExit(f"cache_replay accepted {sets}x{ways}")

    trace = run_program(assemble('''
        li r4, 0
        li r5, 50
    loop:
        addi r4, r4, 1
        blt r4, r5, loop
        halt
    ''', name="tiny"))
    digest = trace_digest(trace)
    for field in ("width", "rob_size", "lsq_size", "fetch_queue",
                  "n_int_alu", "n_mem_ports"):
        bad = copy.copy(BASE_CONFIG)
        object.__setattr__(bad, field, 0)
        state = _initial_state(bad)
        try:
            native.run_range(0, digest.n, digest, bad,
                             _build_cache_bank(digest, bad),
                             _build_pred_bank(digest, bad), state)
        except ValueError as exc:
            assert field in str(exc) or "pools" in str(exc), exc
        else:
            raise SystemExit(f"run_range accepted {field}=0")
    print("survived")
""")


@needs_native
def test_kernels_reject_bad_arguments_and_survive():
    done = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("survived")


@needs_native
def test_cache_replay_rejects_misshapen_hit_buffer():
    with pytest.raises(ValueError, match="hits"):
        native.cache_replay(np.arange(4), 2, 2,
                            np.empty(3, dtype=bool))
    with pytest.raises(ValueError, match="hits"):
        native.cache_replay(np.arange(4), 2, 2,
                            np.empty(4, dtype=np.int64))
