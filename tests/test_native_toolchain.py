"""The shared native toolchain: library keys and compile accounting."""

import os

import pytest

from repro.native import toolchain
from repro.obs.metrics import REGISTRY
from repro.obs.timing import TRACER

needs_cc = pytest.mark.skipif(
    not (toolchain.enabled() and toolchain.probe()),
    reason="no working C toolchain")

SOURCE = "int repro_toolchain_test(void) { return 7; }\n"


@pytest.fixture
def cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@needs_cc
class TestLibraryKey:
    def test_flags_change_the_library_path(self, cache, monkeypatch):
        default = toolchain.compile_cached(SOURCE, "keytest")
        monkeypatch.setattr(toolchain, "CC",
                            ("cc", "-O1", "-shared", "-fPIC"))
        other = toolchain.compile_cached(SOURCE, "keytest")
        assert other != default
        assert os.path.exists(default) and os.path.exists(other)

    def test_compiler_identity_changes_the_library_path(self, cache,
                                                        monkeypatch):
        default = toolchain.compile_cached(SOURCE, "keytest")
        monkeypatch.setattr(toolchain, "_IDENTITY", "cc (other) 1.0")
        assert toolchain.compile_cached(SOURCE, "keytest") != default

    def test_target_triple_changes_the_library_path(self, cache,
                                                    monkeypatch):
        default = toolchain.compile_cached(SOURCE, "keytest")
        real_line = toolchain._compiler_line

        def other_target(binary, flag):
            if flag == "-dumpmachine":
                return "riscv64-unknown-linux-gnu"
            return real_line(binary, flag)

        # A second cache dir, so the identity memo is cold there too.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache / "other-host"))
        monkeypatch.setattr(toolchain, "_IDENTITY", None)
        monkeypatch.setattr(toolchain, "_compiler_line", other_target)
        assert "riscv64-unknown-linux-gnu" in toolchain.compiler_identity()
        other = toolchain.compile_cached(SOURCE, "keytest")
        assert os.path.basename(other) != os.path.basename(default)

    def test_identity_is_the_version_line_and_target(self):
        identity = toolchain.compiler_identity()
        assert identity and "\n" not in identity
        assert "[target " in identity

    def test_warm_cache_learns_identity_without_running_cc(
            self, cache, monkeypatch):
        monkeypatch.setattr(toolchain, "_IDENTITY", None)
        identity = toolchain.compiler_identity()

        def no_subprocess(*args, **kwargs):
            raise AssertionError("cc spawned on a warm cache")

        monkeypatch.setattr(toolchain, "_IDENTITY", None)
        monkeypatch.setattr(toolchain.subprocess, "run", no_subprocess)
        assert toolchain.compiler_identity() == identity


@needs_cc
class TestCompileAccounting:
    def test_compile_then_hit_counted_and_spanned(self, cache):
        was_enabled = REGISTRY.enabled
        REGISTRY.enable()
        try:
            compiles = REGISTRY.counter("native.compiles").value
            hits = REGISTRY.counter("native.compile_hits").value
            seconds = REGISTRY.counter("native.compile_seconds").value
            spans = TRACER.flat().get("native.compile", {}).get("count", 0)
            first = toolchain.compile_cached(SOURCE, "accounting")
            assert toolchain.compile_cached(SOURCE, "accounting") == first
            assert REGISTRY.counter("native.compiles").value == compiles + 1
            assert REGISTRY.counter("native.compile_hits").value == hits + 1
            assert REGISTRY.counter(
                "native.compile_seconds").value > seconds
            assert TRACER.flat()["native.compile"]["count"] == spans + 1
        finally:
            if not was_enabled:
                REGISTRY.disable()
