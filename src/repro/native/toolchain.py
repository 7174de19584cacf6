"""Shared native toolchain: cc probe, compile-once cache, loading.

Both native engines — the sweep's scheduling loop
(:mod:`repro.uarch.native`) and the functional interpreter
(:mod:`repro.sim.native`) — are fixed C sources embedded in their
modules and compiled once per machine, never per program.  They need
the same machinery: a ``REPRO_NATIVE`` gate, a C-compiler probe, and a
compile cache under the repro cache dir.  This module is that
machinery, factored out so there is a single gate, one compile cache,
and one probe event per process no matter how many engines are in
play.

A cached library is keyed by its source, the compiler flags (:data:`CC`)
and the compiler's identity (the first line of ``cc --version`` plus the
target triple of ``cc -dumpmachine``, captured once per process by
:func:`probe` and memoized per compiler binary), so one cache dir shared
by hosts with different toolchains or targets never serves a foreign
build.  Every
build is visible: a ``native.compile`` span plus the ``native.compiles``
/ ``native.compile_hits`` / ``native.compile_seconds`` registry
counters, so manifests and ``repro report`` show compile time apart
from ``sim.run``.

Everything degrades gracefully: no C compiler, a failed compile, or
``REPRO_NATIVE=off`` means :func:`load_library` returns ``None`` and
callers keep using their pure-Python paths.  Semantics are identical
either way; only the wall time differs.
"""

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time

from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.timing import span

_LOG = get_logger("repro.native.toolchain")

_FALSY = {"0", "off", "false", "no", "disabled"}

#: Compiler invocation shared by every engine.
CC = ("cc", "-O2", "-shared", "-fPIC")

#: None = not yet probed this process, else bool (cc works).
_PROBE = None

#: ``cc --version`` first line and target; None = not yet captured.
_IDENTITY = None

#: One-line library whose successful compile+dlopen proves the
#: toolchain works; cached like any engine source, so later processes
#: just stat the ``.so``.
_PROBE_SOURCE = "int repro_native_probe(void) { return 42; }\n"


def enabled():
    """Whether native codegen is allowed (the single REPRO_NATIVE gate)."""
    return os.environ.get("REPRO_NATIVE", "").strip().lower() not in _FALSY


def cache_dir():
    from repro.exec.store import default_cache_dir
    return os.path.join(default_cache_dir(), "native")


def _compiler_line(binary, flag):
    """First stdout line of ``binary flag``."""
    done = subprocess.run([binary, flag], check=True, capture_output=True,
                          text=True, timeout=30)
    return (done.stdout.splitlines() or [""])[0].strip()


def compiler_identity():
    """``cc --version``'s first line and target, captured once per process.

    Reads ``"<version line> [target <triple>]"``, the triple coming from
    ``cc -dumpmachine``.  It is memoized in the cache dir per compiler
    binary (resolved path, size, mtime), so a warm process never spawns
    ``cc`` just to learn it: a child exec'd from a large process reports
    the parent's resident set as its own peak, which would inflate
    every caller's peak-RSS accounting.  Raises ``OSError`` /
    ``subprocess.SubprocessError`` when the compiler cannot be run.
    """
    global _IDENTITY
    if _IDENTITY is None:
        binary = shutil.which(CC[0])
        if binary is None:
            raise FileNotFoundError(f"C compiler {CC[0]!r} not found")
        binary = os.path.realpath(binary)
        info = os.stat(binary)
        # "target" names the memo's format: version line plus triple.
        stamp = hashlib.sha256(
            f"{binary}\0{info.st_size}\0{info.st_mtime_ns}\0target"
            .encode()).hexdigest()[:16]
        memo = os.path.join(cache_dir(), f"cc-{stamp}.txt")
        try:
            with open(memo) as handle:
                _IDENTITY = handle.read()
        except OSError:
            _IDENTITY = (f"{_compiler_line(binary, '--version')} "
                         f"[target {_compiler_line(binary, '-dumpmachine')}]")
            with contextlib.suppress(OSError):
                os.makedirs(cache_dir(), exist_ok=True)
                fd, staged = tempfile.mkstemp(suffix=".txt",
                                              dir=cache_dir())
                with os.fdopen(fd, "w") as handle:
                    handle.write(_IDENTITY)
                os.replace(staged, memo)
    return _IDENTITY


def compile_cached(source, stem):
    """Build (or reuse) the content-addressed shared library; its path.

    Keyed by source, compiler flags and compiler identity, so an edit
    to any of them rebuilds cleanly; concurrent builders race benignly
    through a temp-file rename.
    """
    key = "\0".join((source, " ".join(CC), compiler_identity()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    directory = cache_dir()
    library = os.path.join(directory, f"{stem}-{digest}.so")
    if os.path.exists(library):
        REGISTRY.counter("native.compile_hits").inc()
        return library
    os.makedirs(directory, exist_ok=True)
    fd, source_path = tempfile.mkstemp(suffix=".c", dir=directory)
    started = time.perf_counter()
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        staged = source_path[:-2] + ".so"
        with span("native.compile", stem=stem):
            subprocess.run([*CC, "-o", staged, source_path, "-lm"],
                           check=True, capture_output=True, timeout=120)
        os.replace(staged, library)
    finally:
        REGISTRY.counter("native.compiles").inc()
        REGISTRY.counter("native.compile_seconds").inc(
            time.perf_counter() - started)
        for leftover in (source_path, source_path[:-2] + ".so"):
            if os.path.exists(leftover):
                with contextlib.suppress(OSError):
                    os.remove(leftover)
    return library


def probe():
    """Whether this host can compile and load native code at all.

    The outcome is cached for the process and logged exactly once, so
    a missing compiler costs one failed ``cc`` invocation total — not
    one per engine.  It also captures the compiler identity that keys
    every cached library.
    """
    global _PROBE
    if _PROBE is None:
        try:
            compiler_identity()
            ctypes.CDLL(compile_cached(_PROBE_SOURCE, "probe"))
        except (OSError, subprocess.SubprocessError, ValueError) as exc:
            _LOG.warning("native.probe", available=False, error=str(exc))
            _PROBE = False
        else:
            _LOG.info("native.probe", available=True,
                      compiler=_IDENTITY)
            _PROBE = True
    return _PROBE


def load_library(source, stem):
    """Compile-or-reuse ``source`` and dlopen it; ``None`` when gated
    off or the toolchain is unavailable (the graceful-fallback
    contract shared by every native engine)."""
    if not enabled() or not probe():
        return None
    try:
        return ctypes.CDLL(compile_cached(source, stem))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        _LOG.warning("native.unavailable", stem=stem, error=str(exc))
        return None


def reset():
    """Forget the probe result and compiler identity (tests toggling
    REPRO_NATIVE / cc)."""
    global _PROBE, _IDENTITY
    _PROBE = None
    _IDENTITY = None
