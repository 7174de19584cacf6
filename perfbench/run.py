"""Benchmark of the jobs users wait for, with a per-layer traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clone_new --seed 1 --seconds 10 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``clone_new``
    The vendor clones programs never seen before, one after another:
    ``pipeline_artifacts`` then real against clone on ``BASE_CONFIG``,
    with power.  The seed is every clone's synthesis seed.
``paper_eval``
    The architect re-evaluates the disseminated clones: Figs. 4-5,
    Figs. 6-7 and Table 3 over all 23 kernels with ``jobs=1``, from a
    store that holds the pipeline artifacts.  The inputs are the paper's
    fixed corpus and clones (so the committed figures reproduce); the
    seed picks the outputs the reference check re-derives.
``fleet_dse``
    A two-worker ``run_fleet`` over every kernel and a 54-config grid.
    The seed picks the cells the reference check re-derives.

A run is a sequence of rounds.  Each round sets up its start state and
times one job, in fresh processes with a private ``REPRO_CACHE_DIR``;
rounds repeat until the timed jobs add up to ``--seconds`` (three at
least), and every metric is the median over rounds.  Afterwards a
seeded sample of the last round's outputs is re-derived with the Python
references.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``.  The exit code is 0 only when every operation succeeded
and every check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

from accounting import FailureLedger, summarize  # noqa: E402
import layers  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Everything the benchmark writes lives here (listed in .gitignore).
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Compiled engines of the paper's 46 programs, built once per checkout.
PAPER_ENGINES = os.path.join(BUILD_DIR, "paper-engines")
MIN_ROUNDS = 3
#: No round starts once this much of the run has passed ...
ROUND_CUTOFF_S = 120.0
#: ... and every child process is killed at this point, so that the run
#: ends within its 180 s.
DEADLINE_S = 165.0
#: The first run in a checkout also builds the paper engines.
BUILD_DEADLINE_S = 800.0


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Runs the child steps of one benchmark run and keeps its books."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.deadline = self.started + DEADLINE_S
        self.work = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
        self.ledger = FailureLedger()
        self.steps = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def _env(self, cache_dir):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        tmp = os.path.join(self.work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env.update(PYTHONPATH=SOURCE, REPRO_CACHE_DIR=cache_dir,
                   REPRO_LOG_LEVEL="error", TMPDIR=tmp,
                   PYTHONHASHSEED="0")
        return env

    def start(self, step, cache_dir, **spec):
        """Launch one child step; returns a handle for :meth:`finish`."""
        self.steps += 1
        stem = os.path.join(self.work, f"{self.steps:03d}-{step}")
        spec.update(step=step, cache_dir=cache_dir, out=stem + ".out.json",
                    workload=self.args.workload, seed=self.args.seed)
        with open(stem + ".spec.json", "w") as handle:
            json.dump(spec, handle)
        log = open(stem + ".log", "w")
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "jobs.py"),
             stem + ".spec.json"],
            cwd=ROOT, env=self._env(cache_dir), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        return process, log, stem

    def finish(self, handle):
        process, log, stem = handle
        try:
            process.wait(timeout=max(1.0, self.deadline
                                     - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if process.poll() is None:
                # The child and anything it started (cc, fleet workers).
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            log.close()
        if process.returncode != 0:
            with open(stem + ".log") as handle:
                tail = handle.read()[-2000:]
            raise ChildFailed(f"{os.path.basename(stem)} exited "
                              f"{process.returncode}: {tail.strip()}")
        with open(stem + ".out.json") as handle:
            return json.load(handle)

    def child(self, step, cache_dir, **spec):
        return self.finish(self.start(step, cache_dir, **spec))

    # ------------------------------------------------------------------
    def round(self, index, trace):
        directory = os.path.join(self.work, f"round{index}")
        cache_dir = os.path.join(directory, "cache")
        os.makedirs(cache_dir, exist_ok=True)
        spans = os.path.join(directory, "spans.json")
        workload = self.args.workload
        if workload == "clone_new":
            result = self.child("clone_round", cache_dir, trace=trace,
                                spans=spans)
        elif workload == "fleet_dse":
            result = self.child("fleet_round", cache_dir, trace=trace,
                                spans=spans,
                                run_dir=os.path.join(directory, "run"))
        else:
            setup = self.child("paper_setup", cache_dir,
                               engines=PAPER_ENGINES)
            for library in setup["compiled"]:
                shutil.copy2(library, PAPER_ENGINES)
            result = self.child("paper_job", cache_dir, trace=trace,
                                spans=spans, state=setup["state"],
                                backends=setup["backends"])
            result["setup_s"] = setup["setup_s"]
        result.update(directory=directory, cache_dir=cache_dir,
                      spans=spans if trace else None)
        return result

    def build_paper_engines(self):
        """Compile the paper programs' engines once per checkout, with
        two processes (nproc = 2); later set-ups copy them."""
        if os.path.isdir(PAPER_ENGINES):
            return
        self.deadline = self.started + BUILD_DEADLINE_S
        cache_dir = os.path.join(self.work, "build")
        handles = [self.start("paper_build", cache_dir, share=share, of=2)
                   for share in range(2)]
        for handle in handles:
            self.finish(handle)
        staging = PAPER_ENGINES + ".tmp"
        shutil.copytree(os.path.join(cache_dir, "native"), staging)
        os.rename(staging, PAPER_ENGINES)
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.started = time.perf_counter()
        self.deadline = self.started + DEADLINE_S


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def end_to_end(rounds):
    """Every end-to-end metric's samples: ``{name: [value, ...]}``."""
    series = {
        "setup_s": [r["setup_s"] for r in rounds],
        "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "turnaround_p50_s": [t for r in rounds for t in r["turnarounds"]],
        "sim_minst_per_s": [r["sim_instructions"] / r["wall_s"] / 1e6
                            for r in rounds],
    }
    return {name: series[name] for name in END_TO_END}


def per_layer(rounds, untraced, ledger):
    """Every per-layer metric: ``({name: (median, samples)}, notes)``."""
    unmeasured, invisible, names = {}, set(), set()
    for r in rounds:
        unmeasured.update(r.get("unmeasured") or {})
        invisible.update(r.get("invisible") or ())
        names.update(r["layers"])
    medians = {name: summarize([r["layers"][name] for r in rounds
                                if name in r["layers"]])["median"]
               for name in names}
    if untraced:
        medians["bench.trace_overhead_s"] = summarize(
            [r["wall_s"] for r in rounds])["median"] - untraced["wall_s"]
    medians["bench.failed_frac"] = ledger.failed_frac
    values, notes = layers.complete(
        medians, unmeasured, invisible=invisible,
        reason_invisible="runs inside fleet worker processes, which "
                         "only journal counters")
    notes.pop("bench.unmeasured", None)
    values["bench.unmeasured"] = float(sum(
        1 for note in notes.values() if note.startswith("unmeasured")))
    return {name: (values[name], len(rounds)) for name in PER_LAYER}, notes


def record_round(ledger, index, result):
    ledger.attempt(result["attempted"])
    for op, (reason, count) in result["failures"].items():
        ledger.fail(f"round{index}:{op}", reason, count)


def compare_provenance(ledger, rounds):
    keys = ("sim_backends", "uarch_native_loop", "native_configs",
            "fallback_configs", "cc", "nproc")
    first = {key: rounds[0]["provenance"][key] for key in keys}
    for index, r in enumerate(rounds[1:], start=1):
        other = {key: r["provenance"][key] for key in keys}
        if other != first:
            ledger.fail_extra(f"round{index} ran other engines than round0: "
                              f"{other} vs {first}")


def run(args):
    runner = Runner(args)
    os.makedirs(runner.work, exist_ok=True)
    rounds, untraced, last = [], None, None
    try:
        # Whichever workload runs first in a checkout builds them.
        runner.build_paper_engines()
        timed, longest = 0.0, 0.0
        while len(rounds) < MIN_ROUNDS or timed < args.seconds:
            if rounds and runner.elapsed() + longest > ROUND_CUTOFF_S:
                break
            began = time.perf_counter()
            index = len(rounds) + 1
            result = runner.round(index, trace=bool(args.trace))
            record_round(runner.ledger, index, result)
            if last is not None:
                shutil.rmtree(last["directory"], ignore_errors=True)
            rounds.append(result)
            last = result
            timed += result["wall_s"]
            longest = max(longest, time.perf_counter() - began)
        if args.trace:
            # One untraced round: the base of the tracing overhead.
            index = len(rounds) + 1
            untraced = runner.round(index, trace=False)
            record_round(runner.ledger, index, untraced)
            shutil.rmtree(last["directory"], ignore_errors=True)
            last = untraced
        compare_provenance(runner.ledger,
                           rounds + ([untraced] if untraced else []))
        spec = {"outputs": last.get("outputs"),
                "figures": last.get("figures"),
                "backends": last["provenance"]["sim_backends"],
                "run_dir": os.path.join(last["directory"], "run")}
        checked = runner.child("check", last["cache_dir"], **spec)
        for op, reason in checked["failures"].items():
            runner.ledger.fail(f"{os.path.basename(last['directory'])}:{op}",
                               reason)
    except ChildFailed as exc:
        runner.ledger.attempt(1)
        runner.ledger.fail("child", str(exc))
        checked = {"sample": []}
    finally:
        spans = [r["spans"] for r in rounds if r.get("spans")]
        if spans:
            write_spans(args.workload, spans)
        shutil.rmtree(runner.work, ignore_errors=True)
    return rounds, untraced, checked, runner.ledger


def write_spans(workload, paths):
    """Keep the traced rounds' spans after the work dir is removed."""
    payload = []
    for path in paths:
        try:
            with open(path) as handle:
                payload.append(json.load(handle))
        except (OSError, ValueError):
            continue
    with open(os.path.join(BUILD_DIR, f"spans-{workload}.json"), "w") as f:
        json.dump(payload, f)


def report(args, rounds, untraced, checked, ledger):
    """Print the human-readable lines and the final JSON line."""
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={len(rounds)}")
    metrics = {}
    if rounds and args.trace:
        values, notes = per_layer(rounds, untraced, ledger)
        for name, (value, n) in values.items():
            note = f"  [{notes[name]}]" if name in notes else ""
            print(f"  {name:32s} {value:14.6f} {PER_LAYER[name]:9s} "
                  f"(median of {n}){note}")
            metrics[name] = {"value": value, "unit": PER_LAYER[name]}
        if args.workload == "clone_new":
            compile_s = values["native.compile_s"][0]
            acquire_s = values["sim.acquire_s"][0]
            total = compile_s + acquire_s
            print(f"  clone_new split: native.compile_s {compile_s:.3f} s "
                  f"({100 * compile_s / total if total else 0:.1f}%), "
                  f"sim.acquire_s {acquire_s:.3f} s")
    elif rounds:
        for name, samples in end_to_end(rounds).items():
            # No samples only when every job failed (correct is false).
            value = summarize(samples)["median"] if samples else 0.0
            shown = ", ".join(f"{sample:.4g}" for sample in samples)
            print(f"  {name:18s} {value:14.6f} {END_TO_END[name]:9s} "
                  f"(median of {len(samples)}: {shown})")
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
    for r in rounds[-1:]:
        print("provenance: " + json.dumps(r["provenance"], sort_keys=True))
        if r.get("figures"):
            print("figures: " + json.dumps(r["figures"], sort_keys=True))
    print(f"check: re-derived {checked.get('sample')}")
    for reason in ledger.reasons():
        print(f"FAILED {reason}")
    correct = bool(rounds) and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return correct


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program to measure: {SOURCE}/repro is "
              "missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    os.makedirs(BUILD_DIR, exist_ok=True)
    rounds, untraced, checked, ledger = run(args)
    return 0 if report(args, rounds, untraced, checked, ledger) else 1


if __name__ == "__main__":
    sys.exit(main())
