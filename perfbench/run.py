"""Compile-time benchmark of jtxinfer through its command-line entry point.

    python3 perfbench/run.py --workload paper-units --seed 1 --seconds 25 \
        --trace 0

Every sample is one `jtxinfer.cli.main([file])` call, which writes all four
outputs next to the file.  Calls run in a closed loop from one process and
one thread: the next program starts when the previous one returns.  A pass
compiles every program of the workload once, in the seeded order.

The first pass is not timed: it checks every program's outputs against its
reference (see gate.py) and keeps them, and every later call must write
byte-identical outputs.  `--trace 0` then times passes for `--seconds`
seconds and reports the end-to-end metrics, with every time rescaled to a
fixed host speed (hostspeed.py); `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of tracing.py.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 9          # fresh interpreters per run; setup_s is their median
MIN_ABOVE_P90 = 10      # samples that must lie above the reported p90
MAX_STRETCH = 1.5       # a run may extend to this many --seconds for them
SUBPROCESS_TIMEOUT = 120
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import jtxinfer; "
              "jtxinfer.build_class_table(jtxinfer.parse(''))")

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {   # name -> unit
    "compile_ms_p50": "ms", "compile_ms_p90": "ms", "pass_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "1", "setup_s": "s",
}


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Bench:
    """The workload's programs on disk and what their first compile gave."""

    def __init__(self, programs, workdir, jtx):
        self.programs = programs
        self.jtx = jtx
        self.stems = {}
        for p in programs:
            self.stems[p.name] = workdir / p.stem
            (workdir / f"{p.stem}.jtx").write_text(p.source)
        self.first = {}          # name -> (exit code, outputs)
        self.reasons = {}        # name -> gate failure reasons
        self.nondeterministic = set()

    def _outputs(self, name):
        stem = self.stems[name]
        return tuple(
            p.read_bytes() if p.is_file() else None
            for p in (stem.with_name(stem.name + s)
                      for s in gate.OUTPUT_SUFFIXES))

    def compile(self, prog, main):
        """Time one call.  Returns (CPU seconds, wall seconds, exit code or
        None, message)."""
        stem = self.stems[prog.name]
        for s in gate.OUTPUT_SUFFIXES:
            stem.with_name(stem.name + s).unlink(missing_ok=True)
        gc.collect()
        gc.freeze()   # keep the benchmark's own objects out of timed GC
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            wall, cpu = perf_counter(), thread_time()
            try:
                rc = main([f"{stem}.jtx"])
            except Exception as exc:  # a traceback is a failed program
                rc, error = None, exc
            cpu, wall = thread_time() - cpu, perf_counter() - wall
        if error is not None:
            return cpu, wall, None, "".join(
                traceback.format_exception_only(type(error), error)).strip()
        return cpu, wall, rc, sink.getvalue()

    def gate_pass(self):
        """Compile each program once, untimed, and check it."""
        for prog in self.programs:
            _, _, rc, message = self.compile(prog, self.jtx.cli.main)
            self.first[prog.name] = (rc, self._outputs(prog.name))
            reasons = gate.check_outputs(prog, self.stems[prog.name], rc,
                                         message, self.jtx)
            if reasons:
                self.reasons[prog.name] = reasons

    def timed_pass(self, main, tracer=None):
        """[(program name, CPU seconds, wall seconds, host-speed kernel
        seconds)] for one pass; checks that every call repeats the first
        call's outputs."""
        times = []
        for prog in self.programs:
            if tracer is not None:
                tracer.program = prog.name
            cpu, wall, rc, _ = self.compile(prog, main)
            times.append((prog.name, cpu, wall, hostspeed.kernel_seconds()))
            if (rc, self._outputs(prog.name)) != self.first[prog.name]:
                self.nondeterministic.add(prog.name)
        return times

    def unexpected_failures(self):
        return sorted(p.name for p in self.programs
                      if p.name in self.reasons and not p.known_defect)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds():
    """Median CPU time of a fresh interpreter that imports jtxinfer and
    builds the class table of an empty unit (loading builtins.json), as
    (rescaled to the reference host speed, raw).  Each start is rescaled
    by the host-speed kernel timed just before and after it."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, timeout=SUBPROCESS_TIMEOUT)  # warm .pyc
    times, refs = [], [hostspeed.kernel_seconds()]
    for _ in range(SETUP_RUNS):
        before = _children_cpu()
        subprocess.run(cmd, check=True, timeout=SUBPROCESS_TIMEOUT)
        times.append(_children_cpu() - before)
        refs.append(hostspeed.kernel_seconds())
    scaled = [t * hostspeed.REF_S / statistics.median(refs[i:i + 2])
              for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


def peak_rss_mb(bench):
    """ru_maxrss of a fresh process that compiles one pass."""
    files = [f"{bench.stems[p.name]}.jtx" for p in bench.programs]
    out = subprocess.run(
        [sys.executable, str(HERE / "rss_pass.py"), str(SRC), *files],
        check=True, timeout=SUBPROCESS_TIMEOUT, capture_output=True,
        text=True)
    return int(out.stdout.split()[-1]) / 1024


def measure(bench, seconds):
    """Untraced passes for `seconds` (longer, up to MAX_STRETCH times, until
    MIN_ABOVE_P90 samples lie above the p90).  Returns the passes and the
    number of samples above the p90."""
    main = bench.jtx.cli.main
    passes = []
    start = perf_counter()
    while True:
        passes.append(bench.timed_pass(main))
        elapsed = perf_counter() - start
        values = sorted(t for p in rescaled(passes) for t in p)
        above = sum(t > nearest_rank(values, 0.9) for t in values)
        if elapsed >= seconds * MAX_STRETCH or (
                elapsed >= seconds and len(passes) >= 2
                and above >= MIN_ABOVE_P90):
            return passes, above


def measure_traced(bench, seconds):
    """Alternate untraced and traced passes for `seconds`, at least two of
    each.  Returns untraced pass times, per-pass layer metrics (times
    rescaled to the reference host speed), the programs whose counts
    differed between traced passes, and the spans."""
    main = bench.jtx.cli.main
    tracer = tracing.Tracer()
    untraced, layer_metrics, pass_counts = [], [], []
    start = perf_counter()
    while (len(layer_metrics) < 2 or len(untraced) < 2
           or perf_counter() - start < seconds):
        untraced.append(sum(rescaled([bench.timed_pass(main)])[0]))
        tracer.counts = defaultdict(Counter)
        first = len(tracer.spans)
        tracer.install()
        try:
            traced = bench.timed_pass(tracer.main, tracer)
        finally:
            tracer.uninstall()
        pass_s = sum(cpu for _, cpu, _, _ in traced)
        metrics = tracing.pass_metrics(tracer.spans[first:], first,
                                       tracer.counts, pass_s)
        # Rescale the pass's layer times as a whole (shares stay as they
        # are): spans nest, so they have no per-sample kernel timing.
        scale = hostspeed.REF_S / statistics.median(
            ref for _, _, _, ref in traced)
        for name in tracing.TIME_METRICS:
            metrics[name] *= scale
        metrics["trace.pass_s"] = pass_s * scale
        layer_metrics.append(metrics)
        pass_counts.append(tracer.counts)
    unstable = sorted({name for counts in pass_counts[1:]
                       for name in set(counts) | set(pass_counts[0])
                       if counts[name] != pass_counts[0][name]})
    return untraced, layer_metrics, unstable, tracer.spans


def report_gate(bench, samples_per_program):
    attempted = sum(samples_per_program.values())
    failed = sum(n for name, n in samples_per_program.items()
                 if name in bench.reasons)
    print(f"correctness gate: {len(bench.reasons)} of "
          f"{len(bench.programs)} programs differ from their reference; "
          f"failed_ratio {failed / attempted:.4f} "
          f"({failed} of {attempted} compiles)")
    for prog in bench.programs:
        reasons = bench.reasons.get(prog.name)
        if reasons:
            tag = "known defect" if prog.known_defect else "UNEXPECTED"
            print(f"  FAIL {prog.name} [{tag}] {len(reasons)} problem(s), "
                  f"first: {reasons[0]}")
            if prog.known_defect:
                print(f"       recorded defect: {prog.known_defect}")
        elif prog.known_defect:
            print(f"  PASS {prog.name}: the recorded defect no longer shows")
    return attempted, failed


def rescaled(passes):
    """The passes' CPU times, each rescaled to the reference host speed by
    the kernel timings around it, as one list per pass."""
    samples = [s for p in passes for s in p]
    scale = iter(hostspeed.factors([ref for _, _, _, ref in samples]))
    return [[cpu * next(scale) for _, cpu, _, _ in p] for p in passes]


def run_untraced(bench, args):
    setup_s, setup_raw = setup_seconds()
    rss = peak_rss_mb(bench)
    passes, above = measure(bench, args.seconds)
    scaled = rescaled(passes)
    values = sorted(t for p in scaled for t in p)
    raw = sorted(cpu for p in passes for _, cpu, _, _ in p)
    walls = sorted(wall for p in passes for _, _, wall, _ in p)
    refs = [ref for p in passes for _, _, _, ref in p]
    per_program = defaultdict(list)
    for p, times in zip(passes, scaled):
        for (name, _, _, _), t in zip(p, times):
            per_program[name].append(t)
    attempted, failed = report_gate(
        bench, {n: len(v) for n, v in per_program.items()})
    metrics = {
        "compile_ms_p50": statistics.median(values) * 1e3,
        "compile_ms_p90": nearest_rank(values, 0.9) * 1e3,
        "pass_s": statistics.median(sum(p) for p in scaled),
        "peak_rss_mb": rss,
        "ok_ratio": 1 - failed / attempted,
        "setup_s": setup_s,
    }
    basis = {
        "compile_ms_p50": f"n={len(values)} compiles",
        "compile_ms_p90": f"n={len(values)} compiles, {above} above",
        "pass_s": f"n={len(passes)} passes",
        "peak_rss_mb": "n=1 fresh process, one pass",
        "ok_ratio": f"failed_ratio {failed / attempted:.4f}",
        "setup_s": f"median of n={SETUP_RUNS} fresh interpreters",
    }
    print(f"{'program':<24}{'p50 ms':>12}{'samples':>9}")
    for prog in bench.programs:
        ts = per_program[prog.name]
        print(f"{prog.name:<24}{statistics.median(ts) * 1e3:>12.3f}"
              f"{len(ts):>9}")
    for name, unit in END_TO_END.items():
        print(f"{name:<18}{metrics[name]:>14.6f} {unit:<3} ({basis[name]})")
    print(f"host speed: kernel p50 {statistics.median(refs) * 1e3:.3f} ms "
          f"(reference {hostspeed.REF_S * 1e3:.3f} ms), range "
          f"{min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms")
    print(f"before rescaling: CPU p50 {statistics.median(raw) * 1e3:.3f} ms, "
          f"p90 {nearest_rank(raw, 0.9) * 1e3:.3f} ms, setup "
          f"{setup_raw:.6f} s; wall-clock p50 "
          f"{statistics.median(walls) * 1e3:.3f} ms, p90 "
          f"{nearest_rank(walls, 0.9) * 1e3:.3f} ms")
    problems = []
    if above < MIN_ABOVE_P90:
        problems.append(f"only {above} samples above p90")
    return metrics, attempted, failed, problems


def run_traced(bench, args):
    untraced, per_pass, unstable, spans = measure_traced(bench, args.seconds)
    attempted, failed = report_gate(
        bench, {p.name: len(per_pass) + len(untraced)
                for p in bench.programs})
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                   - metrics["trace.untraced_pass_s"])
    print(f"{len(per_pass)} traced and {len(untraced)} untraced passes; "
          "medians per pass:")
    for name, unit, _, moves in tracing.per_layer_metrics():
        print(f"{name:<30}{metrics[name]:>16.6f} {unit:<5} -> {moves}")
    path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    SPAN_DIR.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "program"],
                   "spans": spans}, f)
    print(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    problems = [f"counts differ between traced passes: {name}"
                for name in unstable]
    return metrics, attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "jtxinfer" / "__init__.py").is_file():
        print(f"perfbench: no jtxinfer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jtxinfer
    import jtxinfer.cli  # noqa: F401  (the entry point the benchmark calls)
    if not Path(jtxinfer.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported jtxinfer from {jtxinfer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    programs = corpus.workload(args.workload, args.seed)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(programs, workdir, jtxinfer)
        bench.gate_pass()
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{len(programs)} programs per pass; closed loop, "
              "1 process, 1 thread")
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems = run(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    problems += [f"unexpected failure: {n}"
                 for n in bench.unexpected_failures()]
    problems += [f"nondeterministic outputs: {n}"
                 for n in sorted(bench.nondeterministic)]
    for p in problems:
        print(f"NOT CORRECT: {p}")
    units = ({name: unit for name, unit, _, _ in tracing.per_layer_metrics()}
             if args.trace else END_TO_END)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
