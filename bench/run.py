#!/usr/bin/env python3
"""Benchmark of the hrrkit CLI: closed-loop workloads with output checks.

    python3 bench/run.py --workload xml-train --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout: hrrkit is imported from `src/` next to
this directory. One client makes one in-process `hrrkit.cli.main(...)` call
at a time, with BLAS on one thread (BLAS_THREADS).

Set-up is timed in two parts (SetupTimer): importing the program's modules
afresh and generating the inputs from --seed and writing them; each is
sampled at the start and, in an untraced run, again after every round, and
setup_s adds the two medians. Rounds (the workload's fixed sequence of CLI
calls) repeat until the next round would end after --seconds. Every call's
output is checked. With --trace 1 rounds alternate traced, untraced,
traced, ...: traced rounds give per-layer self times and counts, and the
untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people. A fuller record of the run goes to bench/_out/. See
bench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import tracer as tracermod

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
PYCACHE_DIR = os.path.join(BENCH_DIR, "_work", "pycache")
WORKLOAD_NAMES = ("xml-train", "xml-decode-wide", "vsa-capacity")
# Set-up samples: at the start, then after every round of an untraced run.
IMPORT_REPS, SETUP_REPS = 9, 3
IMPORT_REPS_BETWEEN, SETUP_REPS_BETWEEN = 3, 1
# One BLAS thread: this is one closed-loop client, and on a shared 2-vCPU
# host a second BLAS thread made small matrix products wait on the other
# vCPU (a 128 x 128 product took 64 ms with two threads under load, 0.5 ms
# with one), so round times followed the neighbours rather than the program.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

Round = collections.namedtuple("Round", "traced walls ops failed problems self_s counts")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS says it will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc, args, workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def run_round(cli, workload, tracer, workloads):
    """One closed-loop pass over the workload's CLI calls, then its checks."""
    ops = list(workload.ops())
    walls, codes = {}, []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            started = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                code = "exception"
            walls[op.label] = time.perf_counter() - started
            codes.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, problems = 0, []
    for op, code in zip(ops, codes):
        if code != 0:
            errors = [f"exit status {code}"]
        else:
            try:
                errors = op.check()
            except Exception as exc:
                errors = [f"output check raised {exc!r}"]
        if errors:
            failed += 1
            problems += [f"{op.label}: {e}" for e in errors]
    self_s = counts = None
    if tracer is not None:
        self_s = tracermod.self_times(tracer.spans)
        counts = workloads.round_counts(tracer)
    return Round(tracer is not None, walls, len(ops), failed, problems, self_s, counts)


def measure(cli, workload, seconds, tracer, workloads, setup_timer):
    """Repeat rounds until the next one would end after `seconds`.

    Untraced runs make at least one round and take set-up samples after
    each. Traced runs make at least three, traced first and alternating, so
    that two traced rounds can be compared and an untraced one sits between
    them.
    """
    rounds, spans, steps = [], [], []
    min_rounds = 3 if tracer is not None else 1
    started = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 0
        rnd = run_round(cli, workload, tracer if traced else None, workloads)
        if traced:
            spans.append(tracer.spans)
        elif tracer is None:
            setup_timer.sample(IMPORT_REPS_BETWEEN, SETUP_REPS_BETWEEN)
        rounds.append(rnd)
        now = time.perf_counter()
        steps.append(now - step_start)
        if len(rounds) >= min_rounds and now - started + statistics.median(steps) > seconds:
            return rounds, spans


class SetupTimer:
    """Times the run's set-up: the program's import and the workload's inputs.

    The import is timed afresh each time: `modules`, every module that the
    run's first import of `hrrkit.cli` loaded (hrrkit and the standard
    modules it pulls in, but not numpy, which is loaded before), are dropped
    from sys.modules, `hrrkit.cli` is imported again, and then the original
    module objects are put back, so the rest of the run keeps using the
    modules it started with. Interpreter start-up and numpy are left out:
    they are not the program's, and timing them made set-up follow the
    host's process and file-system costs. Bytecode is cached under
    PYCACHE_DIR, whatever PYTHONDONTWRITEBYTECODE says, so that the imports
    load compiled modules as an installed program does rather than timing
    the Python compiler.

    An import is pure interpreter work, and on a shared host the
    interpreter's speed moves in phases lasting seconds to minutes (a fixed
    Python loop took 100 ms in one and 160 ms in the next, and the import
    18 and 28 ms with it). So each import is followed by a fixed pure-Python
    reference loop, and the import sample is reported at the reference
    speed: import time x REF_LOOP_S / loop time. Raw times stay in `raw`.

    Samples are taken at the start and, in an untraced run, again after
    every round, so that they do not all fall in one phase of the host.
    """

    REF_LOOP_S = 0.02  # nominal time of reference_loop(); sets the scale only

    NAME = "hrrkit.cli"

    def __init__(self, workload, modules):
        self.modules = modules
        self.workload = workload
        self.times = {"import": [], "inputs": []}
        self.raw = {"import": [], "reference_loop": []}

    @staticmethod
    def reference_loop():
        acc = 0
        for i in range(100000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        return acc

    def sample(self, import_reps, input_reps):
        kept = {mod: sys.modules[mod] for mod in self.modules}
        saved = sys.pycache_prefix, sys.dont_write_bytecode
        sys.pycache_prefix, sys.dont_write_bytecode = PYCACHE_DIR, False
        try:
            for _ in range(import_reps):
                for mod in self.modules:
                    sys.modules.pop(mod, None)
                gc.collect()  # the dropped modules are cycles; free them outside the timing
                started = time.perf_counter()
                importlib.import_module(self.NAME)
                imported = time.perf_counter()
                self.reference_loop()
                looped = time.perf_counter()
                self.raw["import"].append(imported - started)
                self.raw["reference_loop"].append(looped - imported)
                self.times["import"].append((imported - started) * self.REF_LOOP_S / (looped - imported))
        finally:
            sys.pycache_prefix, sys.dont_write_bytecode = saved
            sys.modules.update(kept)
        for _ in range(input_reps):
            started = time.perf_counter()
            self.workload.setup()
            self.times["inputs"].append(time.perf_counter() - started)


def end_to_end(rounds, setup_times):
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    values = {
        "setup_s": sum(statistics.median(times) for times in setup_times.values()),
        "round_s": sum(statistics.median(r.walls[op] for r in rounds) for op in rounds[0].walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(rounds, workloads):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    problems = []
    for r in traced[1:]:
        if r.counts != traced[0].counts:
            diff = sorted(k for k in set(r.counts) | set(traced[0].counts)
                          if r.counts.get(k) != traced[0].counts.get(k))
            problems.append(f"traced rounds disagree on exact counts: {diff}")
    traced_s = statistics.median(sum(r.walls.values()) for r in traced)
    plain_s = statistics.median(sum(r.walls.values()) for r in plain)
    values = {"trace.overhead_s": traced_s - plain_s, "trace.overhead_frac": traced_s / plain_s - 1.0}
    for name, _ in workloads.PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = statistics.median(workloads.layer_value(name, r.self_s, r.counts) for r in traced)
        elif name not in values:
            values[name] = workloads.layer_value(name, traced[0].self_s, traced[0].counts)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in workloads.PER_LAYER}
    return metrics, problems


def info_metrics(workload, rounds):
    """The workload's per-operation throughputs, medians over clean untraced rounds."""
    per_round = [workload.info(r.walls) for r in rounds if not r.traced and not r.failed]
    if not per_round:
        return {}
    return {
        name: (statistics.median(p[name][0] for p in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }


def write_record(record, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    env = record["env"]
    stem = os.path.join(OUT_DIR, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans:
        with gzip.open(stem + "-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for index, round_spans in enumerate(spans):
                for s in round_spans:
                    fh.write(json.dumps([index, s.id, s.parent, s.request, s.name, s.start, s.end]) + "\n")
    return stem + ".json"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hrrkit", "cli.py")):
        print(f"bench: hrrkit sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    # numpy must load after the thread caps are set, and before the program,
    # so that the modules the program's import loads can be told apart.
    import numpy  # noqa: F401

    before = set(sys.modules)
    import hrrkit.cli as cli

    program_modules = [mod for mod in sys.modules if mod not in before]
    import workloads

    workdir = os.path.join(BENCH_DIR, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        # Set-up is the program's import (so work moved to import time shows)
        # plus generating and writing the inputs, timed apart.
        setup_timer = SetupTimer(workload, program_modules)
        setup_timer.sample(IMPORT_REPS, SETUP_REPS)
        setup_times = setup_timer.times
        workload.prepare()
        tracer = None
        if args.trace:
            tracer = tracermod.Tracer(workloads.TRACED_MODULES, workloads.COUNTERS)
        try:
            rounds, spans = measure(cli, workload, args.seconds, tracer, workloads, setup_timer)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    if args.trace:
        metrics, run_problems = per_layer(rounds, workloads)
        problems += run_problems
    else:
        metrics = end_to_end(rounds, setup_times)
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    info = info_metrics(workload, rounds)
    record = {
        "env": environment(nproc, args, workload),
        "setup_s": setup_times,
        "setup_raw_s": setup_timer.raw,
        "rounds": [
            {"traced": r.traced, "walls": r.walls, "failed": r.failed, "problems": r.problems,
             "counts": r.counts, "self_s": r.self_s}
            for r in rounds
        ],
        "info": {name: {"value": v, "unit": u} for name, (v, u) in info.items()},
        "metrics": metrics,
        "problems": problems,
    }
    path = write_record(record, spans)

    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for index, r in enumerate(rounds, start=1):
        walls = "  ".join(f"{k} {v:.3f}s" for k, v in r.walls.items())
        print(f"round {index}{' traced' if r.traced else ''}: {sum(r.walls.values()):.3f}s  {walls}")
    for name, (value, unit) in info.items():
        print(f"info {name} {value:.6g} {unit} (median over clean untraced rounds)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"problem {p}")
    print(f"record {os.path.relpath(path)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
