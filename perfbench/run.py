#!/usr/bin/env python3
"""Benchmark for epband.

    python3 perfbench/run.py --workload {scan,points,cli,oracle,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Set-up is timed in fresh interpreters; then
the workload's pass (a fixed op list drawn from the seed) repeats until S
seconds have passed.  Every op's output is checked.  With --trace 0 the
end-to-end metrics are reported; with --trace 1 an untraced half is followed
by a traced half, and the per-layer metrics come from the traced spans.
Each metric is printed with its unit, the full record (machine, failure
breakdown, sample counts) goes to perfbench/out/, and the last line of
stdout is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The keys of workloads.WORKLOADS; that module loads numpy, which must wait
# until the thread settings are made.
WORKLOAD_NAMES = ("scan", "points", "cli", "oracle")

# (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# A p90 is reported only with at least ten distinct ops beyond it.
P90_MIN_OPS = 100
# Largest relative gap allowed between the traced passes' root spans and the
# same passes timed by the harness.
WALL_AGREEMENT = 0.01
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="epband benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> int:
    """Run this process, its children and their BLAS on one CPU.

    The speedometer can only see the speed of the CPU it runs on, so the
    work it normalizes must run there too; one BLAS/OpenMP thread per process
    keeps a pinned process from time-slicing its own threads.  Set before
    numpy loads.  Returns nproc, the CPUs the process was allowed before.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(allowed)


def machine(seed: int, nproc: int, threads: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "threads": threads,
        "seed": seed,
    }


def importtime_totals(stderr: str) -> dict:
    """`import epband` cumulative time and the self time of all scipy modules."""
    epband_us = None
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            continue  # the header line
        name = parts[2].strip()
        if name == "epband":
            epband_us = cumulative_us
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if epband_us is None:
        raise RuntimeError("-X importtime output has no epband line")
    return {"import_s": epband_us / 1e6, "import_scipy_s": scipy_us / 1e6}


def probe_setup(workload: str, env: dict, importtime: bool) -> dict:
    """One fresh interpreter: `import epband` plus one warm-up op."""
    cmd = [sys.executable, *(("-X", "importtime") if importtime else ()),
           str(HERE / "probe.py"), "setup", workload]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if importtime:
        result.update(importtime_totals(proc.stderr))
    return result


class Speedometer:
    """Tracks the host's CPU speed with a fixed calibration kernel.

    On a shared host the CPU's speed swings by up to 1.8x over seconds to
    minutes, which moves every timing in a run together.  Between ops the
    harness runs the kernel until it has taken ``SHARE`` of the elapsed time;
    timings are then reported at the reference speed, at which one kernel run
    takes ``REFERENCE_S``: raw time * REFERENCE_S / mean kernel time.  The
    mean matches the means of op time it scales, so ops are averaged over the
    passes before any median is taken.
    """

    SHARE = 0.05
    REFERENCE_S = 2.0e-3

    def __init__(self):
        import numpy

        self._x = numpy.linspace(0.0, 2.0 * numpy.pi, 257)
        self._np = numpy
        self.samples: list[float] = []
        self.spent = 0.0
        self.start = time.perf_counter()

    def _kernel(self) -> None:
        # Bytecode and small-array numpy calls, the mix epband's hot loops make.
        acc = 0
        for i in range(12000):
            acc += i * i
        np, x = self._np, self._x
        for _ in range(100):
            np.arctan2(np.sin(x), np.cos(x)).sum()

    def due(self) -> bool:
        return self.spent < self.SHARE * (time.perf_counter() - self.start)

    def keep_up(self) -> None:
        if not self.due():
            return
        # The op just run (or a child process) has evicted the kernel from the
        # caches; the first run only warms them again and is not a sample.
        t0 = time.perf_counter()
        self._kernel()
        self.spent += time.perf_counter() - t0
        while self.due():
            t0 = time.perf_counter()
            self._kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt

    def factor(self) -> float:
        """Multiply a raw time by this to get it at the reference speed."""
        return self.REFERENCE_S / statistics.mean(self.samples)


@dataclass
class OpRecord:
    index: int
    label: str
    traced: bool
    latency_s: float
    items: int
    items_ok: int
    failure: str | None
    digest: str
    counts: dict
    rss_kb: int


class Harness:
    """Runs passes of a workload and keeps one record per op.

    Untraced and traced passes each get their own speedometer.
    """

    def __init__(self, workload):
        self.wl = workload
        self.records: list[OpRecord] = []
        self.walls = {False: [], True: []}
        self.op_labels: dict[int, str] = {}
        self.speed: dict[bool, Speedometer] = {}

    def run_pass(self, tracer) -> None:
        from workloads import Checked

        def span(name):
            return tracer.span(name) if tracer is not None else contextlib.nullcontext()

        traced = tracer is not None
        speed = self.speed[traced]
        start = time.perf_counter()
        with span("harness.pass"):
            for index, op in enumerate(self.wl.ops):
                if speed.due():
                    with span("harness.calibrate"):
                        speed.keep_up()
                op_id = len(self.op_labels)
                self.op_labels[op_id] = self.wl.label(op)
                if traced:
                    tracer.op = op_id
                with span(self.wl.op_span):
                    t0 = time.perf_counter()
                    try:
                        result = self.wl.call(op, tracer)
                        error = None
                    except Exception as exc:  # the op failed; record its class and go on
                        result, error = None, exc
                    latency = time.perf_counter() - t0
                    if error is None:
                        checked = self.wl.check(op, result)
                        rss = self.wl.child_rss_kb(result)
                    else:
                        name = type(error).__name__
                        checked = Checked(self.wl.items(op), 0, name, f"raised {name}")
                        rss = 0
                self.records.append(OpRecord(index, self.wl.label(op), traced, latency,
                                             checked.items, checked.items_ok, checked.failure,
                                             checked.digest, checked.counts, rss))
            if speed.due():
                with span("harness.calibrate"):
                    speed.keep_up()
        self.walls[traced].append(time.perf_counter() - start)

    def run_for(self, seconds: float, tracer=None) -> None:
        self.speed.setdefault(tracer is not None, Speedometer())
        start = time.perf_counter()
        while True:
            self.run_pass(tracer)
            if time.perf_counter() - start >= seconds:
                return

    def op_time(self, traced: bool) -> float:
        """Time of one pass's ops at the reference speed: latencies summed, per pass."""
        total = sum(r.latency_s for r in self.records if r.traced == traced)
        return total / len(self.walls[traced]) * self.speed[traced].factor()

    def op_latencies(self) -> list[float]:
        """Each untraced op's latency, averaged over the passes, at the reference speed."""
        by_index: dict[int, list[float]] = {}
        for r in self.records:
            if not r.traced:
                by_index.setdefault(r.index, []).append(r.latency_s)
        factor = self.speed[False].factor()
        return [statistics.mean(v) * factor for v in by_index.values()]

    def first_pass_counts(self) -> tuple[int, int]:
        """Ops attempted and failed in the first pass.

        A faster program runs more passes, so totals would grow with speed;
        passes agree unless the run is not correct.
        """
        first = self.records[:len(self.wl.ops)]
        return len(first), sum(r.failure is not None for r in first)

    def nondeterministic(self) -> list[int]:
        """Op positions whose outcome differs between passes."""
        seen: dict[int, set] = {}
        for r in self.records:
            seen.setdefault(r.index, set()).add((r.failure, r.digest))
        return sorted(i for i, outcomes in seen.items() if len(outcomes) > 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def central_median(values) -> float:
    """Mean of the values ranked between the 40th and 60th percentiles.

    Op latencies cluster by the number of touchings an op winds, and on
    `points` the plain median sits on the gap between two clusters, so a
    few ops changing sides moves it by half; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = int(0.4 * n)
    hi = max(lo + 1, math.ceil(0.6 * n))
    return statistics.mean(ordered[lo:hi])


def end_to_end(h: Harness, setups: list[dict], setup_factor: float) -> tuple[dict, dict]:
    walls = h.walls[False]
    factor = h.speed[False].factor()
    wall = h.op_time(traced=False)
    per_pass_ok = sum(r.items_ok for r in h.records) / len(walls)
    per_op = h.op_latencies()
    if h.wl.name == "cli":
        rss_kb = max(r.rss_kb for r in h.records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = statistics.median(s["import_s"] + s["warmup_s"] for s in setups)
    values = {
        "setup_s": setup * setup_factor,
        "wall_s": wall,
        "ok_per_s": per_pass_ok / wall,
        "op_p50_ms": 1e3 * central_median(per_op),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "speed_factor": factor,
        "setup_speed_factor": setup_factor,
        "calibration_runs": len(h.speed[False].samples),
        "raw_setup_s": setup,
        "raw_import_s": statistics.median(s["import_s"] for s in setups),
        "raw_warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "raw_pass_wall_median_s": statistics.median(walls),
        "failed_frac": sum(r.failure is not None for r in h.records) / len(h.records),
        "op_count": len(h.records),
        "distinct_ops": len(per_op),
        "passes": len(walls),
        f"{h.wl.item}s_per_pass": sum(r.items for r in h.records) / len(walls),
    }
    if len(per_op) >= P90_MIN_OPS:
        extra["op_p90_ms"] = 1e3 * percentile(per_op, 0.9)
    return values, extra


def traced_metrics(h: Harness, tracer, absent, probes) -> tuple[dict, list[str]]:
    import layers
    from tracer import nesting_problems, self_times
    from workloads import CLI_COMMANDS

    spans = tracer.spans
    own = self_times(spans)
    passes = len(h.walls[True])
    # Self times add up to the root spans by construction; check instead that
    # every span nests inside its parent and that the root spans agree with
    # the pass walls timed outside the tracer.
    problems = nesting_problems(spans)[:10]
    traced_total = sum(s.duration for s in spans if s.name == "harness.pass")
    timed_total = sum(h.walls[True])
    if abs(timed_total - traced_total) > WALL_AGREEMENT * timed_total:
        problems.append(f"traced passes took {traced_total} s by their spans, "
                        f"{timed_total} s by the harness clock")

    all_passes = passes + len(h.walls[False])
    harness = {
        "trace.wall_s": traced_total / passes,
        "trace.overhead_frac": h.op_time(traced=True) / h.op_time(traced=False),
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.import_scipy_s": statistics.median(p["import_scipy_s"] for p in probes),
        "lattice.bytes_computed": max(r.counts.get("bytes_computed", 0) for r in h.records)
        / 2**20,
    }
    for key in ("cells_classified", "cells_boundary", "cells_error"):
        harness[f"phase.{key}"] = sum(r.counts.get(key, 0) for r in h.records) / all_passes
    failures = [r.failure for r in h.records if r.failure is not None]
    for reason in layers.LATTICE_FAILURES:
        harness[f"lattice.failed.{reason}"] = failures.count(reason) / all_passes
    for cls in layers.FAILURES:
        if cls == "other_exception":
            known = set(layers.FAILURES) | set(layers.LATTICE_FAILURES)
            n = sum(1 for f in failures if f not in known)
        else:
            n = failures.count(cls)
        harness[f"failed.{cls}"] = n / all_passes
    commands: dict[str, float] = {}
    for s in spans:
        if s.name == "cli.main":
            label = h.op_labels[s.op]
            commands[label] = commands.get(label, 0.0) + s.duration / passes
    for label, _, _ in CLI_COMMANDS:
        harness[f"cli.command_s.{label}"] = commands.get(label, 0.0)
    return layers.per_layer(spans, own, passes, harness, absent), problems


def run_workload(args, nproc: int) -> int:
    import layers
    import workloads
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    env = workloads.cli_env()
    info = machine(args.seed, nproc, {v: os.environ[v] for v in THREAD_VARS})
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warmup(wl.name)  # first calls fill lazy caches; not timed
    h = Harness(wl)
    problems: list[str] = []
    absent: list[str] = []
    spans_file = None

    if args.trace == 0:
        setup_speed = Speedometer()
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(probe_setup(wl.name, env, False))
            setup_speed.keep_up()
        h.run_for(args.seconds)
        values, extra = end_to_end(h, setups, setup_speed.factor())
        units = dict(END_TO_END)
    else:
        probes = [probe_setup(wl.name, env, True) for _ in range(IMPORTTIME_REPEATS)]
        h.run_for(args.seconds / 2)
        tracer = Tracer()
        absent = tracer.install(layers.TARGETS)
        try:
            h.run_for(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        values, problems = traced_metrics(h, tracer, absent, probes)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        extra = {"spans": len(tracer.spans), "traced_passes": len(h.walls[True]),
                 "untraced_passes": len(h.walls[False])}
        spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.export()))

    failures: dict[str, int] = {}
    for r in h.records:
        if r.failure is not None:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    unstable = h.nondeterministic()
    if unstable:
        problems.append(f"outcomes differ between passes at op positions {unstable}")
    if wl.reference_checked and failures:
        problems.append(f"outputs differ from the recorded references: {failures}")
    correct = not problems
    attempted, failed = h.first_pass_counts()

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "attempted_total": len(h.records),
        "failed_total": sum(failures.values()),
        "failures_by_class": failures,
        "failures_by_label": _failures_by_label(h.records),
        "absent_targets": absent,
        "absent_metrics": [name for name in units if name not in values],
        "metrics": metrics,
        "extra": extra,
        "spans_file": spans_file.name if spans_file else None,
    }
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# epband benchmark: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items() if k != "threads")
          + f", threads={info['threads']['OPENBLAS_NUM_THREADS']}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{name:36s} {value:.6g}")
    print(f"{'attempted ops per pass':36s} {attempted}")
    print(f"{'failed ops per pass':36s} {failed}")
    print(f"{'failed ops, all passes':36s} {sum(failures.values())} {failures}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    print(f"# record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _failures_by_label(records) -> dict:
    out: dict[str, dict[str, int]] = {}
    for r in records:
        if r.failure is not None:
            by = out.setdefault(r.label, {})
            by[r.failure] = by.get(r.failure, 0) + 1
    return out


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "epband" / "__init__.py").is_file():
        print(f"error: no epband sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
