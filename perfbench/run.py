#!/usr/bin/env python3
"""Benchmark of cayleycert: one workload, one process, a closed loop.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Workloads are ``chain``, ``grid`` and ``catalog`` (see workloads.py).  The
library runs in this process with no extra threads; each pass starts when
the previous one returns, and passes repeat until the next one would end
after ``--seconds``.  Every verdict a pass produces is checked, and every
pass of a run must give the same report digest.

The host is a shared VM whose speed drifts by up to 2x in phases that last
from a second to over a minute, so the wall time of a pass says as much
about the neighbours as about the program.  While a pass runs, a fixed
stdlib calibration loop is timed every ``TICK_S`` of wall time, from a
SIGALRM handler in this thread.  Each slice of the pass between two ticks
is scaled by ``TICK_REF_S`` over the time of the tick that ends it, and the
scaled slices add up to the pass's time at the reference host speed.

``--trace 0`` reports the end-to-end metrics: ``run_ref_s`` (median over
the untraced passes of that reference-speed time; the quartiles, the count
and the raw wall times are printed beside it), ``setup_s`` (median
reference-speed seconds for a fresh interpreter to import
``cayleycert.cli``, sampled between the passes; the child times the
calibration loop right after the import, and the raw wall times are
printed beside it) and ``peak_rss_mb`` (peak resident memory of this
process).
``--trace 1`` reports the per-layer metrics: the layer microbenchmarks,
then untraced and traced passes in turn, with spans and counts from
wrappers around the library's public names (spans.py), and ``run_s``, the
median wall time of the untraced passes without the calibration ticks.

The last line of standard output is one JSON object; the lines before it
print every metric by name and unit.  The full record of the run, spans
included, is written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS_PER_PASS = 3
# The child times the import, then the calibration loop, so the import's
# time can be taken at the reference host speed like a pass's.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cayleycert.cli; "
                "dt = time.perf_counter() - t; import run, statistics; "
                "print(dt, statistics.median(run.calibration_seconds() for _ in range(5)))")

TICK_S = 0.02        # wall seconds of the pass between two calibration ticks
TICK_LOOP = 100      # iterations of the calibration loop in one tick
TICK_REF_S = 5e-4    # one tick's time at the reference host speed; fixed for good

END_TO_END_UNITS = {"run_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_us" in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name == "code.src_lines":
        return "lines"
    return "count"


def calibration_loop(iterations: int) -> None:
    """A fixed Fraction loop; its time tracks how fast the host is now."""
    acc = Fraction(0)
    for k in range(1, iterations + 1):
        acc = (acc + Fraction(k % 7, k % 11 + 1)) * Fraction(3, 4)


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    calibration_loop(TICK_LOOP)
    return time.perf_counter() - t0


class Ticker:
    """Times the calibration loop every TICK_S of wall time during a pass.

    The timer is one-shot and re-armed at the end of each tick, so ticks
    never nest and each slice holds about TICK_S of the program's own time.
    """

    def __init__(self):
        self.ticks = []      # (start, seconds) of each calibration loop
        self.active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, *_):
        if self.active:      # a signal raised just before the pass ended
            self.tick()
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def tick(self):
        self.ticks.append((time.perf_counter(), calibration_seconds()))

    def time_pass(self, fn):
        """(wall seconds without ticks, reference-speed seconds, ticks, result)."""
        self.ticks = []
        gc.collect()
        self.active = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        try:
            result = fn()
        finally:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        self.tick()          # closes the last slice
        ref, prev = 0.0, start
        for t0, dt in self.ticks:
            ref += (min(t0, end) - prev) * TICK_REF_S / dt
            prev = t0 + dt
        wall = end - start - sum(dt for _, dt in self.ticks[:-1])
        return wall, ref, [dt for _, dt in self.ticks], result


def setup_times(spawns: int) -> list:
    """[wall seconds, reference-speed seconds] of each fresh import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(spawns):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall, tick = map(float, proc.stdout.split())
        times.append([wall, wall * TICK_REF_S / tick])
    return times


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "cayleycert").glob("*.py"))


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """Passes of one run, their checks and the record written at the end."""

    def __init__(self, name, seed):
        self.results = []
        self.record = {
            "workload": name, "seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "passes": [],
        }

    def add(self, kind, wall, ref, ticks, result):
        """kind is "plain" or "traced"; both are checked."""
        self.results.append(result)
        self.record["passes"].append({
            "kind": kind, "run_s": wall, "run_ref_s": ref, "ticks": len(ticks),
            "calib_ms": 1000 * statistics.median(ticks) if ticks else None,
            "digest": result.digest, "failed": result.failed, "errors": result.errors,
        })

    def column(self, key, kind="plain"):
        return [p[key] for p in self.record["passes"] if p["kind"] == kind]

    def verdict(self) -> dict:
        attempted = sum(r.attempted for r in self.results)
        failed = sum(len(r.failed) for r in self.results)
        same = len({r.digest for r in self.results}) == 1
        return {"correct": failed == 0 and same, "attempted": attempted,
                "failed": failed}

    def write(self, trace: int):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.record['workload']}-seed{self.record['seed']}-trace{trace}.json"
        path.write_text(json.dumps(self.record, separators=(",", ":")) + "\n")
        return path


def end_to_end(workload, run, seconds) -> dict:
    setup_times(1)  # writes the bytecode cache; not a sample
    ticker = Ticker()
    setup = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.add("plain", *ticker.time_pass(workload.run_pass))
        # interleaved with the passes, so both see the same host conditions
        setup.extend(setup_times(SETUP_SPAWNS_PER_PASS))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:  # the next one would end too late
            break
    run.record["setup_s"] = setup
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_ref_s": statistics.median(run.column("run_ref_s")),
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": rss_kib / 1024,
    }


def per_layer(workload, run, seconds, catalog_ids) -> dict:
    import micro
    import spans

    metrics = micro.layer_micro()
    ticker = Ticker()
    layers = []
    tracers = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.add("plain", *ticker.time_pass(workload.run_pass))
        tracer = spans.Tracer()
        with spans.installed(tracer):
            run.add("traced", *ticker.time_pass(workload.run_pass))
        layers.append(spans.layer_metrics(tracer, catalog_ids))
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:  # the next one would end too late
            break
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    verdict = run.verdict()
    plain, traced = run.column("run_ref_s"), run.column("run_ref_s", "traced")
    metrics["run_s"] = statistics.median(run.column("run_s"))
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["failed_share"] = verdict["failed"] / verdict["attempted"]
    metrics["code.src_lines"] = src_lines()
    metrics["env.nproc"] = run.record["nproc"]
    metrics["env.calib_ms"] = statistics.median(p["calib_ms"] for p in run.record["passes"])
    run.record["spans"] = [t.spans for t in tracers]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain", "grid", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cayleycert" / "__init__.py").is_file():
        print(f"perfbench: no cayleycert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.build(args.workload, args.seed)
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(workload, run, args.seconds, workloads.catalog_ids())
    else:
        metrics = end_to_end(workload, run, args.seconds)
    verdict = run.verdict()
    run.record.update(verdict, metrics=metrics)
    path = run.write(args.trace)

    rec = run.record
    print(f"workload {args.workload}  seed {args.seed}  python {rec['python']}"
          f"  nproc {rec['nproc']}  record {path.relative_to(ROOT)}")
    for key in ("run_ref_s", "run_s"):
        values = run.column(key)
        q1, q3 = quartiles(values)
        print(f"untraced passes {len(values)}, {key}: median"
              f" {statistics.median(values):.4f} s  quartiles {q1:.4f} / {q3:.4f} s"
              f"  all " + " ".join(f"{v:.3f}" for v in values))
    if "setup_s" in rec:
        walls = [wall for wall, _ in rec["setup_s"]]
        print(f"fresh imports {len(walls)}, wall: median {statistics.median(walls):.4f} s"
              f"  min {min(walls):.4f} s  max {max(walls):.4f} s")
    print("calibration tick ms, median per pass: "
          + " ".join(f"{p['calib_ms']:.3f}" for p in rec["passes"]))
    print(f"failed_share {verdict['failed'] / verdict['attempted']:.6g} share"
          f"  ({verdict['failed']} of {verdict['attempted']} constructions)")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {unit_of(name)}")
    print(json.dumps({**verdict, "metrics": {
        name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
