#!/usr/bin/env python3
"""Benchmark for bestow: the calculus and the thread runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore-contended --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` as it stands; there is nothing to
build.  The run sets the program up several times (a fresh import of every
``bestow`` module plus the workload's inputs, made from ``--seed``), runs one
warm-up op, then runs ops for ``--seconds`` and checks every output.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` the
first half of the time runs untraced, the second half runs with timing
wrappers around the modules' public functions, and the last line holds the
per-layer metrics, including the tracing overhead.  The spans are written
to ``perfbench/out/`` when the run ends.  The line before the last one
names the workload's own metrics (``verdict_s``, ``sync_p50_us``, ...).

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any

from calculus_workloads import ExploreContended, FrontendLong, SweepGenerated
from common import OpResult, trimmed_mean
from runtime_workload import RuntimeSharedObject
from spans import Tracer
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    w.name: w for w in (ExploreContended, SweepGenerated, FrontendLong, RuntimeSharedObject)
}
LAYERS = ["surface", "typecheck", "semantics", "wellformed", "explore", "gen",
          "actors", "bestowed", "override", "locks", "listiter"]
SETUP_REPEATS = 20
SPAN_CAP = 300_000  # spans kept by one traced run; the traced half stops there


def load(modules: list[str]) -> dict[str, Any]:
    """Import the program afresh: forget every ``bestow`` module, then
    import the ones the workload drives, keyed by their layer name."""
    for name in [m for m in sys.modules if m == "bestow" or m.startswith("bestow.")]:
        del sys.modules[name]
    return {m.rsplit(".", 1)[-1]: importlib.import_module(f"bestow.{m}") for m in modules}


def measure(workload: Any, mods: dict, inp: dict, seconds: float, speed: Speed,
            tracer: Tracer | None = None) -> list[OpResult]:
    """Run ops until ``seconds`` have passed (at least one round)."""
    ops: list[OpResult] = []
    deadline = perf_counter() + seconds
    while not ops or len(ops) % workload.ROUND or (
        perf_counter() < deadline and not (tracer and tracer.full)
    ):
        if tracer is not None:
            tracer.op = len(ops)
        t0 = perf_counter()
        res = workload.op(mods, inp, tracer)
        res.wall = perf_counter() - t0
        ops.append(res)
        speed.between_ops()
    return ops


def traced_layers(workload: Any, mods: dict, inp: dict, seconds: float, speed: Speed,
                  out: Path) -> tuple[list[OpResult], dict[str, float]]:
    first = len(speed.took)
    base = measure(workload, mods, inp, seconds / 2, speed)
    middle = len(speed.took)
    tracer = Tracer(SPAN_CAP)
    workload.instrument(tracer, mods)
    t0 = perf_counter()
    try:
        traced = measure(workload, mods, inp, seconds / 2, speed, tracer)
    finally:
        tracer.unwrap()
    last = len(speed.took)
    stats = tracer.by_name()
    values = workload.layers(stats, traced, tracer, mods, inp)
    n = workload.units(traced)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            st.self for name, st in stats.items() if name.startswith(layer + ".")
        ) / n
    traced_s = sum(o.wall for o in traced) / len(traced) * speed.factor(middle, last)
    base_s = sum(o.wall for o in base) / len(base) * speed.factor(first, middle)
    values["trace.overhead"] = traced_s / base_s - 1
    values["trace.coverage"] = sum(st.self for st in stats.values()) / sum(o.wall for o in traced)
    tracer.write(out, t0)
    return base + traced, values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bestow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/bestow or BENCHMARK.json; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    # One CPU for the process and every thread it starts.  Only one thread
    # runs Python at a time anyway.  Left free, the runtime's owner and
    # clients landed on the same or on different CPUs from one process to
    # the next, and its figures split into two modes (sync p50 near 16-25 us
    # in some processes, 34-38 us in others); and the speed sampler must
    # time the CPU the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    speed = Speed(background=not workload.THREADED)
    speed.start()
    setup: list[float] = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        mods = load(workload.modules)
        inp = workload.prepare(mods, args.seed)
        setup.append(perf_counter() - t0)
        speed.between_ops()
    setup_samples = len(speed.took)
    ops = measure(workload, mods, inp, 0, speed)  # warm-up: checked, not timed

    if args.trace:
        out = ROOT / "perfbench" / "out" / f"{args.workload}.seed{args.seed}.spans.csv.gz"
        timed, values = traced_layers(workload, mods, inp, args.seconds, speed, out)
        listed = spec["per_layer"]
    else:
        timed = measure(workload, mods, inp, args.seconds, speed)
        k = speed.factor()
        values, detail = workload.end_to_end(timed, inp, lambda times: trimmed_mean(times) * k)
        raw, _ = workload.end_to_end(timed, inp, trimmed_mean)
        listed = spec["end_to_end"]
    speed.stop()
    ops += timed
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    wrong = sum(o.wrong for o in ops)

    for t in threading.enumerate():
        if t is not threading.main_thread():
            t.join(30)

    if not args.trace:
        values["setup_s"] = trimmed_mean(setup) * speed.factor(0, setup_samples)
        values["ok_ratio"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["fail_ratio"] = (failed / attempted, "ratio")
        detail["reference_ms"] = (speed.reference_ms(), "ms")
        detail["setup_raw_s"] = (trimmed_mean(setup), "s")
        detail["latency_raw_ms"] = (raw["latency_ms"], "ms")
        detail["throughput_raw_per_s"] = (raw["throughput_per_s"], "1/s")
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        }))
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0) if args.trace else values[m["name"]],
                    "unit": m["unit"]}
        for m in listed
    }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
