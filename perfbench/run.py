#!/usr/bin/env python3
"""taumap benchmark.

    python3 perfbench/run.py --workload {build,verify,maps} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Human-readable detail (raw wall times, the host-speed factor, unmeasured
wrap targets) goes to the lines before it.  See ``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import traceback
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("build", "verify", "maps")
# Set-ups per run, for the median: a maps set-up builds a potential for
# seconds, the others take tens of milliseconds.
SETUP_REPEATS = {"build": 11, "verify": 11, "maps": 3}


# -- host speed ---------------------------------------------------------------


def _reference_chunk() -> None:
    """A fixed slice of pure-Python work like the program's: Fraction, dict, complex.

    The collector is held off so that a collection the program owes is not
    paid inside the chunk.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = Fraction(0)
        d = {}
        z = 0j
        for i in range(1, 400):
            s += Fraction(1, i * (i + 1))
            d[(i, i & 7)] = s
            z = z * 0.5 + complex(i, -i)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Wall time rescaled to a nominal host speed.

    On a machine whose cores are shared, the speed for the same work can
    drift by more than half within minutes (see DESIGN.md).  A timer
    signal every ``PERIOD`` seconds runs one reference chunk and records how
    long it took.  ``seconds(a, b)`` is the wall time of ``[a, b]`` minus the
    chunks run inside it, times ``NOMINAL`` over the mean chunk time in and
    around the interval: the time the interval would have taken on a host
    that runs the chunk in ``NOMINAL`` seconds.
    """

    PERIOD = 0.1
    WINDOW = 0.5
    NOMINAL = 0.0018

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum, frame) -> None:
        a = perf_counter()
        _reference_chunk()
        self.at.append(a)
        self.took.append(perf_counter() - a)

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, a: float, b: float) -> float:
        """Nominal over observed chunk time near ``[a, b]`` (1 = nominal host)."""
        lo = bisect_left(self.at, a - self.WINDOW)
        hi = bisect_right(self.at, b + self.WINDOW)
        near = self.took[lo:hi]
        if not near:
            return 1.0
        return self.NOMINAL / (sum(near) / len(near))

    def seconds(self, a: float, b: float) -> float:
        inside = sum(self.took[bisect_left(self.at, a):bisect_right(self.at, b)])
        return (b - a - inside) * self.speed(a, b)


# -- running ------------------------------------------------------------------


def load_workloads():
    """(Re)import the benchmark's workload module and, through it, taumap."""
    for name in [m for m in sys.modules if m == "taumap" or m.startswith("taumap.")]:
        del sys.modules[name]
    sys.modules.pop("workloads", None)
    module = importlib.import_module("workloads")
    taumap_file = Path(sys.modules["taumap"].__file__).resolve()
    if SRC.resolve() not in taumap_file.parents:
        raise ImportError(f"taumap imported from {taumap_file}, not from {SRC}")
    return module


def make(module, name: str, seed: int):
    if name == "build":
        return module.Build(seed)
    if name == "verify":
        return module.Verify(seed, OUT)
    return module.Maps(seed)


class Run:
    """Attempted and failed operations of one run, with their messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"failed op {self.attempted}: {error}", file=sys.stderr)


def checked(run: Run, check, result) -> None:
    try:
        run.record(check(result))
    except Exception:
        run.record(traceback.format_exc())


def time_ops(wl, run: Run, start_index: int, seconds: float, min_ops: int, wrap=None):
    """At least ``min_ops`` ops, then more while they end near ``seconds``.

    A further op starts only if, at the mean op time so far, it would end
    less than half an op past ``seconds``, so that a run lasts about
    ``seconds`` even when one op is a large share of it.  Returns the
    ``(a, b)`` wall intervals of the ops that passed their check.
    """
    intervals = []
    t0 = perf_counter()
    done = 0
    while True:
        a = perf_counter()
        try:
            result = wrap(wl.op, start_index + done) if wrap else wl.op(start_index + done)
        except Exception:
            run.record(traceback.format_exc())
        else:
            b = perf_counter()
            failed = run.failed
            checked(run, wl.check, result)
            del result  # the next op must not run with this one's output alive
            if run.failed == failed:
                intervals.append((a, b))
        done += 1
        elapsed = perf_counter() - t0
        if done >= min_ops and elapsed * (1 + 0.5 / done) >= seconds:
            return intervals


def setup(args, clock: HostClock, run: Run, repeats: int):
    """Import and set up ``repeats`` times; the last set-up is used.

    Returns the workload and the wall interval of each set-up.
    """
    times = []
    for _ in range(repeats):
        a = perf_counter()
        module = load_workloads()
        wl = make(module, args.workload, args.seed)
        wl.setup()
        times.append((a, perf_counter()))
        if hasattr(wl, "setup_error"):
            checked(run, lambda _: wl.setup_error(), None)
    return wl, times


def end_to_end(args, clock: HostClock, run: Run) -> dict:
    wl, setups = setup(args, clock, run, SETUP_REPEATS[args.workload])
    setup_s = [clock.seconds(a, b) for a, b in setups]
    intervals = time_ops(wl, run, 0, args.seconds, getattr(wl, "POOL", 3))
    if not intervals:
        return {}
    ops = [clock.seconds(a, b) for a, b in intervals]
    errors = wl.sup_errors()
    print(f"raw wall s: setup {[round(b - a, 4) for a, b in setups]}, "
          f"op p50 over {len(ops)} ops {statistics.median(b - a for a, b in intervals):.4f}; "
          f"scale to nominal host {clock.speed(intervals[0][0], intervals[-1][1]):.3f}; "
          f"sup error max {max(errors):.3e} over {len(errors)} domains")
    p95 = statistics.quantiles(ops, n=20, method="inclusive")[-1] if len(ops) > 1 else ops[0]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_p95_s": (p95, "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sup_err_p50": (statistics.median(errors), "1"),
    }


def per_layer(args, clock: HostClock, run: Run) -> dict:
    """A quarter of the time untraced, for the overhead baseline, then traced ops."""
    wl, _ = setup(args, clock, run, 1)
    import tracer as tracing

    start = perf_counter()
    plain = time_ops(wl, run, 0, args.seconds / 4, 1)
    traced_seconds = max(args.seconds - (perf_counter() - start), args.seconds / 4)
    t = tracing.Tracer()
    tracing.install(t)
    rows = []
    traced_intervals = []

    def traced(op, i):
        """One op inside an ``op`` span; only the first op's spans are kept."""
        t.counts.clear()
        t.caches.clear()
        first = len(t.start)
        sid = t.open("op")
        a = perf_counter()
        try:
            return op(i)
        finally:
            traced_intervals.append((a, perf_counter()))
            t.close(sid)
            rows.append(tracing.layer_metrics(t, first, len(t.start), t.end[sid] - t.start[sid]))
            if len(rows) > 1:
                t.truncate(first)

    try:
        time_ops(wl, run, len(plain), traced_seconds, 1, wrap=traced)
    finally:
        t.uninstall()
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    t.write(spans_path)
    if not plain or not rows:
        return {}
    base = statistics.median(clock.seconds(a, b) for a, b in plain)
    with_trace = statistics.median(clock.seconds(a, b) for a, b in traced_intervals)
    metrics = {k: (statistics.median(r[k] for r in rows), _unit(k)) for k in rows[0]}
    metrics["trace.overhead_ratio"] = (with_trace / base, "ratio")
    print(f"spans of the first traced op: {len(t.start)}, in {spans_path.relative_to(ROOT)}; "
          f"traced ops {len(rows)}, untraced ops {len(plain)}")
    if t.unmeasured:
        print("unmeasured (wrap target missing): " + ", ".join(t.unmeasured))
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "taumap" / "__init__.py").is_file():
        print(f"error: no taumap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- a dependency, imported before any timing

    run = Run()
    with HostClock() as clock:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, clock, run)
    if not metrics:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
