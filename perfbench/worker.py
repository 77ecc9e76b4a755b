"""One cold pass of a benchmark workload, in a fresh interpreter.

Started by run.py, once per pass, with the checkout's ``src`` on
PYTHONPATH.  It imports partalg, builds the seeded op list, runs every
op once in order, then the stream ops again as often as
workloads.STREAM_REPEATS says, and prints one JSON line: set-up time,
each op's verdict, its first run's raw time and the scaled time of each
of its runs (see HostSpeed), the probe times, peak memory and, when
traced, the per-layer metrics.  With ``--setup-only``
it prints the set-up time alone and exits before the first op.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --launched T [--tiny] [--setup-only]

``--launched`` is the CLOCK_MONOTONIC reading taken just before the
process was started, so set-up time covers interpreter start too.  Like
op times, set-up time is scaled to the reference host speed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import time
import traceback
from fractions import Fraction

import workloads

# While ops run, a probe interrupts them every TICK_S seconds.
TICK_S = 0.02
# The probe's duration, between ops, in the quiet moments of a shared
# 2-core Xeon VM under Python 3.11 (its 1st percentile over a pass): the
# reference speed that scaled op times are expressed in.
REF_PROBE_S = 190e-6


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> None:
    """A fixed pure-stdlib Fraction and dict loop of about 0.2 ms.

    The collector is off while it runs, so a collection of the
    workload's garbage is charged to the workload, not to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    total = Fraction(0)
    buckets: dict[int, int] = {}
    for i in range(1, 80):
        total += Fraction(1, i)
        buckets[i % 97] = buckets.get(i % 97, 0) + i
    if enabled:
        gc.enable()


class HostSpeed:
    """Measures the host's speed while the worker runs.

    On a shared host, contention from other tenants slows this process
    by up to 1.8x, in stretches from milliseconds to minutes, and its
    CPU time slows with it.  A SIGALRM timer runs the probe every TICK_S
    seconds; the work done between two probes, or between ``opened`` and
    the first probe, is scaled by REF_PROBE_S over the duration of the
    probe that ends it.  A scaled time is what the work would take at the
    reference speed: a change to partalg moves it, the host's pace
    largely does not.  Times are CLOCK_MONOTONIC readings.
    """

    def __init__(self, opened: float) -> None:
        # A zero-length mark at ``opened`` starts the first stretch.
        self.starts = [opened]
        self.ends = [opened]

    def _tick(self, *_) -> None:
        start = now()
        probe()
        self.starts.append(start)
        self.ends.append(now())

    def __enter__(self) -> HostSpeed:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def work(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of work in [start, end], probes left out: raw, and
        scaled to the reference speed.  Call after the timer stopped."""
        raw = scaled = 0.0
        # Stretch i runs from the end of probe i-1 to the start of probe i.
        i = max(bisect.bisect_right(self.starts, start), 1)
        while i < len(self.starts) and self.ends[i - 1] < end:
            seconds = min(end, self.starts[i]) - max(start, self.ends[i - 1])
            if seconds > 0:
                raw += seconds
                scaled += seconds * REF_PROBE_S / (self.ends[i] - self.starts[i])
            i += 1
        return raw, scaled

    def probe_ms(self) -> list[float]:
        return [(e - s) * 1000 for s, e in zip(self.starts[1:], self.ends[1:])]


def run_op(op) -> tuple[float, float, str, str | None, str | None]:
    """Runs one op: its start and end, verdict, exception type and message."""
    start = now()
    try:
        verdict = "ok" if op.run() else "wrong"
    except Exception as exc:  # every failure is counted; the pass goes on
        end = now()
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error_type = type(exc).__name__
        error = f"{error_type}: {exc} [{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}]"
        return start, end, "raised", error_type, error
    return start, now(), verdict, None, None


def run_ops(ops, stream_repeats: int) -> tuple[list[dict], list[tuple[float, float]]]:
    """Runs the op list once, then the stream ops stream_repeats - 1 more
    times.  Returns each op's first bad verdict and the (start, end) of
    every run."""
    results = []
    runs = []
    schedule = list(enumerate(ops))
    schedule += [(i, op) for _ in range(stream_repeats - 1) for i, op in enumerate(ops) if op.stream]
    for i, op in schedule:
        start, end, verdict, error_type, error = run_op(op)
        runs.append((i, start, end))
        if i == len(results):
            results.append({"name": op.name, "stream": op.stream, "verdict": "ok"})
        result = results[i]
        if result["verdict"] == "ok" and verdict != "ok":
            known = (op.name, error_type) in workloads.KNOWN_FAILURES
            result.update(verdict=verdict, error=error, known=known)
    return results, runs


def time_ops(results: list[dict], runs, host: HostSpeed) -> None:
    """Gives each op its first run's raw and scaled time and the scaled
    time of every run."""
    for i, start, end in runs:
        raw, scaled = host.work(start, end)
        result = results[i]
        if "first" not in result:
            result.update(first=raw, first_scaled=scaled, scaled=[])
        result["scaled"].append(scaled)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="exit once the op list is ready")
    args = parser.parse_args()

    with HostSpeed(args.launched) as host:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
        ready = now()
        if not args.setup_only:
            results, runs = run_ops(ops, workloads.STREAM_REPEATS[args.workload])
    setup_s = host.work(args.launched, ready)[1]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    time_ops(results, runs, host)
    out = {
        "setup_s": setup_s,
        "ops": results,
        "probe_ms": host.probe_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.summary()
    print(json.dumps(out))

if __name__ == "__main__":
    main()
