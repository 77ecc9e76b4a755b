"""partalg benchmark: seeded cold-process workloads, checked op by op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is algebra_generic,
structure_numeric, tensor_action, or ``all`` for the three in turn.
Each pass is a fresh interpreter (worker.py) that imports partalg from
the checkout's ``src``, builds the seeded inputs, and runs the op list
once, cold.  Passes repeat, one at a time, while another fits in S
seconds; at least one always runs.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
ones.  The metric names and units are those of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted and failed count the
op list of one pass.  An op that returns a wrong answer or raises counts
as failed; it makes ``correct`` false unless it is a known failure
listed in workloads.KNOWN_FAILURES.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("algebra_generic", "structure_numeric", "tensor_action")
PASS_TIMEOUT_S = 150
# Set-up-only launches after each untraced pass; setup_s is the median
# over these and the passes' own set-up times.
SETUP_LAUNCHES = 2


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, trace: bool, tiny: bool = False, setup_only: bool = False) -> dict:
    """Runs one cold pass in a fresh process and returns its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(trace))] + (["--tiny"] if tiny else [])
    cmd += ["--setup-only"] if setup_only else []
    launched = now()
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launched)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> list[dict]:
    """Runs passes while the next one is expected to end within the time.

    Each untraced pass is followed by set-up-only launches; the samples
    go into the pass record's ``setup_samples``.
    """
    kinds = [False, True] if trace else [False]
    passes: list[dict] = []
    durations: list[float] = []
    start = now()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        began = now()
        record = run_pass(workload, seed, traced, tiny)
        record["traced"] = traced
        record["setup_samples"] = [record["setup_s"]]
        if not traced:
            for _ in range(SETUP_LAUNCHES):
                record["setup_samples"].append(run_pass(workload, seed, False, tiny, True)["setup_s"])
        passes.append(record)
        durations.append(now() - began)
        if len(passes) >= len(kinds) and now() - start + max(durations) > seconds:
            return passes


def cold_wall(passes: list[dict], key: str = "first_scaled") -> float:
    """The op list run once, cold: the sum of its ops' first-run times in a
    pass, median over passes, in seconds."""
    return statistics.median(sum(op[key] for op in p["ops"]) for p in passes)


def median_latencies(passes: list[dict]) -> list[float]:
    """Each op's median scaled time over its runs in passes of the same op
    list, in seconds."""
    ops = zip(*(p["ops"] for p in passes))
    return [statistics.median(t for op in runs for t in op["scaled"]) for runs in ops]


def summarize(passes: list[dict]) -> dict:
    """End-to-end metrics over untraced passes; per-layer over traced ones.

    Times are scaled to the reference host speed (worker.HostSpeed).
    wall_s is the op list run once, cold.  The percentiles are taken over
    the stream ops that passed their check, each at its median over every
    run in every pass.  setup_s and memory are medians over the samples.
    Every pass runs the same op list, so attempted and failed are one
    pass's counts, and passes that disagree on a verdict make the
    run incorrect.  An op that returns a wrong answer, or raises anything
    but a known failure, makes the run incorrect.
    """
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]["ops"]
    agree = all([op["verdict"] for op in p["ops"]] == [op["verdict"] for op in first] for p in passes)
    bad = [op for op in first if op["verdict"] != "ok"]
    known = [op for op in bad if op["known"]]
    typical = median_latencies(plain)
    latencies = sorted(t * 1000 for t, op in zip(typical, first) if op["stream"] and op["verdict"] == "ok")
    metrics = {
        "setup_s": statistics.median(s for p in plain for s in p["setup_samples"]),
        "wall_s": cold_wall(plain),
        "wall_raw_s": cold_wall(plain, "first"),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "fail_frac": len(bad) / len(first),
        "host.calib_ms": statistics.median(c for p in passes for c in p["probe_ms"]),
    }
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = min(p["layers"][key] for p in traced)
        metrics["trace.overhead_frac"] = cold_wall(traced) / metrics["wall_s"] - 1
    errors = [f"{op['name']}: {op['error'] or 'check returned False'}" for op in bad]
    if not agree:
        errors.append("passes disagree on which ops pass their checks")
    return {
        "correct": agree and len(known) == len(bad),
        "attempted": len(first),
        "failed": len(bad),
        "metrics": metrics,
        "errors": errors,
        "passes": (len(plain), len(traced)),
        "samples": len(latencies),
    }


def report(workload: str, summary: dict, spec: dict, trace: bool) -> dict:
    """Prints the human-readable block and returns the JSON result."""
    metrics = summary["metrics"]
    plain, traced = summary["passes"]
    print(f"{workload}: {plain} untraced and {traced} traced cold passes; "
          f"percentiles over {summary['samples']} stream ops, each at its median")
    for entry in spec["end_to_end"]:
        print(f"  {entry['name']:<14} {metrics[entry['name']]:>14.6g} {entry['unit']}")
    print(f"  {'fail_frac':<14} {metrics['fail_frac']:>14.6g} "
          f"({summary['failed']} of {summary['attempted']} ops)")
    print(f"  {'wall_raw_s':<14} {metrics['wall_raw_s']:>14.6g} s (wall_s unscaled)")
    print(f"  {'host.calib_ms':<14} {metrics['host.calib_ms']:>14.6g} ms")
    for error in summary["errors"]:
        print(f"  failed: {error}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        for entry in listed:
            print(f"  {entry['name']:<44} {metrics[entry['name']]:>14.6g} {entry['unit']}")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in listed},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "partalg" / "__init__.py").is_file():
        print(f"no partalg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            passes = run_passes(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        results[name] = report(name, summarize(passes), spec, bool(args.trace))
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
