"""Benchmark for mstiff: end-to-end timings, or a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Workloads
and the reasons for them are in ``workloads.py``.

``--trace 0`` repeats passes over the workload's inputs for ``--seconds``
and reports the end-to-end metrics: the median pass time (``wall_s``), the
median and 90th percentile of single-operation latency, set-up time (the
median of several fresh processes that import the package and build the
inputs) and peak memory.  ``--trace 1`` alternates plain and traced passes
for ``--seconds`` and reports per-layer counts, busy and self times per
traced pass, and the tracing overhead; the spans are written under
``.bench_build/trace/``.  Every operation's output is checked; a wrong
output, an unexpected exit code or an exception counts as a failed
operation.  The last line of stdout is one JSON object; details, including
the sha256 of the first pass's output bytes, go to stderr.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "mstiff-bench"
SETUP_PROBES = 7
# BENCHMARK.json names the workloads, and the metrics with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_PROBE = (
    "import sys\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import mstiff, mstiff.cli, workloads\n"
    "workloads.make_inputs({workload!r}, {seed!r}, {size!r})\n"
    "print('ready', flush=True)\n"
)


def import_program() -> None:
    """Put the checkout's src/ first on the path and import the package
    from there; exit with an error when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import mstiff
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mstiff from {SRC}: {exc}")
    if not Path(mstiff.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(
            f"error: mstiff was imported from {mstiff.__file__}, not {SRC}")


def setup_seconds(workload: str, seed: int, size: str) -> float:
    """Median time from starting a fresh interpreter to having the package
    imported and the inputs built."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload,
                         seed=seed, size=size)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed")
    return statistics.median(times)


def check_pass(workload: str, inputs: dict, p, first) -> None:
    """Run the output checks of one pass; later passes must also give the
    same bytes as the first.  Only a sha256 of each op's output is kept,
    so memory does not grow with the number of passes."""
    import workloads

    whole = None
    if first is None:
        workloads.deep_check(workload, inputs, p)
        whole = hashlib.sha256()
    for i, op in enumerate(p.ops):
        if op.error is None:
            output = workloads.output_bytes(op.result)
            op.digest = hashlib.sha256(output).digest()
            if whole is not None:
                whole.update(output)
            try:
                op.error = op.check(op.result)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                op.error = f"{op.label}: unreadable output ({exc!r})"
        if op.error is None and first is not None and (
                i >= len(first.ops) or op.digest != first.ops[i].digest):
            op.error = f"{op.label}: output differs from the first pass"
        op.result = op.check = None
    if whole is not None:
        p.sha256 = whole.hexdigest()
    if first is not None and len(p.ops) != len(first.ops):
        p.ops[-1].error = p.ops[-1].error or "pass ran a different op count"


def timed_pass(workload: str, inputs: dict):
    import workloads

    gc.collect()
    return workloads.run_pass(workload, inputs, WORKDIR)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the benchmark's own tests")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    import_program()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, inputs)
        else:
            result = plain_run(args, inputs)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


def summarize(workload: str, passes: list) -> dict:
    ops = [op for p in passes for op in p.ops]
    failures = [op.error for op in ops if op.error]
    print(f"{workload}: {len(passes)} passes, {len(ops)} ops, "
          f"{len(failures)} failed, output sha256 {passes[0].sha256}",
          file=sys.stderr)
    for error in failures[:10]:
        print(f"  FAILED {error}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
    }


def named_metrics(spec: list, values: dict) -> dict:
    """Each metric of a BENCHMARK.json list with its unit; a metric missing
    from values is an error, not a zero."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def measure(args, inputs: dict, tracer=None) -> tuple[list, list]:
    """(plain passes, traced passes) over the inputs for about
    args.seconds, each checked after it ends.  With a tracer, plain and
    traced passes alternate, swapping order from round to round, so both
    kinds see the same machine."""
    plain: list = []
    traced: list = []
    rounds: list[float] = []
    # at least two rounds, so that a median and both orders exist; after
    # that, start a round only while it should end within the window
    while len(rounds) < 2 or (
            sum(rounds) + statistics.median(rounds) <= args.seconds):
        kinds = (False,) if tracer is None else (
            (False, True) if len(rounds) % 2 == 0 else (True, False))
        for with_trace in kinds:
            if with_trace:
                tracer.install()
            try:
                p = timed_pass(args.workload, inputs)
            finally:
                if with_trace:
                    tracer.uninstall()
            check_pass(args.workload, inputs, p, plain[0] if plain else None)
            (traced if with_trace else plain).append(p)
        rounds.append(sum(q.wall for q in (plain + traced)[-len(kinds):]))
    return plain, traced


def plain_run(args, inputs: dict) -> dict:
    setup = setup_seconds(args.workload, args.seed, args.size)
    passes, _ = measure(args, inputs)
    latencies = [op.seconds * 1e3 for p in passes for op in p.ops]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 90),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = summarize(args.workload, passes)
    print(f"  {len(latencies)} latency samples", file=sys.stderr)
    result["metrics"] = named_metrics(SPEC["end_to_end"], values)
    return result


def traced_run(args, inputs: dict) -> dict:
    import tracer as trace_mod

    tracer = trace_mod.Tracer()
    plain, traced = measure(args, inputs, tracer)
    # per traced pass; every pass does the same work, so counts are exact
    values = tracer.layer_metrics(passes=len(traced))
    # counted by the sweep alone; the other workloads make no checkpoints
    for key in ("cli.ckpt_bytes", "cli.cells_replayed"):
        values[key] = traced[0].counts.get(key, 0)
    values["trace.wall_s"] = statistics.median(p.wall for p in traced)
    values["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    values["trace.overhead_s"] = (
        values["trace.wall_s"] - values["trace.untraced_wall_s"])
    values["trace.unaccounted_s"] = (
        statistics.fmean(p.wall for p in traced) - values["trace.self_sum_s"])
    result = summarize(args.workload, plain + traced)
    values["fail_ratio"] = result["failed"] / result["attempted"]
    result["metrics"] = named_metrics(SPEC["per_layer"], values)
    spans = ROOT / ".bench_build" / "trace" / (
        f"{args.workload}-seed{args.seed}.spans")
    tracer.dump(spans)
    print(f"  {len(plain)} plain and {len(traced)} traced passes; "
          f"{len(tracer.start)} spans written to {spans}", file=sys.stderr)
    return result


if __name__ == "__main__":
    sys.exit(main())
