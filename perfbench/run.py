#!/usr/bin/env python3
"""qomin benchmark.

    python3 perfbench/run.py --workload sweep|eliminate|cli|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics untraced; with --trace 1
it records spans around the layers' entry points (spans.py) and reports
per-layer self times, counts and the tracing overhead.  The last line of
stdout is one JSON object; the lines before it are the same numbers for a
reader.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
WORKLOADS = ("sweep", "eliminate", "cli")
FRESH_SETUPS = 2        # extra set-ups in fresh processes, for the setup_s median
MIN_PASSES = 3          # so each op's median over the passes outvotes one odd pass
CHILD_TIMEOUT_S = 170


def _import_program():
    if not (SRC / "qomin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qomin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qomin
    if Path(qomin.__file__).resolve().parent != SRC / "qomin":
        sys.exit(f"perfbench: imported qomin from {qomin.__file__}, not from {SRC}")
    import workloads
    return workloads


def _run_pass(ops) -> tuple[list[int], list, list[str | None], float]:
    """Runs every op once: latencies (ns), outputs, exceptions, wall seconds."""
    lat, outs, errs = [], [], []
    clock = time.perf_counter_ns
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out, err = op.call(), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(clock() - t0)
        outs.append(out)
        errs.append(err)
    return lat, outs, errs, (clock() - start) / 1e9


def _check(ops, outs, errs, reference=None) -> list[str]:
    """Failure messages of one pass.  The first pass is judged by each op's
    check; a later pass must reproduce the first pass's outputs."""
    failures = []
    for i, (op, out, err) in enumerate(zip(ops, outs, errs)):
        if err is None:
            try:
                if reference is None:
                    err = op.check(out)
                elif out != reference[i]:
                    err = "output differs from the first pass"
            except Exception as exc:  # a check that cannot run fails the op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{op.label}: {err}")
    return failures


def _fresh_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _result(failures: list[str], attempted: int, values: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def _report_failures(failures: list[str]) -> None:
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more failures")


def _freeze_setup() -> None:
    """Moves the set-up's objects out of the collector's reach, so a full
    collection during an op scans what the ops allocated, not the inputs;
    otherwise which op pays for a full collection depends on the op order."""
    gc.collect()
    gc.freeze()


def run_untraced(args, workloads) -> dict:
    ops = workloads.build(args.workload, args.seed)
    setups = [time.perf_counter() - PROCESS_START]
    _freeze_setup()

    lat, outs, errs, wall = _run_pass(ops)
    failures = _check(ops, outs, errs)
    # peak after one pass, before a second pass's outputs sit beside the first's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = outs
    passes = max(MIN_PASSES, int(args.seconds / wall))
    latencies, walls = [lat], [wall]
    for _ in range(passes - 1):
        lat, outs, errs, wall = _run_pass(ops)
        latencies.append(lat)
        walls.append(wall)
        failures += _check(ops, outs, errs, reference)

    setups += [_fresh_setup(args) for _ in range(FRESH_SETUPS)]
    # one latency per op, its median over the passes: the shared machine
    # runs everything up to 1.6x slower, or faster, for seconds to minutes at
    # a time, and a median ignores a minority of passes caught by such a
    # stretch either way.  n stays the op count whatever the number of passes.
    per_op = [statistics.median(runs) for runs in zip(*latencies)]
    n = len(ops)
    tail = metrics.tail_percentile(n)
    attempted = n * passes
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / (sum(per_op) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(per_op) / 1e6, "ms"),
        "op_tail_ms": (metrics.harrell_davis(per_op, tail) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} ops per pass, {passes} passes, "
          f"{len(failures)} of {attempted} failed, fail_ratio {len(failures) / attempted:.4g}")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{n} ops at their median over {passes} passes; "
                     f"{attempted} ops took {sum(walls):.2f} s",
        "op_p50_ms": f"n={n}, each op's median over {passes} passes",
        "op_tail_ms": metrics.describe_tail(n, tail) + f", each op's median over {passes} passes",
        "peak_rss_mb": "peak resident memory through set-up and one pass",
    }
    for name, (value, unit) in values.items():
        print(f"  {name:12s} {value:12.4f} {unit:4s} ({notes[name]})")
    _report_failures(failures)
    return _result(failures, attempted, values)


def _traced_pass(tracer, ops, prefix="") -> tuple[list, list[str | None], float]:
    """Runs every op once as a traced op: outputs, exceptions, wall seconds."""
    outs, errs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            out, err = tracer.op(f"{prefix}{i}", op.call), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        outs.append(out)
        errs.append(err)
    return outs, errs, time.perf_counter() - start


def run_traced(args, workloads) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops, probe = tracer.op("setup", lambda: (workloads.build(args.workload, args.seed),
                                                 workloads.layer_probe()))
        probe_outs, probe_errs, _ = _traced_pass(tracer, probe, "probe-")
    finally:
        tracer.uninstall()
    _freeze_setup()
    *_, untraced_wall = _run_pass(ops)

    tracer.install()
    try:
        outs, errs, traced_wall = _traced_pass(tracer, ops)
    finally:
        tracer.uninstall()
    failures = _check(probe + ops, probe_outs + outs, probe_errs + errs)

    selfs = spans.self_times(tracer.spans)
    unbalanced = spans.check_op_sums(tracer.spans, selfs)
    if unbalanced:
        sys.exit(f"perfbench: self times do not sum to the op's wall time for ops {unbalanced[:5]}")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.tsv"
    spans.write_spans(span_file, tracer.spans)

    values = {k: (v, "s") for k, v in spans.layer_metrics(tracer.spans, selfs).items()}
    values.update((k, (v, "count"))
                  for k, v in spans.count_metrics(tracer.spans, tracer.outputs).items())
    values["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    print(f"workload {args.workload} seed {args.seed} traced: {len(ops)} ops and "
          f"{len(probe)} probe calls, "
          f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}, "
          f"traced pass {traced_wall:.2f} s, untraced {untraced_wall:.2f} s")
    for name, (value, unit) in values.items():
        print(f"  {name:34s} {value:12.4f} {unit}")
    _report_failures(failures)
    return _result(failures, len(probe) + len(ops), values)


def run_all(args) -> dict:
    """Each workload in its own process; the metric names gain its prefix."""
    failed = attempted = 0
    correct = True
    merged = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} failed:\n{done.stderr}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        failed += res["failed"]
        attempted += res["attempted"]
        merged.update((f"{name}.{k}", v) for k, v in res["metrics"].items())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.workload == "all":
        result = run_all(args)
    else:
        workloads = _import_program()
        if args.setup_only:
            workloads.build(args.workload, args.seed)
            print(time.perf_counter() - PROCESS_START)
            return
        result = (run_traced if args.trace else run_untraced)(args, workloads)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
