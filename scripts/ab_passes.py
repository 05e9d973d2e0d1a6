#!/usr/bin/env python3
"""Interleaved A/B passes of one benchmark workload, both sides in one process.

    python scripts/ab_passes.py OLD NEW WORKLOAD [--reps N] [--seed S] [--median-ops K]
                                [--setup-reps K]

OLD and NEW are checkouts of this repository; WORKLOAD is sweep, eliminate
or cli.  The `qomin` package of each checkout is loaded side by side, and
each side's ops are built by that checkout's `perfbench/workloads.py`.
Each of N timed rounds then runs one pass of each side, the order alternating
from round to round, so both sides meet the same machine state: a shared
machine that speeds up or slows down between separate processes moves both
sides alike here.  Every op's latency is its median over the rounds, and
the end-to-end metrics are computed from those medians with the formulas of
`perfbench/metrics.py`: `ops_per_s`, `op_p50_ms` and `op_tail_ms`.  The
script also prints the quartiles of the per-op ratio NEW/OLD, which show
whether small ops gain or lose with large ones, and the quartiles of the
per-round ratio of the two sides' pass wall times: a change of the machine's
state during the run, which moves only the passes made after it, shows there
as a wide spread.  With --median-ops K the script lists the K ops nearest
OLD's median op, each with its latency on both sides.

With --setup-reps K the script first runs each checkout's
`perfbench/run.py --setup-only` K times in fresh processes, the side that
goes first alternating, and reports each side's median `setup_s` (import,
compile and building the ops) and their ratio.

Each side first makes one untimed pass, judged by its ops' own checks; a
failed op exits 1.  Outputs that differ between the sides (by repr) are counted, not failed,
since a change may legitimately change an output.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import metrics  # noqa: E402

# the modules that each side imports afresh
_SIDE_MODULES = ("qomin", "workloads", "generate")


def _forget_side_modules() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in _SIDE_MODULES:
            del sys.modules[name]


def load_side(checkout: Path, workload: str, seed: int) -> list:
    """The workload's ops, built by the checkout's own qomin and workloads.
    The modules leave sys.modules afterwards; the ops keep them alive."""
    src, bench = checkout / "src", checkout / "perfbench"
    _forget_side_modules()
    sys.path[:0] = [str(src), str(bench)]
    try:
        import qomin
        import workloads
        for module, home in ((qomin, src / "qomin"), (workloads, bench)):
            if Path(module.__file__).resolve().parent != home.resolve():
                sys.exit(f"ab_passes: imported {module.__name__} from {module.__file__}, "
                         f"not from {home}")
        return workloads.build(workload, seed)
    finally:
        del sys.path[:2]
        _forget_side_modules()


def setup_times(checkouts: dict[str, Path], workload: str, seed: int, reps: int) -> dict:
    """Each side's set-up seconds, reps fresh processes of its own
    perfbench/run.py --setup-only, the side that goes first alternating."""
    times: dict[str, list[float]] = {name: [] for name in checkouts}
    for rep in range(reps):
        for name in (("old", "new") if rep % 2 == 0 else ("new", "old")):
            cmd = [sys.executable, str(checkouts[name] / "perfbench" / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", "1", "--setup-only"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if done.returncode:
                sys.exit(f"ab_passes: {name} set-up failed:\n{done.stderr}")
            times[name].append(float(done.stdout.split()[-1]))
    return times


def run_pass(ops) -> tuple[list[int], list, list[str | None]]:
    """Runs every op once: latencies (ns), outputs, exceptions."""
    gc.collect()  # each pass starts from the same heap state
    lat, outs, errs = [], [], []
    clock = time.perf_counter_ns
    for op in ops:
        t0 = clock()
        try:
            out, err = op.call(), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(clock() - t0)
        outs.append(out)
        errs.append(err)
    return lat, outs, errs


def failures(ops, outs, errs) -> list[str]:
    found = []
    for op, out, err in zip(ops, outs, errs):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a check that cannot run fails the op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            found.append(f"{op.label}: {err}")
    return found


def summary(per_op: list[float]) -> dict:
    n = len(per_op)
    tail = metrics.tail_percentile(n)
    return {
        "ops_per_s": n / (sum(per_op) / 1e9),
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "op_tail_ms": metrics.harrell_davis(per_op, tail) / 1e6,
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("workload", choices=("sweep", "eliminate", "cli"))
    parser.add_argument("--reps", type=int, default=15, help="rounds, one pass of each side each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--median-ops", type=int, default=0, metavar="K",
                        help="list the K ops nearest OLD's median op")
    parser.add_argument("--setup-reps", type=int, default=0, metavar="K",
                        help="also time K set-ups of each side in fresh processes")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.setup_reps < 0:
        parser.error("--setup-reps must not be negative")
    setups = setup_times({"old": args.old, "new": args.new}, args.workload, args.seed,
                         args.setup_reps)

    sides = {"old": load_side(args.old, args.workload, args.seed),
             "new": load_side(args.new, args.workload, args.seed)}
    if len(sides["old"]) != len(sides["new"]):
        sys.exit("ab_passes: the two sides build different numbers of ops")
    gc.collect()
    gc.freeze()

    # an untimed first pass of each side, judged by the checks, warms what
    # the two sides share (the standard library's code) for either side
    failed, reprs = [], {}
    for name, ops in sides.items():
        _, outs, errs = run_pass(ops)
        failed += [f"{name} {line}" for line in failures(ops, outs, errs)]
        reprs[name] = [repr(out) for out in outs]
    differ = sum(a != b for a, b in zip(reprs["old"], reprs["new"]))

    lats: dict[str, list[list[int]]] = {"old": [], "new": []}
    for rep in range(args.reps):
        for name in (("old", "new") if rep % 2 == 0 else ("new", "old")):
            lats[name].append(run_pass(sides[name])[0])

    per_op = {name: [statistics.median(runs) for runs in zip(*lats[name])] for name in sides}
    result = {"workload": args.workload, "seed": args.seed, "reps": args.reps,
              "ops": len(sides["old"]), "failed": len(failed), "outputs_differ": differ}
    for name in sides:
        result[name] = summary(per_op[name])
        if args.setup_reps:
            result[name]["setup_s"] = statistics.median(setups[name])
    ratios = sorted(b / a for a, b in zip(per_op["old"], per_op["new"]))
    result["per_op_ratio_quartiles"] = _quartiles(ratios)
    rounds = [sum(b) / sum(a) for a, b in zip(lats["old"], lats["new"])]
    result["per_round_ratio_quartiles"] = _quartiles(rounds)
    order = sorted(range(len(ratios)), key=per_op["old"].__getitem__)
    start = max(0, len(order) // 2 - args.median_ops // 2)
    result["median_ops"] = [
        {"op": sides["old"][i].label, "old_ms": per_op["old"][i] / 1e6, "new_ms": per_op["new"][i] / 1e6}
        for i in order[start:start + args.median_ops]]

    print(f"workload {args.workload} seed {args.seed}: {result['ops']} ops, {args.reps} "
          f"interleaved rounds, {len(failed)} failed, {differ} outputs differ")
    for metric in ("ops_per_s", "op_p50_ms", "op_tail_ms") + (("setup_s",) if args.setup_reps else ()):
        old, new = result["old"][metric], result["new"][metric]
        print(f"  {metric:10s} old {old:10.4f}  new {new:10.4f}  new/old {new / old:6.3f}")
    q1, q2, q3 = result["per_op_ratio_quartiles"]
    print(f"  per-op latency new/old: quartiles {q1:.3f} {q2:.3f} {q3:.3f}")
    q1, q2, q3 = result["per_round_ratio_quartiles"]
    print(f"  per-round pass time new/old: quartiles {q1:.3f} {q2:.3f} {q3:.3f}")
    for row in result["median_ops"]:
        print(f"  {row['old_ms']:8.4f} ms -> {row['new_ms']:8.4f} ms  {row['op']}")
    for line in failed[:10]:
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
