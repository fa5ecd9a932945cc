#!/usr/bin/env python3
"""gamesync benchmark: run one workload repeatedly for a fixed time, check
its outputs, and print its metrics.

    python3 perfbench/run.py --workload carrace --seed 1 --seconds 40 --trace 0

Run it from the repository root: it imports the program from ./src, reads
the metric list from ./BENCHMARK.json and writes scratch outputs under
./.perfbench_out, which it removes again. Every run of the workload is one
parse_scenario plus one runner.run in this process, with no extra threads.

With --trace 0 each run is untraced and the end-to-end metrics are medians
over the runs. Every time is scaled by its run's host speed, measured with
reference tasks timed throughout the run (see harness.py). With --trace 1
untraced and traced runs alternate; the per-layer metrics are medians over
the traced runs, and trace.overhead_frac compares the two kinds.

The last line of standard output is one JSON object with the keys correct,
attempted (frames delivered), failed (frames that raised or failed to
decode; every frame of an aborted run) and metrics. The exit status is 0
when every check passed, 1 when one failed, and 2 when the program or
BENCHMARK.json is not there.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import generate

MIN_RUNS = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(harness, doc, seconds, trace, out_dir):
    """Run until `seconds` have passed and at least MIN_RUNS runs of each
    kind are done, alternating untraced and traced runs when `trace` is
    set; returns the untraced runs, the traced runs and the problems found.
    Stops at the first aborted run."""
    runs = {False: [], True: []}
    problems = []
    reference = None
    start = time.perf_counter()
    traced = bool(trace)
    while True:
        if trace:
            traced = not traced
        rep = harness.run_once(doc, out_dir, traced)
        runs[traced].append(rep)
        label = f"{'traced' if traced else 'untraced'} run {len(runs[traced])}"
        if rep.error is not None:
            problems.append(f"{label} aborted: {rep.error}")
            return runs[False], runs[True], problems
        s = rep.summary
        if rep.frames != s["messages_delivered"]:
            problems.append(f"{label}: {rep.frames} frames reached a player "
                            f"manager, {s['messages_delivered']} delivered")
        if s["messages_sent"] != (s["messages_delivered"]
                                  + s["messages_dropped_network"]
                                  + s["messages_in_flight_at_end"]):
            problems.append(f"{label}: sent != delivered + dropped + in flight")
        if reference is None:
            reference = rep.digests
            problems += [f"{label}: {p}"
                         for p in harness.check_outputs(s, out_dir)]
        elif rep.digests != reference:
            problems.append(f"{label}: output digests differ from run 1")
        if (len(runs[False]) >= MIN_RUNS and len(runs[True]) >= MIN_RUNS * trace
                and time.perf_counter() - start >= seconds):
            return runs[False], runs[True], problems


def end_to_end(reps, duration_s):
    """Medians over the runs, every time scaled by its run's host speed."""
    med = statistics.median
    return {
        "setup_s": med(r.setup_s * r.scale for r in reps),
        "vsim_per_s": med(duration_s / (r.wall_s * r.scale) for r in reps),
        "frames_per_s": med(r.summary["messages_delivered"]
                            / (r.wall_s * r.scale) for r in reps),
        "recv_us_p50": med(r.recv_us_p50 * r.scale for r in reps),
        "recv_us_p99": med(r.recv_us_p99 * r.scale for r in reps),
        "tick_us_p50": med(r.tick_us_p50 * r.scale for r in reps),
        "tick_us_p99": med(r.tick_us_p99 * r.scale for r in reps),
        # After the first run, so it does not grow with the number of runs.
        "peak_mem_mb": reps[0].peak_rss_mb,
        "divergence_mean_m": reps[0].summary["mean_divergence_m"],
    }


def per_layer(untraced, traced, units):
    """Medians over the traced runs; times (units ms and ns) are scaled by
    their run's host speed like the end-to-end ones."""
    values = {name: statistics.median(
                  r.layers[name] * (r.scale if units[name] in ("ms", "ns") else 1)
                  for r in traced)
              for name in traced[0].layers}
    values["trace.overhead_frac"] = (
        statistics.median(r.wall_s * r.scale for r in traced)
        / statistics.median(r.wall_s * r.scale for r in untraced) - 1.0)
    return values


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (root / "BENCHMARK.json").is_file() or not (src / "gamesync").is_dir():
        print("perfbench: run from the repository root (BENCHMARK.json and "
              "src/gamesync are needed)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import harness

    doc = generate.document(args.workload, args.seed, root)
    out_dir = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        untraced, traced, problems = measure(harness, doc, args.seconds,
                                             args.trace, out_dir)
    finally:
        shutil.rmtree(out_dir)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass   # another run still uses it

    reps = untraced + traced
    attempted = sum(r.frames for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced runs, {attempted} frames, {failed} failed "
          f"(failed_frac {failed / attempted if attempted else 0.0})")
    if reps[-1].error is None:
        print(f"host scale median {statistics.median(r.scale for r in reps)} "
              f"(times below are multiplied by it; raw run wall median "
              f"{statistics.median(r.wall_s for r in reps)} s)")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if reps[0].digests:
        for name, digest in reps[0].digests.items():
            print(f"sha256 {name} {digest}")

    metrics = {}
    if not problems:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = (per_layer(untraced, traced, units) if args.trace
                  else end_to_end(untraced, doc["duration_ms"] / 1000.0))
        for entry in spec["per_layer" if args.trace else "end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
            print(f"{entry['name']} {values[entry['name']]} {entry['unit']}")
    if attempted == 0:   # a run aborted before its first frame
        attempted = failed = 1
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
