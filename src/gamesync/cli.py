"""Command-line runner.

    gamesync run <scenario.json> [--seed N] [--out tick.csv]
                 [--events events.csv] [--deliveries deliveries.csv]
                 [--summary summary.txt] [--trace trace.log]
    gamesync compare <baseline.csv> <variant.csv>

Exit codes: 0 success, 2 configuration error or a file that cannot be
read or written, 3 invariant violation detected during the run.
"""

import argparse
import sys

from gamesync.compare import SchemaMismatch, compare
from gamesync.metrics import format_summary
from gamesync.netsim import InvariantViolation
from gamesync.player import ConfigInvalid
from gamesync.runner import run
from gamesync.scenario import ParseError, ValidationError, load_scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gamesync",
        description="Scenario runner for the game-state synchronization layer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario to completion")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="per-tick metrics CSV")
    p_run.add_argument("--events", default=None, help="per-event display-time CSV")
    p_run.add_argument("--deliveries", default=None, help="per-delivery delay CSV")
    p_run.add_argument("--summary", default=None, help="summary key=value file")
    p_run.add_argument("--trace", default=None, help="network event trace file")

    p_cmp = sub.add_parser("compare", help="delta summary of two run CSVs")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("variant")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "run":
        try:
            config = load_scenario(args.scenario)
        except (ParseError, ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = run(config, out=args.out, events_out=args.events,
                         deliveries_out=args.deliveries,
                         trace_out=args.trace, summary_out=args.summary,
                         seed=args.seed)
        except (ConfigInvalid, OSError) as exc:   # OSError: an output file
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except InvariantViolation as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return 3
        sys.stdout.write(format_summary(result.summary))
        return 0

    try:
        deltas = compare(args.baseline, args.variant)
    except (SchemaMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    windows = deltas.pop("windows", [])
    for key in sorted(deltas):
        print(f"{key}={deltas[key]}")
    for i, window in enumerate(windows):
        parts = " ".join(f"{k}={v}" for k, v in window.items())
        print(f"window[{i}] {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
