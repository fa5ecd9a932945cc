"""Metrics records, CSV schemas, and summary statistics.

Row contract: every number is written as its repr() and every text value
verbatim, so the bytes of a row depend only on its values. Floats therefore
round-trip: parsing the CSV back recovers the exact same doubles, and summary
statistics recomputed from the files match the runner's reported summary
exactly. (For an int, repr() and str() agree.)

Each schema pairs its header with one %-template: %r for a number, %s for
text. The tick row also comes in parts, so a sampler formats the columns
an entity's viewers share once per entity and tick: TICK_ENTITY renders
tick_ms, entity and owner, TICK_TRUTH renders truth_x and truth_y, and
TICK_VIEWER takes both rendered parts whole, around the viewer, and ends the
row. Viewers that show an entity at the same point also share its shown
columns: TICK_SHOWN renders shown_x, shown_y, divergence_m and mode once per
point, and TICK_SHARED takes that part whole in their place. Either way the
parts render the same bytes as TICK_ROW.
"""

import math
from bisect import bisect_right

TICK_HEADER = "tick_ms,entity,owner,viewer,truth_x,truth_y,shown_x,shown_y,divergence_m,mode,route"
EVENT_HEADER = "event_seq,owner,viewer,local_playout_ms,remote_playout_ms,diff_ms"
DELIVERY_HEADER = "time_ms,sender,dest,entity,seq,delay_ms,critical"

TICK_ROW = "%r,%r,%r,%r,%r,%r,%r,%r,%r,%s,%r\n"
EVENT_ROW = "%r,%r,%r,%r,%r,%r\n"
DELIVERY_ROW = "%r,%r,%r,%r,%r,%r,%r\n"

TICK_ENTITY = "%r,%r,%r,"                 # tick_ms, entity, owner
TICK_TRUTH = ",%r,%r,"                    # truth_x, truth_y
TICK_VIEWER = "%s%r%s%r,%r,%r,%s,%r\n"    # entity part, viewer, truth part,
                                          # shown_x, shown_y, divergence_m,
                                          # mode, route
TICK_SHOWN = "%r,%r,%r,%s,"               # shown_x, shown_y, divergence_m,
                                          # mode
TICK_SHARED = "%s%r%s%s%r\n"              # entity part, viewer, truth part,
                                          # shown part, route


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def merged_percentiles(sorted_runs, ps) -> list:
    """Nearest-rank percentiles, one per p in ps, of all the values of
    several ascending lists of integers, without a combined list; NaN each
    when the lists hold no value. The value of rank r is the least integer
    with at least r values at or below it: a bisection over the values'
    range, counting by bisecting each list, so the cost grows with the log
    of the lengths and of the range, not with the lengths."""
    n = sum(map(len, sorted_runs))
    if not n:
        return [math.nan] * len(ps)
    runs = [run for run in sorted_runs if run]
    values = []
    for p in ps:
        rank = max(math.ceil(p / 100.0 * n), 1)
        lo, hi = min(run[0] for run in runs), max(run[-1] for run in runs)
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(bisect_right(run, mid) for run in runs) >= rank:
                hi = mid
            else:
                lo = mid + 1
        values.append(lo)
    return values


class RunningStats:
    """Streaming mean/max over the exact values written to the CSV."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.maximum = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def max(self) -> float:
        return self.maximum if self.maximum is not None else math.nan


class CsvWriter:
    """Line-per-row CSV writer; no-op when no file is attached.

    `write` is the file's write method, or None without a file, for a caller
    that formats rows itself and writes them in one batch."""

    def __init__(self, fh, header: str, template: str):
        self.write = None if fh is None else fh.write
        self._template = template
        if fh is not None:
            fh.write(header + "\n")

    def row(self, *fields) -> None:
        if self.write is not None:
            self.write(self._template % fields)


def format_summary(summary: dict) -> str:
    lines = []
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
