"""CSV row contract: numbers are written as repr(), text verbatim; and the
summary's percentiles."""

import io
import math

from hypothesis import given
from hypothesis import strategies as st

from conftest import read_rows
from gamesync.metrics import (DELIVERY_HEADER, DELIVERY_ROW, EVENT_HEADER,
                              EVENT_ROW, TICK_HEADER, TICK_ROW, TICK_SHOWN,
                              TICK_TRUTH, CsvWriter, RunningStats,
                              merged_percentiles, percentile)

SUBNORMAL = 5e-324
AWKWARD = (-0.0, SUBNORMAL, 1e22, 0.1 + 0.2)


def join_reference(fields):
    """The generic writer the templates replace: repr for a float, str for
    anything else."""
    return ",".join(repr(f) if isinstance(f, float) else str(f)
                    for f in fields) + "\n"


def written(header, template, rows):
    fh = io.StringIO()
    writer = CsvWriter(fh, header, template)
    for row in rows:
        writer.row(*row)
    return fh.getvalue()


def test_tick_rows_match_reference_join():
    floats = [AWKWARD + (0.5,), (0.5,) + AWKWARD[::-1],
              (0.0, 7.5, -3.25, 1e-310, 2.0)]
    rows = [(50, 3, 0, 1) + five + (mode, route)
            for five in floats
            for mode, route in (("normal", -1), ("strong", 12))]
    got = written(TICK_HEADER, TICK_ROW, rows)
    assert got == TICK_HEADER + "\n" + "".join(map(join_reference, rows))
    # A sampler's parts render the same bytes: the tick, the fixed
    # ",entity,owner,viewer," text, the truth and shown parts, the route.
    parts = "".join("%d,%d,%d,%d," % row[:4] + TICK_TRUTH % row[4:6]
                    + TICK_SHOWN % row[6:10] + "%d\n" % row[10]
                    for row in rows)
    assert TICK_HEADER + "\n" + parts == got


def test_event_and_delivery_rows_match_reference_join():
    events = [(1, 0, 2, 1500, 1620, 120), (2**40, 7, 3, 0, -5, -5)]
    assert written(EVENT_HEADER, EVENT_ROW, events) == (
        EVENT_HEADER + "\n" + "".join(map(join_reference, events)))
    deliveries = [(100, 0, 1, 4, 9, 250, 1), (105, 1, 0, 5, 10, -3, 0)]
    assert written(DELIVERY_HEADER, DELIVERY_ROW, deliveries) == (
        DELIVERY_HEADER + "\n" + "".join(map(join_reference, deliveries)))


def test_written_rows_parse_back_to_the_values_written(tmp_path):
    """The row contract is what lets tests read a run's rows from its CSV
    files (conftest.read_rows) instead of from the runner."""
    rows = [(50, 3, 0, 1) + AWKWARD + (0.5, "strong", -1),
            (100, 3, 0, 2, 1e-310, 2.0, 0.5, -3.25, 7.5, "normal", 12)]
    path = tmp_path / "tick.csv"
    path.write_text(written(TICK_HEADER, TICK_ROW, rows), encoding="utf-8")
    parsed = read_rows(path)
    assert parsed == rows
    assert [tuple(map(repr, row)) for row in parsed] == \
        [tuple(map(repr, row)) for row in rows]    # -0.0 stays -0.0


@given(st.lists(st.lists(st.integers(0, 50) | st.integers(0, 10**12)),
                max_size=5),
       st.lists(st.floats(0, 100), min_size=1, max_size=4))
def test_merged_percentiles_equal_those_of_the_combined_list(runs, ps):
    """The percentiles read from a merge of sorted lists are those of one
    sorted copy of all their values, the copy they replace."""
    runs = [sorted(run) for run in runs]
    combined = sorted(v for run in runs for v in run)
    got = merged_percentiles(runs, ps)
    if not combined:
        assert all(math.isnan(v) for v in got) and len(got) == len(ps)
    else:
        assert got == [percentile(combined, p) for p in ps]


def test_running_stats_read_zero_while_empty():
    stats = RunningStats()
    assert (stats.count, stats.mean, stats.max) == (0, 0.0, 0.0)
    for value in (2.5, -1.0):
        stats.add(value)
    assert (stats.count, stats.mean, stats.max) == (2, 0.75, 2.5)
