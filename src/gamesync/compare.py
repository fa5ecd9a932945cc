"""A/B comparison of run outputs.

Auto-detects the CSV schema from the header (tick, event, or delivery
rows) and reports per-metric deltas as variant minus baseline, plus the
windows where either run was in strong mode and who wins each window.
Both files must share the schema and the same row grid.
"""

from typing import NamedTuple

from gamesync.metrics import DELIVERY_HEADER, EVENT_HEADER, TICK_HEADER


class SchemaMismatch(Exception):
    pass


class _Table(NamedTuple):
    path: object
    header: str
    rows: list      # each row's fields, as many as the header has
    lines: list     # each row's line number in the file


def _read_rows(path) -> _Table:
    """Read a run CSV. Raises SchemaMismatch, naming the file and the line,
    for an empty file, bytes that are not UTF-8, or a row whose number of
    fields differs from the header's."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaMismatch(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    if not lines:
        raise SchemaMismatch(f"{path}: empty file")
    header = lines[0]
    width = header.count(",") + 1
    rows, numbers = [], []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise SchemaMismatch(f"{path}:{number}: {len(fields)} fields, "
                                 f"the header has {width}")
        rows.append(fields)
        numbers.append(number)
    return _Table(path, header, rows, numbers)


def _column(table: _Table, index: int, convert) -> list:
    """Column index of every row, converted; SchemaMismatch naming the file
    and the line for a field that does not convert."""
    values = []
    for row, line in zip(table.rows, table.lines):
        try:
            values.append(convert(row[index]))
        except ValueError:
            raise SchemaMismatch(
                f"{table.path}:{line}: field {index + 1}, {row[index]!r}, "
                f"does not parse as {convert.__name__}") from None
    return values


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _compare_tick(a: _Table, b: _Table):
    rows_a, rows_b = a.rows, b.rows
    key_a = [(r[0], r[1], r[2], r[3]) for r in rows_a]
    key_b = [(r[0], r[1], r[2], r[3]) for r in rows_b]
    if key_a != key_b:
        raise SchemaMismatch("tick grids differ between the two runs")
    div_a = _column(a, 8, float)
    div_b = _column(b, 8, float)
    ticks = _column(a, 0, int)
    strong = [i for i in range(len(rows_a))
              if rows_a[i][9] == "strong" or rows_b[i][9] == "strong"]

    # windows: contiguous runs of sampled ticks where either run was strong
    all_ticks = sorted(set(ticks))
    tick_pos = {t: i for i, t in enumerate(all_ticks)}
    strong_ticks = sorted({ticks[i] for i in strong})
    runs = []
    for t in strong_ticks:
        if runs and tick_pos[t] == tick_pos[runs[-1][-1]] + 1:
            runs[-1].append(t)
        else:
            runs.append([t])
    windows = []
    for window_ticks in runs:
        members = set(window_ticks)
        span = [i for i in strong if ticks[i] in members]
        a = _mean([div_a[i] for i in span])
        b = _mean([div_b[i] for i in span])
        windows.append({
            "start_ms": window_ticks[0], "end_ms": window_ticks[-1],
            "rows": len(span),
            "mean_divergence_delta": b - a,
            "winner": "variant" if b < a else ("baseline" if a < b else "tie"),
        })

    return {
        "schema": "tick",
        "rows": len(rows_a),
        "mean_divergence_delta": _mean(div_b) - _mean(div_a),
        "max_divergence_delta": (max(div_b) if div_b else 0.0)
                                - (max(div_a) if div_a else 0.0),
        "strong_rows": len(strong),
        "strong_mean_divergence_delta": (_mean([div_b[i] for i in strong])
                                         - _mean([div_a[i] for i in strong])),
        "windows": windows,
    }


def _compare_event(a: _Table, b: _Table):
    key_a = [(r[0], r[1], r[2]) for r in a.rows]
    key_b = [(r[0], r[1], r[2]) for r in b.rows]
    if key_a != key_b:
        raise SchemaMismatch("event rows differ between the two runs")
    abs_a = [abs(v) for v in _column(a, 5, int)]
    abs_b = [abs(v) for v in _column(b, 5, int)]
    return {
        "schema": "event",
        "rows": len(a.rows),
        "mean_abs_diff_delta": _mean(abs_b) - _mean(abs_a),
        "max_abs_diff_delta": (max(abs_b) if abs_b else 0)
                              - (max(abs_a) if abs_a else 0),
        "windows": [],
    }


def _compare_delivery(a: _Table, b: _Table):
    delay_a = _column(a, 5, int)
    delay_b = _column(b, 5, int)
    crit_a = [d for d, r in zip(delay_a, a.rows) if r[6] == "1"]
    crit_b = [d for d, r in zip(delay_b, b.rows) if r[6] == "1"]
    return {
        "schema": "delivery",
        "rows_baseline": len(a.rows),
        "rows_variant": len(b.rows),
        "mean_delay_delta_ms": _mean(delay_b) - _mean(delay_a),
        "critical_mean_delay_delta_ms": _mean(crit_b) - _mean(crit_a),
        "windows": [],
    }


def compare(baseline_csv, variant_csv) -> dict:
    """Per-metric deltas (variant minus baseline) between two run outputs."""
    a = _read_rows(baseline_csv)
    b = _read_rows(variant_csv)
    if a.header != b.header:
        raise SchemaMismatch(f"headers differ: {a.header!r} vs {b.header!r}")
    if a.header == TICK_HEADER:
        return _compare_tick(a, b)
    if a.header == EVENT_HEADER:
        return _compare_event(a, b)
    if a.header == DELIVERY_HEADER:
        return _compare_delivery(a, b)
    raise SchemaMismatch(f"unrecognized schema: {a.header!r}")
