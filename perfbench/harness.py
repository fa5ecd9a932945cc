"""Timed and traced runs of one scenario document, and their checks.

An untraced run wraps only `PlayerManager.tick` with two clock reads, for
the per-tick latency; the per-frame latency is the program's own
`processing_us_p50` and `processing_us_p99`. A traced run instead records a
span around calls into every measured module (see `_trace_patches`),
patching the name each caller actually looks up, and reports per-layer
metrics. Both write all four outputs, so CSV and trace cost is always
counted, and both must produce byte-identical outputs for the same
document.

Both kinds also pace the run to measure the host's speed. The benchmark
shares a few cores of a busy host whose speed drifts by tens of percent
over seconds to minutes, which no run length averages out. So the
simulator is driven in CHUNK_MS steps of virtual time, and after a step
that ends at least REF_EVERY_NS after the last one, the run times
`reference_task`, a fixed piece of pure Python that shares no code with
the program. The run's `scale` is REF_NOMINAL_NS over the task's median
time, and run.py multiplies every measured time by it: a time is reported
as it would read on a host where the task takes REF_NOMINAL_NS. Reference
time is taken out of the run's wall time, and a step boundary changes
nothing the simulator does, so outputs stay byte-identical.
"""

import gc
import hashlib
import heapq
import resource
import statistics
import struct
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from gamesync import clock, locallag, metrics, netsim, player, regions, rollback, runner
from gamesync.scenario import parse_scenario

from spans import Spans

OUTPUTS = ("tick", "events", "deliveries", "trace")

CHUNK_MS = 50                 # virtual time per simulator step
REF_EVERY_NS = 20_000_000     # wall time between reference tasks
REF_NOMINAL_NS = 1_000_000    # reference task time that scale 1 stands for

# Closures the runner hands to NetworkSim.schedule_call, by function name.
_CALL_SPANS = {"sample": "runner.sample", "do_tick": "runner.tick"}


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile of unsorted values; 0 for no values."""
    return metrics.percentile(sorted(values), p) if values else 0


class _Body:
    __slots__ = ("x", "y", "vx", "vy")

    def __init__(self, x, y):
        self.x, self.y, self.vx, self.vy = x, y, 1.0, 0.5


def _arith_task() -> int:
    """Attribute updates, float arithmetic, heap, small-dict, struct and
    string work on a few objects: a small working set."""
    heap, dists, lines = [], {}, []
    bodies = [_Body(i, i * 0.5) for i in range(16)]
    for i in range(200):
        b = bodies[i & 15]
        b.x += b.vx * 0.05
        b.y += b.vy * 0.05
        heapq.heappush(heap, (i * 7 % 97, i, b))
        dists[(i & 31, i & 7)] = (b.x * b.x + b.y * b.y) ** 0.5
        frame = struct.pack("<Hdd", i & 0xffff, b.x, b.y)
        if i % 3 == 0:
            heapq.heappop(heap)
        lines.append(f"{i},{b.x:.3f},{b.y:.3f},{len(frame)}")
    return len(lines) + len(heap) + len(dists)


_KEYS = [f"k{i}" for i in range(20000)]
_TABLE = {k: (i, i * 0.25) for i, k in enumerate(_KEYS)}
_PICKS = [(i * 7919) % len(_KEYS) for i in range(1500)]


def _lookup_value(key):
    return _scaled(_TABLE[key])


def _scaled(entry):
    return entry[1] * 2.0 + 1.0


def _lookup_task() -> int:
    """Scattered lookups in a 20k-entry dict through a chain of calls, then
    struct packing: a larger working set."""
    total = sum(_lookup_value(_KEYS[i]) for i in _PICKS)
    return len(b"".join(struct.pack("<Id", i, total) for i in range(200)))


# Under contention the program slows less than _arith_task and more than
# _lookup_task: regressing log program time per run on log task time over
# about 40 runs of each workload gave slopes of 0.6-0.7 and 1.2-1.6 (with
# trial versions of the two tasks). Their geometric mean tracks it: over
# 100 s of back-to-back runs of each workload, slopes of 0.70-1.08 and
# correlations of 0.93-0.94, and the per-run spread of log program time
# (standard deviation) fell from 0.11-0.16 to 0.06. Inside a run, with the
# program's data in the caches, the geometric mean of the two times is about
# 1 ms on a 2.1 GHz Xeon core.
REFERENCE_TASKS = (_arith_task, _lookup_task)


@dataclass
class Rep:
    """One run of the document: parse_scenario plus runner.run."""
    parse_s: float = 0.0
    setup_s: float = 0.0          # parse, then run entry to first event
    wall_s: float = 0.0           # parse start to run return, less reference time
    scale: float = 1.0            # REF_NOMINAL_NS / reference task time
    frames: int = 0               # frames delivered to a player manager
    failed: int = 0               # frames that raised or failed to decode
    error: str | None = None      # the exception that aborted the run
    summary: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    recv_us_p50: float = 0.0
    recv_us_p99: float = 0.0
    tick_us_p50: float = 0.0
    tick_us_p99: float = 0.0
    peak_rss_mb: float = 0.0      # process high-water mark after this run
    layers: dict = field(default_factory=dict)   # traced runs only


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) and restore the originals."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _timed(fn, sink):
    clock_ns = time.perf_counter_ns

    def wrapper(*args):
        t0 = clock_ns()
        try:
            return fn(*args)
        finally:
            sink.append(clock_ns() - t0)
    return wrapper


class _Observed:
    """Counts and high-water marks read from call arguments and results."""

    def __init__(self):
        self.late = 0
        self.buffer_max = 0
        self.applied = 0
        self.undo_depths = []
        self.log_len_max = 0
        self.gate_true = 0
        self.heap_max = 0
        self.pending_max = 0

    def enqueue(self, args, entry):
        self.late += entry.late
        self.buffer_max = max(self.buffer_max, len(args[0]))

    def on_deliver(self, args, outcome):
        if isinstance(outcome, rollback.Apply):
            self.applied += 1
        elif isinstance(outcome, rollback.RollbackDirective):
            self.undo_depths.append(len(outcome.undo))
        self.log_len_max = max(self.log_len_max, len(args[0]))

    def commit(self, args, _):
        self.log_len_max = max(self.log_len_max, len(args[0]))

    def should_send(self, _, send):
        self.gate_true += bool(send)

    def step(self, args, _):
        self.heap_max = max(self.heap_max, args[0].pending)

    def tick(self, args, _):
        queued = args[0]._pending.values()
        self.pending_max = max(self.pending_max, max(map(len, queued), default=0))


def _trace_patches(sp: Spans, obs: _Observed):
    pm = player.PlayerManager
    sim = netsim.NetworkSim
    log = rollback.DeliveryLog
    wrapped_calls = {}
    schedule_call = sim.schedule_call

    def traced_schedule_call(self, at, fn):
        if fn not in wrapped_calls:
            wrapped_calls[fn] = sp.wrap(
                _CALL_SPANS.get(fn.__name__, "runner.control"), fn)
        return schedule_call(self, at, wrapped_calls[fn])

    def span(owner, attr, name, observe=None):
        return owner, attr, sp.wrap(name, getattr(owner, attr), observe)

    return [
        span(pm, "on_network_message", "player.recv"),
        span(pm, "tick", "player.tick", obs.tick),
        span(pm, "displayed_position", "player.displayed"),
        span(player, "decode", "pdu.decode"),
        span(player, "encode", "pdu.encode"),
        span(player, "should_send", "deadreckoning.should_send", obs.should_send),
        span(player, "converge", "deadreckoning.converge"),
        span(player, "select_route", "overlay.select_route"),
        span(player, "default_route", "overlay.default_route"),
        span(clock.LatencyEstimator, "observe", "clock.observe"),
        span(locallag.PlayoutBuffer, "enqueue", "locallag.enqueue", obs.enqueue),
        span(regions.ModeTracker, "mode_for", "regions.mode_for"),
        span(log, "on_deliver", "rollback.on_deliver", obs.on_deliver),
        span(log, "commit", "rollback.commit", obs.commit),
        span(rollback, "apply_directive", "rollback.apply_directive"),
        span(sim, "send", "netsim.send"),
        span(sim, "step", "netsim.step", obs.step),
        span(metrics.CsvWriter, "row", "metrics.csv_row"),
        (sim, "schedule_call", traced_schedule_call),
    ]


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_once(doc: dict, out_dir: Path, traced: bool = False) -> Rep:
    """Parse and run the document once, writing all four outputs."""
    rep = Rep()
    paths = {name: out_dir / f"{name}.out" for name in OUTPUTS}
    first_event = []
    sims = []
    ref_ns = [array("q") for _ in REFERENCE_TASKS]
    run_until = netsim.NetworkSim.run_until

    def paced_run_until(self, t_end):
        first_event.append(time.perf_counter())
        sims.append(self)
        clock_ns = time.perf_counter_ns
        t, next_ref = 0, 0
        while True:
            t = min(t + CHUNK_MS, t_end)
            run_until(self, t)
            now = clock_ns()
            if now >= next_ref:
                for task, times in zip(REFERENCE_TASKS, ref_ns):
                    start = clock_ns()
                    task()
                    times.append(clock_ns() - start)
                next_ref = clock_ns() + REF_EVERY_NS
            if t >= t_end:
                return

    targets = [(netsim.NetworkSim, "run_until", paced_run_until)]
    tick_ns = array("q")
    if traced:
        sp, obs = Spans(), _Observed()
        targets += _trace_patches(sp, obs)
    else:
        pm = player.PlayerManager
        targets.append((pm, "tick", _timed(pm.tick, tick_ns)))
    gc.collect()
    with patched(targets):
        t0 = time.perf_counter()
        try:
            config = parse_scenario(doc)
            t1 = time.perf_counter()
            result = runner.run(config, out=paths["tick"],
                                events_out=paths["events"],
                                deliveries_out=paths["deliveries"],
                                trace_out=paths["trace"])
            t2 = time.perf_counter()
        except Exception as exc:   # an aborted run is reported, not raised
            rep.error = f"{type(exc).__name__}: {exc}"
    if rep.error is not None:
        rep.frames = rep.failed = sims[0].counters.delivered if sims else 0
        return rep
    s = rep.summary = result.summary
    rep.parse_s = t1 - t0
    rep.setup_s = rep.parse_s + (first_event[0] - t1)
    rep.wall_s = t2 - t0 - sum(map(sum, ref_ns)) / 1e9
    rep.scale = REF_NOMINAL_NS / statistics.geometric_mean(
        map(statistics.median, ref_ns))
    rep.frames = sum(len(pm.processing_ns) for pm in result.pms.values())
    rep.failed = s["decode_errors"]
    rep.recv_us_p50 = s["processing_us_p50"]
    rep.recv_us_p99 = s["processing_us_p99"]
    rep.tick_us_p50 = _percentile(tick_ns, 50) / 1e3
    rep.tick_us_p99 = _percentile(tick_ns, 99) / 1e3
    rep.digests = {name: _digest(paths[name]) for name in OUTPUTS}
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        rep.layers = layer_metrics(sp.summary(keep_durations={"pdu.decode"}),
                                   obs, result, rep.parse_s)
    return rep


def layer_metrics(spans: dict, obs: _Observed, result, parse_s: float) -> dict:
    """Per-layer metrics of one traced run, by `<module>.<metric>` name."""
    s = result.summary

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_ms(*names):
        return sum(spans.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    def frac(part, whole):
        return part / whole if whole else 0.0

    depths = obs.undo_depths
    pms = result.pms.values()
    return {
        "runner.sample_self_ms": self_ms("runner.sample"),
        "runner.display_diff_mean_ms": s["mean_abs_display_diff_ms"],
        "player.recv_self_ms": self_ms("player.recv"),
        "player.tick_self_ms": self_ms("player.tick"),
        "player.displayed_calls": calls("player.displayed"),
        "player.displayed_self_ms": self_ms("player.displayed"),
        "player.outstanding_pings_end": sum(len(pm._outstanding_pings) for pm in pms),
        "player.pending_max": obs.pending_max,
        "deadreckoning.converge_calls": calls("deadreckoning.converge"),
        "deadreckoning.should_send_calls": calls("deadreckoning.should_send"),
        "deadreckoning.send_frac": frac(obs.gate_true,
                                        calls("deadreckoning.should_send")),
        "metrics.csv_rows": calls("metrics.csv_row"),
        "metrics.csv_self_ms": self_ms("metrics.csv_row"),
        "pdu.decode_ns_p50": _percentile(
            spans.get("pdu.decode", {}).get("durations", []), 50),
        "pdu.encode_calls": calls("pdu.encode"),
        "clock.observe_self_ms": self_ms("clock.observe"),
        "locallag.enqueue_self_ms": self_ms("locallag.enqueue"),
        "locallag.late_frac": frac(obs.late, calls("locallag.enqueue")),
        "locallag.depth_max": obs.buffer_max,
        "regions.mode_for_self_ms": self_ms("regions.mode_for"),
        "rollback.directives": len(depths),
        "rollback.undo_depth_p50": _percentile(depths, 50),
        "rollback.undo_depth_p99": _percentile(depths, 99),
        "rollback.undo_depth_max": max(depths, default=0),
        "rollback.apply_frac": frac(obs.applied, calls("rollback.on_deliver")),
        "rollback.self_ms": self_ms("rollback.on_deliver", "rollback.commit",
                                    "rollback.apply_directive"),
        "rollback.log_len_max": obs.log_len_max,
        "netsim.send_calls": calls("netsim.send"),
        "netsim.step_self_ms": self_ms("netsim.step"),
        "netsim.heap_max": obs.heap_max,
        "netsim.drop_frac": frac(s["messages_dropped_network"], s["messages_sent"]),
        "overlay.select_calls": calls("overlay.select_route"),
        "overlay.self_ms": self_ms("overlay.select_route", "overlay.default_route"),
        "overlay.switches": s["route_switches"],
        "overlay.failovers": s["route_failovers"],
        "scenario.parse_ms": parse_s * 1e3,
    }


def _column(path: Path, index: int):
    """Yield one field of every data row of a CSV, streaming the file."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            yield line.split(",")[index]


def _count_and_mean(values) -> tuple[int, float]:
    # Sums in file order, as the runner's RunningStats does, so the mean
    # matches the summary exactly.
    count, total = 0, 0.0
    for value in values:
        count += 1
        total += value
    return count, total / count if count else 0.0


def check_outputs(summary: dict, out_dir: Path) -> list[str]:
    """Cross-check the written outputs against the run summary."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, want {want!r}")

    rows, mean = _count_and_mean(
        float(v) for v in _column(out_dir / "tick.out", 8))
    expect("tick rows", rows, summary["divergence_rows"])
    expect("mean divergence of tick rows", mean, summary["mean_divergence_m"])
    rows, mean = _count_and_mean(
        float(abs(int(v))) for v in _column(out_dir / "events.out", 5))
    expect("event rows", rows, summary["event_rows"])
    expect("mean |display diff| of event rows", mean,
           summary["mean_abs_display_diff_ms"])
    rows, _ = _count_and_mean(1.0 for _ in _column(out_dir / "deliveries.out", 0))
    expect("delivery rows", rows, summary["data_messages_received"])
    kinds = {"SEND": 0, "DELIVER": 0, "DROP": 0}
    with open(out_dir / "trace.out", encoding="utf-8") as fh:
        for line in fh:
            kind = line.split("\t", 2)[1]
            kinds[kind] = kinds.get(kind, 0) + 1
    expect("trace SEND lines", kinds["SEND"], summary["messages_sent"])
    expect("trace DELIVER lines", kinds["DELIVER"], summary["messages_delivered"])
    expect("trace DROP lines", kinds["DROP"], summary["messages_dropped_network"])
    return problems
