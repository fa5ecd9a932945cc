"""Oracle for the flat sample: the runner's sampling pass, one flat pass
over row plans resolved at session start, must write exactly the tick rows
and divergence statistics of the sampling pass as it was written before
the plans, run beside it at every sample time of the same run.

The reference keeps that older body whole: an entity's plan resolved
before the first tick, a lookup of the owner's peer record of each viewer
on every row, and each row rendered from per-entity, per-viewer and
per-point %-templates kept here. It reads the same live managers as the
runner's sample, right before it at each sample time; both only read them.

The generated documents have two to six clients with zero to two entities
each (client 0 has one at least), links with jitter and loss (clients 0
and 1 have two, other pairs two, one or none), links going down and up,
several at the same time, and overlay routing on or off, so routes move
during the run. A drawn table forces
some displayed points: shared nonzero points, and points with a 0.0 or
-0.0 coordinate, which are equal but render apart."""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from gamesync import runner
from gamesync.deadreckoning import dist
from gamesync.metrics import TICK_HEADER, RunningStats
from gamesync.netsim import NetworkSim
from gamesync.player import PlayerManager
from gamesync.scenario import parse_scenario

REF_ENTITY = "%r,%r,%r,"                  # tick_ms, entity, owner
REF_TRUTH = ",%r,%r,"                     # truth_x, truth_y
REF_VIEWER = "%s%r%s%r,%r,%r,%s,%r\n"     # entity part, viewer, truth part,
                                          # shown_x, shown_y, divergence_m,
                                          # mode, route
REF_SHOWN = "%r,%r,%r,%s,"                # shown_x, shown_y, divergence_m,
                                          # mode
REF_SHARED = "%s%r%s%s%r\n"               # entity part, viewer, truth part,
                                          # shown part, route


class ReferenceSampler:
    """The sampling pass as written before the row plans, over the same
    config and managers; it keeps its rows (when writing) and statistics
    to itself."""

    def __init__(self, config, pms, writing):
        clients = sorted(config.clients, key=lambda c: c.client_id)
        client_ids = [c.client_id for c in clients]
        self.plans = []
        for client_spec in clients:
            owner = client_spec.client_id
            for spec in client_spec.entities:
                viewers = [viewer for viewer in client_ids if viewer != owner]
                self.plans.append((spec.entity_id, spec.motion.state, owner,
                                   pms[owner], viewers))
        self.viewer_pms = [(cid, pms[cid]) for cid in client_ids]
        self.divergence = RunningStats()
        self.rows = []
        self.write_ticks = self.rows.append if writing else None

    def sample(self, now):
        write_ticks = self.write_ticks
        divergence = self.divergence
        shown_by = {}
        for cid, pm in self.viewer_pms:
            shown_by[cid] = pm.displayed_positions(now)
        lines = []
        count, total = divergence.count, divergence.total
        maximum = divergence.maximum
        for entity_id, state, owner, owner_pm, viewers in self.plans:
            tx, ty = state(now)[0]
            mode = owner_pm.mode_of(entity_id).value
            peers = owner_pm.peers
            points = {} if len(viewers) > 1 else None
            entity_part = None
            for viewer in viewers:
                shown = shown_by[viewer].get(entity_id)
                if shown is None:
                    continue
                sx, sy = shown
                point = None
                if points is not None and sx and sy:
                    point = points.get(shown)
                    if point is None:
                        div = dist(tx, ty, sx, sy)
                        points[shown] = [div, None]
                    else:
                        div = point[0]
                else:
                    div = dist(tx, ty, sx, sy)
                count += 1
                total += div
                if maximum is None or div > maximum:
                    maximum = div
                route = peers[viewer].route
                if write_ticks is not None:
                    if entity_part is None:
                        entity_part = REF_ENTITY % (now, entity_id, owner)
                        truth_part = REF_TRUTH % (tx, ty)
                    if point is None:
                        lines.append(REF_VIEWER % (
                            entity_part, viewer, truth_part, sx, sy, div,
                            mode, route))
                    else:
                        part = point[1]
                        if part is None:
                            part = point[1] = REF_SHOWN % (sx, sy, div, mode)
                        lines.append(REF_SHARED % (
                            entity_part, viewer, truth_part, part, route))
        divergence.count, divergence.total = count, total
        divergence.maximum = maximum
        if lines:
            write_ticks("".join(lines))


# Points a forced display shows: equal points that render apart, points
# with one zero coordinate, and nonzero points several viewers share.
FORCED = ((0.0, 2.5), (-0.0, 2.5), (1.5, 0.0), (1.5, -0.0), (0.0, 0.0),
          (-0.0, -0.0), (7.5, 7.5), (3.25, -1.0))


@st.composite
def sample_docs(draw):
    """A document, whether the run writes a tick file, and the forced
    displays (see forcing)."""
    n = draw(st.integers(2, 6))
    tick_ms = 50
    duration = draw(st.integers(4, 24)) * tick_ms
    clients, entity_ids = [], []
    for cid in range(n):
        entities = []
        for _ in range(draw(st.integers(0 if cid else 1, 2))):
            eid = len(entity_ids)
            entity_ids.append(eid)
            x, y = draw(st.sampled_from([(0, 0), (0, 12), (-8, 0), (9, 9)]))
            if draw(st.booleans()):
                vel = draw(st.sampled_from([[0, 0], [4, 0], [0, -3], [2, 5]]))
                motion = {"kind": "constant_velocity", "pos": [x, y],
                          "vel": vel}
            else:
                motion = {"kind": "waypoints",
                          "points": [[x, y], [x + 6, y], [x + 6, y + 6]],
                          "speed": draw(st.sampled_from([3.0, 10.0])),
                          "loop": True}
            entities.append({"id": eid, "motion": motion})
        clients.append({"id": cid, "entities": entities})
    links = []
    for a in range(n):
        for b in range(a + 1, n):
            kinds = [("relay", "direct")]
            if b > 1:
                kinds += [(), ("relay",), ("direct",)]
            for kind in draw(st.sampled_from(kinds)):
                links.append({"id": len(links), "endpoints": [a, b],
                              "kind": kind,
                              "base_delay_ms": draw(st.integers(10, 120)),
                              "jitter_ms": draw(st.sampled_from([0, 20, 60])),
                              "loss_prob": draw(st.sampled_from(
                                  [0.0, 0.1, 0.3]))})
    link_events = []
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, duration // tick_ms)) * tick_ms
        for link in draw(st.lists(st.integers(0, len(links) - 1),
                                  min_size=1, max_size=3)):
            link_events.append({"at": at, "link": link,
                                "available": draw(st.booleans())})
    doc = {"duration_ms": duration, "tick_ms": tick_ms,
           "seed": draw(st.integers(0, 2**16)),
           "clients": clients, "links": links, "link_events": link_events,
           "policies": {"default": {"threshold_m": 0.5,
                                    "convergence_ms": draw(st.sampled_from(
                                        [0, 100])), "lag_ms": 0},
                        "heartbeat_ms": 200, "idle_ping_ms": 100,
                        "route_hysteresis_ms": draw(st.sampled_from(
                            [0, 100]))},
           "toggles": {"overlay": draw(st.booleans())}}
    forced = draw(st.dictionaries(
        st.sampled_from(entity_ids),
        st.tuples(st.integers(0, 2), st.sampled_from(["signs"])
                  | st.lists(st.none() | st.sampled_from(FORCED),
                             min_size=n, max_size=n))))
    return doc, draw(st.booleans()), forced


def forcing(displayed_positions, forced, tick_ms):
    """displayed_positions with the drawn points in place of the real ones:
    forced maps an entity to the sample phase (the sample's index mod 3)
    it is forced in and its points by viewer, None for the real one, or
    "signs", where odd viewers show (-0.0, 2.5) and even ones (0.0, 2.5).
    A viewer with no update of the entity shows a forced point too."""
    def forced_positions(pm, now):
        shown = displayed_positions(pm, now)
        phase = now // tick_ms % 3
        viewer = pm.config.client_id
        for entity, (at, points) in forced.items():
            if at != phase:
                continue
            if points == "signs":
                shown[entity] = (-0.0 if viewer % 2 else 0.0, 2.5)
            elif points[viewer] is not None:
                shown[entity] = points[viewer]
        return shown
    return forced_positions


@settings(deadline=None, max_examples=60)
@given(sample_docs())
def test_flat_sample_matches_the_reference_pass(drawn):
    doc, writing, forced = drawn
    config = parse_scenario(doc)
    pms, refs = {}, []
    start_session = PlayerManager.start_session
    schedule_call = NetworkSim.schedule_call

    def recording_start(pm, peer_caps, now=0):
        pms[pm.config.client_id] = pm
        return start_session(pm, peer_caps, now)

    def beside(sample):
        def both(now):
            if not refs:
                refs.append(ReferenceSampler(config, pms, writing))
            refs[0].sample(now)
            sample(now)
        return both

    def scheduling(sim, at, fn):
        if fn.__name__ == "sample":
            fn = beside(fn)
        return schedule_call(sim, at, fn)

    displayed = forcing(PlayerManager.displayed_positions, forced,
                        config.tick_ms)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(PlayerManager, "start_session",
                              recording_start), \
            mock.patch.object(NetworkSim, "schedule_call", scheduling), \
            mock.patch.object(PlayerManager, "displayed_positions",
                              displayed):
        tick_csv = Path(tmp) / "tick.csv"
        res = runner.run(config, out=tick_csv if writing else None)
        written = tick_csv.read_text() if writing else None
    ref = refs[0]
    assert ref.divergence.count == res.summary["divergence_rows"]
    assert ref.divergence.mean == res.summary["mean_divergence_m"]
    assert ref.divergence.max == res.summary["max_divergence_m"]
    if writing:
        expected = TICK_HEADER + "\n" + "".join(ref.rows)
        assert written.splitlines() == expected.splitlines()
        assert written == expected
