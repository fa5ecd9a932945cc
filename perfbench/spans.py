"""In-memory spans recorded around calls into the program's modules.

A span is a name, the span that was open when it started (its parent), and
its start and end in `time.perf_counter_ns` units. Spans are appended to
flat arrays while the program runs and are only summarised afterwards, so
the per-call cost is a few appends and two clock reads.

A span's self time is its duration minus the durations of its direct
children. Bookkeeping for a child happens inside the parent's interval, so
tracing overhead lands in the parent's self time.
"""

import time
from array import array


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording one span per call. observe(args, result) runs
        after a call that returned, outside the span."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def summary(self, keep_durations=()) -> dict:
        """Per name: {"calls", "self_ns", "durations"}, where
        "durations" lists every span's duration for names in
        keep_durations and is empty otherwise."""
        n = len(self.name)
        child_ns = [0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_ns": 0, "durations": []}
               for name in self.names}
        entries = [out[name] for name in self.names]
        keep = [name in keep_durations for name in self.names]
        for i in range(n):
            nid = self.name[i]
            entry = entries[nid]
            dur = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_ns"] += dur - child_ns[i]
            if keep[nid]:
                entry["durations"].append(dur)
        return out
