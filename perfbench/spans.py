"""Span post-processing for traced benchmark runs.

harp_perfbench records one span per public call (JSON lines: name, id,
parent, start_ns, end_ns, synthetic). This module turns them into a Chrome
trace-event file and a self-time table. A span's self time is its wall time
minus the part of it that its children cover; summed over a span and all
its descendants, self times give back the span's wall time.
"""

import json
from collections import defaultdict


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """Maps span id -> self time in ns: wall minus the union of its
    children's intervals, each clipped to the parent."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(kids[s["id"]], key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def identity_error_ns(spans, selfs=None):
    """Largest |wall - (self + self of every descendant)| over all spans.
    Zero when children nest inside their parents without overlapping."""
    selfs = self_times(spans) if selfs is None else selfs
    kids = children_of(spans)
    subtree = {}

    def total(s):
        if s["id"] not in subtree:
            subtree[s["id"]] = selfs[s["id"]] + sum(
                total(c) for c in kids[s["id"]])
        return subtree[s["id"]]

    return max((abs((s["end_ns"] - s["start_ns"]) - total(s)) for s in spans),
               default=0)


def chrome_trace(spans, selfs=None, metadata=None):
    """Chrome trace-event JSON object: one complete ("X") event per span,
    with span and parent ids in args."""
    selfs = self_times(spans) if selfs is None else selfs
    events = []
    for s in spans:
        events.append({
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": s["start_ns"] / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {
                "span_id": s["id"],
                "parent_id": s["parent"],
                "self_us": selfs[s["id"]] / 1e3,
                "synthetic": bool(s.get("synthetic", False)),
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata or {}}


def self_time_table(spans, selfs=None):
    """Rows (name, count, wall_s, self_s, share of the root wall), largest
    self time first. Shares of all rows sum to 1."""
    selfs = self_times(spans) if selfs is None else selfs
    roots = [s for s in spans if s["parent"] < 0]
    root_wall = sum(s["end_ns"] - s["start_ns"] for s in roots) or 1
    agg = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = agg[s["name"]]
        row[0] += 1
        row[1] += s["end_ns"] - s["start_ns"]
        row[2] += selfs[s["id"]]
    rows = [(name, n, wall / 1e9, own / 1e9, own / root_wall)
            for name, (n, wall, own) in agg.items()]
    return sorted(rows, key=lambda r: -r[3])


def format_table(rows):
    lines = ["%-22s %7s %11s %11s %7s" % ("span", "count", "wall_s",
                                          "self_s", "self%")]
    for name, n, wall, own, share in rows:
        lines.append("%-22s %7d %11.4f %11.4f %6.2f%%" %
                     (name, n, wall, own, 100.0 * share))
    return "\n".join(lines) + "\n"
