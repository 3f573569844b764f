"""Per-layer attribution from a Chrome trace written by ppd::obs.

A span's self time is its duration minus the durations of its direct
children on the same lane (thread). Spans map to layers by name; the
benchmark's own `bench.*` spans belong to no layer, so their self time is
what `unattributed_s` reports.

Parallel sweeps are reconstructed from `exec.lane` spans: lane 0 of every
sweep runs on the thread that called parallel_for (the benchmark's main
thread), the other lanes on pool workers. A worker lane belongs to the last
main-thread lane that began before the worker lane ended.
"""
import bisect
import json

# (name prefix, layer). exec.lane self time is the sweep's item bodies,
# which are core code (instance build, measurement) around the spice calls.
LAYER_PREFIXES = (
    ("spice.", "spice"),
    ("core.", "core"),
    ("exec.lane", "core"),
    ("sta.", "sta"),
    ("net.", "net"),
)
LAYERS = ("spice", "core", "sta", "net")


class Span:
    __slots__ = ("name", "tid", "begin", "end", "cpu", "children")

    def __init__(self, name, tid, begin):
        self.name = name
        self.tid = tid
        self.begin = begin
        self.end = begin
        self.cpu = 0.0
        self.children = []

    def duration(self, basis):
        return self.cpu if basis == "cpu" else self.end - self.begin

    def self_time(self, basis):
        return self.duration(basis) - sum(c.duration(basis) for c in self.children)


def spans_from_events(events):
    """Spans from Chrome trace events (seconds); B/E pairs nest per tid."""
    spans = []
    stacks = {}
    for ev in events:
        phase = ev.get("ph")
        if phase not in ("B", "E"):
            continue
        tid = ev["tid"]
        ts = ev["ts"] * 1e-6
        stack = stacks.setdefault(tid, [])
        if phase == "B":
            span = Span(ev["name"], tid, ts)
            if stack:
                stack[-1].children.append(span)
            stack.append(span)
            spans.append(span)
        else:
            span = stack.pop()
            span.end = ts
            span.cpu = ev.get("args", {}).get("cpu_us", 0.0) * 1e-6
    return spans


def load_trace(path):
    with open(path, encoding="utf-8") as f:
        return spans_from_events(json.load(f)["traceEvents"])


def layer_of(name):
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def layer_self(spans, basis):
    """Self time per layer, summed over every lane."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = layer_of(s.name)
        if layer is not None:
            out[layer] += s.self_time(basis)
    return out


def total(spans, name, basis):
    return sum(s.duration(basis) for s in spans if s.name == name)


def total_self(spans, name, basis):
    return sum(s.self_time(basis) for s in spans if s.name == name)


def main_tid(spans, root="bench.iteration"):
    for s in spans:
        if s.name == root:
            return s.tid
    raise ValueError(f"trace has no {root} span")


def parallel_sweeps(spans, main):
    """[(wall_s, lanes, busy_s)] for every parallel sweep started on `main`."""
    lanes = [s for s in spans if s.name == "exec.lane"]
    anchors = sorted((s for s in lanes if s.tid == main), key=lambda s: s.begin)
    starts = [a.begin for a in anchors]
    groups = [[a] for a in anchors]
    for s in lanes:
        if s.tid == main:
            continue
        i = bisect.bisect_right(starts, s.end) - 1
        if i >= 0:
            groups[i].append(s)
    return [(max(s.end for s in g) - min(s.begin for s in g), len(g),
             sum(s.end - s.begin for s in g)) for g in groups]


def exec_metrics(spans, main, wall_s):
    """Sweep occupancy: busy lane time against wall x lanes of the sweeps."""
    sweeps = parallel_sweeps(spans, main)
    sweep_wall = sum(w for w, _, _ in sweeps)
    lane_time = sum(w * n for w, n, _ in sweeps)
    busy = sum(b for _, _, b in sweeps)
    return {
        "exec.busy_s": busy,
        "exec.sweep_wall_s": sweep_wall,
        "exec.occupancy": busy / lane_time if lane_time > 0 else 0.0,
        "exec.idle_s": lane_time - busy,
        "exec.serial_s": wall_s - sweep_wall,
    }
