"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: a name ``<layer>.<function>``,
its start and end on one clock, the span that was open when it began, and
whether it raised.  Spans stay in memory and are written out once, when the
traced process ends.  A span's self time is its duration minus the part of
it that its child spans cover.

With a ``memory`` tracker (``tracemalloc``) each span also records the peak
of traced memory above its starting level, both over its whole duration
(``peak_bytes``) and over its self time only (``self_peak_bytes``).
"""

import functools
import time


class Recorder:
    def __init__(self, clock=time.perf_counter, memory=None):
        self.clock = clock
        self.memory = memory
        self.spans = []
        self.counters = {}
        self._open = []  # stack of [span index, self peak, highest child peak]

    def begin(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else None
        span = {"name": name, "parent": parent, "start": 0.0, "end": 0.0, "error": False}
        if self.memory is not None:
            self._note_peak()
            span["base_bytes"] = self.memory.get_traced_memory()[0]
        self.spans.append(span)
        self._open.append([len(self.spans) - 1, 0, 0])
        span["start"] = self.clock()
        return len(self.spans) - 1

    def end(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span["end"] = self.clock()
        span["error"] = error
        if self._open[-1][0] != index:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if self.memory is None:
            self._open.pop()
            return
        self._note_peak()
        _, self_peak, child_peak = self._open.pop()
        base = span.pop("base_bytes")
        span["self_peak_bytes"] = self_peak - base
        span["peak_bytes"] = max(self_peak, child_peak) - base
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], self_peak, child_peak)

    def _note_peak(self) -> None:
        # The tracker's peak since its last reset belongs to the span whose
        # own code ran in that interval: the innermost open one.
        peak = self.memory.get_traced_memory()[1]
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        self.memory.reset_peak()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = self.begin(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.end(index, error=not ok)

    def wrap(self, namespace, attr: str, name: str, on_result=None) -> None:
        """Replace ``namespace.attr`` by a function that records a span.

        ``on_result(recorder, result)`` runs after a successful call, so that
        counts are taken at the boundary where the work happened.
        """
        fn = getattr(namespace, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(namespace, attr, traced)

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def summarise(processes: list[dict], layers) -> dict:
    """Per-layer totals over the span lists of several processes.

    For each layer: ``self_s`` (summed self time), ``calls`` (spans entered
    from another layer or from outside any span) and ``errors`` (those of
    the calls that raised).  ``by_name`` holds each span name's summed
    duration; ``counters`` sums the processes' counters.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in layers}
    by_name = {}
    counters = {}
    for proc in processes:
        spans = proc["spans"]
        for span, own in zip(spans, self_times(spans)):
            layer = layer_of(span["name"])
            entry = totals.setdefault(layer, {"self_s": 0.0, "calls": 0, "errors": 0})
            entry["self_s"] += own
            parent = span["parent"]
            if parent is None or layer_of(spans[parent]["name"]) != layer:
                entry["calls"] += 1
                entry["errors"] += int(span["error"])
            by_name[span["name"]] = by_name.get(span["name"], 0.0) + span["end"] - span["start"]
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"layers": totals, "by_name": by_name, "counters": counters}
