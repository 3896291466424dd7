"""Shared machinery of the repo benchmark: spans, timed samples, results.

Everything here lives outside ``src/``: the program is measured only
through its public calls, and every span is opened by the benchmark's
own code around such a call.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

#: The program's layers, named after the ``src/repro`` packages.  A span
#: whose name starts with ``<layer>.`` is attributed to that layer; the
#: benchmark's own spans (``round``, ``op.*``, ``harness.*``) are not.
LAYERS = ("lang", "vm", "pinplay", "slicing", "detect", "maple",
          "analysis", "serve")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "tag", "record")

    def __init__(self, tracer, name, tag):
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        tag = self.tag
        if tag is None:
            tag = parent[4] if parent is not None else tracer.tag
        record = [self.name, 0.0, 0.0, parent[5] if parent else None, tag,
                  next(tracer._ids)]
        tracer.spans.append(record)
        stack.append(record)
        self.record = record
        record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Spans recorded around calls into the program's layers.

    Each span holds a name, start, end, parent span id, and a tag (the
    round or request id).  Spans stay in memory until :meth:`dump`.  A
    disabled tracer hands out one shared no-op span, so the untraced run
    pays a method call per span and nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self.values: Dict[str, list] = defaultdict(list)
        self.counts: Dict[str, float] = {}
        self.tag = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, tag=None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, tag)

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _p, _t, _i
                in self.spans if span_name == name]

    def note(self, name: str, value: float, tag=None) -> None:
        """A value the program reports (a count, a self-timed phase),
        kept beside the spans under the current round or probe tag."""
        if not self.enabled:
            return
        if tag is None:
            stack = self._stack()
            tag = stack[-1][4] if stack else self.tag
        self.values[name].append((tag, value))

    def round_split(self) -> Dict[str, float]:
        """Share of the ``round`` spans' wall time spent in each layer's
        self time, plus the ``unattributed`` share no layer span covers."""
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append(span)
        split = {layer: 0.0 for layer in LAYERS}
        total = covered = 0.0
        for span in self.spans:
            if span[0] != "round":
                continue
            total += span[2] - span[1]
            pending = [(child, False) for child in children.get(span[5], ())]
            while pending:
                child, inside = pending.pop()
                layer = child[0].split(".", 1)[0]
                inner = children.get(child[5], ())
                if layer in split:
                    split[layer] += (child[2] - child[1]) - sum(
                        c[2] - c[1] for c in inner)
                    if not inside:
                        covered += child[2] - child[1]
                pending.extend((c, inside or layer in split) for c in inner)
        scale = 100.0 / total if total else 0.0
        out = {layer: value * scale for layer, value in split.items()}
        out["unattributed"] = (total - covered) * scale
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans,
                "values": {name: [list(v) for v in values]
                           for name, values in self.values.items()},
                "counts": self.counts}

    @classmethod
    def merged(cls, parts) -> "Tracer":
        """One tracer over the spans of several segment processes (span
        ids are offset per segment; tags are already unique)."""
        tracer = cls(True)
        for index, part in enumerate(parts):
            offset = (index + 1) * 10 ** 9
            for name, start, end, parent, tag, span_id in part["spans"]:
                tracer.spans.append([
                    name, start, end,
                    None if parent is None else parent + offset, tag,
                    span_id + offset])
            for name, values in part["values"].items():
                tracer.values[name].extend(tuple(v) for v in values)
            tracer.counts.update(part["counts"])
        return tracer

    def dump(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "tag": tag}
            for name, start, end, parent, tag, span_id in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


class Timed:
    """Wall time of one user operation, under an ``op.<name>`` span."""

    __slots__ = ("tracer", "name", "elapsed", "_span", "_start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.elapsed = 0.0

    def __enter__(self) -> "Timed":
        self._span = self.tracer.span("op." + self.name)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._span.__exit__(*exc)
        return False


@contextmanager
def quiesced():
    """Collect garbage, then keep the collector out of the timed block
    (a round: the collection would otherwise land inside some operation,
    and one collection per operation would dominate the few-ms ones)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._lock = threading.Lock()

    def ok(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        with self._lock:
            self.attempted += count
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(note)

    def wrong(self, note: str) -> None:
        """An answer already counted as attempted turned out wrong."""
        with self._lock:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile's rank."""
    return len(values) - max(1, math.ceil(q * len(values)))


#: Duration of one :func:`_calibration_work` pass on the reference
#: machine; reported times are scaled to that speed (see :func:`calibrate`).
REFERENCE_S = 0.010


def _calibration_work() -> int:
    """A fixed pure-Python load shaped like an interpreter loop: closure
    calls, dict registers, list memory, small-object allocation.  It
    shares no code with the program under test."""
    regs = {"a": 0, "b": 1, "c": 0}
    memory = [0] * 256

    def add():
        regs["a"] = regs["a"] + regs["b"]

    def store():
        memory[regs["a"] & 255] = regs["c"]

    def load():
        regs["c"] = memory[(regs["a"] * 7) & 255] + 1

    def mul():
        regs["b"] = (regs["b"] * 3 + 1) & 0xFFFF

    ops = (add, load, store, mul, add, load, mul, store)
    for _ in range(4000):
        for op in ops:
            op()
    kept = []
    for i in range(3000):
        kept.append([i, i + 1, {"k": i}, (i, str(i & 15))])
        if len(kept) > 200:
            kept = kept[100:]
    return regs["a"] + len(kept)


def calibrate(passes: int = 3) -> float:
    """Median wall time of ``passes`` passes of the calibration load.

    This box's CPU speed moves by up to 2x within a minute, and every
    pure-Python load slows together.  Each timed operation is scaled by
    ``REFERENCE_S / calibration`` measured next to it, with the program
    idle, so runs minutes apart compare; the as-measured medians are
    printed beside the scaled ones.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(passes):
            started = time.perf_counter()
            _calibration_work()
            times.append(time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def _calibration_helper(conn, passes: int) -> None:
    """Helper process of :class:`Calibrator`: one calibration per request."""
    while conn.recv():
        conn.send(calibrate(passes))
    conn.close()


class Calibrator:
    """:func:`calibrate` on ``width`` CPUs at once: in this process and in
    ``width - 1`` helper processes started once.  A workload whose time is
    spread over both CPUs is scaled by the mean of both."""

    def __init__(self, width: int = 1, passes: int = 3) -> None:
        context = multiprocessing.get_context("spawn")
        self.passes = passes
        self._helpers = []
        for _ in range(width - 1):
            here, there = context.Pipe()
            proc = context.Process(target=_calibration_helper,
                                   args=(there, passes), daemon=True)
            proc.start()
            there.close()
            self._helpers.append((here, proc))
        self()   # warm every process up before the first real reading

    def __call__(self) -> float:
        for conn, _proc in self._helpers:
            conn.send(True)
        times = [calibrate(self.passes)]
        times += [conn.recv() for conn, _proc in self._helpers]
        return statistics.mean(times)

    def close(self) -> None:
        for conn, proc in self._helpers:
            conn.send(False)
            proc.join(10)
            conn.close()
        self._helpers = []


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process (or of its largest reaped
    descendant) in MiB; the benchmark runs in a fresh process per
    workload, so the high-water mark is the workload's own."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Report:
    """Metrics of one run, printed as a table and a final JSON line."""

    def __init__(self) -> None:
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str,
            samples: Optional[int] = None,
            raw: Optional[float] = None) -> None:
        """One metric; ``raw`` is the same statistic before scaling to
        the reference speed, printed alongside."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        line = "%-28s %14.6f %-6s" % (name, value, unit)
        if samples is not None:
            line += " n=%-6d" % samples
        if raw is not None:
            line += " (as measured %.6f)" % raw
        self.notes.append(line.rstrip())

    def emit(self, workload: str, tally: Tally, extra_lines=()) -> int:
        for line in extra_lines:
            print(line)
        print("== %s" % workload)
        for line in self.notes:
            print(line)
        for note in tally.notes:
            print("FAILED: %s" % note)
        correct = tally.failed == 0 and tally.attempted > 0
        print(json.dumps({"correct": correct,
                          "attempted": tally.attempted,
                          "failed": tally.failed,
                          "metrics": self.metrics}))
        return 0


def out_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
