"""In-memory span tracing for the benchmark's traced run.

A ``Tracer`` records spans (id, name, start, end, parent) and event counts.
``install`` wraps slotie's public functions and methods where they are
looked up (every module binding of the same function object, the class
attribute for methods, the ``SCHEMES`` entries for the scorers) and
``uninstall`` puts the originals back.  Nothing here runs unless a tracer
is installed, so untraced runs pay nothing.

Counts propagate upward: when a span closes, its counts (including one
``span:<name>`` count for the span itself) are added to its parent, so a
span's counts cover everything that happened inside it.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.root_counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        target = self._stack[-1].counts if self._stack else self.root_counts
        key = "span:" + span.name
        target[key] = target.get(key, 0) + 1
        for key, n in span.counts.items():
            target[key] = target.get(key, 0) + n

    def count(self, key: str, n: int = 1) -> None:
        target = self._stack[-1].counts if self._stack else self.root_counts
        target[key] = target.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def write_jsonl_gz(self, path) -> None:
        """One ``[id, name, start, end, parent]`` line per span, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for s in self.spans:
                out.write(json.dumps([s.id, s.name, s.start, s.end, s.parent]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, children are clipped to
    the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, s.start), min(end, s.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, inclusive and self seconds, summed counts."""
    selfs = self_times(spans)
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for s in spans:
        st = out[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += selfs[s.id]
        for key, n in s.counts.items():
            st.counts[key] += n
    return out


def merge_summaries(*summaries: dict[str, SpanStats]) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for summary in summaries:
        for name, st in summary.items():
            merged = out[name]
            merged.calls += st.calls
            merged.total_s += st.total_s
            merged.self_s += st.self_s
            for key, n in st.counts.items():
                merged.counts[key] += n
    return dict(out)


# -- wrapping ---------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, observe=None):
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


class Installation:
    """The patches one ``install`` made, for ``uninstall``."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self.patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self.patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.patches.clear()


def _slotie_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "slotie" or name.startswith("slotie."))]


def install(tracer: Tracer, functions, methods, dict_entries, counters, observers=None
            ) -> tuple[Installation, list[str]]:
    """Wrap the named targets; return the installation and the targets that
    no longer exist in the program (reported, not fatal).

    ``functions``: span name -> (module, attribute).  Every binding of that
    function object in any slotie module is replaced.
    ``methods``: span name -> (class, attribute).
    ``dict_entries``: span name -> (dict, key).
    ``counters``: counter key -> (class, method); each call counts once on
    the innermost open span, with no span of its own.
    ``observers``: span name -> callable(tracer, args, kwargs, result).
    """
    observers = observers or {}
    inst = Installation()
    missing: list[str] = []
    modules = _slotie_modules()
    for name, (module, attr) in functions.items():
        original = module.__dict__.get(attr)
        if original is None:
            missing.append(name)
            continue
        wrapper = _wrap(tracer, name, original, observers.get(name))
        for mod in modules:
            for key, value in list(mod.__dict__.items()):
                if value is original:
                    inst.set(mod, key, wrapper)
    for name, (cls, attr) in methods.items():
        original = cls.__dict__.get(attr)
        if original is None:
            missing.append(name)
            continue
        inst.set(cls, attr, _wrap(tracer, name, original, observers.get(name)))
    for name, (table, key) in dict_entries.items():
        if key not in table:
            missing.append(name)
            continue
        inst.set(table, key, _wrap(tracer, name, table[key], observers.get(name)))
    for key, (cls, attr) in counters.items():
        original = cls.__dict__.get(attr)
        if original is None:
            missing.append(key)
            continue

        def counted(*args, _original=original, _key=key, **kwargs):
            tracer.count(_key)
            return _original(*args, **kwargs)

        inst.set(cls, attr, counted)
    return inst, missing
