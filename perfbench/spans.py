"""In-memory spans and the wrappers that record them.

A span is one call into a wrapped public function: name, start, end, the
index of the span that was open when it started (its parent) and the id of
the top-level call it belongs to. Spans stay in memory until the traced
run ends. A span's self time is its duration minus the part of its
interval that its direct children cover.

Wrappers are installed where each caller looks a name up (a module
attribute or a class attribute) and removed again on exit, so untraced
runs call the original functions with no added cost. A name a later
refactor removed is reported as absent instead of failing the run.
"""

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level call
    call_id: int


class Recorder:
    """Collects spans and per-name counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}  # (name, counter) -> summed value
        self._stack = []
        self._calls = 0

    def open(self, name):
        if not self._stack:
            self._calls += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._calls))
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()].end = self.clock()

    def count(self, name, counter, value):
        key = (name, counter)
        self.counters[key] = self.counters.get(key, 0) + value


def self_times(spans):
    """Self time of every span: duration minus the union of its direct
    children's intervals, each clipped to the parent's interval."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for j in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((span.end - span.start) - covered)
    return result


def summarize(spans):
    """Per name: calls, busy_s (wall time inside the name, counting a call
    nested in a call of the same name once) and self_s."""
    selfs = self_times(spans)
    table = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            row["busy_s"] += span.end - span.start
    return table


@dataclass
class Entry:
    """One public entry point to wrap.

    ``sites`` lists (module, dotted attribute) pairs where callers look the
    name up. ``tokens`` maps the call's (args, kwargs, result) to the rows
    passed in; ``extras`` maps them to {counter: value}.
    """

    name: str
    sites: list
    tokens: object = None
    extras: object = None
    absent: list = field(default_factory=list)


def _resolve(module_name, dotted):
    """(owner object, attribute name) for a site, or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def _wrap(recorder, entry, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.open(entry.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        if entry.tokens is not None:
            recorder.count(entry.name, "tokens", _safe(entry.tokens, args, kwargs, result, 0))
        if entry.extras is not None:
            for counter, value in _safe(entry.extras, args, kwargs, result, {}).items():
                recorder.count(entry.name, counter, value)
        return result

    return traced


def _safe(extract, args, kwargs, result, default):
    # An extractor written against today's signatures must not break a run
    # after a refactor changes them; the figure is then just missing.
    try:
        return extract(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return default


class Patcher:
    """Context manager that installs wrappers for ``entries`` and restores
    the original attributes on exit."""

    def __init__(self, recorder, entries):
        self.recorder = recorder
        self.entries = entries
        self._saved = []

    def __enter__(self):
        for entry in self.entries:
            entry.absent = []
            wrapped = {}  # id(original) -> wrapper, one per function object
            for module_name, dotted in entry.sites:
                site = _resolve(module_name, dotted)
                if site is None:
                    entry.absent.append(f"{module_name}.{dotted}")
                    continue
                owner, attr = site
                original = vars(owner)[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = _wrap(self.recorder, entry, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        return False
