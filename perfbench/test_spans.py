"""Self-time arithmetic and wrapper installation of the benchmark tracer.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
import types

import spans
from spans import Entry, Patcher, Recorder, Span, self_times, summarize


def _spans():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    return [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 6.0, 0, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_spans()) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_sum_to_top_level_wall():
    assert sum(self_times(_spans())) == 10.0


def test_overlapping_children_are_counted_once_and_clipped():
    got = self_times([
        Span("p", 0.0, 10.0, -1, 1),
        Span("x", 1.0, 4.0, 0, 1),
        Span("y", 3.0, 6.0, 0, 1),
        Span("z", 9.0, 12.0, 0, 1),  # runs past its parent's end
    ])
    assert got[0] == 10.0 - 5.0 - 1.0


def test_busy_counts_a_call_nested_in_the_same_name_once():
    table = summarize([
        Span("f", 0.0, 4.0, -1, 1),
        Span("g", 1.0, 3.0, 0, 1),
        Span("f", 1.5, 2.5, 1, 1),
    ])
    assert table["f"] == {"calls": 2, "busy_s": 4.0, "self_s": 2.0 + 1.0}
    assert table["g"] == {"calls": 1, "busy_s": 2.0, "self_s": 1.0}


def test_recorder_links_parents_and_call_ids():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.open("outer")
    rec.open("inner")
    rec.close()
    rec.close()
    rec.open("second")
    rec.close()
    assert [(s.name, s.parent, s.call_id) for s in rec.spans] == [
        ("outer", -1, 1), ("inner", 0, 1), ("second", -1, 2)]
    assert [(s.start, s.end) for s in rec.spans] == [(0, 3), (1, 2), (4, 5)]


def test_patcher_wraps_every_site_restores_them_and_reports_absent_names():
    mod = types.ModuleType("fake_mod")

    class Layer:
        def forward(self, x):
            return mod.helper(x) + 1

    def helper(x):
        return 2 * x

    mod.Layer, mod.helper = Layer, helper
    sys.modules["fake_mod"] = mod
    try:
        rec = Recorder()
        entries = [
            Entry("fake.Layer.forward", [("fake_mod", "Layer.forward")],
                  tokens=lambda a, k, r: a[1]),
            Entry("fake.helper", [("fake_mod", "helper"), ("fake_mod", "gone")]),
            Entry("fake.removed", [("no_such_module", "f"), ("fake_mod", "Gone.f")]),
        ]
        with Patcher(rec, entries):
            assert mod.Layer().forward(5) == 11
            assert mod.helper(1) == 2
        assert mod.helper is helper and vars(Layer)["forward"].__name__ == "forward"
        assert not hasattr(vars(Layer)["forward"], "__wrapped__")
        assert [(s.name, s.parent) for s in rec.spans] == [
            ("fake.Layer.forward", -1), ("fake.helper", 0), ("fake.helper", -1)]
        assert rec.counters == {("fake.Layer.forward", "tokens"): 5}
        assert entries[1].absent == ["fake_mod.gone"]
        assert entries[2].absent == ["no_such_module.f", "fake_mod.Gone.f"]
    finally:
        del sys.modules["fake_mod"]


def test_broken_extractor_does_not_break_the_call():
    rec = Recorder()
    entry = Entry("f", [], tokens=lambda a, k, r: a[5])
    wrapped = spans._wrap(rec, entry, lambda x: x)
    assert wrapped(3) == 3
    assert rec.counters == {("f", "tokens"): 0}
