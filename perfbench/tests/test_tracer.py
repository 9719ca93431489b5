import sys

import pytest

import tracer
from tracer import END, NAME, PARENT, START


def span(name, start, end, parent=-1, points=0, hit=None):
    return [name, start, end, parent, points, 0, hit]


def test_self_time_subtracts_child_coverage():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 5.0, parent=0),     # overlaps b: counted once
        span("d", 8.0, 12.0, parent=0),    # clipped to the parent's end
        span("e", 1.5, 2.5, parent=1),     # grandchild: only b loses it
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_summary_counts_work_only_on_misses():
    spans = [span("g", 0.0, 2.0, points=100, hit=False),
             span("g", 2.0, 2.5, points=100, hit=True),
             span("j", 0.5, 1.5, parent=0, points=100)]
    s = tracer.summarize(spans)["g"]
    assert (s["calls"], s["points"], s["hits"]) == (2, 100, 1)
    assert s["self_s"] == pytest.approx(1.5)
    m = tracer.layer_metrics(spans)
    assert m["immersion.jets_at.calls"] == (0, "count")


def test_wrappers_record_and_are_removed():
    pytest.importorskip("numpy")
    import toricurv
    from toricurv import explore, pointwise, verify
    from toricurv.quadrature import TorusGrid

    original = pointwise.grid_fields
    t = tracer.Tracer()
    t.install()
    try:
        assert verify.grid_fields is explore.grid_fields is pointwise.grid_fields
        assert pointwise.grid_fields is not original
        imm = toricurv.clifford(2)
        verify.grid_fields(imm, TorusGrid((8, 8)))
        explore.grid_fields(imm, TorusGrid((8, 8)))
    finally:
        t.remove()
    names = [s[NAME] for s in t.spans]
    assert names.count("pointwise.grid_fields") == 2
    fields = [s for s in t.spans if s[NAME] == "pointwise.grid_fields"]
    assert [s[tracer.HIT] for s in fields] == [False, True]
    assert all(s[END] >= s[START] for s in t.spans)
    jets = [s for s in t.spans if s[NAME] == "immersion.jets_at"]
    assert jets and all(t.spans[s[PARENT]][NAME] == "pointwise.grid_fields" for s in jets)
    for module in [m for k, m in sys.modules.items() if k.startswith("toricurv")]:
        for target_module, attr in tracer.TARGETS:
            value = vars(module).get(attr)
            if value is not None:
                assert not hasattr(value, "__wrapped__"), f"{module.__name__}.{attr} still wrapped"
    assert pointwise.grid_fields is original
