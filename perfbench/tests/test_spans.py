"""Self-time arithmetic of the benchmark's spans."""

import pytest

from spans import Span, Tracer, covered, self_times, self_totals


def span(id, name, start, end, parent=None, op=None):
    return Span(id, name, start, end, parent, op)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered([(1.0, 4.0), (2.0, 6.0), (3.0, 5.0)], 0.0, 10.0) == 5.0
    assert covered([(1.0, 2.0), (2.0, 3.0)], 0.0, 10.0) == 2.0
    # clipped to the parent's interval on both sides
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_of_nested_children():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "layer", 1.0, 6.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "leaf", 4.0, 5.5, parent=1),
        span(4, "other", 7.0, 9.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(5.0 - 1.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)
    # self times partition the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert self_totals(spans)["leaf"] == pytest.approx(2.5)


def test_self_time_of_overlapping_children_counts_the_union():
    # two workers' spans under one parent overlap in [3, 4]
    spans = [
        span(0, "hunt", 0.0, 10.0),
        span(1, "job", 1.0, 4.0, parent=0),
        span(2, "job", 3.0, 8.0, parent=0),
        span(3, "job", 9.0, 11.0, parent=0),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[3] == pytest.approx(2.0)


def test_tracer_links_parents_and_shares_the_op_id():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("layer"):
            with tracer.span("leaf"):
                pass
        with tracer.span("layer"):
            pass
    with tracer.span("setup", op=-1):
        pass
    op, layer, leaf, layer2, setup = tracer.spans
    assert (op.parent, layer.parent, leaf.parent, layer2.parent) == (
        None, op.id, layer.id, op.id)
    assert {s.op for s in (op, layer, leaf, layer2)} == {7}
    assert setup.op == -1 and setup.parent is None
    assert all(s.end >= s.start for s in tracer.spans)
    selfs = self_times(tracer.spans)
    assert selfs[op.id] >= 0.0 and selfs[layer.id] >= 0.0
