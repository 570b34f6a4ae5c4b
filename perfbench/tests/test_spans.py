"""Span self-time arithmetic and the per-op accounting check."""

import threading

import pytest

from spans import (Span, Tracer, account_op, children_of, self_time,
                   sibling_overlap, union_length)


def span(span_id, name, start, end, parent=None, thread=1, op=1):
    return Span(span_id, name, start, end, parent, op, thread)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 5)]) == 3.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_subtracts_the_time_children_cover():
    root = span(1, "op", 0.0, 10.0)
    children = [span(2, "a", 1.0, 3.0, 1), span(3, "b", 4.0, 8.0, 1)]
    assert self_time(root, children) == pytest.approx(4.0)
    assert self_time(root, []) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    root = span(1, "op", 0.0, 10.0)
    children = [span(2, "a", 1.0, 5.0, 1, thread=2),
                span(3, "b", 3.0, 7.0, 1, thread=3),
                span(4, "late", 9.0, 12.0, 1, thread=4)]
    # covered: [1, 7] and [9, 10] -> 7 s of 10
    assert self_time(root, children) == pytest.approx(3.0)
    # a and b overlap on [3, 5]
    assert sibling_overlap(root, children) == pytest.approx(2.0)


def test_account_op_sums_self_times_to_the_op_wall_time():
    spans = [span(1, "op.simulate", 0.0, 10.0),
             span(2, "workloads.build", 0.5, 2.5, 1),
             span(3, "processor.build", 2.5, 3.0, 1),
             span(4, "processor.run", 3.0, 9.0, 1),
             span(5, "scenario.encode", 9.0, 9.5, 1)]
    totals = account_op(spans)
    assert totals["processor.run"] == pytest.approx(6.0)
    assert totals["op.simulate"] == pytest.approx(1.0)
    assert sum(totals.values()) == pytest.approx(10.0)
    assert set(children_of(spans)) == {1}


def test_account_op_adds_overlap_of_concurrent_threads():
    spans = [span(1, "op.miss", 0.0, 10.0),
             span(2, "client.http", 0.0, 4.0, 1),
             span(3, "serve.drain", 2.0, 8.0, 1, thread=2)]
    totals = account_op(spans)
    assert totals["op.miss"] == pytest.approx(2.0)
    assert sum(totals.values()) == pytest.approx(10.0 + 2.0)


def test_account_op_clips_a_span_of_another_thread_that_outlives_the_op():
    # the drain thread returns after the client already has its reply
    spans = [span(1, "op.miss", 0.0, 10.0),
             span(2, "client.http", 0.0, 4.0, 1),
             span(3, "serve.drain", 2.0, 11.0, 1, thread=2),
             span(4, "exec.sweep", 3.0, 10.5, 3, thread=2)]
    totals = account_op(spans)
    assert totals["op.miss"] == pytest.approx(0.0)
    assert totals["serve.drain"] == pytest.approx(1.0)
    assert totals["exec.sweep"] == pytest.approx(7.0)
    assert sum(totals.values()) == pytest.approx(10.0 + 2.0)


def test_account_op_rejects_a_child_escaping_its_parent_on_one_thread():
    spans = [span(1, "op", 0.0, 1.0), span(2, "late", 0.5, 2.0, 1)]
    with pytest.raises(ValueError, match="escapes"):
        account_op(spans)


def test_account_op_rejects_two_roots():
    with pytest.raises(ValueError, match="root"):
        account_op([span(1, "a", 0, 1), span(2, "b", 0, 1)])


def test_tracer_nests_spans_and_parents_other_threads_to_the_client():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.op(7, "op.hit") as root:
        with tracer.span("client.http") as http:
            worker = threading.Thread(target=_handler, args=(tracer,))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        drain = threading.Thread(target=_drain, args=(tracer,))
        drain.start()
        drain.join(timeout=10)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["client.http"].parent == root.span_id
    assert by_name["serve.lookup"].parent == http.span_id
    assert by_name["store.get"].parent == by_name["serve.lookup"].span_id
    assert by_name["serve.drain"].parent == root.span_id
    assert {span.op for span in tracer.spans} == {7}
    account_op(tracer.ops()[7])


def _handler(tracer):
    with tracer.span("serve.lookup"):
        with tracer.span("store.get"):
            pass


def _drain(tracer):
    with tracer.span("serve.drain", attach="op"):
        pass


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.op(1, "op.simulate"):
        with tracer.span("processor.run") as record:
            assert record is None
        tracer.count(events=3)
    assert tracer.spans == [] and tracer.counters == []
