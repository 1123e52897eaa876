"""Tests for the benchmark's own helpers.

    python3 -m pytest benchmarks/test_benchlib.py
"""

import math
import threading

import pytest

import benchlib
from benchlib import Span, Tracer


def span(span_id, parent, start, end, name="x"):
    return Span("run", span_id, parent, name, start, end)


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    t = benchlib.tail([float(i) for i in range(1, 101)])
    assert (t.value, t.percentile, t.samples, t.beyond) == (90.0, 90.0, 100, 10)


def test_tail_percentile_follows_sample_count():
    t = benchlib.tail([float(i) for i in range(24, 0, -1)])
    assert t.value == 14.0
    assert t.percentile == pytest.approx(100 * 14 / 24)
    assert (t.samples, t.beyond) == (24, 10)


def test_tail_steps_down_past_ties():
    # ranks 5..7 share a value, so rank 7 would leave only 9 strictly above
    values = [1, 2, 3, 4, 5, 5, 5] + list(range(10, 19))
    t = benchlib.tail([float(v) for v in values])
    assert t.value == 4.0
    assert t.beyond == 12
    assert t.percentile == pytest.approx(100 * 4 / 16)


def test_tail_needs_more_than_ten_samples():
    assert benchlib.tail([1.0] * 10) is None
    assert benchlib.tail([float(i) for i in range(10)]) is None
    assert benchlib.tail([float(i) for i in range(11)]).value == 0.0


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60), span(3, 1, 12, 20)]
    self_ns = benchlib.self_times_ns(spans)
    assert self_ns == {0: 70, 1: 12, 2: 10, 3: 8}


def test_self_time_counts_overlapping_children_once():
    # children recorded in two threads overlap; the covered part is their union
    spans = [span(0, None, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70), span(3, 0, 65, 80)]
    assert benchlib.self_times_ns(spans)[0] == 100 - 70


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, 10, 20), span(1, 0, 5, 15)]
    assert benchlib.self_times_ns(spans)[0] == 5


def test_fastest_totals_takes_each_name_from_its_fastest_pass():
    first = [span(0, None, 0, 10, "a"), span(1, None, 10, 40, "b"), span(2, None, 40, 45, "b")]
    second = [span(3, None, 0, 20, "a"), span(4, None, 20, 30, "b"), span(5, None, 30, 35, "b")]
    assert benchlib.fastest_totals([first, second]) == {"a": (1, 10), "b": (2, 15)}


def test_tracer_records_parents_and_names():
    tracer = Tracer("r1")
    inner = tracer.wrap("layer.fn", lambda x: x + 1)
    with tracer.span("phase"):
        assert inner(1) == 2
        assert inner(2) == 3
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (phase,) = by_name["phase"]
    assert phase.parent is None
    assert [s.parent for s in by_name["layer.fn"]] == [phase.span_id] * 2
    assert all(s.run_id == "r1" and s.start_ns <= s.end_ns for s in tracer.spans)
    assert benchlib.totals_by_name(tracer.spans)["layer.fn"][0] == 2


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer("r")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("bad", boom)()
    assert [s.name for s in tracer.spans] == ["bad"]


def test_tracer_spans_in_other_threads_have_their_own_stack():
    tracer = Tracer("r")
    fn = tracer.wrap("t.fn", lambda: None)
    with tracer.span("phase"):
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    (child,) = [s for s in tracer.spans if s.name == "t.fn"]
    assert child.parent is None


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------


def test_digest_sees_the_last_bit_of_a_float():
    x = 0.1 + 0.2
    assert benchlib.digest([x]) == benchlib.digest([0.1 + 0.2])
    assert benchlib.digest([x]) != benchlib.digest([math.nextafter(x, 1.0)])


# ----------------------------------------------------------------------
# correctness gates trip on a wrong value
# ----------------------------------------------------------------------


def test_estimate_gate():
    n, p = 1_000_000, 0.3
    se = math.sqrt(p * (1 - p) / n)
    assert benchlib.estimate_agrees(p + 3 * se, p, n)
    assert not benchlib.estimate_agrees(p + 8 * se, p, n)
    assert not benchlib.estimate_agrees(0.31, p, n)


def test_estimate_gate_near_zero():
    assert benchlib.estimate_agrees(3 / 10_000, 0.0, 10_000)
    assert not benchlib.estimate_agrees(0.01, 0.0, 10_000)


def test_ks_gate():
    n = 100_000
    assert benchlib.ks_ok(0.004, n)
    assert not benchlib.ks_ok(0.02, n)
    assert not benchlib.ks_ok(-0.001, n)


def test_round_trip_gate():
    assert benchlib.round_trips(0.25 + 5e-10, 0.25)
    assert not benchlib.round_trips(0.25 + 2e-9, 0.25)


def test_speed_average_gate():
    ref = benchlib.fine_average(lambda v: math.sqrt(max(0.0, v - 1.0)), 0.0, 3.0)
    exact = (2.0 ** 1.5) / 1.5 / 3.0
    assert benchlib.averages_agree(ref, exact)
    assert not benchlib.averages_agree(ref + 1e-3, exact)


def test_csv_gate():
    text = "# kind=x\na,b\n0.333333333,y\n"
    assert benchlib.csv_matches(text, ("a", "b"), [(1 / 3, "y")])
    assert not benchlib.csv_matches(text, ("a", "b"), [(1 / 3 + 1e-8, "y")])
    assert not benchlib.csv_matches(text, ("a", "c"), [(1 / 3, "y")])
    assert not benchlib.csv_matches(text, ("a", "b"), [(1 / 3, "y"), (1.0, "z")])
    assert not benchlib.csv_matches("", ("a",), [])


def test_svg_gate():
    assert benchlib.svg_parses('<svg xmlns="http://www.w3.org/2000/svg"><rect/></svg>\n')
    assert not benchlib.svg_parses("<svg><rect></svg>")
    assert not benchlib.svg_parses("<html/>")
