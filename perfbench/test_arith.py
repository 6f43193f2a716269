"""Checks of the benchmark's own arithmetic.

    python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402


def span(sid, parent, start, end, name="x", root=1):
    return (sid, parent, root, name, start, end)


class TestPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert stats.percentile(list(range(1, 1000)), 0.99) is None
        # 1000 samples: nearest rank 990, ten samples beyond it
        assert stats.percentile(list(range(1, 1001)), 0.99) == 990

    def test_tail_falls_back_to_the_maximum(self):
        assert stats.tail(list(range(1, 100)), 0.99) == (99.0, False)
        assert stats.tail(list(range(1, 1001)), 0.99) == (990.0, True)

    def test_order_does_not_matter(self):
        values = list(range(2000, 0, -1))
        assert stats.percentile(values, 0.99) == 1980

    def test_median_needs_twenty_samples(self):
        assert stats.percentile(list(range(19)), 0.5) is None
        assert stats.percentile(list(range(20)), 0.5) == 9

    def test_median_even_and_odd(self):
        assert stats.median([3, 1, 2]) == 2
        assert stats.median([4, 1, 3, 2]) == 2.5
        with pytest.raises(ValueError):
            stats.median([])


class TestFirstCall:
    def test_warm_median_plus_paired_excess(self):
        # the host runs at speed 1, then twice as slow, then 1 again
        pairs = [(1.3, 1.0), (2.6, 2.0), (1.35, 1.0)]
        warm = [1.0, 2.0, 1.0, 1.1]
        # warm median 1.05, excesses 0.3, 0.6, 0.35 -> median 0.35
        assert stats.first_call(pairs, warm) == pytest.approx(1.4)

    def test_excess_may_be_negative(self):
        assert stats.first_call([(0.9, 1.0)], [1.0]) == pytest.approx(0.9)

    def test_needs_a_pair(self):
        with pytest.raises(ValueError):
            stats.first_call([], [1.0])

class TestSelfTime:
    def test_nested_spans_subtract_children(self):
        spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 2, 2.0, 3.0),
            span(4, 1, 5.0, 6.0),
        ]
        own = stats.self_times(spans)
        assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
        assert sum(own.values()) == 10.0

    def test_overlapping_children_counted_once(self):
        spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 6.0),
        ]
        assert stats.self_times(spans)[1] == 5.0

    def test_child_clipped_to_parent(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 8.0, 12.0)]
        assert stats.self_times(spans)[1] == 8.0

    def test_per_name(self):
        spans = [
            span(1, 0, 0.0, 4.0, "a"),
            span(2, 1, 1.0, 2.0, "b"),
            span(3, 0, 5.0, 6.0, "b", root=3),
        ]
        totals = stats.per_name(spans)
        assert totals == {"a": (3.0, 1), "b": (2.0, 2)}
        assert stats.mean_self_ms(totals, "b") == 1000.0
        assert stats.mean_self_ms(totals, "c") == 0.0


class TestCoverage:
    def test_nested_tree_covers_its_root(self):
        spans = [span(1, 0, 0.0, 8.0), span(2, 1, 1.0, 3.0)]
        assert stats.coverage(spans, 10.0) == pytest.approx(0.8)

    def test_wall_must_be_positive(self):
        with pytest.raises(ValueError):
            stats.coverage([], 0.0)


class TestErrorRate:
    def test_refused_wrong_and_errors_all_fail(self):
        assert stats.error_rate(10, refused=1, wrong=2, errors=1) == 0.4
        assert stats.error_rate(5, 0, 0) == 0.0
        with pytest.raises(ValueError):
            stats.error_rate(0, 0, 0)


class _Sim:
    results = ["0", "1"]
    probabilities = [0.5, 0.5]

    def expectation(self, pauli):
        return 0.0


class _Ref:
    def sim(self, spec):
        return _Sim()


def test_service_check_counts_refused_and_wrong():
    import serve_mix

    body = json.dumps({"circuit": {"qasm": ""}, "shots": 4, "seed": 1})
    requests = [{"body": body.encode()}] * 4
    good = {"results": ["0", "1"], "probabilities": [0.5, 0.5],
            "counts": {"0": 1, "1": 3}, "shots": 4}
    bad_probs = dict(good, probabilities=[0.6, 0.4])
    bad_counts = dict(good, counts={"0": 1})
    records = [
        (0, 0.01, 200, json.dumps(good).encode()),
        (1, 0.01, 429, b"{}"),
        (2, 0.01, 200, json.dumps(bad_probs).encode()),
        (3, 0.01, 200, json.dumps(bad_counts).encode()),
    ]
    refused, wrong, _problems = serve_mix.check(records, requests, _Ref())
    assert (refused, wrong) == (1, 2)
    assert stats.error_rate(len(records), refused, wrong) == 0.75
