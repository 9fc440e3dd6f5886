"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "benchmarks", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import traffic  # noqa: E402
from stats import percentile, self_time, union_length  # noqa: E402


class TestPercentile:
    def test_median_of_odd_count(self):
        assert percentile(range(1, 22), 0.5) == 11

    def test_tail_needs_ten_samples_beyond(self):
        samples = list(range(100))
        assert percentile(samples, 0.9) == 89  # exactly 10 beyond it
        with pytest.raises(ValueError, match="at least 10"):
            percentile(samples[:99], 0.9)

    def test_p99_refused_on_a_short_window(self):
        with pytest.raises(ValueError):
            percentile(range(500), 0.99)

    def test_q_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            percentile(range(100), 1.0)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        assert union_length([(1, 3), (2, 5)]) == 4
        assert self_time((0, 10), [(1, 3), (2, 5)]) == 6

    def test_nested_children_count_once(self):
        assert self_time((0, 10), [(2, 8), (3, 4), (5, 6)]) == 4

    def test_children_clipped_to_parent(self):
        assert self_time((0, 10), [(-5, 1), (9, 12)]) == 8

    def test_disjoint_and_empty(self):
        assert self_time((0, 10), [(1, 2), (4, 6), (7, 7)]) == 7
        assert self_time((0, 10), []) == 10

    def test_wrapped_calls_record_parents(self):
        log = layers.SpanLog()

        def inner():
            return 1

        outer = log._wrap("outer", lambda: log._wrap("inner", inner)())
        with log.op(7):
            assert outer() == 1
        inner_span, outer_span = log.spans
        assert inner_span.parent == outer_span.sid
        assert outer_span.parent is None
        assert {inner_span.op, outer_span.op} == {7}
        own = self_time((outer_span.start, outer_span.end),
                        [(inner_span.start, inner_span.end)])
        assert 0 <= own <= outer_span.end - outer_span.start


class TestTraffic:
    @pytest.mark.parametrize("make", [
        traffic.warm_trace,
        traffic.block_trace,
        lambda seed: traffic.cold_trace(seed, 256),
    ])
    def test_same_seed_same_digest(self, make):
        assert traffic.digest(make(3)) == traffic.digest(make(3))
        assert traffic.digest(make(3)) != traffic.digest(make(4))

    def test_cold_trace_never_repeats_a_bucket(self):
        from repro.runtime.registry import default_registry

        registry = default_registry()
        trace = traffic.cold_trace(5, 256)
        buckets = {(name, registry.get(name).bucket(shape))
                   for name, shape in trace}
        assert len(buckets) == len(trace) == len(traffic.cold_pool())
