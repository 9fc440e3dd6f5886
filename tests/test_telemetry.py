"""Telemetry invariants: the percentile estimator and zero-safe stats.

``percentile`` is property-tested against the nearest-rank oracle —
``sorted(values)[ceil(q/100 * n) - 1]`` — across random samples and the
1–3-sample edge cases where off-by-one rank bugs live.
``RuntimeStats.table()`` must render an idle server (zero requests,
zero uptime, a zero-request per-kernel row) without dividing by any of
those counts.
"""

import copy
import dataclasses
import json
import math
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.obs import FlightRecorder, validate_prometheus_text
from repro.runtime import RuntimeServer, SpeculatorConfig
from repro.runtime.telemetry import (
    KernelServingStats,
    RuntimeStats,
    Telemetry,
    percentile,
)

_SAMPLES = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=64,
)


def _oracle(values, q):
    """The sorted-index nearest-rank definition."""
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    # q * n is an exact small-int product, so the division (and its
    # ceiling) is free of the float drift q / 100 * n would pick up.
    rank = min(math.ceil(q * len(ordered) / 100), len(ordered))
    return ordered[rank - 1]


class TestPercentile:
    @given(values=_SAMPLES, q=st.integers(min_value=0, max_value=100))
    def test_matches_sorted_index_oracle(self, values, q):
        assert percentile(values, q) == _oracle(values, q)

    @given(values=_SAMPLES, q=st.integers(min_value=1, max_value=100))
    def test_result_is_a_sample_with_enough_mass_below(self, values, q):
        result = percentile(values, q)
        assert result in values
        at_or_below = sum(1 for v in values if v <= result)
        assert at_or_below / len(values) >= q / 100

    def test_empty_returns_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample_any_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_two_samples(self):
        values = [2.0, 1.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 1.0   # ceil(1.0) = 1
        assert percentile(values, 51) == 2.0   # ceil(1.02) = 2
        assert percentile(values, 100) == 2.0

    def test_three_samples(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 33) == 1.0   # ceil(0.99) = 1
        assert percentile(values, 34) == 2.0   # ceil(1.02) = 2
        assert percentile(values, 67) == 3.0   # ceil(2.01) = 3
        assert percentile(values, 95) == 3.0

    def test_out_of_range_q_clamps(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -5) == 1.0
        assert percentile(values, 250) == 3.0


class TestZeroSafety:
    def _stats(self, **overrides):
        base = dict(
            uptime_s=0.0,
            requests=0,
            completed=0,
            failed=0,
            queue_depth=0,
            batches=0,
            max_batch_size=0,
            tier_counts={},
            p50_latency_s=0.0,
            p95_latency_s=0.0,
        )
        base.update(overrides)
        return RuntimeStats(**base)

    def test_idle_table_renders(self):
        table = self._stats().table()
        assert "0/0 served" in table
        assert "0.0 req/s" in table

    def test_zero_request_kernel_row_renders(self):
        stats = self._stats(
            per_kernel={
                "gemm": KernelServingStats(
                    requests=0,
                    p50_latency_s=0.0,
                    p95_latency_s=0.0,
                    throughput_rps=0.0,
                    mean_tflops=0.0,
                )
            }
        )
        assert "gemm" in stats.table()

    def test_zero_uptime_throughput_and_tier_rate(self):
        stats = self._stats()
        assert stats.throughput_rps == 0.0
        assert stats.tier_rate("memory") == 0.0

    def test_fresh_collector_snapshot_renders(self):
        stats = Telemetry().snapshot()
        assert stats.requests == 0
        assert "graphs:" not in stats.table()  # no graphs yet

    def test_graph_counters_flow_into_snapshot(self):
        telemetry = Telemetry()
        telemetry.record_graph_submit(7)
        telemetry.record_graph_submit(3)
        telemetry.record_graph_done(0.25)
        telemetry.record_graph_failure()
        stats = telemetry.snapshot()
        assert stats.graphs == 2
        assert stats.graph_nodes == 10
        assert stats.graphs_completed == 1
        assert stats.graphs_failed == 1
        assert stats.p50_graph_makespan_s == 0.25
        table = stats.table()
        assert "graphs:" in table and "1/2 completed" in table


class TestAdd:
    def test_unknown_counter_is_rejected(self):
        with pytest.raises(KeyError):
            Telemetry().add("no_such_counter")

    def test_concurrent_adds_lose_no_update(self):
        telemetry = Telemetry()

        def hammer():
            for _ in range(2000):
                telemetry.add("retries")
                telemetry.add("requests", 2)
                telemetry.record_batch(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = telemetry.snapshot()
        assert (stats.retries, stats.requests, stats.batches) == (
            16000, 32000, 16000
        )


# ----------------------------------------------------------------------
# Schema compatibility: the exported shape of every counter is a contract
# ----------------------------------------------------------------------


def _fed_snapshot():
    """A collector fed one fixed sequence touching every counter."""
    telemetry = Telemetry()
    telemetry.add("requests", 6)
    telemetry.add("shed_requests")
    telemetry.record_batch(3)
    telemetry.record_batch(2)
    telemetry.record_result("gemm", 0.004, "memory", 100.0)
    telemetry.record_result("gemm", 0.010, "compile", 80.0)
    telemetry.record_result("attention", 0.002, "disk", 50.0)
    telemetry.add("failed")
    telemetry.add("timeouts")
    telemetry.add("failed")
    telemetry.record_graph_submit(4)
    telemetry.record_graph_done(0.02)
    telemetry.record_graph_submit(2)
    telemetry.record_graph_failure()
    telemetry.add("speculative_compiles", 2)
    telemetry.add("speculation_issued", 3)
    telemetry.add("speculation_hits")
    telemetry.record_specialized_hit(1.5e9)
    telemetry.record_specialized_hit(0.5e9)
    telemetry.add("promotions")
    telemetry.add("promotions")
    telemetry.add("deopts")
    telemetry.add("specialize_errors")
    telemetry.add("retries", 2)
    telemetry.add("loop_crashes")
    telemetry.add("degraded_serves", 2)
    telemetry.add("breaker_trips")
    return telemetry.snapshot(
        queue_depth=2,
        trace_enabled=True,
        trace_spans=17,
        flight_records=9,
        breaker_states={"disk": "open", "compile:gemm": "closed"},
        slo_alerts={"availability": "page"},
        slo_burn_rates={"latency": 0.5, "availability": 14.4},
    )


_EXPECTED_JSON = {
    "schema_version": 1,
    "runtime": {
        "requests": 6,
        "completed": 3,
        "failed": 2,
        "queue_depth": 2,
        "batches": 2,
        "max_batch_size": 3,
    },
    "latency": {"p50_s": 0.004, "p95_s": 0.010},
    "tiers": {
        "counts": {"memory": 1, "disk": 1, "compile": 1},
        "rates": {"memory": 1 / 3, "disk": 1 / 3, "compile": 1 / 3},
    },
    "graphs": {
        "submitted": 2,
        "completed": 1,
        "failed": 1,
        "nodes": 6,
        "p50_makespan_s": 0.02,
        "p95_makespan_s": 0.02,
    },
    "speculation": {
        "compiles": 2,
        "issued": 3,
        "hits": 1,
        "wasted": 2,
        "wasted_ratio": 2 / 3,
    },
    "specialization": {
        "hits": 2,
        "promotions": 2,
        "deopts": 1,
        "errors": 1,
        "active": 1,
        "padded_flops_saved": 2.0e9,
    },
    "obs": {"trace_enabled": True, "trace_spans": 17, "flight_records": 9},
    "resilience": {
        "timeouts": 1,
        "retries": 2,
        "shed_requests": 1,
        "loop_crashes": 1,
        "degraded_serves": 2,
        "breaker_trips": 1,
        "breaker_states": {"compile:gemm": "closed", "disk": "open"},
    },
    "slo": {
        "alerts": {"availability": "page"},
        "burn_rates": {"availability": 14.4, "latency": 0.5},
    },
    "kernels": {
        "attention": {
            "requests": 1,
            "p50_latency_s": 0.002,
            "p95_latency_s": 0.002,
            "mean_tflops": 50.0,
        },
        "gemm": {
            "requests": 2,
            "p50_latency_s": 0.004,
            "p95_latency_s": 0.010,
            "mean_tflops": 90.0,
        },
    },
}

_EXPECTED_TABLE = """\
runtime: 3/6 served (2 failed) in 4.00s -> 0.8 req/s, queue depth 2
latency: p50 4.00 ms, p95 10.00 ms; batches 2 (max size 3)
tiers:   memory 1 (33%), disk 1 (33%), compile 1 (33%)
specul.: 3 buckets precompiled (2 compiles), 1 hit, 2 wasted (67%)
specialz.: 1 active (2 promoted, 1 deopted, 1 errors), 2 exact-shape hits, 2.00 padded GFLOPs saved
graphs:  1/2 completed (1 failed), 6 nodes; makespan p50 20.00 ms, p95 20.00 ms
resil.:  1 timeouts, 2 retries, 1 shed, 2 degraded serves; breakers 1 trips (1 open), 1 loop crashes
alerts:  availability page (burn 14.4x)
obs:     tracing on, 17 spans; flight recorder 9 records
kernel                  reqs   p50 ms   p95 ms   req/s  TFLOP/s
attention                  1     2.00     2.00     0.2     50.0
gemm                       2     4.00    10.00     0.5     90.0"""

#: Every family ``server.metrics()`` renders for a server with tracing,
#: a flight recorder, a disk tier and speculation on:
#: ``(name, kind, label names, HELP)``.
_EXPECTED_FAMILIES = {
    ("repro_build_info", "gauge", ("version", "python"),
     "Build identity of the serving process (constant 1)."),
    ("repro_requests_total", "counter", (),
     "Requests submitted to the runtime server."),
    ("repro_requests_completed_total", "counter", (),
     "Requests served to completion."),
    ("repro_requests_failed_total", "counter", (),
     "Requests that resolved with an error."),
    ("repro_queue_depth", "gauge", (),
     "Requests waiting in the priority queue."),
    ("repro_uptime_seconds", "gauge", (),
     "Server uptime at snapshot time."),
    ("repro_batches_total", "counter", (), "Micro-batches executed."),
    ("repro_batch_size_max", "gauge", (),
     "Largest micro-batch served so far."),
    ("repro_tier_requests_total", "counter", ("tier",),
     "Completed requests by the cache tier that produced the kernel."),
    ("repro_request_latency_seconds", "gauge", ("quantile",),
     "Request latency percentiles over the telemetry window."),
    ("repro_kernel_requests_total", "counter", ("kernel",),
     "Requests served per registered kernel."),
    ("repro_kernel_latency_seconds", "gauge", ("kernel", "quantile"),
     "Per-kernel latency percentiles over the telemetry window."),
    ("repro_graphs_total", "counter", (), "Task graphs submitted."),
    ("repro_graphs_completed_total", "counter", (),
     "Task graphs completed."),
    ("repro_graphs_failed_total", "counter", (),
     "Task graphs that failed."),
    ("repro_graph_nodes_total", "counter", (),
     "Kernel launches submitted via graphs."),
    ("repro_graph_makespan_seconds", "gauge", ("quantile",),
     "Graph makespan percentiles over the telemetry window."),
    ("repro_speculative_compiles_total", "counter", (),
     "Kernels compiled in the background by the speculator."),
    ("repro_speculation_issued_total", "counter", (),
     "Buckets precompiled speculatively."),
    ("repro_speculation_hits_total", "counter", (),
     "Speculatively precompiled buckets that later saw real traffic."),
    ("repro_specialize_promotions_total", "counter", (),
     "Shapes promoted to exact-shape specialized kernels."),
    ("repro_specialize_deopts_total", "counter", (),
     "Specializations deoptimized back to their generic bucket."),
    ("repro_specialized_hits_total", "counter", (),
     "Requests served by an exact-shape specialized kernel."),
    ("repro_specialize_errors_total", "counter", (),
     "Specialized compiles that failed (shape quarantined)."),
    ("repro_specialize_padded_flops_saved_total", "counter", (),
     "Padded FLOPs avoided by serving specialized kernels."),
    ("repro_specializations_active", "gauge", (),
     "Exact-shape specializations currently installed."),
    ("repro_timeouts_total", "counter", (),
     "Requests failed fast for missing their deadline."),
    ("repro_retries_total", "counter", (),
     "Transient failures absorbed by the retry machinery."),
    ("repro_shed_requests_total", "counter", (),
     "Queued requests evicted by bounded-queue load shedding."),
    ("repro_loop_crashes_total", "counter", (),
     "Background-loop crashes caught and restarted by supervision."),
    ("repro_degraded_serves_total", "counter", (),
     "Requests served in a degraded mode (breaker open)."),
    ("repro_breaker_trips_total", "counter", (),
     "Circuit-breaker transitions to open."),
    ("repro_breaker_state", "gauge", ("site",),
     "Per-site breaker state: 0 closed, 1 half-open, 2 open."),
    ("repro_compile_cache_hits_total", "counter", (),
     "In-memory compile-cache hits."),
    ("repro_compile_cache_misses_total", "counter", (),
     "Compile-cache misses (ran the full pass pipeline)."),
    ("repro_compile_cache_second_tier_hits_total", "counter", (),
     "Compile-cache lookups answered by the persistent tier."),
    ("repro_compile_cache_evictions_total", "counter", (),
     "Compile-cache LRU evictions."),
    ("repro_compile_cache_capacity", "gauge", (),
     "Compile-cache entry capacity."),
    ("repro_disk_cache_ops_total", "counter", ("op",),
     "Disk-tier operations by outcome."),
    ("repro_disk_cache_pruned_bytes_total", "counter", (),
     "Bytes evicted by the disk tier's LRU budget."),
    ("repro_disk_cache_quarantined", "gauge", (),
     "Corrupt disk-tier entries retained as .bad postmortem files."),
    ("repro_trace_spans_total", "counter", (),
     "Finished trace spans recorded."),
    ("repro_trace_spans_dropped_total", "counter", (),
     "Finished spans evicted by the tracer's capacity bound."),
    ("repro_flight_records_total", "counter", (),
     "Records appended to the flight recorder (retained or not)."),
    ("repro_flight_dumps_total", "counter", (),
     "Flight-recorder dump files written (close, crash, manual)."),
}


def _without_clock(payload):
    """``to_json()`` minus the values that depend on wall time."""
    payload = copy.deepcopy(payload)
    del payload["runtime"]["uptime_s"], payload["runtime"]["throughput_rps"]
    for row in payload["kernels"].values():
        del row["throughput_rps"]
    return payload


class TestStatsSchemaCompat:
    """Pins what ``to_json()``, ``table()`` and ``/metrics`` export, so a
    restructuring of the collector cannot change any of them."""

    def test_to_json_is_pinned(self):
        payload = _without_clock(_fed_snapshot().to_json())
        assert payload == _EXPECTED_JSON
        # Key order too: BENCH_*.json embeds the dict verbatim.
        assert json.dumps(payload) == json.dumps(_EXPECTED_JSON)

    def test_table_is_pinned(self):
        stats = _fed_snapshot()
        stats = dataclasses.replace(
            stats,
            uptime_s=4.0,
            per_kernel={
                name: dataclasses.replace(
                    row, throughput_rps=row.requests / 4.0
                )
                for name, row in stats.per_kernel.items()
            },
        )
        assert stats.table() == _EXPECTED_TABLE

    def test_metrics_families_are_pinned(self, hopper, tmp_path):
        with RuntimeServer(
            hopper,
            workers=1,
            trace=True,
            flight=FlightRecorder(),
            disk_cache=str(tmp_path / "kernels"),
            speculate=SpeculatorConfig(max_compiles_per_cycle=1),
        ) as server:
            server.submit(
                "gemm", dict(m=256, n=256, k=128)
            ).result(timeout=600)
            registry = server.metrics()
            kinds = validate_prometheus_text(registry.render())
            assert server.metrics(registry) is registry
            validate_prometheus_text(registry.render())
        families = {
            (name, kinds[name], metric.label_names, metric.help)
            for name in registry.names()
            for metric in [registry.get(name)]
        }
        assert families == _EXPECTED_FAMILIES
