"""Serving telemetry: latency percentiles, tier hit rates, throughput.

The server feeds a thread-safe :class:`Telemetry` collector with one
record per completed request (latency, which cache tier produced the
kernel, micro-batch size, simulated throughput) and bumps its other
counters by name (:meth:`Telemetry.add`). :meth:`Telemetry.snapshot`
freezes it into a :class:`RuntimeStats` value object with p50/p95
latency, per-tier hit rates, queue depth, and per-kernel request
throughput — the numbers a serving dashboard would scrape, and what
``RuntimeStats.table()`` renders for humans.

Every :class:`RuntimeStats` field is declared once, with its export
spec (:func:`~repro.obs.metrics.stat`): its ``to_json`` path and its
``/metrics`` family. The collector's counters,
``to_json()`` and ``server.metrics()`` are all views of those
declarations.

Latencies are kept in bounded per-kernel windows (the most recent
``window`` observations) so a long-lived server's telemetry stays O(1)
in memory; counters are exact over the whole lifetime.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence

from repro.compiler.cache import TIERS
from repro.obs.metrics import derived, stat, stat_exports
from repro.util import fmt_percent

#: Version of the ``RuntimeStats.to_json()`` schema. Bump on any
#: renamed/removed key; consumers (benchmarks, dashboards) key off it.
STATS_SCHEMA_VERSION = 1

#: ``to_json()`` sections, in document order.
_JSON_SECTIONS = (
    "runtime", "latency", "tiers", "graphs", "speculation",
    "specialization", "obs", "resilience", "slo", "kernels",
)

_LATENCY_HELP = "Request latency percentiles over the telemetry window."
_KERNEL_LATENCY_HELP = (
    "Per-kernel latency percentiles over the telemetry window."
)
_MAKESPAN_HELP = "Graph makespan percentiles over the telemetry window."
_BREAKER_CODES = {"closed": 0, "half-open": 1, "open": 2}
_P50 = {"quantile": "0.5"}
_P95 = {"quantile": "0.95"}

#: A counter the :class:`Telemetry` collector accumulates.
_count = functools.partial(stat, counted=True)


def _breaker_code(state: str) -> int:
    """A breaker state as its ``repro_breaker_state`` gauge value."""
    return _BREAKER_CODES.get(state, _BREAKER_CODES["open"])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples.

    The textbook definition: the smallest value with at least ``q``
    percent of the samples at or below it — ``sorted(values)[ceil(q/100
    * n) - 1]``, with ``q <= 0`` pinned to the minimum and ``q >= 100``
    to the maximum. Property-tested against the sorted-index oracle in
    ``tests/test_telemetry.py``.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    rank = -(-q * len(ordered) // 100)  # ceil without float drift
    return ordered[min(int(rank), len(ordered)) - 1]


@dataclass
class KernelServingStats:
    """Per-kernel serving numbers in one snapshot."""

    requests: int = stat(None, "repro_kernel_requests_total",
                         "Requests served per registered kernel.")
    p50_latency_s: float = stat(None, "repro_kernel_latency_seconds",
                                _KERNEL_LATENCY_HELP, kind="gauge",
                                const=_P50)
    p95_latency_s: float = stat(None, "repro_kernel_latency_seconds",
                                _KERNEL_LATENCY_HELP, kind="gauge",
                                const=_P95)
    throughput_rps: float
    mean_tflops: float


@dataclass
class RuntimeStats:
    """A frozen view of the server's health at snapshot time.

    Each field is declared once: its ``to_json`` path, its ``/metrics``
    family, and whether the :class:`Telemetry` collector counts it.
    Exported properties sit among the fields in ``to_json`` key order.
    """

    uptime_s: float = stat("runtime", "repro_uptime_seconds",
                           "Server uptime at snapshot time.", kind="gauge")
    requests: int = _count("runtime", "repro_requests_total",
                           "Requests submitted to the runtime server.")
    completed: int = _count("runtime", "repro_requests_completed_total",
                            "Requests served to completion.")
    failed: int = _count("runtime", "repro_requests_failed_total",
                         "Requests that resolved with an error.")
    queue_depth: int = stat("runtime", "repro_queue_depth",
                            "Requests waiting in the priority queue.",
                            kind="gauge")
    batches: int = _count("runtime", "repro_batches_total",
                          "Micro-batches executed.")
    max_batch_size: int = _count("runtime", "repro_batch_size_max",
                                 "Largest micro-batch served so far.",
                                 kind="gauge")

    @derived("runtime")
    def throughput_rps(self) -> float:
        """Completed requests per second of uptime."""
        return self.completed / self.uptime_s if self.uptime_s > 0 else 0.0

    tier_counts: Dict[str, int] = stat(
        None, "repro_tier_requests_total",
        "Completed requests by the cache tier that produced the kernel.",
        label="tier")
    p50_latency_s: float = stat("latency.p50_s",
                                "repro_request_latency_seconds",
                                _LATENCY_HELP, kind="gauge", const=_P50)
    p95_latency_s: float = stat("latency.p95_s",
                                "repro_request_latency_seconds",
                                _LATENCY_HELP, kind="gauge", const=_P95)
    per_kernel: Dict[str, KernelServingStats] = stat(
        label="kernel", rows=KernelServingStats, default_factory=dict)
    graphs: int = _count("graphs.submitted", "repro_graphs_total",
                         "Task graphs submitted.", 0)
    graphs_completed: int = _count("graphs.completed",
                                   "repro_graphs_completed_total",
                                   "Task graphs completed.", 0)
    graphs_failed: int = _count("graphs.failed", "repro_graphs_failed_total",
                                "Task graphs that failed.", 0)
    graph_nodes: int = _count("graphs.nodes", "repro_graph_nodes_total",
                              "Kernel launches submitted via graphs.", 0)
    p50_graph_makespan_s: float = stat("graphs.p50_makespan_s",
                                       "repro_graph_makespan_seconds",
                                       _MAKESPAN_HELP, 0.0, kind="gauge",
                                       const=_P50)
    p95_graph_makespan_s: float = stat("graphs.p95_makespan_s",
                                       "repro_graph_makespan_seconds",
                                       _MAKESPAN_HELP, 0.0, kind="gauge",
                                       const=_P95)
    speculative_compiles: int = _count(
        "speculation.compiles", "repro_speculative_compiles_total",
        "Kernels compiled in the background by the speculator.", 0)
    speculation_issued: int = _count(
        "speculation.issued", "repro_speculation_issued_total",
        "Buckets precompiled speculatively.", 0)
    speculation_hits: int = _count(
        "speculation.hits", "repro_speculation_hits_total",
        "Speculatively precompiled buckets that later saw real traffic.", 0)

    @derived("speculation.wasted")
    def speculation_wasted(self) -> int:
        """Speculatively precompiled buckets never requested (so far)."""
        return max(self.speculation_issued - self.speculation_hits, 0)

    @derived("speculation.wasted_ratio")
    def speculation_wasted_ratio(self) -> float:
        """Wasted fraction of speculatively precompiled buckets."""
        if not self.speculation_issued:
            return 0.0
        return self.speculation_wasted / self.speculation_issued

    specialized_hits: int = _count(
        "specialization.hits", "repro_specialized_hits_total",
        "Requests served by an exact-shape specialized kernel.", 0)
    promotions: int = _count(
        "specialization", "repro_specialize_promotions_total",
        "Shapes promoted to exact-shape specialized kernels.", 0)
    deopts: int = _count(
        "specialization", "repro_specialize_deopts_total",
        "Specializations deoptimized back to their generic bucket.", 0)
    specialize_errors: int = _count(
        "specialization.errors", "repro_specialize_errors_total",
        "Specialized compiles that failed (shape quarantined).", 0)

    @derived("specialization.active", "repro_specializations_active",
             "Exact-shape specializations currently installed.",
             kind="gauge")
    def specializations_active(self) -> int:
        """Exact-shape specializations currently installed (promotions
        minus deoptimizations)."""
        return max(self.promotions - self.deopts, 0)

    padded_flops_saved: float = _count(
        "specialization", "repro_specialize_padded_flops_saved_total",
        "Padded FLOPs avoided by serving specialized kernels.", 0.0)
    trace_enabled: bool = stat("obs", default=False)
    trace_spans: int = stat("obs", default=0)
    flight_records: int = stat("obs", default=0)
    timeouts: int = _count(
        "resilience", "repro_timeouts_total",
        "Requests failed fast for missing their deadline.", 0)
    retries: int = _count(
        "resilience", "repro_retries_total",
        "Transient failures absorbed by the retry machinery.", 0)
    shed_requests: int = _count(
        "resilience", "repro_shed_requests_total",
        "Queued requests evicted by bounded-queue load shedding.", 0)
    loop_crashes: int = _count(
        "resilience", "repro_loop_crashes_total",
        "Background-loop crashes caught and restarted by supervision.", 0)
    degraded_serves: int = _count(
        "resilience", "repro_degraded_serves_total",
        "Requests served in a degraded mode (breaker open).", 0)
    breaker_trips: int = _count("resilience", "repro_breaker_trips_total",
                                "Circuit-breaker transitions to open.", 0)
    breaker_states: Dict[str, str] = stat(
        "resilience", "repro_breaker_state",
        "Per-site breaker state: 0 closed, 1 half-open, 2 open.",
        kind="gauge", label="site", encode=_breaker_code,
        default_factory=dict)

    @property
    def breakers_open(self) -> int:
        """Circuit breakers currently not closed (open or half-open)."""
        return sum(
            1 for state in self.breaker_states.values() if state != "closed"
        )

    #: Currently-firing SLO alerts (``{slo_name: severity}``) and the
    #: latest slow-window burn rate per objective, from the server's
    #: :class:`~repro.obs.slo.SloMonitor`; empty without one.
    slo_alerts: Dict[str, str] = stat("slo.alerts", default_factory=dict)
    slo_burn_rates: Dict[str, float] = stat("slo.burn_rates",
                                            default_factory=dict)

    def tier_rate(self, tier: str) -> float:
        """Fraction of completed requests served by ``tier`` (0.0-1.0)."""
        total = sum(self.tier_counts.values())
        return self.tier_counts.get(tier, 0) / total if total else 0.0

    def to_json(self) -> Dict:
        """A stable, schema-versioned dict of every counter/percentile.

        The machine-readable counterpart of :meth:`table`: benchmarks
        embed it in their ``BENCH_*.json`` reports and dashboards
        ingest it directly, instead of plucking ad-hoc fields off the
        dataclass. The layout is a contract — ``schema_version``
        (:data:`STATS_SCHEMA_VERSION`) bumps on any renamed or removed
        key, and every value is a JSON-native scalar/dict. Values sit
        at their declared paths; only ``tiers`` and ``kernels`` are
        laid out here.
        """
        payload: Dict = {"schema_version": STATS_SCHEMA_VERSION}
        payload.update((section, {}) for section in _JSON_SECTIONS)
        for name, spec in stat_exports(RuntimeStats):
            if spec["path"]:
                section, _, key = spec["path"].partition(".")
                value = getattr(self, name)
                if isinstance(value, dict):
                    value = dict(sorted(value.items()))
                payload[section][key or name] = value
        payload["tiers"] = {
            "counts": {tier: self.tier_counts.get(tier, 0) for tier in TIERS},
            "rates": {tier: self.tier_rate(tier) for tier in TIERS},
        }
        payload["kernels"] = {
            name: asdict(row)
            for name, row in sorted(self.per_kernel.items())
        }
        return payload

    def table(self) -> str:
        """A human-readable dashboard, one kernel per row.

        Safe on an idle server: zero requests, zero uptime, or a
        zero-request per-kernel row render as zeros rather than
        dividing by the counts.
        """
        lines = [
            f"runtime: {self.completed}/{self.requests} served "
            f"({self.failed} failed) in {self.uptime_s:.2f}s "
            f"-> {self.throughput_rps:.1f} req/s, queue depth "
            f"{self.queue_depth}",
            f"latency: p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms; "
            f"batches {self.batches} (max size {self.max_batch_size})",
            "tiers:   "
            + ", ".join(
                f"{tier} {self.tier_counts.get(tier, 0)} "
                f"({fmt_percent(self.tier_rate(tier))})"
                for tier in TIERS
            ),
        ]
        if self.speculation_issued or self.speculative_compiles:
            lines.append(
                f"specul.: {self.speculation_issued} buckets precompiled "
                f"({self.speculative_compiles} compiles), "
                f"{self.speculation_hits} hit, "
                f"{self.speculation_wasted} wasted "
                f"({fmt_percent(self.speculation_wasted_ratio)})"
            )
        if self.promotions or self.specialized_hits or self.specialize_errors:
            lines.append(
                f"specialz.: {self.specializations_active} active "
                f"({self.promotions} promoted, {self.deopts} deopted, "
                f"{self.specialize_errors} errors), "
                f"{self.specialized_hits} exact-shape hits, "
                f"{self.padded_flops_saved / 1e9:.2f} padded GFLOPs saved"
            )
        if self.graphs:
            lines.append(
                f"graphs:  {self.graphs_completed}/{self.graphs} completed "
                f"({self.graphs_failed} failed), {self.graph_nodes} nodes; "
                f"makespan p50 {self.p50_graph_makespan_s * 1e3:.2f} ms, "
                f"p95 {self.p95_graph_makespan_s * 1e3:.2f} ms"
            )
        if (
            self.timeouts or self.retries or self.shed_requests
            or self.loop_crashes or self.degraded_serves
            or self.breaker_trips or self.breakers_open
        ):
            lines.append(
                f"resil.:  {self.timeouts} timeouts, {self.retries} "
                f"retries, {self.shed_requests} shed, "
                f"{self.degraded_serves} degraded serves; breakers "
                f"{self.breaker_trips} trips ({self.breakers_open} "
                f"open), {self.loop_crashes} loop crashes"
            )
        if self.slo_alerts:
            lines.append(
                "alerts:  "
                + ", ".join(
                    f"{name} {severity} "
                    f"(burn {self.slo_burn_rates.get(name, 0.0):.1f}x)"
                    for name, severity in sorted(self.slo_alerts.items())
                )
            )
        if self.trace_enabled or self.flight_records:
            lines.append(
                f"obs:     tracing "
                f"{'on' if self.trace_enabled else 'off'}, "
                f"{self.trace_spans} spans; flight recorder "
                f"{self.flight_records} records"
            )
        lines.append(
            f"{'kernel':<22}{'reqs':>6}{'p50 ms':>9}{'p95 ms':>9}"
            f"{'req/s':>8}{'TFLOP/s':>9}"
        )
        for name in sorted(self.per_kernel):
            k = self.per_kernel[name]
            lines.append(
                f"{name:<22}{k.requests:>6}"
                f"{k.p50_latency_s * 1e3:>9.2f}"
                f"{k.p95_latency_s * 1e3:>9.2f}"
                f"{k.throughput_rps:>8.1f}"
                f"{k.mean_tflops:>9.1f}"
            )
        return "\n".join(lines)


class _KernelWindow:
    __slots__ = ("requests", "latencies", "tflops_sum")

    def __init__(self, window: int) -> None:
        self.requests = 0
        self.latencies: deque = deque(maxlen=window)
        self.tflops_sum = 0.0


#: The counted :class:`RuntimeStats` fields and their starting values.
_COUNTERS = {
    f.name: 0 if f.default is MISSING else f.default
    for f in fields(RuntimeStats)
    if f.metadata.get("counted")
}


class Telemetry:
    """The live, thread-safe collector behind ``RuntimeServer.stats()``.

    Every counted :class:`RuntimeStats` field lives in one dict under
    one lock; :meth:`add` bumps any of them by name, and the
    ``record_*`` methods update the few that move together.
    """

    def __init__(self, window: int = 2048) -> None:
        self._window = window
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self._counts = dict(_COUNTERS)
        self._tiers: Dict[str, int] = {tier: 0 for tier in TIERS}
        self._kernels: Dict[str, _KernelWindow] = {}
        self._graph_makespans: deque = deque(maxlen=window)
        self._bucket_traffic: Dict[tuple, int] = {}
        self._shape_traffic: Dict[tuple, float] = {}

    @property
    def completed_count(self) -> int:
        """Completed requests so far (cheap readiness probe; no
        snapshot materialization)."""
        with self._lock:
            return self._counts["completed"]

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counted :class:`RuntimeStats` field ``name``
        (``"requests"``, ``"failed"``, ``"retries"``, ...).

        Raises:
            KeyError: ``name`` is not a counted field.
        """
        with self._lock:
            self._counts[name] += n

    def record_bucket_traffic(
        self,
        pairs: Sequence[tuple],
        shapes: Optional[Sequence[tuple]] = None,
    ) -> None:
        """Count one request per ``(kernel, bucket)`` pair in ``pairs``.

        This is the per-bucket demand signal the speculator polls via
        :meth:`bucket_traffic` to decide which neighbor buckets are
        worth precompiling. ``shapes`` optionally carries the matching
        *pre-rounding* ``(kernel, exact shape)`` pairs — the per-shape
        hit counts the :class:`~repro.runtime.specialize.
        ShapeSpecializer` polls via :meth:`shape_traffic` to decide
        which exact shapes are hot enough to promote.
        """
        with self._lock:
            traffic = self._bucket_traffic
            for pair in pairs:
                traffic[pair] = traffic.get(pair, 0) + 1
            if shapes:
                hits = self._shape_traffic
                for pair in shapes:
                    hits[pair] = hits.get(pair, 0.0) + 1.0

    def bucket_traffic(self) -> Dict[tuple, int]:
        """A snapshot of request counts per ``(kernel, bucket)``."""
        with self._lock:
            return dict(self._bucket_traffic)

    def shape_traffic(self) -> Dict[tuple, float]:
        """A snapshot of (decayed) request counts per ``(kernel,
        exact shape)`` — the specializer's promotion signal."""
        with self._lock:
            return dict(self._shape_traffic)

    def decay_shape_traffic(
        self, factor: float, drop_below: float = 0.5
    ) -> None:
        """Multiply every per-shape hit count by ``factor`` (0..1),
        dropping entries that decay below ``drop_below``.

        Periodic decay is what lets the specializer react to traffic
        *shifts*: a shape that stops being requested loses its count
        exponentially and falls under the deoptimization threshold
        instead of staying hot forever.
        """
        with self._lock:
            self._shape_traffic = {
                key: count * factor
                for key, count in self._shape_traffic.items()
                if count * factor >= drop_below
            }

    def drop_shape_traffic(self, key: tuple) -> None:
        """Forget one shape's hit count (deoptimization resets it so
        the shape must re-earn promotion)."""
        with self._lock:
            self._shape_traffic.pop(key, None)

    def record_specialized_hit(self, flops_saved: float = 0.0) -> None:
        """Count one request served by an exact-shape specialized
        kernel, saving ``flops_saved`` padded FLOPs of bucket waste."""
        with self._lock:
            self._counts["specialized_hits"] += 1
            self._counts["padded_flops_saved"] += flops_saved

    def record_batch(self, size: int) -> None:
        """Count one micro-batch of ``size`` requests."""
        with self._lock:
            counts = self._counts
            counts["batches"] += 1
            counts["max_batch_size"] = max(counts["max_batch_size"], size)

    def record_result(
        self, kernel: str, latency_s: float, tier: str, tflops: float
    ) -> None:
        """Record one completed request.

        Args:
            kernel: registered kernel name.
            latency_s: submit-to-resolve wall time.
            tier: which cache tier produced the kernel.
            tflops: simulated throughput of the serving kernel.
        """
        with self._lock:
            self._counts["completed"] += 1
            self._tiers[tier] = self._tiers.get(tier, 0) + 1
            window = self._kernels.get(kernel)
            if window is None:
                window = self._kernels[kernel] = _KernelWindow(self._window)
            window.requests += 1
            window.latencies.append(latency_s)
            window.tflops_sum += tflops

    def record_graph_submit(self, nodes: int) -> None:
        """Count one submitted task graph of ``nodes`` launches."""
        with self._lock:
            self._counts["graphs"] += 1
            self._counts["graph_nodes"] += nodes

    def record_graph_done(self, makespan_s: float) -> None:
        """Record one completed graph's submit-to-last-node wall time."""
        with self._lock:
            self._counts["graphs_completed"] += 1
            self._graph_makespans.append(makespan_s)

    def record_graph_failure(self) -> None:
        """Count one graph whose execution failed."""
        with self._lock:
            self._counts["graphs_failed"] += 1

    def snapshot(self, queue_depth: int = 0, **live) -> RuntimeStats:
        """Freeze the collector into a :class:`RuntimeStats` value.

        Args:
            queue_depth: current queue depth to embed in the snapshot.
            **live: the other fields only the owning server knows at
                snapshot time (``trace_enabled``, ``trace_spans``,
                ``flight_records``, ``breaker_states``, ``slo_alerts``,
                ``slo_burn_rates``); omitted ones keep their defaults.

        Returns:
            An immutable view; the collector keeps accumulating.
        """
        with self._lock:
            uptime = time.perf_counter() - self._started
            all_latencies: List[float] = []
            per_kernel: Dict[str, KernelServingStats] = {}
            for name, window in self._kernels.items():
                latencies = list(window.latencies)
                all_latencies.extend(latencies)
                per_kernel[name] = KernelServingStats(
                    requests=window.requests,
                    p50_latency_s=percentile(latencies, 50),
                    p95_latency_s=percentile(latencies, 95),
                    throughput_rps=(
                        window.requests / uptime if uptime > 0 else 0.0
                    ),
                    mean_tflops=(
                        window.tflops_sum / window.requests
                        if window.requests
                        else 0.0
                    ),
                )
            makespans = list(self._graph_makespans)
            return RuntimeStats(
                uptime_s=uptime,
                queue_depth=queue_depth,
                tier_counts=dict(self._tiers),
                p50_latency_s=percentile(all_latencies, 50),
                p95_latency_s=percentile(all_latencies, 95),
                per_kernel=per_kernel,
                p50_graph_makespan_s=percentile(makespans, 50),
                p95_graph_makespan_s=percentile(makespans, 95),
                **self._counts,
                **live,
            )
