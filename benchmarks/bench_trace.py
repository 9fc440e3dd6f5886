"""Tracing-overhead benchmark: the zero-cost-when-off contract, gated.

Observability must not tax the hot paths it observes. Three gated
tracing measurements, written to ``benchmarks/BENCH_trace.json`` and
enforced by the ``obs-overhead`` CI job:

1. **Disabled tracing holds the launch budget.** The template-replay
   capture+build+priority chain from ``bench_graph.py`` — the
   submit-path fast lane PR 6 put under the ``launch-overhead`` CI
   budget — re-measured with the no-op :data:`~repro.obs.trace.
   NULL_TRACER` threaded through must still come in under
   :data:`~benchmarks.bench_graph.LAUNCH_OVERHEAD_BUDGET_US` (imported,
   not copied: one budget, one source of truth).

2. **Enabled tracing stays within** ``TRACE_OVERHEAD_FACTOR`` **of
   disabled.** The same chain with a live :class:`~repro.obs.trace.
   Tracer` recording a ``graph.build`` span per capture may cost at
   most 1.5x the disabled path per launch.

3. **Traced serving stays within** ``TRACE_OVERHEAD_FACTOR`` **of
   untraced.** Warm ``submit(...).result()`` p50 on a live traced
   one-worker server — the path whose stage clock stamps the request
   spans — may cost at most 1.5x the same on an untraced one. The two
   servers take alternating blocks of requests until each side has at
   least ``_SERVING_REQUESTS_MIN``.

The same contract covers the continuous sampling profiler (the
``ops-smoke`` CI job's gate), measured on the path it runs beside:
warm ``submit(...).result()`` p50 on a live one-worker server with
:class:`~repro.obs.profiler.ContinuousProfiler` sampling the process
at 200 Hz may cost at most ``PROFILER_OVERHEAD_FACTOR`` (1.5x) of the
same server with the profiler off. Off and on blocks alternate, and
the loop runs until the sampler has taken at least
``PROFILER_MIN_SAMPLES`` samples, so the gate never passes on a
sampler that barely ran.
"""

import json
import time
from pathlib import Path

import pytest

from repro.graph import GraphBuilder, GraphTemplateCache
from repro.kernels import build_gemm
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import BucketPolicy, KernelRegistry, RuntimeServer

from bench_graph import LAUNCH_OVERHEAD_BUDGET_US, _CHAIN_K, _CHAIN_M

_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_trace.json"

#: Tracing-enabled per-launch cost may exceed tracing-disabled by at
#: most this factor (the tentpole's 1.5x contract).
TRACE_OVERHEAD_FACTOR = 1.5

#: Profiler-on warm serving may exceed profiler-off by at most this
#: factor (the live ops plane's always-on sampling contract).
PROFILER_OVERHEAD_FACTOR = 1.5

#: Sampling rate for the profiler-overhead measurement — 2x the
#: production default, so the gate covers an aggressive config.
_PROFILE_HZ = 200.0

#: The profiled serving loop runs until the sampler took this many.
PROFILER_MIN_SAMPLES = 100

#: Each side of a serving comparison (traced vs untraced, profiler
#: on vs off) times at least this many warm requests, in alternating
#: blocks of ``_BLOCK_REQUESTS``.
_SERVING_REQUESTS_MIN = 100
_BLOCK_REQUESTS = 25

_LAUNCHES = 32
_REPEATS = 7


def _capture_chain_s(machine, tracer, *, template_cache, build_memo) -> float:
    """The bench_graph replay chain with a tracer threaded through.

    Same workload as ``bench_graph._capture_chain_s`` (score=True): a
    pure RAW gemm chain captured, built, and critical-path scored —
    the per-launch submit-path cost the launch-overhead budget covers —
    except the builder carries ``tracer``.
    """
    start = time.perf_counter()
    gb = GraphBuilder(
        machine,
        template_cache=template_cache,
        build_memo=build_memo,
        tracer=tracer,
    )
    shape = dict(m=_CHAIN_M, n=_CHAIN_M, k=_CHAIN_K)
    current = gb.tensor("T0", (_CHAIN_M, _CHAIN_K))
    weight = gb.tensor("W", (_CHAIN_K, _CHAIN_M))
    for index in range(_LAUNCHES):
        nxt = gb.tensor(f"T{index + 1}", (_CHAIN_M, _CHAIN_M))
        gb.launch(
            "gemm",
            shape,
            reads=dict(A=current, B=weight),
            writes=dict(C=nxt),
        )
        current = nxt
    graph = gb.build()
    graph.critical_path()
    elapsed = time.perf_counter() - start
    assert len(graph.edges) == _LAUNCHES - 1
    return elapsed


def _replay_per_launch_us(machine, tracer) -> float:
    """Best-of-N per-launch cost on the template-replay hit path."""
    memo = {}
    cache = GraphTemplateCache()
    # Seed the memo and the template (the misses), then time hits only.
    _capture_chain_s(machine, tracer, template_cache=cache, build_memo=memo)
    best = min(
        _capture_chain_s(
            machine, tracer, template_cache=cache, build_memo=memo
        )
        for _ in range(_REPEATS)
    )
    return best / _LAUNCHES * 1e6


def _registry():
    registry = KernelRegistry()
    registry.register(
        "gemm",
        build_gemm,
        ("m", "n", "k"),
        policy=BucketPolicy(
            ladders={"m": (_CHAIN_M,), "n": (_CHAIN_M,), "k": (_CHAIN_K,)}
        ),
        defaults=dict(tile_m=128, tile_n=256, tile_k=64),
    )
    return registry


def test_trace_overhead(machine):
    disabled_us = _replay_per_launch_us(machine, NULL_TRACER)
    tracer = Tracer(capacity=16384)
    enabled_us = _replay_per_launch_us(machine, tracer)
    assert tracer.span_count > 0  # the enabled run really recorded

    factor = enabled_us / disabled_us if disabled_us else float("inf")
    print(
        f"\nreplay per launch: disabled {disabled_us:.1f} us, "
        f"enabled {enabled_us:.1f} us ({factor:.2f}x)"
    )

    assert disabled_us <= LAUNCH_OVERHEAD_BUDGET_US, (
        f"tracing-disabled per-launch overhead {disabled_us:.1f} us "
        f"exceeds the {LAUNCH_OVERHEAD_BUDGET_US} us launch budget — "
        "the no-op tracer is not free"
    )
    assert enabled_us <= TRACE_OVERHEAD_FACTOR * disabled_us, (
        f"tracing-enabled per-launch overhead {enabled_us:.1f} us "
        f"exceeds {TRACE_OVERHEAD_FACTOR}x the disabled path "
        f"({disabled_us:.1f} us)"
    )

    payload = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "launch_overhead_budget_us": LAUNCH_OVERHEAD_BUDGET_US,
        "trace_overhead_factor": TRACE_OVERHEAD_FACTOR,
        "chain_launches": _LAUNCHES,
        "replay_per_launch_us": {
            "disabled": disabled_us,
            "enabled": enabled_us,
            "factor": factor,
        },
        "enabled_spans_recorded": tracer.span_count,
    }
    _merge_results(payload)


def _merge_results(payload):
    """Read-modify-write ``BENCH_trace.json`` so the trace and profiler
    tests can each land their section regardless of run order."""
    merged = {}
    if _RESULTS_PATH.exists():
        try:
            merged = json.loads(_RESULTS_PATH.read_text())
        except ValueError:
            merged = {}
    merged.update(payload)
    _RESULTS_PATH.write_text(json.dumps(merged, indent=2) + "\n")


def _timed_requests_us(server, count: int) -> list:
    """Wall times, in us, of ``count`` warm ``submit(...).result()``."""
    shape = dict(m=_CHAIN_M, n=_CHAIN_M, k=_CHAIN_K)
    times = []
    for _ in range(count):
        start = time.perf_counter()
        server.submit("gemm", shape).result(timeout=600)
        times.append((time.perf_counter() - start) * 1e6)
    return times


def _p50(values) -> float:
    return sorted(values)[len(values) // 2]


def test_trace_serving_overhead(machine):
    # Warm serving on live one-worker servers: the path the serving
    # tracer instruments. Untraced and traced blocks alternate so
    # drift in the host's speed hits both sides.
    off, on = [], []
    with (
        RuntimeServer(machine, _registry(), workers=1) as untraced,
        RuntimeServer(machine, _registry(), workers=1, trace=True) as traced,
    ):
        for server in (untraced, traced):
            _timed_requests_us(server, 1)  # warm the bucket
        while min(len(off), len(on)) < _SERVING_REQUESTS_MIN:
            off += _timed_requests_us(untraced, _BLOCK_REQUESTS)
            on += _timed_requests_us(traced, _BLOCK_REQUESTS)
        spans = traced.tracer.span_count
    assert spans > 0  # the traced server really recorded

    off_us, on_us = _p50(off), _p50(on)
    factor = on_us / off_us if off_us else float("inf")
    print(
        f"\nwarm submit p50: untraced {off_us:.0f} us "
        f"({len(off)} requests), traced {on_us:.0f} us "
        f"({len(on)} requests, {spans} spans), {factor:.2f}x"
    )
    assert on_us <= TRACE_OVERHEAD_FACTOR * off_us, (
        f"traced warm submit p50 {on_us:.0f} us exceeds "
        f"{TRACE_OVERHEAD_FACTOR}x the untraced path ({off_us:.0f} us)"
    )
    _merge_results(
        {
            "serving": {
                "overhead_factor_budget": TRACE_OVERHEAD_FACTOR,
                "warm_submit_p50_us": {
                    "untraced": off_us,
                    "traced": on_us,
                    "factor": factor,
                },
                "requests": {"untraced": len(off), "traced": len(on)},
                "spans_recorded": spans,
            }
        }
    )


def test_profiler_overhead(machine):
    from repro.obs.profiler import ContinuousProfiler, ProfilerConfig

    # Warm serving on a live one-worker server: the path the always-on
    # sampler shares the interpreter with in production. Off and on
    # blocks alternate so drift in the host's speed hits both sides.
    off, on, samples = [], [], 0
    with RuntimeServer(machine, _registry(), workers=1) as server:
        _timed_requests_us(server, 1)  # warm the bucket
        while (
            min(len(off), len(on)) < _SERVING_REQUESTS_MIN
            or samples < PROFILER_MIN_SAMPLES
        ):
            off += _timed_requests_us(server, _BLOCK_REQUESTS)
            profiler = ContinuousProfiler(
                server, ProfilerConfig(hz=_PROFILE_HZ)
            )
            profiler.start()
            try:
                on += _timed_requests_us(server, _BLOCK_REQUESTS)
            finally:
                profiler.stop()
            report = profiler.report()
            assert report["crashes"] == 0
            samples += report["samples"]
    assert samples >= PROFILER_MIN_SAMPLES

    off_us, on_us = _p50(off), _p50(on)
    factor = on_us / off_us if off_us else float("inf")
    print(
        f"\nwarm submit p50: profiler off {off_us:.0f} us "
        f"({len(off)} requests), on ({_PROFILE_HZ:.0f} Hz) {on_us:.0f} us "
        f"({len(on)} requests, {samples} samples), "
        f"{factor:.2f}x"
    )
    assert on_us <= PROFILER_OVERHEAD_FACTOR * off_us, (
        f"profiler-on warm submit p50 {on_us:.0f} us exceeds "
        f"{PROFILER_OVERHEAD_FACTOR}x the profiler-off path "
        f"({off_us:.0f} us)"
    )
    _merge_results(
        {
            "profiler": {
                "hz": _PROFILE_HZ,
                "overhead_factor_budget": PROFILER_OVERHEAD_FACTOR,
                "min_samples": PROFILER_MIN_SAMPLES,
                "warm_submit_p50_us": {
                    "off": off_us,
                    "on": on_us,
                    "factor": factor,
                },
                "requests": {"off": len(off), "on": len(on)},
                "samples": samples,
            }
        }
    )


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
