"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public entry points (nothing under
``src/`` is edited) and records one span per call: name, start, end,
parent, the op it served and the recording thread. Spans stay in
memory until the run ends. Queue and dispatch timing comes from the
server's own tracer (``api.serve(trace=...)``), read back through
``server.tracer.spans()``.

Worker threads do not know which op they serve. Their spans are tied to
an op after the run: a server root span belongs to the op whose
client-side ``server.submit`` span (same thread) contains its start, and
a worker-side span belongs to the op of the latest server ``compile``
span on its thread, i.e. the head of the micro-batch it ran for.
"""

import bisect
import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Sequence

from stats import clip, self_time, union_length

#: (module, class or None, attribute, span name) for every wrapped entry point.
ENTRY_POINTS = (
    ("repro.runtime.registry", "RegisteredKernel", "build", "registry.build"),
    ("repro.frontend.mapping", "MappingSpec", "fingerprint", "mapping.fingerprint"),
    ("repro.runtime.server", None, "compile_key_for", "cache.key"),
    ("repro.api", None, "compile_kernel", "cache.compile_kernel"),
    ("repro.compiler.dependence", "DependenceAnalysis", "run", "compiler.dependence"),
    ("repro.runtime.diskcache", "DiskCacheTier", "load", "diskcache.load"),
    ("repro.runtime.diskcache", "DiskCacheTier", "store", "diskcache.store"),
    ("repro.api", None, "simulate", "gpusim.simulate"),
    ("repro.graph.builder", "GraphBuilder", "build", "graph.build"),
)

PASSES = ("vectorize", "copy-elim", "allocate-shared", "warp-specialize",
          "lower-schedule", "codegen-cuda")

#: Server spans that contain a whole request or graph rather than one layer.
CONTAINERS = frozenset(("request", "graph", "node"))

#: Benchmark span names that make up each reported self time.
SELF_TIME_LAYERS = {
    "registry.build_us": ("registry.build",),
    "mapping.fingerprint_us": ("mapping.fingerprint",),
    "cache.key_us": ("cache.key",),
    "cache.lookup_us": ("cache.compile_kernel",),
    "gpusim.simulate_us": ("gpusim.simulate",),
    "server.submit_us": ("server.submit",),
    "graph.capture_us": ("graph.capture", "graph.build"),
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "registry.build_calls": "count",
    "registry.build_us": "us",
    "mapping.fingerprint_calls": "count",
    "mapping.fingerprint_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.misses": "count",
    "cache.second_tier_hits": "count",
    "cache.lookup_us": "us",
    "cache.key_us": "us",
    "compiler.dependence_ms": "ms",
    **{f"compiler.pass.{name}_ms": "ms" for name in PASSES},
    "compiler.ir_ops_final": "count",
    "diskcache.loads": "count",
    "diskcache.load_ms": "ms",
    "diskcache.stores": "count",
    "diskcache.store_ms": "ms",
    "diskcache.bytes_stored": "bytes",
    "gpusim.simulate_calls": "count",
    "gpusim.simulate_us": "us",
    "server.submit_us": "us",
    "server.queue_wait_us": "us",
    "server.batch_size_mean": "requests",
    "server.resolve_us": "us",
    "graph.capture_us": "us",
    "graph.makespan_ms": "ms",
    "unattributed_us": "us",
    "obs.trace_overhead_pct": "%",
}

SETUP = "setup"


class Span:
    """One recorded call."""

    __slots__ = ("sid", "name", "start", "end", "parent", "op", "tid", "args")

    def __init__(self, sid, name, start, end, parent, op, tid, args=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.tid = tid
        self.args = args

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.op, self.tid, self.args]


class NullLog:
    """The untraced stand-in: every hook is a no-op."""

    def op(self, op_id):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()


class SpanLog:
    """Collects :class:`Span` records from wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patched: list = []

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.op = None
            tls.compiled = False
        return tls

    @contextlib.contextmanager
    def op(self, op_id):
        """Attribute spans recorded on this thread to ``op_id``."""
        tls = self._local()
        previous, tls.op = tls.op, op_id
        try:
            yield
        finally:
            tls.op = previous

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own client code."""
        tls = self._local()
        sid = next(self._ids)
        parent = tls.stack[-1] if tls.stack else None
        tls.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            tls.stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, tls.op,
                                   threading.get_ident()))

    def _wrap(self, name: str, fn):
        log = self

        def wrapper(*args, **kwargs):
            tls = log._local()
            sid = next(log._ids)
            parent = tls.stack[-1] if tls.stack else None
            tls.stack.append(sid)
            if name == "cache.compile_kernel":
                tls.compiled = False
            elif name == "compiler.dependence":
                tls.compiled = True
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tls.stack.pop()
                span = Span(sid, name, start, end, parent, tls.op,
                            threading.get_ident())
                if name == "diskcache.load":
                    span.args = result is not None
                elif name == "cache.compile_kernel" and tls.compiled:
                    log._passes(span, result)
                log.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _passes(self, parent: Span, kernel) -> None:
        """Lift the compiled kernel's pass records into child spans."""
        trace = getattr(kernel, "pass_trace", None)
        if trace is None or not trace.records:
            return
        parent.args = trace.records[-1].ops_after
        for record in trace.records:
            start = record.started_at_s
            self.spans.append(Span(
                next(self._ids), f"compiler.pass.{record.name}", start,
                start + record.wall_time_s, parent.sid, parent.op, parent.tid,
            ))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))
        try:
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)


def _resolve_ops(spans: Sequence[Span], server_spans) -> Dict[int, object]:
    """Tie server spans and worker-side benchmark spans to ops.

    Returns ``{server span sid: op}`` and fills ``Span.op`` in place for
    benchmark spans recorded on worker threads.
    """
    submits = defaultdict(list)
    for span in spans:
        if span.name == "server.submit":
            submits[span.tid].append(span)
    for entries in submits.values():
        entries.sort(key=lambda s: s.start)
    starts = {tid: [s.start for s in entries] for tid, entries in submits.items()}

    server_op: Dict[int, object] = {}
    heads = defaultdict(list)
    for span in sorted(server_spans, key=lambda s: s.sid):
        if span.parent is not None:
            op = server_op.get(span.parent)
        else:
            op = None
            entries = submits.get(span.tid)
            if entries:
                at = bisect.bisect_right(starts[span.tid], span.start_s) - 1
                if at >= 0 and span.start_s <= entries[at].end:
                    op = entries[at].op
        server_op[span.sid] = op
        if span.name == "compile":
            heads[span.tid].append((span.start_s, op))
    for entries in heads.values():
        entries.sort(key=lambda item: item[0])
    head_starts = {tid: [start for start, _ in e] for tid, e in heads.items()}

    by_sid = {span.sid: span for span in spans}
    for span in sorted(spans, key=lambda s: s.sid):
        if span.op is not None:
            continue
        if span.parent is not None and span.parent in by_sid:
            span.op = by_sid[span.parent].op
            continue
        entries = heads.get(span.tid)
        if entries:
            at = bisect.bisect_right(head_starts[span.tid], span.start) - 1
            if at >= 0:
                span.op = entries[at][1]
    return server_op


def layer_metrics(
    spans: Sequence[Span],
    server_spans,
    ops: Sequence,
    *,
    cache_delta,
    bytes_stored: int,
    overhead_pct: float,
) -> Dict[str, float]:
    """Reduce one traced window to the per-layer metrics.

    ``ops`` are the window's completed op records (``index``, ``t0``,
    ``t1``, ``value``); counts and times are per op, except the disk
    loads, which happen during the traced set-up (one restart).
    """
    server_op = _resolve_ops(spans, server_spans)
    done = {op.index for op in ops}
    n = max(len(ops), 1)

    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    own = defaultdict(float)
    calls = defaultdict(int)
    setup_load_s, setup_loads = 0.0, 0
    ir_ops = []
    stores = 0
    for span in spans:
        mine = self_time((span.start, span.end), children.get(span.sid, ()))
        if span.op == SETUP:
            if span.name == "diskcache.load":
                setup_load_s += mine
                setup_loads += bool(span.args)
            continue
        if span.op not in done:
            continue
        own[span.name] += mine
        calls[span.name] += 1
        if span.name == "cache.compile_kernel" and span.args is not None:
            ir_ops.append(span.args)
        stores += span.name == "diskcache.store"

    metrics: Dict[str, float] = {
        "registry.build_calls": calls["registry.build"] / n,
        "mapping.fingerprint_calls": calls["mapping.fingerprint"] / n,
        "gpusim.simulate_calls": calls["gpusim.simulate"] / n,
        "diskcache.stores": stores / n,
        "diskcache.store_ms": 1e3 * own["diskcache.store"] / n,
        "diskcache.bytes_stored": bytes_stored / n,
        "diskcache.loads": setup_loads,
        "diskcache.load_ms": 1e3 * setup_load_s,
        "compiler.dependence_ms": 1e3 * own["compiler.dependence"] / n,
        "compiler.ir_ops_final": sum(ir_ops) / len(ir_ops) if ir_ops else 0.0,
        "cache.hit_ratio": cache_delta.hit_rate,
        "cache.misses": cache_delta.misses / n,
        "cache.second_tier_hits": cache_delta.second_tier_hits / n,
        "obs.trace_overhead_pct": overhead_pct,
    }
    for name in PASSES:
        metrics[f"compiler.pass.{name}_ms"] = (
            1e3 * own[f"compiler.pass.{name}"] / n
        )
    for metric, names in SELF_TIME_LAYERS.items():
        metrics[metric] = 1e6 * sum(own[name] for name in names) / n

    # Server-side layers and coverage of each op's latency.
    covered = defaultdict(list)
    queue_s = 0.0
    batch_sizes = []
    shared = defaultdict(list)  # head request sid -> batch-wide intervals
    compile_end = {}
    for span in server_spans:
        if span.name in ("dispatch", "batch", "compile"):
            shared[span.parent].append((span.start_s, span.end_s))
            if span.name == "compile":
                compile_end[(span.tid, span.end_s)] = span.parent
    finished = {}
    for span in server_spans:
        op = server_op.get(span.sid)
        if op not in done:
            continue
        if span.parent is None:
            finished[op] = max(finished.get(op, 0.0), span.end_s)
        if span.name in CONTAINERS:
            continue
        covered[op].append((span.start_s, span.end_s))
        if span.name == "queue":
            queue_s += span.end_s - span.start_s
        elif span.name == "dispatch":
            batch_sizes.append(span.args.get("batch_size", 1))
        elif span.name == "execute":
            # A batch member waited on its head's dispatch and compile.
            head = compile_end.get((span.tid, span.start_s))
            covered[op].extend(shared.get(head, ()))
    for span in spans:
        if span.op in done:
            covered[span.op].append((span.start, span.end))
    # Future resolution: the server has finished the op, the caller has
    # not woken yet (on CPython mostly a wait for the interpreter lock).
    resolve_s = 0.0
    for op in ops:
        if op.index in finished and finished[op.index] < op.t1:
            resolve_s += op.t1 - finished[op.index]
            covered[op.index].append((finished[op.index], op.t1))
    gaps = [
        (op.t1 - op.t0) - union_length(clip(covered[op.index], op.t0, op.t1))
        for op in ops
    ]
    metrics["server.queue_wait_us"] = 1e6 * queue_s / n
    metrics["server.batch_size_mean"] = (
        sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    )
    metrics["server.resolve_us"] = 1e6 * resolve_s / n
    metrics["unattributed_us"] = 1e6 * sum(gaps) / n
    makespans = [op.value.makespan_s for op in ops
                 if getattr(op.value, "makespan_s", None) is not None]
    metrics["graph.makespan_ms"] = (
        1e3 * sum(makespans) / len(makespans) if makespans else 0.0
    )
    return metrics

