"""The repository's serving benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced timed
window. ``--trace 1`` splits the time between an untraced window and a
second, traced window on a fresh set-up, and prints the per-layer
breakdown.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

from layers import NullLog
from stats import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

#: Seeds from here up were never used while tuning the benchmark; a
#: later claim is re-checked on one of them.
HOLDOUT_SEED_BASE = 1_000_000

#: Server-tracer ring size for the traced window (the default 65536
#: would drop spans of a ten-second graph window).
TRACE_CAPACITY = 1 << 18

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "ops/s",
    "success_rate": "ratio",
    "device_us_per_op": "us",
    "useful_tflops": "TFLOP/s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    index: int
    t0: float
    t1: float
    ok: bool
    value: Any


@dataclass
class Window:
    records: List[OpRecord]
    elapsed_s: float
    next_index: int

    @property
    def ok(self) -> List[OpRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failed(self) -> int:
        return len(self.records) - len(self.ok)


def run_window(workload, server, seconds, log, *, start=0, min_ops=0,
               max_ops=None):
    """Closed loop: each client sends its next op when the last resolves.

    Runs for ``seconds`` and at least until the ops ``[start,
    start + min_ops)`` are done, never past trace index ``max_ops``;
    clients share one trace cursor.
    """
    if max_ops is None:
        max_ops = workload.timed_ops
    lock = threading.Lock()
    cursor = [start]
    records: List[OpRecord] = []
    deadline = time.perf_counter() + seconds

    def client():
        while True:
            with lock:
                index = cursor[0]
                if index >= max_ops or (
                    index >= start + min_ops and time.perf_counter() >= deadline
                ):
                    return
                cursor[0] += 1
            t0 = time.perf_counter()
            try:
                with log.op(index):
                    value = workload.op(server, index, log)
                ok = True
            except Exception as error:  # a failed op is counted, not fatal
                value, ok = repr(error), False
            records.append(OpRecord(index, t0, time.perf_counter(), ok, value))

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(workload.clients)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(records, time.perf_counter() - began, cursor[0])


def warm_up(workload, server, which: int) -> None:
    """Untimed traffic from the trace's reserved tail (``which`` 0 or 1)."""
    start = workload.timed_ops + which * workload.warmup_ops
    window = run_window(workload, server, 0.0, NullLog(), start=start,
                        min_ops=workload.warmup_ops,
                        max_ops=start + workload.warmup_ops)
    if window.failed:
        raise RuntimeError(f"{window.failed} warm-up ops failed")


def timed_setups(workload, count: int, keep: bool):
    """Set up ``count`` times; return the last server if ``keep``, else
    close it too. The run takes half its samples before the timed window
    and half after it, so ``setup_s`` spans the run's time rather than
    one moment of a host whose speed drifts."""
    times, server = [], None
    for _ in range(count):
        if server is not None:
            server.close()
        workload.reset()
        t0 = time.perf_counter()
        server = workload.setup()
        times.append(time.perf_counter() - t0)
    if not keep:
        server.close()
        server = None
    return server, times


def latency_metrics(window: Window) -> Dict[str, float]:
    latencies = [r.t1 - r.t0 for r in window.ok]
    return {
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "throughput_rps": len(latencies) / window.elapsed_s,
    }


def device_metrics(window: Window, workload):
    """Modeled device time over the trace's first ``det_ops`` entries.

    Each entry is priced at the device time the window observed for its
    key, so the figures depend only on the code and the seed. Returns the
    metrics and a list of problems: an entry whose key the window never
    served, or one key simulated to two different times.
    """
    problems = []
    seen: Dict[Any, set] = {}
    for record in window.ok:
        seen.setdefault(record.value.key, set()).add(record.value.device_s)
    unsteady = sorted(str(k) for k, v in seen.items() if len(v) > 1)
    if unsteady:
        problems.append(f"same key, different device time: {unsteady}")
    device = flops = 0.0
    priced = 0
    for index in range(workload.det_ops):
        times = seen.get(workload.key(index))
        if times:
            device += min(times)
            flops += workload.flops(index)
            priced += 1
    if priced != workload.det_ops:
        problems.append(
            f"{workload.det_ops - priced} of the first {workload.det_ops} "
            "trace entries were never served"
        )
    return {
        "device_us_per_op": 1e6 * device / max(priced, 1),
        "useful_tflops": flops / device / 1e12 if device else 0.0,
    }, problems


def source_digest() -> str:
    """Content hash of the program and the benchmark (a checkout made
    from an export need not be a git repository)."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    ) + [ROOT / "benchmarks" / "trafficgen.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def determinism_ledger(key: str, values: List[float]) -> List[str]:
    """Compare this run's deterministic metrics with earlier runs of the
    same code and seed, kept in ``.perfbench_out/determinism.json``."""
    path = OUT / "determinism.json"
    try:
        ledger = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        ledger = {}
    earlier = ledger.setdefault(key, values)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(tmp, path)
    if earlier != values:
        return [f"device metrics {values} differ from an earlier run {earlier}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, benchmarks = ROOT / "src", ROOT / "benchmarks"
    if not (src / "repro" / "api.py").is_file() or not (
        benchmarks / "trafficgen.py"
    ).is_file():
        print(f"perfbench: program sources not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(benchmarks)]

    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        result, record = run(workloads, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["isolation"]["disk_dir_removed"] = not tmp.exists()
    if not tmp.exists() and not any(TMP.iterdir()):
        TMP.rmdir()
    if not record["isolation"]["disk_dir_removed"]:
        record["problems"].append("temporary disk directory left behind")
        result["correct"] = False
    (OUT / f"{args.workload}.record.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    summary = {k: v for k, v in record.items()
               if k not in ("per_layer", "setup_s_samples")}
    print(json.dumps({"record": summary}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


def run_all(names: List[str], args) -> int:
    """Run every workload in its own process; merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def run(workloads, args, tmp):
    from repro.compiler.cache import compile_cache

    import traffic

    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_role": "held-out" if args.seed >= HOLDOUT_SEED_BASE else "tuning",
        "trace_digest": traffic.digest(workload.trace),
        "environment": environment(),
        "problems": [],
    }
    workload.prime()
    server, setup_times = timed_setups(
        workload, workload.setups - workload.setups // 2, keep=True
    )
    warm_up(workload, server, 0)
    seconds = args.seconds / 2 if args.trace else args.seconds
    # p90 needs 100 samples to have 10 beyond it.
    window = run_window(workload, server, seconds, NullLog(),
                        min_ops=max(workload.min_ops, 100))
    check_failures = workload.check(server)
    server.close()
    setup_times += timed_setups(workload, workload.setups // 2, keep=False)[1]

    e2e = {"setup_s": statistics.median(setup_times)}
    e2e.update(latency_metrics(window))
    device, problems = device_metrics(window, workload)
    e2e.update(device)
    problems += determinism_ledger(
        f"{workload.name}:{args.seed}:{record['environment']['source_digest']}",
        [e2e["device_us_per_op"], e2e["useful_tflops"]],
    )
    windows = [window]
    checks_attempted = workload.check_ops

    per_layer = None
    if args.trace:
        per_layer, traced, traced_failures, missing = traced_run(
            workload, seconds, window, e2e["latency_p50_ms"]
        )
        # An entry point a later refactor renamed is reported, not fatal.
        record["wrappers_missing"] = missing
        windows.append(traced)
        check_failures += traced_failures
        checks_attempted += workload.check_ops

    attempted = sum(len(w.records) for w in windows) + checks_attempted
    failed = sum(w.failed for w in windows) + len(check_failures)
    e2e["success_rate"] = (attempted - failed) / attempted
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    problems += check_failures
    record["problems"] = problems
    record["ops"] = {
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "error_rate": failed / attempted,
        "windows": [
            {"ops": len(w.records), "failed": w.failed,
             "seconds": w.elapsed_s} for w in windows
        ],
        "output_checks": checks_attempted,
        "output_check_failures": check_failures,
    }
    record["setup_s_samples"] = setup_times
    record["end_to_end"] = e2e
    record["isolation"] = {
        "process": "own: one workload per invocation",
        "compile_cache_cleared_before_each_setup": True,
        "disk_dir": "fresh under .perfbench_tmp, removed afterwards",
        "disk_tier_detached": compile_cache.second_tier is None,
    }
    if not record["isolation"]["disk_tier_detached"]:
        problems.append("a disk tier is still attached to the compile cache")
    if per_layer is not None:
        record["per_layer"] = per_layer
        metrics = {name: {"value": value, "unit": units}
                   for name, (value, units) in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, entry in metrics.items():
        print(f"{workload.name:12s} {name:32s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def traced_run(workload, seconds, untraced: Window, untraced_p50_ms):
    """A second, traced set-up and window; returns the per-layer metrics.

    The traced window continues the trace where the untraced one
    stopped, so the cold workload still meets only fresh buckets.
    """
    from repro.compiler.cache import CacheStats
    from repro.obs.trace import Tracer

    from layers import PER_LAYER_UNITS, SETUP, SpanLog, layer_metrics

    log = SpanLog()
    workload.reset()
    with log.installed():
        with log.op(SETUP):
            server = workload.setup(trace=Tracer(capacity=TRACE_CAPACITY))
        warm_up(workload, server, 1)
        tier = server.disk_tier
        bytes_before = tier.total_bytes() if tier is not None else 0
        before = _cache_counts()
        window = run_window(workload, server, seconds, log,
                            start=untraced.next_index)
        after = _cache_counts()
        bytes_stored = (tier.total_bytes() if tier is not None else 0) - bytes_before
    server_spans = server.tracer.spans()
    failures = workload.check(server)
    server.close()

    delta = CacheStats(*(a - b for a, b in zip(after, before)))
    traced_p50 = 1e3 * percentile([r.t1 - r.t0 for r in window.ok], 0.5)
    metrics = layer_metrics(
        log.spans, server_spans, window.ok,
        cache_delta=delta,
        bytes_stored=bytes_stored,
        overhead_pct=100.0 * (traced_p50 / untraced_p50_ms - 1.0),
    )
    OUT.joinpath(f"{workload.name}.spans.json").write_text(json.dumps({
        "benchmark": [span.as_list() for span in log.spans],
        "server": [[s.sid, s.name, s.parent, s.tid, s.start_s, s.end_s, s.args]
                   for s in server_spans],
        "wrappers_missing": log.missing,
    }, default=str))
    per_layer = {name: (metrics[name], unit)
                 for name, unit in PER_LAYER_UNITS.items()}
    return per_layer, window, failures, log.missing


def _cache_counts():
    from repro import api

    stats = api.compile_cache_stats()
    return stats.hits, stats.misses, stats.second_tier_hits


if __name__ == "__main__":
    sys.exit(main())
