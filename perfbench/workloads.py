"""The three workloads: traffic, set-up, one op, output checks.

An *op* is one request on ``warm_zipf`` and ``cold_churn`` and one
whole transformer-block graph on ``block_graph``. Every workload serves
through the public surface (``api.serve``, ``submit``,
``submit_graph``) with the default server configuration: two workers,
no speculator, no specializer, no diagnostics plane.
"""

import gc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, List, Optional

from repro import api
from repro.kernels.transformer_block import transformer_block_graph
from repro.machine import hopper_machine
from repro.runtime.registry import default_registry

import checks
import traffic

#: How long one op may take before the run counts it as failed.
OP_TIMEOUT_S = 60.0


@dataclass
class OpValue:
    """What one completed op reports back."""

    key: Hashable
    device_s: float
    makespan_s: Optional[float] = None


class Workload:
    """Shared shape of a workload; subclasses fill in the traffic.

    Trace entries with the same :meth:`key` always run the same kernels,
    so their modeled device time is fixed; the deterministic device
    metrics average over the first :attr:`det_ops` entries of the trace,
    each priced at the device time observed for its key.
    """

    name = ""
    clients = 1
    #: Set-ups timed per run, half before and half after the untraced
    #: window; ``setup_s`` is their median.
    setups = 5
    #: Ops at the head of the trace the untraced window must complete
    #: whatever ``--seconds`` says.
    min_ops = 0
    #: Untimed ops before each timed window (the interpreter and the
    #: allocator settle); they come from the tail of the trace.
    warmup_ops = 32
    #: Ops the output check sends.
    check_ops = len(checks.SMALLEST)

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.machine = hopper_machine()
        self.registry = default_registry()
        self.trace: List[Any] = []

    @property
    def timed_ops(self) -> int:
        """Trace entries the timed windows may use; the last
        ``2 * warmup_ops`` feed the two warm-ups."""
        return len(self.trace) - 2 * self.warmup_ops

    @property
    def det_ops(self) -> int:
        return self.timed_ops

    def key(self, index: int) -> Hashable:
        """Identity of trace entry ``index`` for device-time lookup."""
        return index

    def flops(self, index: int) -> float:
        """Useful FLOPs of trace entry ``index`` at its requested shape."""
        kernel, shape = self.trace[index]
        return self.registry.get(kernel).flops(shape)

    def prime(self) -> None:
        """Untimed work before the first timed set-up."""

    def reset(self) -> None:
        """Untimed state reset before each set-up: an empty memory cache
        and none of the previous set-up's garbage left to collect, as in
        a freshly started process."""
        api.clear_compile_cache()
        gc.collect()

    def setup(self, trace=False):
        """Start a server ready for the timed window (timed by the caller)."""
        raise NotImplementedError

    def op(self, server, index: int, log) -> OpValue:
        kernel, shape = self.trace[index]
        with log.span("server.submit"):
            future = server.submit(kernel, shape)
        result = future.result(OP_TIMEOUT_S)
        return OpValue(self.key(index), result.gpu.seconds)

    def check(self, server) -> List[str]:
        return checks.check_kernels(server, self.seed, OP_TIMEOUT_S)


class WarmZipf(Workload):
    """Every timed request is a memory-tier hit after a disk restart."""

    name = "warm_zipf"
    clients = 2
    setups = 40
    warmup_ops = 256

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.trace = traffic.warm_trace(seed)
        self.keys = [(k, tuple(sorted(s.items()))) for k, s in self.trace]
        self.buckets = sorted(set(self.keys))
        self.disk = tmp / "disk"

    def key(self, index):
        return self.keys[index]

    def prime(self) -> None:
        with api.serve(self.machine, disk_cache=str(self.disk)) as server:
            self._warm(server)

    def _warm(self, server) -> None:
        for kernel, shape in self.buckets:
            server.warm(kernel, [dict(shape)])

    def setup(self, trace=False):
        server = api.serve(self.machine, disk_cache=str(self.disk), trace=trace)
        self._warm(server)
        return server


class ColdChurn(Workload):
    """Every request rounds to a bucket this process never compiled."""

    name = "cold_churn"
    setups = 101
    min_ops = 256
    warmup_ops = 24

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.trace = traffic.cold_trace(seed, self.min_ops)
        self._dirs = 0

    @property
    def det_ops(self) -> int:
        return self.min_ops

    def reset(self) -> None:
        # A fresh, empty directory per set-up; creating it is file-system
        # latency, not server set-up, so it happens before the timer.
        super().reset()
        self._dirs += 1
        self.disk = self.tmp / f"disk-{self._dirs}"
        self.disk.mkdir()

    def setup(self, trace=False):
        return api.serve(self.machine, disk_cache=str(self.disk), trace=trace)


class BlockGraph(Workload):
    """Each op captures a two-stream transformer block and runs it."""

    name = "block_graph"
    setups = 6
    check_ops = 1

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.trace = traffic.block_trace(seed)
        self.graphs = {
            seq: self._capture(seq) for seq in sorted(set(self.trace))
        }
        self.block_flops = {
            seq: sum(self.registry.get(node.kernel).flops(node.shape)
                     for node in graph.nodes)
            for seq, graph in self.graphs.items()
        }

    def _capture(self, seq: int):
        return transformer_block_graph(self.machine, seq=seq, streams=2)

    def key(self, index):
        return self.trace[index]

    def flops(self, index):
        return self.block_flops[self.trace[index]]

    def setup(self, trace=False):
        server = api.serve(self.machine, trace=trace)
        for graph in self.graphs.values():
            result = server.submit_graph(graph).result(OP_TIMEOUT_S)
            if not result.complete:
                raise RuntimeError(f"set-up graph failed: {result.failed}")
        return server

    def op(self, server, index, log):
        seq = self.trace[index]
        with log.span("graph.capture"):
            graph = self._capture(seq)
        with log.span("server.submit"):
            execution = server.submit_graph(graph)
        result = execution.result(OP_TIMEOUT_S)
        if not result.complete:
            raise RuntimeError(f"graph nodes failed: {sorted(result.failed)}")
        device = sum(result.results[uid].gpu.seconds
                     for uid in sorted(result.results))
        return OpValue(seq, device, result.makespan_s)

    def check(self, server) -> List[str]:
        return checks.check_block(server, self.machine, self.seed, OP_TIMEOUT_S)


WORKLOADS = {cls.name: cls for cls in (WarmZipf, ColdChurn, BlockGraph)}
