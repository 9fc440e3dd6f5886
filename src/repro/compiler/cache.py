"""Content-keyed compile cache with a pluggable persistent tier.

A kernel compilation is a pure function of (mapping spec, argument
shapes/dtypes, machine, compile options): the logical program is reached
*through* the spec's registry, and mapping decisions plus machine
parameters determine every pass's output. The cache keys on a SHA-256
fingerprint of exactly those inputs, so recompiling an identical
instantiation — the common case in autotuning sweeps and repeated
benchmark runs — returns the previous :class:`CompiledKernel` without
executing a single pass.

The cache is a bounded LRU and is thread-safe: ``api.compile_many``
hits it concurrently from a thread pool. Capacity defaults to the
``REPRO_COMPILE_CACHE_SIZE`` environment variable (falling back to 256)
and can be changed at runtime with :meth:`CompileCache.resize`.

Below the in-memory LRU sits an optional **second tier**: any object
with ``load(key) -> kernel | None`` and ``store(key, kernel)`` (see
:class:`SecondTier`). The runtime attaches a persistent on-disk tier
(:class:`repro.runtime.diskcache.DiskCacheTier`) so a restarted server
warms from disk instead of recompiling; ``get_or_compute`` consults it
on a memory miss, writes freshly compiled kernels through to it, and
names the tier that answered (:data:`TIER_MEMORY`, :data:`TIER_DISK`
or :data:`TIER_COMPILE`).

Cached kernels are shared objects; treat them as immutable.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.frontend.mapping import MappingSpec, canonicalize
from repro.obs.metrics import stat
from repro.tensors.dtype import DType

#: Environment variable overriding the default in-memory capacity.
CACHE_SIZE_ENV = "REPRO_COMPILE_CACHE_SIZE"

#: Capacity used when the environment variable is unset.
DEFAULT_CAPACITY = 256

#: The tier that answered a :meth:`CompileCache.get_or_compute` lookup.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_COMPILE = "compile"
TIERS = (TIER_MEMORY, TIER_DISK, TIER_COMPILE)


class SecondTier:
    """Structural interface of a second cache tier (duck-typed).

    Implementations must be thread-safe; ``load`` returns ``None`` on a
    miss (including unreadable/corrupt entries — a second tier must
    degrade to a recompile, never raise into the compile path).
    """

    def load(self, key: str) -> Optional[Any]:  # pragma: no cover
        raise NotImplementedError

    def store(self, key: str, kernel: Any) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass(repr=False)
class CacheStats:
    """Counters since the last ``clear`` plus the current capacity.

    ``hits`` are in-memory hits; ``second_tier_hits`` count lookups
    answered by the attached persistent tier (disk); ``misses`` ran the
    full pass pipeline. ``evictions`` counts LRU entries dropped because
    the cache was over capacity (from ``put`` or ``resize``). Every
    field is documented for dashboard consumers in ``docs/serving.md``
    and declares its ``/metrics`` family.
    """

    hits: int = stat(None, "repro_compile_cache_hits_total",
                     "In-memory compile-cache hits.", 0)
    misses: int = stat(None, "repro_compile_cache_misses_total",
                       "Compile-cache misses (ran the full pass pipeline).",
                       0)
    second_tier_hits: int = stat(
        None, "repro_compile_cache_second_tier_hits_total",
        "Compile-cache lookups answered by the persistent tier.", 0)
    evictions: int = stat(None, "repro_compile_cache_evictions_total",
                          "Compile-cache LRU evictions.", 0)
    capacity: int = stat(None, "repro_compile_cache_capacity",
                         "Compile-cache entry capacity.", 0, kind="gauge")

    @property
    def lookups(self) -> int:
        """Total lookups: hits + misses + second-tier hits."""
        return self.hits + self.misses + self.second_tier_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without compiling (0.0–1.0)."""
        served = self.hits + self.second_tier_hits
        return served / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        from repro.util import fmt_percent

        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"second_tier_hits={self.second_tier_hits}, "
            f"evictions={self.evictions}, capacity={self.capacity}, "
            f"hit_rate={fmt_percent(self.hit_rate)})"
        )


def _capacity_from_env() -> int:
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"{CACHE_SIZE_ENV}={raw!r} is not an integer"
        ) from None
    if capacity < 1:
        raise ValueError(f"{CACHE_SIZE_ENV} must be >= 1, got {capacity}")
    return capacity


def compile_key(
    spec: MappingSpec,
    name: str,
    arg_shapes: Sequence[Tuple[int, ...]],
    arg_dtypes: Sequence[DType],
    total_flops: float,
    unique_dram_bytes: float,
    options: Any,
) -> str:
    """The content fingerprint of one kernel instantiation.

    ``spec.fingerprint()`` covers every mapping decision and the machine
    description; the remainder covers the concrete instantiation and the
    options that influence compiler output (``use_tma``, scalar
    arguments, the pass list). The verification policy is included even
    though it never changes what is built: a caller asking for
    verify-every-pass must not be handed a kernel that was cached
    unverified (and the cached ``pass_trace`` records which policy
    actually ran). Only the ``cache`` flag itself is excluded.
    """
    payload = repr(
        (
            spec.fingerprint(),
            name,
            tuple(tuple(shape) for shape in arg_shapes),
            tuple(dtype.name for dtype in arg_dtypes),
            float(total_flops),
            float(unique_dram_bytes),
            options.use_tma,
            canonicalize(options.scalar_args or {}),
            options.passes,
            options.verify.value,
        )
    ).encode()
    return hashlib.sha256(payload).hexdigest()


class CompileCache:
    """A bounded, thread-safe LRU of :class:`CompiledKernel` objects.

    ``capacity=None`` (the default) reads ``REPRO_COMPILE_CACHE_SIZE``
    from the environment, falling back to 256.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = _capacity_from_env()
        if capacity < 1:
            raise ValueError("compile cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats(capacity=capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._in_flight: dict = {}
        self._second_tier: Optional[SecondTier] = None

    # ------------------------------------------------------------------
    # Second tier
    # ------------------------------------------------------------------
    @property
    def second_tier(self) -> Optional[SecondTier]:
        return self._second_tier

    def attach_second_tier(self, tier: SecondTier) -> Optional[SecondTier]:
        """Install ``tier`` below the in-memory LRU; returns the old one."""
        with self._lock:
            previous, self._second_tier = self._second_tier, tier
            return previous

    def detach_second_tier(self) -> Optional[SecondTier]:
        """Remove and return the attached second tier, if any."""
        with self._lock:
            tier, self._second_tier = self._second_tier, None
            return tier

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """In-memory lookup only (the second tier is consulted solely by
        :meth:`get_or_compute`, which can populate memory on a tier hit)."""
        with self._lock:
            kernel = self._hit_locked(key)
            if kernel is None:
                self.stats.misses += 1
            return kernel

    def _hit_locked(self, key: str) -> Optional[Any]:
        kernel = self._entries.get(key)
        if kernel is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return kernel

    def put(self, key: str, kernel: Any) -> None:
        with self._lock:
            self._put_locked(key, kernel)

    def _put_locked(self, key: str, kernel: Any) -> None:
        self._entries[key] = kernel
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def resize(self, capacity: int) -> None:
        """Change the in-memory capacity, evicting LRU overflow."""
        if capacity < 1:
            raise ValueError("compile cache capacity must be >= 1")
        with self._lock:
            self.capacity = capacity
            self.stats.capacity = capacity
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: str, compute) -> Tuple[Any, str]:
        """Return ``(kernel, tier)`` for ``key``, computing the kernel at
        most once across threads; ``tier`` names who answered.

        Lookup order: in-memory LRU (:data:`TIER_MEMORY`), then the
        attached second tier (:data:`TIER_DISK`; the hit is promoted into
        memory), then ``compute`` (:data:`TIER_COMPILE`; the kernel is
        written through to the second tier). Concurrent callers with the
        same key (a batch compilation with duplicate builds, overlapping
        tuning sweeps) serialize on a per-key lock: one runs ``compute``
        and reports ``TIER_COMPILE``, the rest wait and take the result
        as a memory hit instead of re-running the pass pipeline.
        """
        with self._lock:
            kernel = self._hit_locked(key)
            if kernel is not None:
                return kernel, TIER_MEMORY
            key_lock = self._in_flight.setdefault(key, threading.Lock())
        with key_lock:
            try:
                with self._lock:
                    kernel = self._hit_locked(key)
                    if kernel is not None:
                        return kernel, TIER_MEMORY
                    second = self._second_tier
                if second is not None:
                    kernel = second.load(key)
                    if kernel is not None:
                        with self._lock:
                            self.stats.second_tier_hits += 1
                            self._put_locked(key, kernel)
                        return kernel, TIER_DISK
                with self._lock:
                    self.stats.misses += 1
                kernel = compute()
                self.put(key, kernel)
                if second is not None:
                    second.store(key, kernel)
                return kernel, TIER_COMPILE
            finally:
                with self._lock:
                    self._in_flight.pop(key, None)

    def clear(self) -> None:
        """Drop in-memory entries and counters (the second tier keeps
        its contents — persistent state survives a cache reset)."""
        with self._lock:
            self._entries.clear()
            self._in_flight.clear()
            self.stats = CacheStats(capacity=self.capacity)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


@dataclass
class ScoreStats:
    """Counters of the cost-model verdict memo.

    ``hits`` returned a memoized :class:`~repro.tuner.costmodel.
    CostEstimate`; ``misses`` ran the analytic model.
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class ScoreCache:
    """Memoized cost-model verdicts, kept alongside the compile cache.

    The analytic cost model (:mod:`repro.tuner.costmodel`) is orders of
    magnitude cheaper than a compile, but tuning sweeps and
    ``RuntimeServer.warm`` re-score identical candidates constantly —
    the same (kernel, params, machine) triple shows up in every repeated
    sweep. Verdicts are pure functions of that triple, so they are
    memoized here under the same module as the compile cache: one place
    owns everything derived from a kernel instantiation's content.

    Keys are hashable tuples produced by ``AnalyticCostModel.score_key``
    (deliberately cheaper than the SHA-256 compile key: scoring costs
    microseconds, so hashing must too). The memo is a bounded LRU and is
    thread-safe.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("score cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = ScoreStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get_or_score(self, key: Any, score) -> Any:
        """Return the memoized verdict for ``key``, computing via
        ``score()`` on a miss.

        Args:
            key: a hashable content key for the scored candidate.
            score: zero-argument callable producing the verdict.

        Returns:
            The memoized (or freshly computed) verdict object.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = score()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every memoized verdict and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats = ScoreStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache consulted by ``compile_program``.
compile_cache = CompileCache()

#: The process-wide cost-model verdict memo consulted by the tuner.
score_cache = ScoreCache()
