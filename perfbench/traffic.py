"""Seeded traffic for the three workloads.

Every trace is a pure function of the seed and is built before any
server starts; the program under test only ever sees the generated
shapes. Candidate sets and their hotness ranks are fixed, so a seed
changes the order and mix of requests but not which kernels exist:
medians stay comparable across seeds while deterministic device-time
figures still differ from seed to seed.
"""

import hashlib
import itertools
import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

from trafficgen import zipfian_trace

Request = Tuple[str, Dict[str, int]]

#: Off-rung exact shapes covering all six registered families, hottest
#: first. Attention stays at seq <= 2048 so no single simulation
#: dominates a request.
WARM_CANDIDATES: Tuple[Request, ...] = (
    ("gemm", dict(m=1000, n=1000, k=1000)),
    ("flash_attention2", dict(heads=4, seq=1000, head_dim=128)),
    ("batched_gemm", dict(batch=3, m=500, n=500, k=250)),
    ("dual_gemm", dict(m=700, n=1500, k=400)),
    ("gemm_reduction", dict(m=900, n=300, k=600)),
    ("flash_attention3", dict(heads=2, seq=1500, head_dim=120)),
    ("gemm", dict(m=3000, n=2000, k=700)),
    ("batched_gemm", dict(batch=6, m=200, n=900, k=100)),
    ("flash_attention2", dict(heads=8, seq=400, head_dim=128)),
    ("dual_gemm", dict(m=250, n=250, k=250)),
    ("gemm_reduction", dict(m=1800, n=1800, k=1800)),
    ("flash_attention3", dict(heads=1, seq=2000, head_dim=128)),
)
WARM_TRACE_LENGTH = 1 << 14
ZIPF_S = 1.1

#: Sequence lengths of the transformer-block workload, hottest first
#: (384/512 share buckets, as do 640/768).
BLOCK_SEQS: Tuple[int, ...] = (512, 640, 384, 768)
BLOCK_TRACE_LENGTH = 1 << 12

#: Ladder rungs the cold workload draws buckets from.
_MN = (256, 512, 1024, 2048, 4096, 8192)
_K = (128, 256, 512, 1024, 2048, 4096)
_BATCH = (1, 2, 4, 8, 16)
_HEADS = (1, 2, 4, 8, 16, 32, 64)
_SEQ = (256, 512, 1024, 2048)

#: "Moderate sizes": at most the multiply-adds of a 4096x4096x2048 GEMM.
MAX_MACS = 4096 * 4096 * 2048

#: Streaming multiprocessors of the modeled H100 (for :func:`_device_work`).
_SMS = 132


def warm_trace(seed: int) -> List[Request]:
    """Zipf-ranked requests over :data:`WARM_CANDIDATES`."""
    picks = zipfian_trace(
        list(range(len(WARM_CANDIDATES))), WARM_TRACE_LENGTH,
        seed=seed, s=ZIPF_S,
    )
    return [WARM_CANDIDATES[index] for index in picks]


def block_trace(seed: int) -> List[int]:
    """Zipf-ranked transformer-block sequence lengths."""
    return zipfian_trace(
        list(BLOCK_SEQS), BLOCK_TRACE_LENGTH, seed=seed, s=ZIPF_S
    )


def _macs(request: Request) -> int:
    name, s = request
    if name.startswith("flash_attention"):
        return 2 * s["heads"] * s["seq"] ** 2 * s["head_dim"]
    return s.get("batch", 1) * s["m"] * s["n"] * s["k"]


def _device_work(request: Request) -> Tuple[int, int]:
    """A static estimate of a bucket's device time, for stratifying.

    Waves of output tiles (256x256 for the GEMM family, 128 query rows
    per head for attention) over the SMs, times the reduction depth the
    tile walks; ties broken by multiply-adds. It only orders the pool,
    so a different default mapping leaves the trace valid.
    """
    name, s = request
    if name.startswith("flash_attention"):
        tiles, depth = s["heads"] * s["seq"] // 128, s["seq"]
    else:
        tiles = s.get("batch", 1) * s["m"] * s["n"] // (256 * 256)
        depth = s["k"] * (2 if name == "dual_gemm" else 1)
    return -(-tiles // _SMS) * depth, _macs(request)


def cold_pool() -> List[Request]:
    """Every bucket the cold workload may touch, one per request.

    GEMM+Reduction buckets with ``n > m`` at ``m <= 512`` are left out:
    the compiler rejects them (``PrivilegeError``, aliasing writes of
    the row-sum vector), and the workload must not fail by design.
    """
    pool: List[Request] = []
    for name in ("gemm", "dual_gemm", "gemm_reduction"):
        for m, n, k in itertools.product(_MN, _MN, _K):
            if name == "gemm_reduction" and n > m and m <= 512:
                continue
            pool.append((name, dict(m=m, n=n, k=k)))
    for batch, m, n, k in itertools.product(_BATCH, _MN, _MN, _K):
        pool.append(("batched_gemm", dict(batch=batch, m=m, n=n, k=k)))
    for name in ("flash_attention2", "flash_attention3"):
        for heads, seq in itertools.product(_HEADS, _SEQ):
            pool.append((name, dict(heads=heads, seq=seq, head_dim=128)))
    return [request for request in pool if _macs(request) <= MAX_MACS]


def _off_rung(rng: np.random.Generator, rung: int) -> int:
    """An extent that still rounds up to ``rung`` (within its top quarter)."""
    return rung - int(rng.integers(0, max(rung // 4, 1)))


def cold_trace(seed: int, strata: int) -> List[Request]:
    """Every pooled bucket once, as an off-rung exact shape, in rounds.

    The pool is sorted by :func:`_device_work` and cut into ``strata``
    strata; each round draws one unused bucket from every stratum, in
    seeded order. Any window of whole rounds therefore holds nearly the
    same mix of sizes whatever the seed, and the first round is what the
    deterministic device metrics average over.
    """
    rng = np.random.default_rng(seed)
    pool = cold_pool()
    order = sorted(range(len(pool)), key=lambda i: _device_work(pool[i]))
    groups = [list(rng.permutation(group))
              for group in np.array_split(np.array(order), strata)]
    trace = []
    for depth in range(max(len(group) for group in groups)):
        round_ = [int(group[depth]) for group in groups if depth < len(group)]
        for index in rng.permutation(round_):
            name, bucket = pool[index]
            shape = {
                dim: 128 if dim == "head_dim" else _off_rung(rng, extent)
                for dim, extent in bucket.items()
            }
            trace.append((name, shape))
    return trace


def digest(trace: Sequence) -> str:
    """A short content hash identifying a trace across runs and machines."""
    text = json.dumps(list(trace), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
