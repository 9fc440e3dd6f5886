"""Output checks against references written directly in numpy.

Each check goes through the same public serving surface as the timed
traffic (``submit`` with inputs, ``submit_graph`` with inputs) and
compares against the kernel's contract, never against the compiler.
"""

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.kernels import transformer_block_inputs, transformer_block_reference
from repro.kernels.transformer_block import transformer_block_graph

#: Each family's smallest bucket: requests there need no padding.
SMALLEST: Dict[str, Dict[str, int]] = {
    "gemm": dict(m=256, n=256, k=128),
    "dual_gemm": dict(m=256, n=256, k=128),
    "gemm_reduction": dict(m=256, n=256, k=128),
    "batched_gemm": dict(batch=1, m=256, n=256, k=128),
    "flash_attention2": dict(heads=1, seq=256, head_dim=128),
    "flash_attention3": dict(heads=1, seq=256, head_dim=128),
}

#: Absolute tolerance for f16 kernels fed 0.1-scaled inputs.
ATOL = 0.02

#: The smallest bucket-aligned transformer block.
BLOCK_CHECK = dict(seq=256, d_model=256, heads=2, d_ff=256)


def _rand(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


def _f32(array: np.ndarray) -> np.ndarray:
    return array.astype(np.float32)


def _attention(q, kt, v) -> np.ndarray:
    scores = np.einsum("hsd,hdt->hst", _f32(q), _f32(kt)) / math.sqrt(q.shape[2])
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.einsum("hst,htd->hsd", probs, _f32(v))


# name -> (inputs from rng and shape, {output: (reference, atol)})
Case = Tuple[Dict[str, np.ndarray], Dict[str, Tuple[np.ndarray, float]]]


def _gemm_case(rng, s) -> Case:
    a, b = _rand(rng, s["m"], s["k"]), _rand(rng, s["k"], s["n"])
    inputs = {"C": np.zeros((s["m"], s["n"]), np.float16), "A": a, "B": b}
    return inputs, {"C": (_f32(a) @ _f32(b), ATOL)}


def _dual_case(rng, s) -> Case:
    a = _rand(rng, s["m"], s["k"])
    b1, b2 = _rand(rng, s["k"], s["n"]), _rand(rng, s["k"], s["n"])
    inputs = {"C": np.zeros((s["m"], s["n"]), np.float16),
              "A": a, "B1": b1, "B2": b2}
    return inputs, {"C": (_f32(a) @ _f32(b1) + _f32(a) @ _f32(b2), 2 * ATOL)}


def _reduction_case(rng, s) -> Case:
    a, b = _rand(rng, s["m"], s["k"]), _rand(rng, s["k"], s["n"])
    inputs = {"C": np.zeros((s["m"], s["n"]), np.float16),
              "y": np.zeros((s["m"],), np.float32), "A": a, "B": b}
    return inputs, {"C": (_f32(a) @ _f32(b), ATOL),
                    "y": (_f32(a).sum(axis=1), 1e-3)}


def _batched_case(rng, s) -> Case:
    a = _rand(rng, s["batch"], s["m"], s["k"])
    b = _rand(rng, s["batch"], s["k"], s["n"])
    inputs = {"C": np.zeros((s["batch"], s["m"], s["n"]), np.float16),
              "A": a, "B": b}
    return inputs, {"C": (np.einsum("bij,bjk->bik", _f32(a), _f32(b)), ATOL)}


def _attention_case(rng, s) -> Case:
    h, n, d = s["heads"], s["seq"], s["head_dim"]
    q, v, kt = _rand(rng, h, n, d), _rand(rng, h, n, d), _rand(rng, h, d, n)
    inputs = {"O": np.zeros((h, n, d), np.float16), "Q": q, "KT": kt, "V": v}
    return inputs, {"O": (_attention(q, kt, v), ATOL)}


CASES: Dict[str, Callable[[np.random.Generator, Dict[str, int]], Case]] = {
    "gemm": _gemm_case,
    "dual_gemm": _dual_case,
    "gemm_reduction": _reduction_case,
    "batched_gemm": _batched_case,
    "flash_attention2": _attention_case,
    "flash_attention3": _attention_case,
}


def check_kernels(server, seed: int, timeout: float) -> List[str]:
    """One request with inputs per family; returns the failures."""
    rng = np.random.default_rng(seed)
    failures = []
    for name, shape in SMALLEST.items():
        inputs, expected = CASES[name](rng, shape)
        try:
            outputs = server.submit(name, shape, inputs=inputs).result(timeout)
            outputs = outputs.outputs
        except Exception as error:  # a failed op counts, it does not abort
            failures.append(f"{name}: {error!r}")
            continue
        for out, (reference, atol) in expected.items():
            err = float(np.abs(_f32(outputs[out]) - reference).max())
            if not err <= atol:
                failures.append(f"{name}.{out}: max error {err:.3g} > {atol}")
    return failures


def check_block(server, machine, seed: int, timeout: float) -> List[str]:
    """One transformer block with data, compared on ``Y``."""
    c = BLOCK_CHECK
    inputs = transformer_block_inputs(
        seq=c["seq"], d_model=c["d_model"], d_ff=c["d_ff"], seed=seed
    )
    graph = transformer_block_graph(machine, **c)
    try:
        result = server.submit_graph(graph, inputs=inputs).result(timeout)
    except Exception as error:
        return [f"transformer_block: {error!r}"]
    if not result.complete:
        return [f"transformer_block: nodes failed {sorted(result.failed)}"]
    reference = transformer_block_reference(inputs, heads=c["heads"])
    err = float(np.abs(_f32(result.outputs["Y"]) - reference).max())
    bound = 5e-3 * max(float(np.abs(reference).max()), 1e-9) + 1e-4
    if not err <= bound:
        return [f"transformer_block.Y: max error {err:.3g} > {bound:.3g}"]
    return []
