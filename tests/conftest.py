"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro import api
from repro.graph import GraphBuilder
from repro.kernels import build_gemm
from repro.machine import ampere_machine, hopper_machine
from repro.runtime import (
    BucketPolicy,
    KernelRegistry,
    RuntimeServer,
    SpecializerConfig,
)


@pytest.fixture(scope="session")
def hopper():
    return hopper_machine()


@pytest.fixture(scope="session")
def ampere():
    return ampere_machine()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_f16(rng, *shape, scale=0.1):
    return (rng.standard_normal(shape) * scale).astype(np.float16)


@pytest.fixture()
def traced_serving(hopper):
    """The spans of a fixed workload on a traced one-worker server.

    A cold submit, a warm submit, a two-node graph (both nodes share a
    bucket, so they ride one micro-batch) and one shape promotion
    driven through ``ShapeSpecializer.run_once()``. Every request is
    resolved before the next step starts, so the span tree is the same
    on every run. Returns ``(spans, worker_tid)``.
    """
    shape = dict(m=300, n=256, k=64)  # bucket m=512, aligned m=384
    registry = KernelRegistry()
    registry.register(
        "gemm",
        build_gemm,
        ("m", "n", "k"),
        policy=BucketPolicy(
            ladders={"m": (128, 256, 512, 1024), "n": (256,), "k": (64,)}
        ),
        defaults=dict(tile_m=128, tile_n=256, tile_k=64),
        specialize_align={"m": 128, "n": 256, "k": 64},
        flops=lambda s: 2.0 * s["m"] * s["n"] * s["k"],
    )
    builder = GraphBuilder(hopper)
    for stream in ("x", "y"):
        builder.launch(
            "gemm",
            shape,
            reads=dict(
                A=builder.tensor(f"A{stream}", (300, 64)),
                B=builder.tensor(f"B{stream}", (64, 256)),
            ),
            writes=dict(C=builder.tensor(f"C{stream}", (300, 256))),
        )
    graph = builder.build()
    specialize = SpecializerConfig(
        interval_s=60.0,  # dormant thread; the fixture drives run_once()
        hot_threshold=4,
        decay_every_cycles=10**6,
    )
    api.clear_compile_cache()
    try:
        with RuntimeServer(
            hopper, registry, workers=1, trace=True, specialize=specialize
        ) as server:
            server.submit("gemm", shape).result(timeout=600)  # cold
            server.submit("gemm", shape).result(timeout=600)  # warm
            server.submit_graph(graph).result(timeout=600)
            assert server.specializer.run_once() == 1
            worker_tid = server._threads[0].ident
            spans = server.tracer.spans()
    finally:
        api.clear_compile_cache()
    return spans, worker_tid
