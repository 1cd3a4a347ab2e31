"""Candidate-pricing benchmark: simulator cost per candidate and per op.

Every simulator-priced candidate in a single-step search lowers an
architecture to an :class:`~repro.graph.ir.OpGraph` and walks it with
the roofline simulator, so building and simulating a graph must stay
linear in its size.  This benchmark pins that contract — building and
simulating a 1000-op chain may cost at most 6x a 250-op chain (linear
scaling gives 4x; quadratic bookkeeping gives 16x) — and reports the
end-to-end pricing cost per candidate (``metrics_from_simulator``:
TPUv4 training graph + TPUv4i serving graph) for the DLRM, CNN and ViT
spaces.

Run with ``PYTHONPATH=src python -m pytest -q -m slow benchmarks/bench_pricing.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.graph import OpGraph, ops
from repro.hardware import TPU_V4
from repro.hardware.simulator import PerformanceSimulator
from repro.models import (
    CnnBaseline,
    CnnTimingHarness,
    DlrmTimingHarness,
    VitBaseline,
    VitTimingHarness,
    baseline_production_dlrm,
)
from repro.searchspace import (
    CnnSpaceConfig,
    DlrmSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
    vit_search_space,
)

from .common import emit, emit_json

pytestmark = pytest.mark.slow

SMALL_CHAIN = 250
LARGE_CHAIN = 1000
MAX_SCALING = 6.0
REPEATS = 5
CANDIDATES = 20


def best_of(fn, repeats=REPEATS):
    """Minimum wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_and_simulate_chain(n, sim):
    graph = OpGraph(f"chain{n}")
    graph.chain(ops.dense(f"fc{i}", batch=64, nin=256, nout=256) for i in range(n))
    return sim.simulate(graph)


def pricing_setups():
    """(family, space, harness) with the harness's default platforms."""
    return [
        (
            "dlrm",
            dlrm_search_space(DlrmSpaceConfig(num_tables=4, num_dense_stacks=2)),
            DlrmTimingHarness(baseline_production_dlrm(num_tables=4), seed=0),
        ),
        ("cnn", cnn_search_space(CnnSpaceConfig()), CnnTimingHarness(CnnBaseline())),
        ("vit", vit_search_space(), VitTimingHarness(VitBaseline())),
    ]


def run():
    sim = PerformanceSimulator(TPU_V4)
    chain_s = {
        n: best_of(lambda n=n: build_and_simulate_chain(n, sim))
        for n in (SMALL_CHAIN, LARGE_CHAIN)
    }
    per_candidate_ms = {}
    for family, space, harness in pricing_setups():
        rng = np.random.default_rng(0)
        archs = [space.sample(rng) for _ in range(CANDIDATES)]
        for arch in archs:  # warm lazy set-up before timing
            harness.metrics_from_simulator(arch)
        total = best_of(lambda: [harness.metrics_from_simulator(a) for a in archs])
        per_candidate_ms[family] = total / len(archs) * 1e3
    return {
        "chain_s": chain_s,
        "scaling": chain_s[LARGE_CHAIN] / chain_s[SMALL_CHAIN],
        "per_candidate_ms": per_candidate_ms,
    }


def test_bench_pricing():
    result = run()
    rows = [
        [f"chain {n} ops (build + simulate)", f"{t * 1e3:.2f} ms"]
        for n, t in result["chain_s"].items()
    ]
    rows.append(
        [f"scaling {LARGE_CHAIN}/{SMALL_CHAIN} ops", f"{result['scaling']:.2f}x (<= {MAX_SCALING}x)"]
    )
    rows += [
        [f"{family} pricing per candidate", f"{ms:.2f} ms"]
        for family, ms in result["per_candidate_ms"].items()
    ]
    emit(
        "pricing",
        format_table(["measure", "value"], rows)
        + f"\n(min of {REPEATS} runs; {CANDIDATES} seeded candidates per space,"
        " TPUv4 training + TPUv4i serving graph each)",
    )
    emit_json("pricing", result)
    assert result["scaling"] <= MAX_SCALING, result
