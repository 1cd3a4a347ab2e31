"""Golden pricing: the simulator's numbers for a fixed set of candidates.

``tests/golden_pricing.json`` pins, for seeded DLRM, CNN, ViT and
hybrid-ViT architectures, the exact ``metrics_from_simulator`` outputs
(TPUv4 training, TPUv4i serving) and the :class:`SimulationResult`
aggregates of every priced graph.  Refactors of the graph IR or the
simulator must leave these numbers alone: the metrics the search
consumes are compared with ``==``; the aggregates with ``rel=1e-12``
because the order ops are summed in is not part of the contract.

Regenerate (only for an intended pricing change) with::

    PYTHONPATH=src python tests/test_pricing_golden.py > tests/golden_pricing.json
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.graph import OpGraph, OpNode, ops
from repro.hardware import TPU_V4, TPU_V4I
from repro.hardware.simulator import PerformanceSimulator
from repro.models import (
    CnnBaseline,
    CnnTimingHarness,
    DlrmTimingHarness,
    VitBaseline,
    VitTimingHarness,
    baseline_production_dlrm,
    build_cnn_graph,
    build_vit_graph,
)
from repro.searchspace import (
    CnnSpaceConfig,
    DlrmSpaceConfig,
    cnn_search_space,
    dlrm_search_space,
    hybrid_vit_search_space,
    vit_search_space,
)

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_pricing.json")

#: ``SimulationResult`` fields pinned per priced graph.
AGGREGATES = (
    "total_time_s",
    "serial_time_s",
    "total_flops",
    "hbm_bytes",
    "cmem_bytes",
    "network_bytes",
    "param_bytes",
    "mxu_busy_s",
    "vpu_busy_s",
)

#: Architectures per family: the default plus these sampling seeds.
SAMPLE_SEEDS = (0, 1, 2)


def _families():
    """(family, space, harness, arch -> (train graph, serve graph))."""
    dlrm = DlrmTimingHarness(baseline_production_dlrm(num_tables=4), seed=0)
    cnn = CnnTimingHarness(CnnBaseline())
    vit = VitTimingHarness(VitBaseline())

    def cnn_graphs(arch):
        return (
            build_cnn_graph(cnn.baseline, arch, batch=cnn.train_batch),
            build_cnn_graph(cnn.baseline, arch, batch=cnn.serve_batch),
        )

    def vit_graphs(arch):
        return (
            build_vit_graph(vit.baseline, arch, batch=vit.train_batch),
            build_vit_graph(vit.baseline, arch, batch=vit.serve_batch),
        )

    return [
        (
            "dlrm",
            dlrm_search_space(DlrmSpaceConfig(num_tables=4, num_dense_stacks=2)),
            dlrm,
            dlrm._graphs,
        ),
        ("cnn", cnn_search_space(CnnSpaceConfig(num_blocks=4)), cnn, cnn_graphs),
        ("vit", vit_search_space(), vit, vit_graphs),
        ("hybrid_vit", hybrid_vit_search_space(), vit, vit_graphs),
    ]


def _aggregates(result) -> Dict[str, float]:
    out = {name: getattr(result, name) for name in AGGREGATES}
    out["num_ops"] = len(result.op_timings)
    return out


def price_fixture() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Price every fixture candidate; keys are ``family/arch``."""
    train_sim = PerformanceSimulator(TPU_V4)
    serve_sim = PerformanceSimulator(TPU_V4I)
    fused_sim = PerformanceSimulator(TPU_V4, run_compiler_passes=True)
    priced: Dict[str, Dict[str, Dict[str, float]]] = {}
    for family, space, harness, graphs in _families():
        archs = [("default", space.default_architecture())]
        archs += [
            (f"seed{seed}", space.sample(np.random.default_rng(seed)))
            for seed in SAMPLE_SEEDS
        ]
        for label, arch in archs:
            train_graph, serve_graph = graphs(arch)
            priced[f"{family}/{label}"] = {
                "metrics": harness.metrics_from_simulator(arch),
                "train_tpu_v4": _aggregates(train_sim.simulate(train_graph)),
                "serve_tpu_v4i": _aggregates(serve_sim.simulate(serve_graph)),
                "train_tpu_v4_fused": _aggregates(fused_sim.simulate(train_graph)),
            }
    return priced


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def priced():
    return price_fixture()


def test_fixture_covers_golden(golden, priced):
    assert sorted(priced) == sorted(golden)


@pytest.mark.parametrize(
    "key",
    [
        f"{family}/{label}"
        for family in ("dlrm", "cnn", "vit", "hybrid_vit")
        for label in ("default",) + tuple(f"seed{s}" for s in SAMPLE_SEEDS)
    ],
)
def test_pricing_matches_golden(golden, priced, key):
    want, got = golden[key], priced[key]
    # What the search consumes: bit-identical.
    assert got["metrics"] == want["metrics"]
    for graph in ("train_tpu_v4", "serve_tpu_v4i", "train_tpu_v4_fused"):
        assert got[graph]["num_ops"] == want[graph]["num_ops"], graph
        for name in AGGREGATES:
            assert got[graph][name] == pytest.approx(want[graph][name], rel=1e-12), (
                graph,
                name,
            )


def _diamond(first: str, second: str) -> Tuple[OpGraph, float]:
    """``src -> {left, right} -> join`` with identical arms; ``join``
    lists its deps as ``first, second``."""
    g = OpGraph("diamond")
    g.add(ops.dense("src", batch=64, nin=256, nout=256))
    g.add(ops.dense("left", batch=64, nin=256, nout=512), deps=["src"])
    g.add(ops.dense("right", batch=64, nin=256, nout=512), deps=["src"])
    g.add(ops.concat("join", total_elements=64 * 1024), deps=[first, second])
    sim = PerformanceSimulator(TPU_V4)
    times = {op.name: sim.time_op(op).time_s for op in g.nodes()}
    return g, times["src"] + times["left"] + times["join"]


@pytest.mark.parametrize("deps", [("left", "right"), ("right", "left")])
def test_critical_path_tie_prices_either_arm_identically(deps):
    g, expected = _diamond(*deps)
    result = PerformanceSimulator(TPU_V4).simulate(g)
    assert result.total_time_s == expected
    assert result.critical_path[0] == "src" and result.critical_path[-1] == "join"
    assert result.critical_path[1] in ("left", "right")


def test_parallel_sinks_tie_prices_either_sink():
    """Two equal-cost sinks: the critical path ends at either, same time."""
    g = OpGraph("fork")
    g.add(OpNode("src", "dense", flops=1e9, unit="mxu"))
    g.add(OpNode("a", "dense", flops=4e9, unit="mxu"), deps=["src"])
    g.add(OpNode("b", "dense", flops=4e9, unit="mxu"), deps=["src"])
    result = PerformanceSimulator(TPU_V4).simulate(g)
    t = result.op_timings
    assert result.total_time_s == t["src"].time_s + t["a"].time_s
    assert t["a"].time_s == t["b"].time_s


if __name__ == "__main__":
    print(json.dumps(price_fixture(), indent=1, sort_keys=True))
