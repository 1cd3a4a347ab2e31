"""Tests for the operator-graph IR and op constructors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import OpGraph, OpNode, UNIT_MEMORY, UNIT_MXU, UNIT_VPU, ops


class TestOpNode:
    def test_total_bytes_and_intensity(self):
        op = OpNode("x", "dense", flops=100.0, bytes_in=10, bytes_out=10, param_bytes=5)
        assert op.total_bytes == 25
        assert op.operational_intensity == pytest.approx(4.0)

    def test_zero_bytes_intensity(self):
        op = OpNode("x", "noop")
        assert op.operational_intensity == 0.0

    def test_invalid_unit(self):
        with pytest.raises(ValueError):
            OpNode("x", "dense", unit="quantum")

    def test_negative_flops(self):
        with pytest.raises(ValueError):
            OpNode("x", "dense", flops=-1.0)


class TestOpGraph:
    def test_chain_and_topology(self):
        g = OpGraph("m")
        last = g.chain([OpNode(f"op{i}", "dense", flops=1.0) for i in range(3)])
        assert last == "op2"
        assert [op.name for op in g.nodes()] == ["op0", "op1", "op2"]

    def test_duplicate_name_rejected(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        with pytest.raises(ValueError):
            g.add(OpNode("a", "dense"))

    def test_missing_dependency_rejected(self):
        g = OpGraph()
        with pytest.raises(KeyError):
            g.add(OpNode("b", "dense"), deps=["nope"])

    def test_failed_add_leaves_graph_unchanged(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        with pytest.raises(KeyError):
            g.add(OpNode("b", "dense"), deps=["a", "nope"])
        assert "b" not in g and len(g) == 1
        assert g.successors("a") == []
        # The name is still free after the rejected insert.
        g.add(OpNode("b", "dense"), deps=["a"])
        assert g.successors("a") == ["b"]

    def test_self_dependency_rejected(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        with pytest.raises(ValueError):
            g.add(OpNode("b", "dense"), deps=["a", "b"])
        assert "b" not in g
        assert g.successors("a") == []

    def test_duplicate_deps_collapse_to_one_edge(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        g.add(OpNode("z", "dense"))
        g.add(OpNode("b", "dense"), deps=["a", "z", "a", "a"])
        assert g.predecessors("b") == ["a", "z"]
        assert g.successors("a") == ["b"]

    def test_nodes_in_insertion_order(self):
        """Insertion order is a topological order: every dep comes first."""
        g = OpGraph()
        g.add(OpNode("src", "x"))
        g.add(OpNode("right", "x"), deps=["src"])
        g.add(OpNode("left", "x"), deps=["src"])
        g.add(OpNode("join", "x"), deps=["left", "right"])
        order = [op.name for op in g.nodes()]
        assert order == ["src", "right", "left", "join"]
        for i, name in enumerate(order):
            assert all(order.index(p) < i for p in g.predecessors(name))

    def test_aggregates(self):
        g = OpGraph()
        g.add(OpNode("a", "dense", flops=5.0, param_bytes=2.0, bytes_in=1.0))
        g.add(OpNode("b", "dense", flops=7.0, param_bytes=3.0), deps=["a"])
        assert g.total_flops == 12.0
        assert g.total_param_bytes == 5.0
        assert g.total_bytes == 6.0

    def test_critical_path_takes_slower_branch(self):
        """Parallel branches: the critical path is MAX of the arms."""
        g = OpGraph()
        g.add(OpNode("src", "concat"))
        g.add(OpNode("fast", "dense"), deps=["src"])
        g.add(OpNode("slow", "dense"), deps=["src"])
        g.add(OpNode("join", "concat"), deps=["fast", "slow"])
        weights = {"src": 1.0, "fast": 2.0, "slow": 10.0, "join": 1.0}
        path = g.critical_path(weights)
        assert path == ["src", "slow", "join"]

    def test_critical_path_empty_graph(self):
        assert OpGraph().critical_path({}) == []

    def test_contains_and_len(self):
        g = OpGraph()
        g.add(OpNode("a", "dense"))
        assert "a" in g and "b" not in g
        assert len(g) == 1

    def test_successors_predecessors(self):
        g = OpGraph()
        g.chain([OpNode("a", "x"), OpNode("b", "x")])
        assert g.successors("a") == ["b"]
        assert g.predecessors("b") == ["a"]


class TestOpConstructors:
    def test_conv2d_flops(self):
        op = ops.conv2d("c", height=32, width=32, cin=16, cout=32, kernel=3, stride=1)
        assert op.flops == 2 * 32 * 32 * 16 * 32 * 9
        assert op.unit == UNIT_MXU
        assert op.param_bytes == 9 * 16 * 32 * 2

    def test_conv2d_stride_shrinks_output(self):
        s1 = ops.conv2d("a", 32, 32, 16, 16, 3, stride=1)
        s2 = ops.conv2d("b", 32, 32, 16, 16, 3, stride=2)
        assert s2.flops == pytest.approx(s1.flops / 4)
        assert s2.bytes_out == pytest.approx(s1.bytes_out / 4)

    def test_depthwise_runs_on_vpu(self):
        op = ops.depthwise_conv2d("d", 32, 32, 64, 3)
        assert op.unit == UNIT_VPU
        assert op.flops == 2 * 32 * 32 * 64 * 9

    def test_depthwise_far_fewer_flops_than_dense_conv(self):
        dw = ops.depthwise_conv2d("d", 32, 32, 64, 3)
        full = ops.conv2d("c", 32, 32, 64, 64, 3)
        assert full.flops == dw.flops * 64

    def test_dense_op(self):
        op = ops.dense("fc", batch=8, nin=128, nout=256)
        assert op.flops == 2 * 8 * 128 * 256
        assert op.dims == (8, 128, 256)

    def test_matmul_no_params(self):
        op = ops.matmul("qk", m=64, k=32, n=64, batch=4)
        assert op.param_bytes == 0
        assert op.flops == 2 * 4 * 64 * 32 * 64

    def test_embedding_lookup_memory_and_network_bound(self):
        op = ops.embedding_lookup("emb", lookups=1024, width=64)
        assert op.unit == UNIT_MEMORY
        assert op.flops == 0
        assert op.network_bytes == 1024 * 64 * 4

    def test_embedding_lookup_local(self):
        op = ops.embedding_lookup("emb", lookups=10, width=8, distributed=False)
        assert op.network_bytes == 0

    def test_elementwise_and_softmax(self):
        act = ops.elementwise("relu", elements=1000)
        assert act.flops == 1000
        sm = ops.softmax("sm", rows=10, row_length=100)
        assert sm.flops == 5000

    def test_pooling_and_concat(self):
        pool = ops.pooling("p", 32, 32, 8, window=2)
        assert pool.bytes_out == 16 * 16 * 8 * 2
        cat = ops.concat("c", total_elements=100)
        assert cat.flops == 0 and cat.unit == UNIT_MEMORY

    def test_all_to_all(self):
        op = ops.all_to_all("a2a", payload_bytes=1e6)
        assert op.network_bytes == 1e6

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_conv_flops_nonnegative_and_monotone_in_cout(self, cin, cout, k):
        a = ops.conv2d("a", 16, 16, cin, cout, k)
        b = ops.conv2d("b", 16, 16, cin, cout + 1, k)
        assert 0 <= a.flops < b.flops
