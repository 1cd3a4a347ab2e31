"""Operator-graph intermediate representation.

The paper's in-house performance simulator consumes a TensorFlow/HLO
graph of the target model.  Our equivalent is :class:`OpGraph` — a DAG
of :class:`OpNode` objects, each carrying the quantities a roofline
simulator needs: FLOPs, activation bytes in/out, parameter bytes, and
which hardware unit executes the op (matrix unit, vector unit, memory
system, or chip-to-chip network).

Model builders in :mod:`repro.models` lower architecture configurations
to these graphs; :mod:`repro.hardware.simulator` walks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Execution units an op can be bound to.
UNIT_MXU = "mxu"  # matrix/tensor unit (systolic array / tensor cores)
UNIT_VPU = "vpu"  # vector processing unit
UNIT_MEMORY = "memory"  # pure data movement (e.g. embedding gather)
UNIT_NETWORK = "network"  # inter-chip communication (all-to-all etc.)

VALID_UNITS = frozenset({UNIT_MXU, UNIT_VPU, UNIT_MEMORY, UNIT_NETWORK})


@dataclass
class OpNode:
    """One operator with its resource footprint.

    Attributes:
        name: unique node id within its graph.
        op_type: semantic kind (``conv2d``, ``matmul``, ...), used for
            reporting and for unit-specific simulator behaviour.
        flops: total floating-point operations (multiply-add counted
            as two FLOPs, matching the paper's convention).
        bytes_in: activation bytes read.
        bytes_out: activation bytes written.
        param_bytes: parameter bytes streamed from off-chip memory.
        unit: execution unit (one of :data:`VALID_UNITS`).
        dims: characteristic tensor dimensions used for matrix-unit
            padding-efficiency modelling (e.g. ``(m, k, n)``).
        network_bytes: bytes crossing the chip interconnect.
    """

    name: str
    op_type: str
    flops: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    param_bytes: float = 0.0
    unit: str = UNIT_VPU
    dims: Tuple[int, ...] = ()
    network_bytes: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.unit not in VALID_UNITS:
            raise ValueError(f"unknown unit {self.unit!r} for op {self.name!r}")
        for label in ("flops", "bytes_in", "bytes_out", "param_bytes", "network_bytes"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} of op {self.name!r} must be non-negative")

    @property
    def total_bytes(self) -> float:
        """All bytes moved by this op (activations + parameters)."""
        return self.bytes_in + self.bytes_out + self.param_bytes

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte moved — the roofline x-axis."""
        total = self.total_bytes
        return self.flops / total if total > 0 else 0.0


class OpGraph:
    """A DAG of :class:`OpNode` with explicit dependency edges.

    The graph is acyclic by construction: :meth:`add` only accepts
    dependencies on ops already in the graph, and a new op has no
    successors yet, so no edge can ever close a cycle.  Insertion order
    is therefore a topological order, and every traversal below walks
    it directly — building and walking an n-op graph is O(n + edges).
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._ops: Dict[str, OpNode] = {}
        self._preds: Dict[str, List[str]] = {}
        self._succs: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: OpNode, deps: Iterable[str] = ()) -> OpNode:
        """Add ``node``, depending on the named predecessor ops.

        Every dependency is validated before the graph changes, so a
        rejected op leaves the graph as it was.  Repeated dependencies
        collapse to one edge.
        """
        name = node.name
        if name in self._ops:
            raise ValueError(f"duplicate op name {name!r}")
        preds = list(dict.fromkeys(deps))
        for dep in preds:
            if dep == name:
                raise ValueError(f"op {name!r} cannot depend on itself")
            if dep not in self._ops:
                raise KeyError(f"dependency {dep!r} not in graph")
        self._ops[name] = node
        self._preds[name] = preds
        self._succs[name] = []
        for dep in preds:
            self._succs[dep].append(name)
        return node

    def chain(self, nodes: Iterable[OpNode], after: Optional[str] = None) -> Optional[str]:
        """Add ``nodes`` in sequence, each depending on the previous.

        Returns the name of the last node added (or ``after`` when
        ``nodes`` is empty), convenient for threading builders.
        """
        last = after
        for node in nodes:
            self.add(node, deps=[last] if last is not None else [])
            last = node.name
        return last

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def node(self, name: str) -> OpNode:
        return self._ops[name]

    def nodes(self) -> List[OpNode]:
        """All ops in a topological order (their insertion order)."""
        return list(self._ops.values())

    def successors(self, name: str) -> List[str]:
        return list(self._succs[name])

    def predecessors(self, name: str) -> List[str]:
        return list(self._preds[name])

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        return sum(op.flops for op in self._ops.values())

    @property
    def total_param_bytes(self) -> float:
        return sum(op.param_bytes for op in self._ops.values())

    @property
    def total_bytes(self) -> float:
        return sum(op.total_bytes for op in self._ops.values())

    def critical_path(self, weights: Dict[str, float]) -> List[str]:
        """Longest path through the DAG under per-node ``weights``.

        ``weights`` maps op name -> execution time.  Parallel branches
        (e.g. the embedding pipeline vs. the bottom MLP of a DLRM)
        contribute only their slower arm, matching the paper's
        ``MAX(embedding time, DNN time)`` step-time accounting.
        """
        best_cost: Dict[str, float] = {}
        best_pred: Dict[str, Optional[str]] = {}
        for name, preds in self._preds.items():
            if preds:
                pred = max(preds, key=best_cost.__getitem__)
                base = best_cost[pred]
            else:
                pred, base = None, 0.0
            best_cost[name] = base + weights[name]
            best_pred[name] = pred
        if not best_cost:
            return []
        tail = max(best_cost, key=best_cost.__getitem__)
        path = [tail]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])
        return list(reversed(path))
