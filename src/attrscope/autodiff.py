"""Reverse-mode automatic differentiation over explicit graph records.

Tensors are float64 numpy arrays. A Graph is an append-only list of node
records (op kind, input node ids, optional constant payload); leaves are
named so the same graph can be re-evaluated with different leaf values,
which is what the attribution path loop needs.

A leaf value may carry one leading batch axis: shape ``(B,) + shape``
instead of the leaf's ``shape``. Every op acts on each batch slice alone
(``matmul`` is stacked ``@``, reductions run over trailing axes), so one
pass evaluates B points: a node carries the batch axis when a leaf it
depends on does, and ``sum_all`` gives one scalar per point. Gradients
into unbatched leaves are summed over the batch.

A pass checks finiteness once, at its end: on the graph's output nodes,
which no other node reads, and on the input of each ``softmax``. Every
other op turns a non-finite input into a non-finite output (``inf * 0``
and ``NaN * 0`` are NaN), and softmax alone can turn one into a finite
output (``exp(-inf) = 0``), so a non-finite op node anywhere shows in one
of the checked nodes. When the check fails, the pass runs again with a
check after every op node, so that ``NumericError`` names the first
non-finite node. ``grad`` checks each gradient it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-6


class GraphError(Exception):
    """Malformed graph: bad node reference, bad op, or bad leaf binding."""


class ShapeError(GraphError):
    """Operand shapes incompatible for the requested op."""


class NumericError(Exception):
    """A public operation produced a non-finite value; the run must abort."""


@dataclass(frozen=True)
class Node:
    nid: int
    op: str
    inputs: tuple[int, ...]
    const: np.ndarray | None = None
    name: str | None = None          # leaves only
    shape: tuple[int, ...] | None = None  # leaves only
    differentiable: bool = False     # leaves only


class Graph:
    """Topologically ordered computation records with named leaves."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaves: dict[str, int] = {}
        # the op nodes a pass checks for finiteness: the output nodes and
        # the softmax inputs (a softmax reads its input, so the two are
        # disjoint), kept as the graph is built
        self._unread: dict[int, None] = {}
        self._softmax_inputs: dict[int, None] = {}
        self.finite_checks: tuple[int, ...] = ()

    # -- construction -----------------------------------------------------

    def _push(self, op, inputs, const=None, **kw) -> int:
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"node reference {i} out of range")
        node = Node(len(self.nodes), op, tuple(inputs), const=const, **kw)
        self.nodes.append(node)
        for i in inputs:
            self._unread.pop(i, None)
        if op not in ("leaf", "const"):
            self._unread[node.nid] = None
            if op == "softmax" and self.nodes[inputs[0]].op not in ("leaf", "const"):
                self._softmax_inputs[inputs[0]] = None
            self.finite_checks = (*self._softmax_inputs, *self._unread)
        return node.nid

    def leaf(self, shape, name: str, differentiable: bool = True) -> int:
        if name in self.leaves:
            raise GraphError(f"duplicate leaf name {name!r}")
        nid = self._push("leaf", (), name=name, shape=tuple(shape),
                         differentiable=differentiable)
        self.leaves[name] = nid
        return nid

    def const(self, value) -> int:
        return self._push("const", (), const=np.asarray(value, dtype=np.float64))

    def add(self, a: int, b: int) -> int:
        return self._push("add", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self._push("mul", (a, b))

    def matmul(self, a: int, b: int) -> int:
        return self._push("matmul", (a, b))

    def transpose(self, a: int) -> int:
        return self._push("transpose", (a,))

    def gelu(self, a: int) -> int:
        return self._push("gelu", (a,))

    def softmax(self, a: int) -> int:
        """Softmax over the last axis."""
        return self._push("softmax", (a,))

    def log_softmax(self, a: int) -> int:
        return self._push("log_softmax", (a,))

    def layer_norm(self, a: int) -> int:
        """Normalize the last axis to zero mean / unit variance (no affine)."""
        return self._push("layer_norm", (a,))

    def sum_all(self, a: int) -> int:
        """Sum over the trailing axes: a scalar per point."""
        return self._push("sum_all", (a,))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# products, not ``x ** 3``: numpy's float power (pow) is far slower
def _gelu(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x2)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _forward_op(node: Node, vals: list, batched: bool) -> np.ndarray:
    op = node.op
    ins = [vals[i] for i in node.inputs]
    if op == "add":
        return ins[0] + ins[1]
    if op == "mul":
        return ins[0] * ins[1]
    if op == "matmul":
        a, b = ins
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
        return a @ b
    if op == "transpose":
        return ins[0].mT
    if op == "gelu":
        return _gelu(ins[0])
    if op == "softmax":
        return _softmax(ins[0])
    if op == "log_softmax":
        return _log_softmax(ins[0])
    if op == "layer_norm":
        x = ins[0]
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + _LN_EPS)
    if op == "sum_all":
        x = ins[0]
        return x.reshape(len(x), -1).sum(axis=-1) if batched else np.asarray(x.sum())
    raise GraphError(f"unknown op {op!r}")


def evaluate(graph: Graph, leaf_values: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Forward pass; returns one value per node, indexed by node id.

    A leaf value has the leaf's shape or, batched, ``(B,) + shape``; every
    batched leaf of one pass has the same B. Raises NumericError, naming
    the first non-finite op node, when any op node is non-finite."""
    try:
        with np.errstate(all="ignore"):
            vals = _forward(graph, leaf_values, check_each=False)
        if all(np.isfinite(vals[i]).all() for i in graph.finite_checks):
            return vals
    except (GraphError, ValueError):
        # a malformed pass: the checked pass below raises the same error,
        # or a NumericError at an earlier node
        pass
    return _forward(graph, leaf_values, check_each=True)


def _forward(graph: Graph, leaf_values: dict[str, np.ndarray],
             check_each: bool) -> list[np.ndarray]:
    """The forward pass; with ``check_each``, it raises NumericError at the
    first op node with a non-finite value."""
    vals: list[np.ndarray] = []
    batched: set[int] = set()  # the nodes that carry the batch axis
    batch = None
    for node in graph.nodes:
        if node.op == "leaf":
            if node.name not in leaf_values:
                raise GraphError(f"missing value for leaf {node.name!r}")
            v = np.asarray(leaf_values[node.name], dtype=np.float64)
            if v.shape != node.shape:
                if v.shape[1:] != node.shape:
                    raise ShapeError(f"leaf {node.name!r} expects shape"
                                     f" {node.shape}, got {v.shape}")
                if batch is not None and v.shape[0] != batch:
                    raise ShapeError(f"leaf {node.name!r} has batch size"
                                     f" {v.shape[0]}, another leaf {batch}")
                batch = v.shape[0]
                batched.add(node.nid)
        elif node.op == "const":
            v = node.const
        else:
            is_batched = not batched.isdisjoint(node.inputs)
            v = _forward_op(node, vals, is_batched)
            if check_each and not np.all(np.isfinite(v)):
                raise NumericError(f"non-finite output at node {node.nid} ({node.op})")
            if is_batched:
                batched.add(node.nid)
        vals.append(v)
    return vals


def _batched_nodes(graph: Graph, vals: list[np.ndarray]) -> set[int]:
    """The nodes of an evaluated graph that carry the batch axis."""
    batched: set[int] = set()
    for node in graph.nodes:
        if (vals[node.nid].shape != node.shape if node.op == "leaf"
                else not batched.isdisjoint(node.inputs)):
            batched.add(node.nid)
    return batched


def grad(graph: Graph, scalar_node: int, leaf_values: dict[str, np.ndarray],
         forward: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """d(scalar)/d(leaf) for every differentiable leaf; zeros when unused.
    Raises NumericError, naming the leaf, when a gradient is non-finite.

    In a batched pass the target is one scalar per point, shape (B,), and
    each point's gradient is seeded with 1."""
    vals = forward if forward is not None else evaluate(graph, leaf_values)
    out = vals[scalar_node]
    if out.shape != () and not (out.ndim == 1
                                and scalar_node in _batched_nodes(graph, vals)):
        raise GraphError(f"grad target node {scalar_node} is not scalar (shape {out.shape})")

    adj: dict[int, np.ndarray] = {scalar_node: np.ones_like(out)}
    for node in reversed(graph.nodes[: scalar_node + 1]):
        if node.op in ("leaf", "const"):
            continue
        g = adj.pop(node.nid, None)
        if g is None:
            continue
        ins = [vals[i] for i in node.inputs]

        def acc(idx: int, contrib: np.ndarray):
            i = node.inputs[idx]
            prev = adj.get(i)
            adj[i] = contrib if prev is None else prev + contrib

        op = node.op
        if op == "add":
            acc(0, _unbroadcast(g, ins[0].shape))
            acc(1, _unbroadcast(g, ins[1].shape))
        elif op == "mul":
            acc(0, _unbroadcast(g * ins[1], ins[0].shape))
            acc(1, _unbroadcast(g * ins[0], ins[1].shape))
        elif op == "matmul":
            acc(0, _unbroadcast(g @ ins[1].mT, ins[0].shape))
            acc(1, _unbroadcast(ins[0].mT @ g, ins[1].shape))
        elif op == "transpose":
            acc(0, g.mT)
        elif op == "gelu":
            acc(0, g * _gelu_grad(ins[0]))
        elif op == "softmax":
            y = vals[node.nid]
            acc(0, y * (g - (g * y).sum(axis=-1, keepdims=True)))
        elif op == "log_softmax":
            y = vals[node.nid]
            acc(0, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
        elif op == "layer_norm":
            x = ins[0]
            n = x.shape[-1]
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + _LN_EPS)
            xhat = (x - mu) * inv
            gm = g.mean(axis=-1, keepdims=True)
            gx = (g * xhat).mean(axis=-1, keepdims=True)
            acc(0, inv * (g - gm - xhat * gx))
        elif op == "sum_all":
            x = ins[0]
            g = g.reshape(g.shape + (1,) * (x.ndim - g.ndim))
            acc(0, np.broadcast_to(g, x.shape).copy())
        else:
            raise GraphError(f"no gradient rule for op {op!r}")

    result: dict[str, np.ndarray] = {}
    for node in graph.nodes:
        if node.op == "leaf" and node.differentiable:
            g = adj.get(node.nid)
            if g is None:
                g = np.zeros(node.shape)
            elif not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for leaf {node.name!r}")
            result[node.name] = g
    return result
