"""Reverse-mode automatic differentiation over explicit graph records.

Tensors are float64 numpy arrays. A Graph is an append-only list of node
records (op kind, input node ids, optional constant payload); leaves are
named so the same graph can be re-evaluated with different leaf values,
which is what the attribution path loop needs.

The ops are the transformer's, built to keep the node count small, since
each node costs a Python dispatch per pass: ``expand`` inserts a heads
axis before the rows, so one ``matmul`` against an (H, d, dh) weight runs
every head, and ``sum_heads`` sums that axis; ``layer_norm(x, gain,
bias)`` and ``affine(x, w, b)`` (``x @ w + b``) are one node each.
``rows(x, rows)`` takes constant rows, ``x[..., rows, :]``, so a graph can
compute only the rows its output reads.

``grad(graph, node, leaf_values, wrt)`` returns the gradient of each leaf
named in ``wrt`` and no other: its backward pass skips every input that
leads to none of them (``Graph.reads``), so a caller that reads only the
input embeddings computes no weight gradient.

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
non-finite node. ``grad`` checks each gradient it returns. Every pass,
forward or backward, checked or not, so runs with numpy's floating-point
warnings off.
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
        # leaf names -> which nodes read one of those leaves; see reads
        self._reads: dict[frozenset, list[bool]] = {}

    def reads(self, names) -> list[bool]:
        """For each node, whether it is one of the named leaves or depends
        on one: the nodes a gradient into those leaves flows through."""
        key = frozenset(names)
        if key not in self._reads:
            out: list[bool] = []
            for node in self.nodes:
                out.append(node.name in key if node.op == "leaf"
                           else any(out[i] for i in node.inputs))
            self._reads[key] = out
        return self._reads[key]

    # -- construction -----------------------------------------------------

    def _push(self, op, inputs, const=None, **kw) -> int:
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"node reference {i} out of range")
        node = Node(len(self.nodes), op, tuple(inputs), const=const, **kw)
        self.nodes.append(node)
        self._reads.clear()
        for i in inputs:
            self._unread.pop(i, None)
        if op not in ("leaf", "const"):
            self._unread[node.nid] = None
            if op == "softmax" and self.nodes[inputs[0]].op not in ("leaf", "const"):
                self._softmax_inputs[inputs[0]] = None
            self.finite_checks = (*self._softmax_inputs, *self._unread)
        return node.nid

    def leaf(self, shape, name: str) -> int:
        if name in self.leaves:
            raise GraphError(f"duplicate leaf name {name!r}")
        nid = self._push("leaf", (), name=name, shape=tuple(shape))
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

    def expand(self, a: int) -> int:
        """Insert a heads axis: (..., L, d) becomes (..., 1, L, d)."""
        return self._push("expand", (a,))

    def sum_heads(self, a: int) -> int:
        """Sum over the heads axis: (..., H, L, d) becomes (..., L, d)."""
        return self._push("sum_heads", (a,))

    def gelu(self, a: int) -> int:
        return self._push("gelu", (a,))

    def softmax(self, a: int) -> int:
        """Softmax over the last axis."""
        return self._push("softmax", (a,))

    def log_softmax(self, a: int) -> int:
        return self._push("log_softmax", (a,))

    def layer_norm(self, a: int, gain: int, bias: int) -> int:
        """Normalize the last axis to zero mean and unit variance, then
        scale by ``gain`` and shift by ``bias``, both unbatched (d,)."""
        return self._push("layer_norm", (a, gain, bias))

    def affine(self, a: int, w: int, b: int) -> int:
        """``a @ w + b`` for an unbatched (d, m) ``w`` and (m,) ``b``."""
        return self._push("affine", (a, w, b))

    def rows(self, a: int, rows) -> int:
        """The given rows, ``a[..., rows, :]``: (..., L, d) becomes
        (..., len(rows), d). The rows are constant, distinct and at least
        one; an operand with fewer than ``max(rows) + 1`` rows is a
        ShapeError."""
        rows = np.asarray(rows, dtype=np.int64)
        if (rows.ndim != 1 or not len(rows) or rows.min() < 0
                or len(np.unique(rows)) != len(rows)):
            raise GraphError(f"rows must be distinct row indices, got {rows}")
        return self._push("rows", (a,), const=rows)

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


def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` minus its mean over the last axis, and its standard deviation
    there (with the layer-norm epsilon); moments are ``sum / n``."""
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    return xc, np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + _LN_EPS)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _row_sum(g: np.ndarray) -> np.ndarray:
    """``g`` summed over every axis but the last, in one reduction."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


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
    if op == "expand":
        if ins[0].ndim < 2:
            raise ShapeError(f"expand needs an (L, d) operand, got {ins[0].shape}")
        return ins[0][..., None, :, :]
    if op == "sum_heads":
        if ins[0].ndim < 3:
            raise ShapeError(f"sum_heads needs an (H, L, d) operand, got {ins[0].shape}")
        return ins[0].sum(axis=-3)
    if op == "rows":
        x, rows = ins[0], node.const
        if x.ndim < 2 or rows.max() >= x.shape[-2]:
            raise ShapeError(f"rows {rows.tolist()} of an operand of shape {x.shape}")
        return x[..., rows, :]
    if op == "gelu":
        return _gelu(ins[0])
    if op == "softmax":
        return _softmax(ins[0])
    if op == "log_softmax":
        return _log_softmax(ins[0])
    if op == "layer_norm":
        x, gain, bias = ins
        if gain.shape != x.shape[-1:] or bias.shape != gain.shape:
            raise ShapeError(f"layer_norm shapes {x.shape}, {gain.shape}, {bias.shape}")
        xc, std = _centred(x)
        return xc / std * gain + bias
    if op == "affine":
        x, w, b = ins
        if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
            raise ShapeError(f"affine shapes {x.shape}, {w.shape}, {b.shape}")
        return x @ w + b
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
    # the checked pass raises at its first non-finite node, so the overflow
    # on the way there is not worth a warning
    with np.errstate(all="ignore"):
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
         wrt, forward: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """d(scalar)/d(leaf) for each leaf named in ``wrt``, in that order;
    zeros for a leaf the scalar does not read. The backward pass skips
    every input that leads to none of them. Raises GraphError for a name
    that is no leaf, and NumericError, naming the leaf, when a returned
    gradient is non-finite.

    In a batched pass the target is one scalar per point, shape (B,), and
    each point's gradient is seeded with 1."""
    wrt = tuple(wrt)
    for name in wrt:
        if name not in graph.leaves:
            raise GraphError(f"grad asks for {name!r}, which is no leaf")
    vals = forward if forward is not None else evaluate(graph, leaf_values)
    out = vals[scalar_node]
    if out.shape != () and not (out.ndim == 1
                                and scalar_node in _batched_nodes(graph, vals)):
        raise GraphError(f"grad target node {scalar_node} is not scalar (shape {out.shape})")

    # every gradient returned is checked below, so intermediate overflow
    # is not worth a warning
    with np.errstate(all="ignore"):
        adj = _backward(graph, scalar_node, vals, graph.reads(wrt))
    result: dict[str, np.ndarray] = {}
    for name in wrt:
        node = graph.nodes[graph.leaves[name]]
        g = adj.get(node.nid)
        if g is None:
            g = np.zeros(node.shape)
        elif not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for leaf {name!r}")
        result[name] = g
    return result


def _backward(graph: Graph, scalar_node: int, vals: list[np.ndarray],
              needed: list[bool]) -> dict[int, np.ndarray]:
    """The adjoint of each needed leaf; inputs not needed get none."""
    if not needed[scalar_node]:
        return {}
    adj: dict[int, np.ndarray] = {scalar_node: np.ones_like(vals[scalar_node])}
    for node in reversed(graph.nodes[: scalar_node + 1]):
        if node.op in ("leaf", "const"):
            continue
        g = adj.pop(node.nid, None)
        if g is None:
            continue
        ins = [vals[i] for i in node.inputs]
        want = [needed[i] for i in node.inputs]

        def acc(idx: int, contrib: np.ndarray):
            i = node.inputs[idx]
            prev = adj.get(i)
            adj[i] = contrib if prev is None else prev + contrib

        op = node.op
        if op == "add":
            for idx in (0, 1):
                if want[idx]:
                    acc(idx, _unbroadcast(g, ins[idx].shape))
        elif op == "mul":
            if want[0]:
                acc(0, _unbroadcast(g * ins[1], ins[0].shape))
            if want[1]:
                acc(1, _unbroadcast(g * ins[0], ins[1].shape))
        elif op == "matmul":
            if want[0]:
                acc(0, _unbroadcast(g @ ins[1].mT, ins[0].shape))
            if want[1]:
                acc(1, _unbroadcast(ins[0].mT @ g, ins[1].shape))
        elif op == "transpose":
            acc(0, g.mT)
        elif op == "expand":
            acc(0, g[..., 0, :, :])
        elif op == "sum_heads":
            acc(0, np.broadcast_to(g[..., None, :, :], ins[0].shape))
        elif op == "rows":
            gx = np.zeros(ins[0].shape)
            gx[..., node.const, :] = g
            acc(0, gx)
        elif op == "gelu":
            acc(0, g * _gelu_grad(ins[0]))
        elif op == "softmax":
            y = vals[node.nid]
            acc(0, y * (g - (g * y).sum(axis=-1, keepdims=True)))
        elif op == "log_softmax":
            y = vals[node.nid]
            acc(0, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
        elif op == "layer_norm":
            x, gain, _ = ins
            if want[0] or want[1]:
                xc, std = _centred(x)
                inv = 1.0 / std
                xhat = xc * inv
            if want[0]:
                n = x.shape[-1]
                gh = g * gain  # the gradient into the normalized x
                gm = gh.sum(axis=-1, keepdims=True) / n
                gx = (gh * xhat).sum(axis=-1, keepdims=True) / n
                acc(0, inv * (gh - gm - xhat * gx))
            if want[1]:
                acc(1, _row_sum(g * xhat))
            if want[2]:
                acc(2, _row_sum(g))
        elif op == "affine":
            x, w, _ = ins
            if want[0]:
                acc(0, g @ w.T)
            if want[1]:
                # the batch and rows folded into one GEMM, not one per point
                acc(1, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            if want[2]:
                acc(2, _row_sum(g))
        elif op == "sum_all":
            x = ins[0]
            g = g.reshape(g.shape + (1,) * (x.ndim - g.ndim))
            acc(0, np.broadcast_to(g, x.shape).copy())
        else:
            raise GraphError(f"no gradient rule for op {op!r}")
    return adj
