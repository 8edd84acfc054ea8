"""Reverse-mode automatic differentiation over explicit graph records.

Tensors are float64 numpy arrays. A Graph is an append-only list of node
records (op kind, input node ids, optional constant payload); leaves are
named so the same graph can be re-evaluated with different leaf values,
which is what the attribution path loop needs.

The ops are the transformer's, built to keep the node count small, since
each node costs a Python dispatch per pass. Attention is four ops on a
heads axis that sits before the rows: ``heads(x, w)`` projects (..., L, d)
rows through an (H, d, dh) weight into every head, ``scores(q, k, scale)``
is ``q @ k.mT * scale``, ``softmax(x, mask)`` adds a constant mask before
its softmax, and ``merge_heads(x, w)`` projects each head through an (H,
dh, d) weight and sums the heads. The gradient into the weight of
``heads`` and ``merge_heads`` is one GEMM over every point and row, as
``affine``'s is. ``layer_norm(x, gain, bias)`` and ``affine(x, w, b)``
(``x @ w + b``) are one node each. ``rows(x, rows)`` takes constant rows,
``x[..., rows, :]``, so a graph can compute only the rows its output
reads. An op's constant (rows, scale, mask) is its node's payload.

``grad(graph, node, leaf_values, wrt)`` returns the node's value and the
gradient of each leaf named in ``wrt`` and no other: its backward pass
skips every input that leads to none of them, so a caller that reads only
the input embeddings computes no weight gradient.

A forward pass keeps what its caller reads and drops every other value
after its last reader (the memory plan of Chen et al. 2016).
``evaluate(graph, leaf_values)`` keeps every node's value and what a
backward into any leaf reads; ``evaluate(graph, leaf_values, outputs)``
keeps only the ``outputs`` nodes, and with ``wrt`` as well, what a
backward into the leaves named in ``wrt`` reads. A backward reads rule
inputs' values, a node's own value, or only an input's shape, which the
dropped slot keeps in a shape record; and each ``gelu``'s tanh and each
``layer_norm``'s mean and standard deviation, which the forward computes
anyway and the backward would otherwise compute again, in the forward's
bits. ``grad`` runs such a forward itself, and then drops each value
after its last reader in the backward too, a reader of its value or of
its shape alike. Leaf and const values are never dropped. Each kernel
runs its arithmetic in a fixed order but writes into temporaries it
allocated itself, not one new array per step.

What a pass over a graph does is worked out once and kept on the Graph as
a pass plan: per set of batched leaves and per set of values kept, the
forward's kernel calls, the nodes that carry the batch axis and the values
each forward and backward step drops; per ``wrt``, the backward's rule
calls over the nodes a gradient into ``wrt`` flows through, with the
inputs each rule computes a gradient for.

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
non-finite node. The checked nodes stay until they are checked, even when
the caller does not read them. ``grad`` checks each gradient it returns.
Every pass, forward or backward, checked or not, so runs with numpy's
floating-point warnings off.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-6


class GraphError(Exception):
    """Malformed graph: bad node reference, bad op, or bad leaf binding."""


class ShapeError(GraphError):
    """Operand shapes incompatible for the requested op."""


class NumericError(Exception):
    """A public operation produced a non-finite value; the run must abort."""


@dataclass(frozen=True, slots=True)
class Node:
    nid: int
    op: str
    inputs: tuple[int, ...]
    const: np.ndarray | None = None
    name: str | None = None          # leaves only
    shape: tuple[int, ...] | None = None  # leaves only


class ForwardPlan(NamedTuple):
    """How a forward pass with a given set of batched leaves, keeping a
    given set of values, runs."""
    batched: tuple[bool, ...]  # per node, whether it carries the batch axis
    # per op node: (nid, kernel, input ids, saves, drops, shapes): saves is
    # None for a kernel that saves nothing, else whether the pass keeps
    # what it saved; drops and shapes are the nodes whose values go after
    # the step, to None and to a shape record
    steps: list[tuple]
    checked: tuple[tuple[int, ...], tuple[int, ...]]  # (drops, shapes) once checked
    # per step of the backward plan into the wrt the pass keeps for, the
    # values no later step reads, which grad drops; None for a pass that
    # keeps every value
    backward_drops: list[tuple[int, ...]] | None


class Values(list):
    """A forward pass's values, indexed by node id: None or a shape record
    where the pass dropped one; also the pass's plan, and the arrays it
    keeps for a backward, by node id."""
    __slots__ = ("plan", "saved")


class _Shape:
    """A dropped value whose shape a gradient rule still reads."""
    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = shape


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
        # a pass's values before it runs: each const node's, None elsewhere
        self._template: list = []
        # pass plans by (batched leaf ids, outputs, wrt) and by wrt; a new
        # node drops them
        self._forward_plans: dict[tuple, ForwardPlan] = {}
        self._backward_plans: dict[frozenset, list[tuple]] = {}

    def forward_plan(self, batched_leaves: frozenset[int], outputs=None,
                     wrt=None) -> ForwardPlan:
        """The plan of a forward pass whose batched leaves are the leaf
        node ids ``batched_leaves``, keeping what ``evaluate`` with
        ``outputs`` and ``wrt`` keeps."""
        key = (batched_leaves, outputs, wrt)
        plan = self._forward_plans.get(key)
        if plan is None:
            plan = self._forward_plans[key] = self._plan_forward(*key)
        return plan

    def _plan_forward(self, batched_leaves, outputs, wrt) -> ForwardPlan:
        kept_for = None if outputs is None else wrt or frozenset()
        # what a backward into kept_for reads: whole values, by the last
        # backward step that reads each, shapes alone, and the arrays
        # saving kernels keep
        read, shapes, saving = self._backward_reads(kept_for)
        values = read.keys() | (outputs or ())
        last: dict[int, int] = {}  # op node -> its last reader
        for node in self.nodes:
            for i in node.inputs:
                last[i] = node.nid
        # a checked node goes once the pass has checked it
        kept = values | set(self.finite_checks)
        drops: dict[int, list[int]] = {}
        shaped: dict[int, list[int]] = {}
        for i, reader in last.items():
            if self.nodes[i].op not in ("leaf", "const") and i not in kept:
                (shaped if i in shapes else drops).setdefault(
                    reader, []).append(i)
        batched: list[bool] = []
        steps = []
        for node in self.nodes:
            if node.op in ("leaf", "const"):
                batched.append(node.nid in batched_leaves)
                continue
            nid = node.nid
            batched.append(any(batched[i] for i in node.inputs))
            steps.append((nid, _kernel(node, batched[-1]), node.inputs,
                          nid in saving if node.op in _SAVING else None,
                          tuple(drops.get(nid, ())), tuple(shaped.get(nid, ()))))
        after = [i for i in self.finite_checks if i not in values]
        backward_drops = None
        if kept_for is not None:
            backward_drops = [()] * len(self.backward_plan(kept_for))
            for i, k in read.items():
                if self.nodes[i].op not in ("leaf", "const") and i not in outputs:
                    backward_drops[k] += (i,)
        return ForwardPlan(tuple(batched), steps,
                           (tuple(i for i in after if i not in shapes),
                            tuple(i for i in after if i in shapes)),
                           backward_drops)

    def _backward_reads(self, wrt) -> tuple[dict, set, set]:
        """For a backward into the leaves named in ``wrt``: the nodes whose
        values it reads, each with the index of the last step of
        ``backward_plan(wrt)`` that reads its value or its shape; the nodes
        whose shapes alone it reads; and those whose saved arrays it
        reads. Every node is read, when ``wrt`` is None."""
        if wrt is None:
            every = range(len(self.nodes))
            return dict.fromkeys(every), set(), set(every)
        last, by_value, saving = {}, set(), set()
        for k, (nid, _, inputs, want) in enumerate(self.backward_plan(wrt)):
            reads_value, reads_shape, reads_own, reads_saved = _READS[
                self.nodes[nid].op](want)
            last.update((inputs[j], k) for j in reads_value + reads_shape)
            by_value.update(inputs[j] for j in reads_value)
            if reads_own:
                last[nid] = k
                by_value.add(nid)
            if reads_saved:
                saving.add(nid)
        read = {i: k for i, k in last.items() if i in by_value}
        return read, last.keys() - by_value, saving

    def backward_plan(self, wrt) -> list[tuple]:
        """The steps of a backward pass into the leaves named in ``wrt``:
        per op node a gradient into them flows through, last node first,
        (nid, rule, input ids, whether each input leads to them)."""
        key = frozenset(wrt)
        plan = self._backward_plans.get(key)
        if plan is None:
            needed: list[bool] = []
            for node in self.nodes:
                needed.append(node.name in key if node.op == "leaf"
                              else any(needed[i] for i in node.inputs))
            wants: dict[tuple, tuple] = {}  # one object per distinct tuple
            plan = []
            for node in reversed(self.nodes):
                if needed[node.nid] and node.op not in ("leaf", "const"):
                    want = tuple(needed[i] for i in node.inputs)
                    plan.append((node.nid, _rule(node), node.inputs,
                                 wants.setdefault(want, want)))
            self._backward_plans[key] = plan
        return plan

    # -- construction -----------------------------------------------------

    def _push(self, op, inputs, const=None, **kw) -> int:
        for i in inputs:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"node reference {i} out of range")
        node = Node(len(self.nodes), op, tuple(inputs), const=const, **kw)
        self.nodes.append(node)
        self._template.append(const if op == "const" else None)
        self._forward_plans.clear()
        self._backward_plans.clear()
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

    def heads(self, a: int, w: int) -> int:
        """``a[..., None, :, :] @ w``: (..., L, d) rows through an unbatched
        (H, d, dh) weight become (..., H, L, dh), a heads axis before the
        rows."""
        return self._push("heads", (a, w))

    def merge_heads(self, a: int, w: int) -> int:
        """``(a @ w).sum(-3)``: (..., H, L, dh) through an unbatched (H, dh,
        d) weight become (..., L, d), summed over the heads."""
        return self._push("merge_heads", (a, w))

    def scores(self, q: int, k: int, scale: float) -> int:
        """``(q @ k.mT) * scale``: attention scores of (..., H, R, dh)
        queries against (..., H, L, dh) keys, (..., H, R, L)."""
        return self._push("scores", (q, k),
                          const=np.asarray(scale, dtype=np.float64))

    def gelu(self, a: int) -> int:
        return self._push("gelu", (a,))

    def softmax(self, a: int, mask=None) -> int:
        """Softmax over the last axis, of ``a + mask`` for a constant
        ``mask`` whose shape is that of the last axes of ``a``."""
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
        return self._push("softmax", (a,), const=mask)

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
                or len(set(rows.tolist())) != len(rows)):
            raise GraphError(f"rows must be distinct row indices, got {rows}")
        return self._push("rows", (a,), const=rows)

    def sum_all(self, a: int) -> int:
        """Sum over the trailing axes: a scalar per point."""
        return self._push("sum_all", (a,))


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


# -- forward kernels -------------------------------------------------------
#
# A kernel takes its op's input values and returns the node's value; the
# kernels of the ops in _SAVING return (value, what the backward reads).
# Where a docstring gives an expression, the kernel runs its operations in
# that order, so it gives that expression's bits.

def _matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape}")
    return a @ b


def _heads(x, w):
    """``x[..., None, :, :] @ w``."""
    if x.ndim < 2 or w.ndim != 3 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"heads shapes {x.shape}, {w.shape}")
    return x[..., None, :, :] @ w


def _merge_heads(x, w):
    """``(x @ w).sum(-3)``."""
    if (x.ndim < 3 or w.ndim != 3 or x.shape[-3] != w.shape[0]
            or x.shape[-1] != w.shape[1]):
        raise ShapeError(f"merge_heads shapes {x.shape}, {w.shape}")
    return (x @ w).sum(axis=-3)


def _scores(q, k, scale):
    """``(q @ k.mT) * scale``."""
    if q.ndim < 2 or k.ndim < 2 or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"scores shapes {q.shape}, {k.shape}")
    s = q @ k.mT
    s *= scale
    return s


def _rows(x, rows):
    if x.ndim < 2 or rows.max() >= x.shape[-2]:
        raise ShapeError(f"rows {rows.tolist()} of an operand of shape {x.shape}")
    return x[..., rows, :]


# products, not ``x ** 3``: numpy's float power (pow) is far slower
def _gelu(x):
    """``0.5 * x * (1.0 + t)`` for ``t = tanh(c * (x + 0.044715 * (x * x
    * x)))``, ``c = sqrt(2 / pi)``, and ``t``."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x * 0.5
    return y, t


def _softmax(x, mask=None):
    """``e / e.sum(-1)`` for ``e = exp(z - z.max(-1))``, where ``z = x +
    mask``, or ``x`` without a mask."""
    if mask is None:
        e = x - x.max(axis=-1, keepdims=True)
    else:
        if x.shape[x.ndim - mask.ndim:] != mask.shape:
            raise ShapeError(f"softmax mask of shape {mask.shape} on an"
                             f" operand of shape {x.shape}")
        e = x + mask
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _log_softmax(x):
    """``s - log(exp(s).sum(-1))`` for ``s = x - x.max(-1)``."""
    s = x - x.max(axis=-1, keepdims=True)
    lse = np.exp(s).sum(axis=-1, keepdims=True)
    s -= np.log(lse, out=lse)
    return s


def _centred(x):
    """``xc = x - mean`` for the mean of ``x`` over the last axis, the mean,
    and the standard deviation there (with the layer-norm epsilon); moments
    are ``sum / n``."""
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True)
    mean /= n
    xc = x - mean
    var = (xc * xc).sum(axis=-1, keepdims=True)
    var /= n
    var += _LN_EPS
    return xc, mean, np.sqrt(var, out=var)


def _layer_norm(x, gain, bias):
    """``xc / std * gain + bias``, and the moments ``(mean, std)`` (see
    _centred)."""
    if gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ShapeError(f"layer_norm shapes {x.shape}, {gain.shape}, {bias.shape}")
    xc, mean, std = _centred(x)
    y = xc / std
    y *= gain
    y += bias
    return y, (mean, std)


def _affine(x, w, b):
    """``x @ w + b``."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine shapes {x.shape}, {w.shape}, {b.shape}")
    y = x @ w
    y += b
    return y


def _sum(x):
    return np.asarray(x.sum())


def _sum_points(x):
    """A batched ``sum_all``: one sum per point."""
    return x.reshape(len(x), -1).sum(axis=-1)


_FORWARD = {
    "add": operator.add, "mul": operator.mul, "matmul": _matmul,
    "heads": _heads, "merge_heads": _merge_heads, "scores": _scores,
    "rows": _rows, "gelu": _gelu,
    "softmax": _softmax, "log_softmax": _log_softmax,
    "layer_norm": _layer_norm, "affine": _affine,
}
_SAVING = frozenset({"gelu", "layer_norm"})
# the keyword under which an op's kernel and rule take its node's payload
_PAYLOAD = {"rows": "rows", "scores": "scale", "softmax": "mask"}


def _with_payload(fn, node: Node):
    """``fn``, given the payload of ``node`` when it has one."""
    if node.const is None:
        return fn
    return functools.partial(fn, **{_PAYLOAD[node.op]: node.const})


def _kernel(node: Node, batched: bool):
    """The forward kernel of op node ``node``, which carries the batch axis
    when ``batched``."""
    if node.op == "sum_all":
        return _sum_points if batched else _sum
    if node.op not in _FORWARD:
        raise GraphError(f"unknown op {node.op!r}")
    return _with_payload(_FORWARD[node.op], node)


def evaluate(graph: Graph, leaf_values: dict[str, np.ndarray],
             outputs=None, wrt=None) -> Values:
    """Forward pass; returns one value per node, indexed by node id.

    With ``outputs``, node ids, the pass keeps only their values, and with
    ``wrt`` too, leaf names, what a backward into those leaves reads (see
    grad); a dropped value reads None or a shape record. Without
    ``outputs`` it keeps every node's value.

    A leaf value has the leaf's shape or, batched, ``(B,) + shape``; every
    batched leaf of one pass has the same B. Raises NumericError, naming
    the first non-finite op node, when any op node is non-finite."""
    if outputs is None:
        wrt = None
    else:
        outputs = tuple(outputs)
        wrt = None if wrt is None else frozenset(wrt)
    try:
        with np.errstate(all="ignore"):
            vals = _forward(graph, leaf_values, False, outputs, wrt)
        if all(np.isfinite(vals[i]).all() for i in graph.finite_checks):
            return _drop_checked(vals)
    except (GraphError, ValueError):
        # a malformed pass: the checked pass below raises the same error,
        # or a NumericError at an earlier node
        pass
    # the checked pass raises at its first non-finite node, so the overflow
    # on the way there is not worth a warning
    with np.errstate(all="ignore"):
        return _drop_checked(_forward(graph, leaf_values, True, outputs, wrt))


def _drop_checked(vals: Values) -> Values:
    """``vals`` without the checked nodes its caller does not read."""
    drops, shapes = vals.plan.checked
    for i in drops:
        vals[i] = None
    for i in shapes:
        vals[i] = _Shape(vals[i].shape)
    return vals


def _leaf_value(node: Node, leaf_values, batch: int | None):
    """The value bound to leaf ``node``, and its batch size (None when it
    has the leaf's shape); ``batch`` is an earlier leaf's batch size."""
    if node.name not in leaf_values:
        raise GraphError(f"missing value for leaf {node.name!r}")
    v = np.asarray(leaf_values[node.name], dtype=np.float64)
    if v.shape == node.shape:
        return v, None
    if v.shape[1:] != node.shape:
        raise ShapeError(f"leaf {node.name!r} expects shape"
                         f" {node.shape}, got {v.shape}")
    if batch is not None and v.shape[0] != batch:
        raise ShapeError(f"leaf {node.name!r} has batch size"
                         f" {v.shape[0]}, another leaf {batch}")
    return v, v.shape[0]


def _forward(graph: Graph, leaf_values: dict[str, np.ndarray],
             check_each: bool, outputs=None, wrt=None) -> Values:
    """The forward pass, keeping what evaluate with ``outputs`` and
    ``wrt`` (a tuple and a frozenset, or None) keeps, and each checked
    node; with ``check_each``, it raises NumericError at the first op node
    with a non-finite value. A leaf that cannot be bound raises once the
    op nodes before it have run."""
    vals = Values(graph._template)
    batched: list[int] = []
    batch = error = None
    stop = len(vals)
    for nid in graph.leaves.values():
        try:
            vals[nid], b = _leaf_value(graph.nodes[nid], leaf_values, batch)
        except GraphError as exc:
            stop, error = nid, exc
            break
        if b is not None:
            batch = b
            batched.append(nid)
    plan = graph.forward_plan(frozenset(batched), outputs, wrt)
    saved = {}
    for nid, kernel, inputs, saves, drops, shapes in plan.steps:
        if nid > stop:
            break
        v = kernel(*[vals[i] for i in inputs])
        if saves is not None:
            v, kept = v
            if saves:
                saved[nid] = kept
        if check_each and not np.all(np.isfinite(v)):
            raise NumericError(
                f"non-finite output at node {nid} ({graph.nodes[nid].op})")
        vals[nid] = v
        for i in drops:
            vals[i] = None
        for i in shapes:
            vals[i] = _Shape(vals[i].shape)
    if error is not None:
        raise error
    vals.plan, vals.saved = plan, saved
    return vals


def grad(graph: Graph, scalar_node: int, leaf_values: dict[str, np.ndarray],
         wrt) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The scalar's value and d(scalar)/d(leaf) for each leaf named in
    ``wrt``, in that order; zeros for a leaf the scalar does not read. The
    forward keeps only the scalar and what the backward reads, and the
    backward pass skips every input that leads to none of the leaves.
    Raises GraphError for a name that is no leaf, and NumericError, naming
    the leaf, when a returned gradient is non-finite. No returned gradient
    shares memory with another, so a caller may scale each in place.

    In a batched pass the target is one scalar per point, shape (B,), and
    each point's gradient is seeded with 1."""
    wrt = tuple(wrt)
    for name in wrt:
        if name not in graph.leaves:
            raise GraphError(f"grad asks for {name!r}, which is no leaf")
    key = frozenset(wrt)
    vals = evaluate(graph, leaf_values, (scalar_node,), key)
    out = vals[scalar_node]
    batched = vals.plan.batched[scalar_node]
    if out.shape != () and not (out.ndim == 1 and batched):
        raise GraphError(f"grad target node {scalar_node} is not scalar (shape {out.shape})")

    # every gradient returned is checked below, so intermediate overflow
    # is not worth a warning
    with np.errstate(all="ignore"):
        adj = _backward(graph.backward_plan(key), scalar_node, vals,
                        vals.plan.backward_drops)
    result: dict[str, np.ndarray] = {}
    owners: set[int] = set()  # ids of the arrays returned so far, or their bases
    for name in wrt:
        node = graph.nodes[graph.leaves[name]]
        g = adj.get(node.nid)
        if g is None:
            g = np.zeros(node.shape)
        elif not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for leaf {name!r}")
        else:
            # an add's rule hands its adjoint to both inputs
            owner = id(g if g.base is None else g.base)
            if owner in owners:
                g = g.copy()
            owners.add(owner)
        result[name] = g
    return out, result


def _backward(steps: list[tuple], scalar_node: int, vals: Values,
              drops) -> dict[int, np.ndarray]:
    """The adjoints, by node id, after running the backward plan ``steps``
    from ``scalar_node``, which reads only what the forward kept for it;
    after each step it drops from ``vals`` the values ``drops`` names for
    that step, which no later step reads. The saved arrays stay until
    ``vals`` goes: dropping each after its node's rule raised peak RSS,
    since the small freed moments split the heap."""
    adj: dict[int, np.ndarray] = {scalar_node: np.ones_like(vals[scalar_node])}
    for (nid, rule, inputs, want), dropped in zip(steps, drops):
        g = adj.pop(nid, None)
        if g is not None:
            contribs = rule(g, want, [vals[i] for i in inputs], vals[nid],
                            vals.saved.get(nid))
            for i, contrib in zip(inputs, contribs):
                if contrib is not None:
                    prev = adj.get(i)
                    adj[i] = contrib if prev is None else prev + contrib
        for i in dropped:
            vals[i] = None
    return adj


# -- gradient rules --------------------------------------------------------
#
# A rule takes the node's adjoint ``g``, whether each input wants a
# gradient, the input values, the node's value and what its forward kernel
# saved; it returns one gradient per input, None for an input not wanted.
# An op node with one input is walked only when that input is wanted. As
# for the kernels, a docstring's expression gives a rule's order of
# operations and so its bits.

def _add_grad(g, want, ins, y, saved):
    a, b = ins
    return (_unbroadcast(g, a.shape) if want[0] else None,
            _unbroadcast(g, b.shape) if want[1] else None)


def _mul_grad(g, want, ins, y, saved):
    a, b = ins
    return (_unbroadcast(g * b, a.shape) if want[0] else None,
            _unbroadcast(g * a, b.shape) if want[1] else None)


def _matmul_grad(g, want, ins, y, saved):
    a, b = ins
    return (_unbroadcast(g @ b.mT, a.shape) if want[0] else None,
            _unbroadcast(a.mT @ g, b.shape) if want[1] else None)


def _heads_grad(g, want, ins, y, saved):
    """Into x, ``(g @ w.mT).sum(-3)``. Into w, per head, the rows of every
    point of x against that head's rows of g: one GEMM per head, which
    gives the C-contiguous (H, d, dh)."""
    x, w = ins
    gw = None
    if want[1]:
        H, dh = g.shape[-3], g.shape[-1]
        # (..., H, L, dh) -> (H, N, dh), N the rows of every point
        gw = (x.reshape(-1, x.shape[-1]).T
              @ np.moveaxis(g, -3, 0).reshape(H, -1, dh))
    return ((g @ w.mT).sum(axis=-3) if want[0] else None), gw


def _merge_heads_grad(g, want, ins, y, saved):
    """Into x, ``g[..., None, :, :] @ w.mT``. Into w, every head's rows of
    every point of x against g: one (H dh, N) x (N, d) GEMM, N the rows of
    every point, which is the C-contiguous (H, dh, d)."""
    x, w = ins
    gw = None
    if want[1]:
        H, dh = w.shape[:2]
        xs = x.swapaxes(-3, -2).reshape(-1, H * dh)  # (N, H dh)
        gw = (xs.T @ g.reshape(-1, g.shape[-1])).reshape(w.shape)
    return (g[..., None, :, :] @ w.mT if want[0] else None), gw


def _scores_grad(g, want, ins, y, saved, scale):
    """With ``gs = g * scale``: into q, ``gs @ k``; into k, ``(q.mT @
    gs).mT``."""
    q, k = ins
    gs = g * scale
    return (_unbroadcast(gs @ k, q.shape) if want[0] else None,
            _unbroadcast(q.mT @ gs, k.mT.shape).mT if want[1] else None)


def _rows_grad(g, want, ins, y, saved, rows):
    gx = np.zeros(ins[0].shape)
    gx[..., rows, :] = g
    return (gx,)


def _gelu_grad(g, want, ins, y, t):
    """``g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 *
    0.044715 * x2))`` for ``x2 = x * x`` and the forward's tanh ``t``."""
    x = ins[0]
    x2 = x * x
    d = t * t
    np.subtract(1.0, d, out=d)
    h = x * 0.5
    h *= d
    h *= _GELU_C
    x2 *= 3 * 0.044715
    x2 += 1.0
    h *= x2
    np.add(t, 1.0, out=d)
    d *= 0.5
    d += h
    d *= g
    return (d,)


def _softmax_grad(g, want, ins, y, saved, mask=None):
    """``y * (g - (g * y).sum(-1))``; a mask adds a constant, so the
    gradient does not read it."""
    d = g * y
    np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
    d *= y
    return (d,)


def _log_softmax_grad(g, want, ins, y, saved):
    """``g - exp(y) * g.sum(-1)``."""
    d = np.exp(y)
    d *= g.sum(axis=-1, keepdims=True)
    np.subtract(g, d, out=d)
    return (d,)


def _layer_norm_grad(g, want, ins, y, saved):
    """Into x, ``inv * (gh - gh.sum(-1) / n - xhat * (gh * xhat).sum(-1) /
    n)`` for ``gh = g * gain``; into the gain, ``g * xhat`` summed over
    all but the last axis; into the bias, ``g`` summed so. Here ``inv = 1
    / std`` and ``xhat = (x - mean) * inv`` for the forward's moments:
    ``x - mean`` is one subtraction with the forward's bits, cheaper to
    run again than the centred array is to keep."""
    gx = ggain = gbias = None
    if want[0] or want[1]:
        mean, std = saved
        inv = 1.0 / std
        xhat = ins[0] - mean
        xhat *= inv
    if want[0]:
        n = xhat.shape[-1]
        gh = g * ins[1]
        gm = gh.sum(axis=-1, keepdims=True)
        gm /= n
        t = gh * xhat
        gd = t.sum(axis=-1, keepdims=True)
        gd /= n
        np.multiply(xhat, gd, out=t)
        gh -= gm
        gh -= t
        gh *= inv
        gx = gh
    if want[1]:
        ggain = _row_sum(g * xhat)
    if want[2]:
        gbias = _row_sum(g)
    return gx, ggain, gbias


def _affine_grad(g, want, ins, y, saved):
    x, w, _ = ins
    # the batch and rows folded into one GEMM, not one per point
    return (g @ w.T if want[0] else None,
            x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            if want[1] else None,
            _row_sum(g) if want[2] else None)


def _sum_all_grad(g, want, ins, y, saved):
    shape = ins[0].shape
    g = g.reshape(g.shape + (1,) * (len(shape) - g.ndim))
    return (np.broadcast_to(g, shape).copy(),)


_RULES = {
    "add": _add_grad, "mul": _mul_grad, "matmul": _matmul_grad,
    "heads": _heads_grad, "merge_heads": _merge_heads_grad,
    "scores": _scores_grad, "rows": _rows_grad, "gelu": _gelu_grad,
    "softmax": _softmax_grad, "log_softmax": _log_softmax_grad,
    "layer_norm": _layer_norm_grad, "affine": _affine_grad,
    "sum_all": _sum_all_grad,
}


def _wanted(want):
    return tuple(k for k, w in enumerate(want) if w)


def _product_reads(want):
    """A product's gradient into one input reads the other's value."""
    return ((1,) if want[0] else ()) + ((0,) if want[1] else ()), \
        _wanted(want), False, False


# What each rule reads, given ``want``: (the inputs whose values it reads,
# those whose shapes it reads, whether it reads its node's value, whether
# it reads what the node's kernel saved); a forward pass for a backward
# keeps these and no more
_READS = {
    "add": lambda want: ((), _wanted(want), False, False),
    "mul": _product_reads, "matmul": _product_reads,
    "heads": _product_reads, "merge_heads": _product_reads,
    "scores": _product_reads,
    "rows": lambda want: ((), (0,), False, False),
    "gelu": lambda want: ((0,), (), False, True),
    "softmax": lambda want: ((), (), True, False),
    "log_softmax": lambda want: ((), (), True, False),
    "layer_norm": lambda want: (
        ((0,) if want[0] or want[1] else ()) + ((1,) if want[0] else ()),
        (), False, want[0] or want[1]),
    "affine": lambda want: (
        ((1,) if want[0] else ()) + ((0,) if want[1] else ()), (), False, False),
    "sum_all": lambda want: ((), (0,), False, False),
}


def _rule(node: Node):
    """The gradient rule of op node ``node``."""
    if node.op not in _RULES:
        raise GraphError(f"no gradient rule for op {node.op!r}")
    return _with_payload(_RULES[node.op], node)
