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

``grad(graph, node, leaf_values, wrt, seed)`` is a vector-Jacobian
product: it returns the node's value and the gradient of ``sum(value *
seed)`` in each leaf named in ``wrt`` and no other, for a seed of the
value's shape. Its backward pass skips every input that leads to none of
those leaves, so a caller that reads only the input embeddings computes no
weight gradient.

A pass keeps what its caller reads and drops every other value after its
last reader (the memory plan of Chen et al. 2016), forward or backward
alike: one plan walks the forward's steps and then the backward's, and
finds each value's last reader and the last step that reads its shape
alone. After its last reader a value goes, to a shape record when a
later step reads its shape, else to None. ``evaluate(graph,
leaf_values)`` keeps every node's value and what a backward into any leaf
reads; ``evaluate(graph, leaf_values, outputs)`` keeps only the
``outputs`` nodes, and with ``wrt`` as well, what a backward into the
leaves named in ``wrt`` reads. A backward reads rule inputs' values, a
node's own value, or only an input's shape; and each ``gelu``'s tanh and
each ``layer_norm``'s mean and standard deviation, which the forward
computes anyway and the backward would otherwise compute again, in the
forward's bits. ``grad`` runs such a forward itself and then its
backward, which drops by the same plan. Leaf and const values are never
dropped. Each kernel runs its arithmetic in a fixed order but writes into
temporaries it allocated itself, not one new array per step.

What a pass over a graph does is worked out once and kept on the Graph as
a pass plan: per set of values kept, the forward's kernel calls and the
values that go after each forward and backward step; per ``wrt``, the
backward's rule calls over the nodes a gradient into ``wrt`` flows
through, with the inputs each rule computes a gradient for.

A leaf value may carry one leading batch axis: shape ``(B,) + shape``
instead of the leaf's ``shape``. Every op acts on each batch slice alone
(``matmul`` is stacked ``@``, reductions run over trailing axes), so one
pass evaluates B points: a node carries the batch axis when a leaf it
depends on does, and a seed of its value's shape seeds each point's slice
alone. Gradients into unbatched leaves are summed over the batch.

A pass checks finiteness on the op nodes that no node reads and on the
op input of each ``softmax``, each at its own step. Every other op turns
a non-finite input into a non-finite output (``inf * 0`` and ``NaN * 0``
are NaN), and softmax alone can turn one into a finite output
(``exp(-inf) = 0``), so a non-finite op node anywhere shows in one of the
checked nodes. When one is non-finite, the pass runs again with a check
after every op node, so that ``NumericError`` names the first non-finite
node. ``grad`` checks each gradient it returns. Every pass, forward or
backward, checked or not, so runs with numpy's floating-point warnings
off.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    """How a pass keeping a given set of values runs: per op node, (nid,
    kernel, input ids, saves, checked, gone), where saves is None for a
    kernel that saves nothing, else whether the pass keeps what it saved,
    and checked whether the step checks its value for finiteness; and per
    step of the backward plan into the wrt the pass keeps for, its gone.
    A step's gone holds a (node id, shaped) pair per value that goes after
    it: to a shape record when shaped, else to None."""
    steps: list[tuple]
    backward_gone: list[tuple]


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
        # a pass's values before it runs: each const node's, None elsewhere
        self._template: list = []
        # pass plans by (outputs, wrt) and by wrt; a new node drops them
        self._forward_plans: dict[tuple, ForwardPlan] = {}
        self._backward_plans: dict[frozenset, list[tuple]] = {}

    def forward_plan(self, outputs=None, wrt=None) -> ForwardPlan:
        """The plan of a forward pass keeping what ``evaluate`` with
        ``outputs`` and ``wrt`` keeps."""
        key = (outputs, wrt)
        plan = self._forward_plans.get(key)
        if plan is None:
            plan = self._forward_plans[key] = self._plan_forward(*key)
        return plan

    def _plan_forward(self, outputs, wrt) -> ForwardPlan:
        ops = [node for node in self.nodes if node.op not in ("leaf", "const")]
        backward = [] if outputs is None else self.backward_plan(wrt or ())
        # by step, the forward's op steps and then the backward's: each
        # value's last reader (its own step, when none reads it), the last
        # step that reads its shape alone, and the nodes whose saved arrays
        # a step reads
        last, shape_read, saving = {}, {}, set()
        for k, node in enumerate(ops):
            last[node.nid] = k
            last.update(dict.fromkeys(node.inputs, k))
        # a step checks its value when no node reads it or a softmax does:
        # every other op turns a non-finite input into a non-finite output
        checked = {node.nid for k, node in enumerate(ops) if last[node.nid] == k}
        checked.update(node.inputs[0] for node in ops if node.op == "softmax")
        for k, (nid, _, inputs, want) in enumerate(backward, len(ops)):
            reads_value, reads_shape, reads_own, reads_saved = _OPS[
                self.nodes[nid].op].reads(want)
            last.update((inputs[j], k) for j in reads_value)
            shape_read.update((inputs[j], k) for j in reads_shape)
            if reads_own:
                last[nid] = k
            if reads_saved:
                saving.add(nid)
        kept = outputs
        if outputs is None:  # every value stays, and what each kernel saved
            kept = saving = range(len(self.nodes))
        # after its last reader a value goes, to a shape record when a
        # later step reads its shape
        gone: list[list] = [[] for _ in range(len(ops) + len(backward))]
        for node in ops:
            if node.nid not in kept:
                k = last[node.nid]
                gone[k].append((node.nid, shape_read.get(node.nid, k) > k))
        steps = [(node.nid, op.kernel, node.inputs,
                  node.nid in saving if op.saves else None,
                  node.nid in checked, tuple(gone[k]))
                 for k, (node, op) in enumerate(zip(ops, map(_op, ops)))]
        return ForwardPlan(steps, [tuple(g) for g in gone[len(ops):]])

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
                    plan.append((node.nid, _op(node).rule, node.inputs,
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
# kernels of the ops that save (see _Op) return (value, what the backward
# reads). Where a docstring gives an expression, the kernel runs its
# operations in that order, so it gives that expression's bits.

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


def evaluate(graph: Graph, leaf_values: dict[str, np.ndarray],
             outputs=None, wrt=None) -> Values:
    """Forward pass; returns one value per node, indexed by node id.

    With ``outputs``, node ids, the pass keeps only their values, and with
    ``wrt`` too, leaf names, what a backward into those leaves reads (see
    grad); a dropped value reads None or a shape record. Without
    ``outputs`` it keeps every node's value.

    A leaf value has the leaf's shape or, batched, ``(B,) + shape``; every
    batched leaf of one pass has the same B. Raises NumericError, naming
    the first non-finite op node, when any op node is non-finite: the pass
    checks the nodes no node reads and the softmax inputs, each at its own
    step, and when one is non-finite it runs again with a check after
    every op node."""
    if outputs is None:
        wrt = None
    else:
        outputs = tuple(outputs)
        wrt = None if wrt is None else frozenset(wrt)
    # either pass raises at a non-finite node, so the overflow on the way
    # there is not worth a warning
    try:
        with np.errstate(all="ignore"):
            return _forward(graph, leaf_values, False, outputs, wrt)
    except (GraphError, ValueError, NumericError):
        # a malformed or non-finite pass: the checked pass below raises the
        # same error, or a NumericError at an earlier node
        pass
    with np.errstate(all="ignore"):
        return _forward(graph, leaf_values, True, outputs, wrt)


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
    ``wrt`` (a tuple and a frozenset, or None) keeps; it raises
    NumericError at the first non-finite node its plan checks, or with
    ``check_each`` at the first non-finite op node. A leaf that cannot be
    bound raises once the op nodes before it have run."""
    vals = Values(graph._template)
    batch = error = None
    stop = len(vals)
    for nid in graph.leaves.values():
        try:
            vals[nid], b = _leaf_value(graph.nodes[nid], leaf_values, batch)
        except GraphError as exc:
            stop, error = nid, exc
            break
        batch = batch if b is None else b
    plan = graph.forward_plan(outputs, wrt)
    saved = {}
    for nid, kernel, inputs, saves, checked, gone in plan.steps:
        if nid > stop:
            break
        v = kernel(*[vals[i] for i in inputs])
        if saves is not None:
            v, kept = v
            if saves:
                saved[nid] = kept
        if (checked or check_each) and not np.isfinite(v).all():
            raise NumericError(
                f"non-finite output at node {nid} ({graph.nodes[nid].op})")
        vals[nid] = v
        for i, shaped in gone:
            vals[i] = _Shape(vals[i].shape) if shaped else None
    if error is not None:
        raise error
    vals.plan, vals.saved = plan, saved
    return vals


def grad(graph: Graph, node: int, leaf_values: dict[str, np.ndarray],
         wrt, seed) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The node's value and, for each leaf named in ``wrt``, in that order,
    the gradient of ``sum(value * seed)`` in it: a vector-Jacobian product
    seeded with ``seed``, which has the value's shape; zeros for a leaf the
    node does not read. In a batched pass the value and the seed carry the
    batch axis, so each point's slice of the seed seeds that point alone.
    The forward keeps only the node and what the backward reads, and the
    backward pass skips every input that leads to none of the leaves.
    Raises GraphError for a name that is no leaf, ShapeError for a seed of
    another shape, and NumericError, naming the leaf, when a returned
    gradient is non-finite. No returned gradient shares memory with another
    or with the seed, which grad leaves as it was, so a caller may scale
    each in place."""
    wrt = tuple(wrt)
    for name in wrt:
        if name not in graph.leaves:
            raise GraphError(f"grad asks for {name!r}, which is no leaf")
    key = frozenset(wrt)
    vals = evaluate(graph, leaf_values, (node,), key)
    out = vals[node]
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != out.shape:
        raise ShapeError(f"grad seed of shape {seed.shape} for node {node}"
                         f" of shape {out.shape}")

    # every gradient returned is checked below, so intermediate overflow
    # is not worth a warning
    with np.errstate(all="ignore"):
        adj = _backward(graph.backward_plan(key), node, seed, vals,
                        vals.plan.backward_gone)
    # ids of the arrays returned so far and of the seed, or their bases: an
    # add's rule hands its adjoint, the seed too, to both inputs
    owners = {id(seed if seed.base is None else seed.base)}
    result: dict[str, np.ndarray] = {}
    for name in wrt:
        leaf = graph.nodes[graph.leaves[name]]
        g = adj.get(leaf.nid)
        if g is None:
            g = np.zeros(leaf.shape)
        elif not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for leaf {name!r}")
        else:
            owner = id(g if g.base is None else g.base)
            if owner in owners:
                g = g.copy()
            owners.add(owner)
        result[name] = g
    return out, result


def _backward(steps: list[tuple], node: int, seed: np.ndarray, vals: Values,
              gones) -> dict[int, np.ndarray]:
    """The adjoints, by node id, after running the backward plan ``steps``
    from ``node`` seeded with ``seed``, which no rule writes to. The plan
    reads only what the forward kept for it; after each step the values
    in that step's gone (see ForwardPlan), which no later step reads, go
    from ``vals`` as the forward's do. The saved arrays stay until
    ``vals`` goes: dropping each after its node's rule raised peak RSS,
    since the small freed moments split the heap."""
    adj: dict[int, np.ndarray] = {node: seed}
    for (nid, rule, inputs, want), gone in zip(steps, gones):
        g = adj.pop(nid, None)
        if g is not None:
            contribs = rule(g, want, [vals[i] for i in inputs], vals[nid],
                            vals.saved.get(nid))
            for i, contrib in zip(inputs, contribs):
                if contrib is not None:
                    prev = adj.get(i)
                    adj[i] = contrib if prev is None else prev + contrib
        for i, shaped in gone:
            vals[i] = _Shape(vals[i].shape) if shaped else None
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


def _wanted(want):
    return tuple(k for k, w in enumerate(want) if w)


def _product_reads(want):
    """A product's gradient into one input reads the other's value."""
    return ((1,) if want[0] else ()) + ((0,) if want[1] else ()), \
        _wanted(want), False, False


class _Op(NamedTuple):
    """One op: its forward kernel and gradient rule; what the rule reads,
    given ``want``: (the inputs whose values it reads, those whose shapes
    it reads, whether it reads its node's value, whether it reads what the
    node's kernel saved), which a forward pass for a backward keeps and no
    more; whether the kernel saves, returning (value, what the backward
    reads); and the keyword under which kernel and rule take the node's
    payload."""
    kernel: Callable
    rule: Callable
    reads: Callable
    saves: bool = False
    payload: str | None = None


_OPS = {
    "add": _Op(operator.add, _add_grad,
               lambda want: ((), _wanted(want), False, False)),
    "matmul": _Op(_matmul, _matmul_grad, _product_reads),
    "heads": _Op(_heads, _heads_grad, _product_reads),
    "merge_heads": _Op(_merge_heads, _merge_heads_grad, _product_reads),
    "scores": _Op(_scores, _scores_grad, _product_reads, payload="scale"),
    "rows": _Op(_rows, _rows_grad, lambda want: ((), (0,), False, False),
                payload="rows"),
    "gelu": _Op(_gelu, _gelu_grad, lambda want: ((0,), (), False, True),
                saves=True),
    "softmax": _Op(_softmax, _softmax_grad,
                   lambda want: ((), (), True, False), payload="mask"),
    "log_softmax": _Op(_log_softmax, _log_softmax_grad,
                       lambda want: ((), (), True, False)),
    "layer_norm": _Op(_layer_norm, _layer_norm_grad, lambda want: (
        ((0,) if want[0] or want[1] else ()) + ((1,) if want[0] else ()),
        (), False, want[0] or want[1]), saves=True),
    "affine": _Op(_affine, _affine_grad, lambda want: (
        ((1,) if want[0] else ()) + ((0,) if want[1] else ()), (), False, False)),
}


def _op(node: Node) -> _Op:
    """The record of op node ``node``, its kernel and rule given the
    node's payload when it has one."""
    if node.op not in _OPS:
        raise GraphError(f"unknown op {node.op!r}")
    op = _OPS[node.op]
    if node.const is None:
        return op
    payload = {op.payload: node.const}
    return op._replace(kernel=functools.partial(op.kernel, **payload),
                       rule=functools.partial(op.rule, **payload))
