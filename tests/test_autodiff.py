"""Gradient-engine unit tests: finite-difference checks per primitive,
normalization identities, purity, non-finite handling, the batch axis and
what a pass keeps."""
import functools
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attrscope import autodiff
from attrscope.autodiff import (
    _GELU_C, _LN_EPS, _SAVING, Graph, GraphError, NumericError, ShapeError,
    _kernel, evaluate, grad,
)
from attrscope.models.transformer import ScoreTerm, build_forward_graph
from conftest import bind_pass

FD_STEP = 1e-4


def fd_grad(f, x: np.ndarray, entries, step=FD_STEP) -> dict:
    out = {}
    for idx in entries:
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        out[idx] = (f(xp) - f(xm)) / (2 * step)
    return out


def check_unary(build, shape, rng, n_entries=6, rtol=1e-5):
    """FD-check d(sum(op(x) * c))/dx at random entries, for a random seed
    c."""
    g = Graph()
    x = g.leaf(shape, "x")
    y = build(g, x)
    val = rng.standard_normal(shape)
    c = rng.standard_normal(shape)

    def f(xv):
        return float((evaluate(g, {"x": xv})[y] * c).sum())

    gx = grad(g, y, {"x": val}, ("x",), c)[1]["x"]
    flat = [tuple(int(i) for i in idx)
            for idx in rng.integers(0, shape, size=(n_entries, len(shape)))]
    for idx, fd in fd_grad(f, val, flat).items():
        denom = max(1.0, abs(fd))
        assert abs(gx[idx] - fd) / denom < rtol, (idx, gx[idx], fd)


def affine_layer_norm(g: Graph, x: int) -> int:
    """A layer norm of a (..., 5) node with a fixed non-trivial gain and bias."""
    return g.layer_norm(x, g.const(np.linspace(0.5, 1.5, 5)),
                        g.const(np.linspace(-1.0, 1.0, 5)))


UNARY = {
    "gelu": Graph.gelu,
    "softmax": Graph.softmax,
    "log_softmax": Graph.log_softmax,
    "layer_norm": affine_layer_norm,
    # the softmax of x plus a fixed mask, as attention's
    "masked_softmax": lambda g, x: g.softmax(
        x, np.linspace(-3.0, 3.0, 20).reshape(4, 5)),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("opname", list(UNARY))
    def test_unary_ops(self, opname, rng):
        check_unary(UNARY[opname], (4, 5), rng)

    def test_add_broadcast(self, rng):
        g = Graph()
        a = g.leaf((3, 4), "a")
        b = g.leaf((4,), "b")
        y = g.add(a, b)
        av, bv = rng.standard_normal((3, 4)), rng.standard_normal(4)
        c = rng.standard_normal((3, 4))
        _, gs = grad(g, y, {"a": av, "b": bv}, ("a", "b"), c)
        assert np.array_equal(gs["a"], c)

        def f_b(bv2):
            return float((evaluate(g, {"a": av, "b": bv2})[y] * c).sum())

        for idx, fd in fd_grad(f_b, bv, [(0,), (3,)]).items():
            assert abs(gs["b"][idx] - fd) < 1e-5

    def test_matmul(self, rng):
        g = Graph()
        a = g.leaf((3, 4), "a")
        b = g.leaf((4, 2), "b")
        y = g.gelu(g.matmul(a, b))
        av, bv = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        c = rng.standard_normal((3, 2))
        _, gs = grad(g, y, {"a": av, "b": bv}, ("a", "b"), c)

        def f(av2):
            return float((evaluate(g, {"a": av2, "b": bv})[y] * c).sum())

        for idx, fd in fd_grad(f, av, [(0, 0), (2, 3)]).items():
            assert abs(gs["a"][idx] - fd) / max(1.0, abs(fd)) < 1e-5

    def test_random_compositions(self, rng):
        """Property check over 100 random tensors through a mixed graph."""
        g = Graph()
        x = g.leaf((5, 5), "x")
        w = g.leaf((5, 5), "w")
        h = affine_layer_norm(g, g.gelu(g.matmul(x, w)))
        y = g.add(g.softmax(h), g.log_softmax(h))
        for trial in range(100):
            xv = rng.standard_normal((5, 5))
            wv = rng.standard_normal((5, 5))
            c = rng.standard_normal((5, 5))
            gx = grad(g, y, {"x": xv, "w": wv}, ("x",), c)[1]["x"]

            def f(xv2):
                return float((evaluate(g, {"x": xv2, "w": wv})[y] * c).sum())

            i, j = int(rng.integers(5)), int(rng.integers(5))
            fd = fd_grad(f, xv, [(i, j)])[(i, j)]
            assert abs(gx[i, j] - fd) / max(1.0, abs(fd)) < 1e-4


class TestNormalization:
    def test_softmax_rows_sum_to_one(self, rng):
        g = Graph()
        x = g.leaf((6, 9), "x")
        sm = g.softmax(x)
        vals = evaluate(g, {"x": 10 * rng.standard_normal((6, 9))})
        assert np.max(np.abs(vals[sm].sum(axis=-1) - 1.0)) < 1e-12

    def test_log_softmax_is_log_of_softmax(self, rng):
        g = Graph()
        x = g.leaf((4, 7), "x")
        sm, lsm = g.softmax(x), g.log_softmax(x)
        vals = evaluate(g, {"x": rng.standard_normal((4, 7))})
        assert np.max(np.abs(np.log(vals[sm]) - vals[lsm])) < 1e-12

    def test_layer_norm_moments(self, rng):
        g = Graph()
        x = g.leaf((3, 8), "x")
        ln = g.layer_norm(x, g.const(np.ones(8)), g.const(np.zeros(8)))
        vals = evaluate(g, {"x": rng.standard_normal((3, 8))})
        assert np.max(np.abs(vals[ln].mean(axis=-1))) < 1e-12
        assert np.max(np.abs(vals[ln].var(axis=-1) - 1.0)) < 1e-4


def row_sum(g):
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# The kernels' expressions as they stood before the kernels wrote in place
# and the backward read the forward's saved arrays: each returns the op's
# value, or, given the adjoint ``g``, the gradient into each input.

def ref_gelu(x):
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def ref_gelu_grad(g, x):
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C
                 * (1.0 + 3 * 0.044715 * x2)),)


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_softmax_grad(g, x):
    y = ref_softmax(x)
    return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)


def ref_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ref_log_softmax_grad(g, x):
    return (g - np.exp(ref_log_softmax(x)) * g.sum(axis=-1, keepdims=True),)


def ref_centred(x):
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    return xc, np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + _LN_EPS)


def ref_layer_norm(x, gain, bias):
    xc, std = ref_centred(x)
    return xc / std * gain + bias


def ref_layer_norm_grad(g, x, gain, bias):
    xc, std = ref_centred(x)
    inv = 1.0 / std
    xhat = xc * inv
    n = x.shape[-1]
    gh = g * gain
    gm = gh.sum(axis=-1, keepdims=True) / n
    gx = (gh * xhat).sum(axis=-1, keepdims=True) / n
    return inv * (gh - gm - xhat * gx), row_sum(g * xhat), row_sum(g)


def ref_affine(x, w, b):
    return x @ w + b


def ref_affine_grad(g, x, w, b):
    return (g @ w.T, x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]),
            row_sum(g))


# op -> (forward, backward, the shapes of its unbatched inputs given rows
# L, width d and output width m)
KERNELS = {
    "gelu": (ref_gelu, ref_gelu_grad, lambda L, d, m: [(L, d)]),
    "softmax": (ref_softmax, ref_softmax_grad, lambda L, d, m: [(L, d)]),
    "log_softmax": (ref_log_softmax, ref_log_softmax_grad,
                    lambda L, d, m: [(L, d)]),
    "layer_norm": (ref_layer_norm, ref_layer_norm_grad,
                   lambda L, d, m: [(L, d), (d,), (d,)]),
    "affine": (ref_affine, ref_affine_grad,
               lambda L, d, m: [(L, d), (d, m), (m,)]),
}


class TestKernelBits:
    """Each kernel, forward and backward, gives the bits of the expression
    it computes in place."""

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("op", list(KERNELS))
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(rows=st.integers(1, 5), d=st.integers(1, 7), m=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=1, d=1, m=1, seed=0)
    @example(rows=1, d=6, m=3, seed=1)
    def test_one_op_graph_equals_the_expression(self, op, batch, rows, d, m,
                                                seed):
        forward, backward, shapes = KERNELS[op]
        shapes = shapes(rows, d, m)
        rng = np.random.default_rng(seed)
        g = Graph()
        names = ["x", "w", "b"][:len(shapes)]
        out = getattr(g, op)(*(g.leaf(shape, name)
                               for shape, name in zip(shapes, names)))
        out_shape = (rows, m if op == "affine" else d)
        lead = () if batch is None else (batch,)
        vals = {name: 3 * rng.standard_normal(
                    (lead if name == "x" else ()) + shape)
                for shape, name in zip(shapes, names)}
        # the output's adjoint is the seed c
        c = rng.standard_normal(lead + out_shape)

        ins = [vals[name] for name in names]
        assert np.array_equal(evaluate(g, vals)[out], forward(*ins))
        _, grads = grad(g, out, vals, names, c)
        for name, got, want in zip(names, grads.values(),
                                   backward(c, *ins)):
            assert np.array_equal(got, want), name


# The attention ops against the chains of plain ops they stand for, as
# those ran: each returns the chain's value and, given the adjoint ``g``,
# its gradient into each activation input; ``payload`` is the op's scale or
# mask.

def chain_heads(x, w, g, payload):
    a = x[..., None, :, :]  # expand, then matmul
    return a @ w, (autodiff._unbroadcast(g @ w.mT, a.shape)[..., 0, :, :],)


def chain_merge_heads(x, w, g, payload):
    o = x @ w  # matmul, then sum_heads
    go = np.broadcast_to(g[..., None, :, :], o.shape)
    return o.sum(axis=-3), (autodiff._unbroadcast(go @ w.mT, x.shape),)


def chain_scores(q, k, g, payload):
    kt = k.mT  # transpose, matmul, then mul by a const
    m = q @ kt
    gm = autodiff._unbroadcast(g * payload, m.shape)
    return m * payload, (autodiff._unbroadcast(gm @ kt.mT, q.shape),
                         autodiff._unbroadcast(q.mT @ gm, kt.shape).mT)


def chain_softmax(x, g, payload):
    z = x + payload  # add a const, then softmax
    return ref_softmax(z), ref_softmax_grad(g, z)


def per_point_heads(x, g):
    """Into an (H, d, dh) weight: per point and head, x against g."""
    xs, gs = (x[None], g[None]) if x.ndim == 2 else (x, g)
    return sum(np.stack([xb.T @ gb[h] for h in range(len(gb))])
               for xb, gb in zip(xs, gs))


def per_point_merge_heads(x, g):
    """Into an (H, dh, d) weight: per point and head, x against g."""
    xs, gs = (x[None], g[None]) if x.ndim == 3 else (x, g)
    return sum(np.stack([xb[h].T @ gb for h in range(len(xb))])
               for xb, gb in zip(xs, gs))


class TestAttentionOps:
    """heads, merge_heads, scores and the masked softmax give, forward and
    into their activations, the bits of the chain of plain ops each stands
    for; their weight gradients, one GEMM over every point and row, equal
    the per-point, per-head sums to rounding."""

    @pytest.mark.parametrize("batch", [None, 1, 3])
    @pytest.mark.parametrize("op", ["heads", "merge_heads", "scores",
                                    "softmax"])
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(H=st.integers(1, 3), L=st.integers(1, 5), d=st.integers(1, 6),
           dh=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_each_op_equals_its_chain(self, op, batch, H, L, d, dh, seed,
                                      data):
        rng = np.random.default_rng(seed)
        # the op's first input is a leaf's rows, when drawn (a pruned last
        # block's queries): R of its L rows
        rows = data.draw(st.none() | st.lists(
            st.integers(0, L - 1), min_size=1, max_size=L, unique=True))
        R = L if rows is None else len(rows)
        lead = () if batch is None else (batch,)
        first, second, out_shape, payload = {
            "heads": ((L, d), (H, d, dh), (H, R, dh), None),
            "merge_heads": ((H, L, dh), (H, dh, d), (R, d), None),
            "scores": ((H, L, dh), (H, L, dh), (H, R, L), 0.5 / np.sqrt(dh)),
            "softmax": ((H, L, L), None, (H, R, L),
                        np.triu(np.full((L, L), -1e9), 1)[
                            slice(None) if rows is None else rows]),
        }[op]
        g = Graph()
        x = g.leaf(first, "x")
        xr = x if rows is None else g.rows(x, rows)
        if op == "softmax":
            out = g.softmax(xr, payload)
        else:
            y = g.leaf(second, "y")
            out = (g.scores(xr, y, payload) if op == "scores"
                   else getattr(g, op)(xr, y))
        vals = {"x": 3 * rng.standard_normal(lead + first)}
        c = rng.standard_normal(lead + out_shape)  # the output's adjoint
        if op == "scores":  # keys of every point
            vals["y"] = rng.standard_normal(lead + second)
        elif op != "softmax":  # an unbatched weight
            vals["y"] = rng.standard_normal(second)
        names = tuple(n for n in ("x", "y") if n in vals)
        xv = vals["x"] if rows is None else vals["x"][..., rows, :]
        ins = [xv] + ([vals["y"]] if "y" in vals else [])
        chain = {"heads": chain_heads, "merge_heads": chain_merge_heads,
                 "scores": chain_scores}.get(op)
        want, grads_want = (chain_softmax(xv, c, payload) if chain is None
                            else chain(*ins, c, payload))

        assert np.array_equal(evaluate(g, vals)[out], want)
        _, got = grad(g, out, vals, names, c)
        gx = grads_want[0]
        if rows is not None:
            gx = np.zeros(vals["x"].shape)
            gx[..., rows, :] = grads_want[0]
        assert np.array_equal(got["x"], gx)
        if op == "scores":
            assert np.array_equal(got["y"], grads_want[1])
        elif op != "softmax":
            per_point = (per_point_heads if op == "heads"
                         else per_point_merge_heads)(xv, c)
            assert got["y"].shape == second and got["y"].flags.c_contiguous
            assert np.max(np.abs(got["y"] - per_point)) \
                <= 1e-12 * np.max(np.abs(per_point))


class TestGraphMechanics:
    def test_evaluate_is_pure(self, rng):
        g = Graph()
        x = g.leaf((3, 3), "x")
        y = g.gelu(x)
        xv = rng.standard_normal((3, 3))
        xv_copy = xv.copy()
        v1 = evaluate(g, {"x": xv})
        v2 = evaluate(g, {"x": xv})
        assert np.array_equal(v1[y], v2[y])
        assert np.array_equal(xv, xv_copy)

    def test_reuse_with_new_leaf_values(self, rng):
        g = Graph()
        x = g.leaf((2, 2), "x")
        y = g.gelu(x)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        va = evaluate(g, {"x": a})[y]
        vb = evaluate(g, {"x": b})[y]
        assert not np.array_equal(va, vb)
        assert np.array_equal(evaluate(g, {"x": a})[y], va)

    def test_topological_order(self):
        g = Graph()
        x = g.leaf((2,), "x")
        y = g.add(x, x)
        g.gelu(g.add(y, x))
        for node in g.nodes:
            for inp in node.inputs:
                assert inp < node.nid

    def test_missing_leaf_value(self):
        g = Graph()
        g.leaf((2,), "x")
        with pytest.raises(GraphError):
            evaluate(g, {})

    def test_shape_mismatch(self):
        g = Graph()
        x = g.leaf((2, 3), "x")
        g.gelu(x)
        with pytest.raises((ShapeError, GraphError)):
            evaluate(g, {"x": np.zeros((4, 4))})

    @pytest.mark.parametrize("build, shapes", [
        (lambda g, x, y, z: g.layer_norm(x, y, z), [(3, 4), (3,), (3,)]),
        (lambda g, x, y, z: g.layer_norm(x, y, z), [(3, 4), (4,), (3,)]),
        (lambda g, x, y, z: g.layer_norm(x, y, z), [(3, 4), (2, 4), (2, 4)]),
        (lambda g, x, y, z: g.affine(x, y, z), [(3, 4), (4, 2), (3,)]),
        (lambda g, x, y, z: g.affine(x, y, z), [(3, 4), (3, 2), (2,)]),
        (lambda g, x, y, z: g.affine(x, y, z), [(3, 4), (2, 4, 2), (2,)]),
        # heads: a one-dim operand, a weight of another width, a two-dim
        # (unstacked) weight
        (lambda g, x, y, z: g.heads(x, y), [(4,), (2, 4, 3), (1,)]),
        (lambda g, x, y, z: g.heads(x, y), [(3, 4), (2, 5, 3), (1,)]),
        (lambda g, x, y, z: g.heads(x, y), [(3, 4), (4, 3), (1,)]),
        # merge_heads: an operand with no heads axis, heads that differ in
        # number or width from the weight's
        (lambda g, x, y, z: g.merge_heads(x, y), [(3, 4), (2, 4, 5), (1,)]),
        (lambda g, x, y, z: g.merge_heads(x, y), [(3, 2, 4), (2, 4, 5), (1,)]),
        (lambda g, x, y, z: g.merge_heads(x, y), [(2, 3, 4), (2, 3, 5), (1,)]),
        # scores: queries and keys of other widths, a one-dim key
        (lambda g, x, y, z: g.scores(x, y, 0.5), [(2, 3, 4), (2, 5, 3), (1,)]),
        (lambda g, x, y, z: g.scores(x, y, 0.5), [(2, 3, 4), (4,), (1,)]),
        # a softmax mask whose shape is not that of the operand's last axes
        (lambda g, x, y, z: g.softmax(x, np.zeros((4, 3))), [(3, 4), (1,), (1,)]),
        (lambda g, x, y, z: g.softmax(x, np.zeros((2, 3, 4))), [(3, 4), (1,), (1,)]),
        # a row index past the operand's rows, and a one-dim operand
        (lambda g, x, y, z: g.rows(x, (0, 3)), [(3, 4), (1,), (1,)]),
        (lambda g, x, y, z: g.rows(x, (0,)), [(4,), (1,), (1,)]),
    ])
    def test_fused_and_heads_ops_reject_bad_shapes(self, build, shapes):
        g = Graph()
        build(g, *(g.leaf(shape, name) for shape, name in zip(shapes, "xyz")))
        with pytest.raises(ShapeError):
            evaluate(g, {name: np.ones(shape)
                         for shape, name in zip(shapes, "xyz")})

    @pytest.mark.parametrize("rows", [(), (1, 1), (-1,), ((0, 1),)])
    def test_rows_must_be_distinct_row_indices(self, rows):
        g = Graph()
        with pytest.raises(GraphError):
            g.rows(g.leaf((3, 4), "x"), rows)

    def test_non_finite_raises(self):
        g = Graph()
        x = g.leaf((2,), "x")
        g.gelu(x)
        with pytest.raises(NumericError):
            evaluate(g, {"x": np.array([np.nan, 1.0])})

    def test_grad_returns_exactly_the_requested_leaves(self, rng):
        g = Graph()
        x = g.leaf((2, 2), "x")
        m = g.leaf((2, 2), "m")
        unread = g.leaf((3,), "unread")
        y = g.matmul(x, m)
        leaves = {"x": rng.standard_normal((2, 2)), "m": np.ones((2, 2)),
                  "unread": np.ones(3)}
        seed = np.ones((2, 2))
        for wrt in [("x",), ("m", "x"), ("unread",), ()]:
            _, gs = grad(g, y, leaves, wrt, seed)
            assert tuple(gs) == wrt
        assert np.array_equal(grad(g, y, leaves, ("m",), seed)[1]["m"],
                              leaves["x"].T @ seed)
        assert np.array_equal(
            grad(g, y, leaves, ("unread",), seed)[1]["unread"], np.zeros(3))
        for bad in [("y",), ("x", "y")]:
            with pytest.raises(GraphError, match="no leaf"):
                grad(g, y, leaves, bad, seed)


    @pytest.mark.parametrize("batch", [None, 2])
    def test_returned_gradients_share_no_memory(self, batch, rng):
        # an add hands its adjoint to both inputs: x and y would get one
        # array, and the reshaped y a view of it
        g = Graph()
        x = g.leaf((2, 3), "x")
        y = g.leaf((2, 3), "y")
        z = g.leaf((1, 2, 3), "z")
        out = g.gelu(g.add(g.add(x, y), z))
        lead = () if batch is None else (batch,)
        leaves = {"x": rng.standard_normal(lead + (2, 3)),
                  "y": rng.standard_normal(lead + (2, 3)),
                  "z": rng.standard_normal((1, 2, 3))}
        seed = rng.standard_normal((batch or 1, 2, 3))
        _, grads = grad(g, out, leaves, ("x", "y", "z"), seed)
        assert np.array_equal(grads["x"], grads["y"])
        assert np.array_equal(grads["z"].reshape(2, 3),
                              grads["x"].reshape(-1, 2, 3).sum(axis=0))
        for a, b in itertools.combinations(grads.values(), 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_no_returned_gradient_shares_memory_with_the_seed(self, batch,
                                                              rng):
        # an add hands its adjoint, here the seed itself, to both inputs
        g = Graph()
        x = g.leaf((2, 3), "x")
        w = g.leaf((2, 3), "w")
        y = g.add(x, w)
        lead = () if batch is None else (batch,)
        leaves = {"x": rng.standard_normal(lead + (2, 3)),
                  "w": rng.standard_normal(lead + (2, 3))}
        seed = rng.standard_normal(lead + (2, 3))
        before = seed.copy()
        _, grads = grad(g, y, leaves, ("x", "w"), seed)
        assert np.array_equal(grads["x"], seed)
        assert np.array_equal(grads["w"], seed)
        for gval in grads.values():
            assert not np.shares_memory(gval, seed)
        assert not np.shares_memory(grads["x"], grads["w"])
        for gval in grads.values():  # a caller may scale each in place
            gval *= 2.0
        assert np.array_equal(seed, before)


class TestBatchAxis:
    """A leading batch axis on a leaf evaluates every slice on its own."""

    @pytest.mark.parametrize("model, causal, targets", [
        ("tiny_ar_model", True, ((5, 3),)),
        ("diffusion_model", False, ((2, 4), (4, 6))),
        ("classifier_model", False, ((0, 1),)),
    ])
    def test_score_graph_grad_equals_stacked_slices(self, model, causal,
                                                    targets, request, rng):
        params = request.getfixturevalue(model)
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(params,
                                   ScoreTerm(tuple(tokens), causal, targets))
        embs = vals["emb"] + 0.1 * rng.standard_normal((5,) + vals["emb"].shape)

        weights = tuple(fg.graph.leaves)
        _, batched = grad(fg.graph, fg.log_probs, {**vals, "emb": embs},
                          weights, np.stack([mask] * 5))
        slices = [grad(fg.graph, fg.log_probs, {**vals, "emb": e}, weights,
                       mask)[1]
                  for e in embs]
        assert batched["emb"].shape == embs.shape
        assert np.array_equal(batched["emb"], np.stack([s["emb"] for s in slices]))
        # unbatched leaves get the gradient summed over the batch
        for name, g in batched.items():
            if name != "emb":
                assert g.shape == vals[name].shape
                assert np.allclose(g, sum(s[name] for s in slices),
                                   rtol=1e-12, atol=1e-12)

    def _two_leaf_graph(self):
        g = Graph()
        x = g.leaf((3, 4), "x")
        w = g.leaf((4, 2), "w")
        g.matmul(x, w)
        return g

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((2, 3, 5), (4, 2)),      # wrong trailing shape
        ((2, 2, 3, 4), (4, 2)),   # two leading axes
        ((2, 3, 4), (3, 4, 2)),   # batch sizes differ between leaves
    ])
    def test_bad_batched_leaf_shapes(self, x_shape, w_shape):
        g = self._two_leaf_graph()
        with pytest.raises(ShapeError):
            evaluate(g, {"x": np.ones(x_shape), "w": np.ones(w_shape)})

    def test_batched_leaves_of_equal_size(self, rng):
        g = self._two_leaf_graph()
        xs = rng.standard_normal((3, 3, 4))
        ws = rng.standard_normal((3, 4, 2))
        out = evaluate(g, {"x": xs, "w": ws})[-1]
        assert out.shape == (3, 3, 2)  # one product per point
        assert np.array_equal(out, [x @ w for x, w in zip(xs, ws)])

    def test_a_batched_seed_seeds_each_point_alone(self, rng):
        """Seeding a batched pass gives each point's value and gradient as
        seeding the unbatched pass on that point's slice with that point's
        slice of the seed does."""
        g = Graph()
        x = g.leaf((3, 4), "x")
        w = g.leaf((4, 2), "w")
        y = g.gelu(g.matmul(x, w))
        xs = rng.standard_normal((5, 3, 4))
        wv = rng.standard_normal((4, 2))
        seeds = rng.standard_normal((5, 3, 2))
        value, batched = grad(g, y, {"x": xs, "w": wv}, ("x", "w"), seeds)
        slices = [grad(g, y, {"x": xv, "w": wv}, ("x", "w"), c)
                  for xv, c in zip(xs, seeds)]
        assert value.shape == (5, 3, 2)
        assert np.array_equal(value, np.stack([v for v, _ in slices]))
        assert np.array_equal(batched["x"],
                              np.stack([d["x"] for _, d in slices]))
        # into the unbatched weight: summed over the points
        assert np.allclose(batched["w"], sum(d["w"] for _, d in slices),
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch, seed_shape", [
        (None, ()), (None, (3,)), (None, (1, 3)), (None, (2, 3, 1)),
        (2, (3, 1)), (2, (3, 3, 1)), (2, (2,)),
    ])
    def test_a_seed_of_another_shape_is_a_shape_error(self, batch,
                                                      seed_shape, rng):
        g = Graph()
        x = g.leaf((3, 4), "x")
        w = g.leaf((4, 1), "w")
        col = g.matmul(x, w)  # shape (3, 1), or (2, 3, 1) batched
        lead = () if batch is None else (batch,)
        shape = lead + (3, 1)
        message = (f"grad seed of shape {seed_shape} for node {col} of"
                   f" shape {shape}")
        with pytest.raises(ShapeError, match=re.escape(message)):
            grad(g, col, {"x": rng.standard_normal(lead + (3, 4)),
                          "w": rng.standard_normal((4, 1))}, ("x", "w"),
                 np.ones(seed_shape))


class TestRequestedGradients:
    """grad computes only what leads to the leaves in wrt, and that prunes
    no work the requested gradients depend on."""

    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("model, causal, targets", [
        ("tiny_ar_model", True, ((5, 3), (2, 1))),
        ("diffusion_model", False, ((2, 4), (4, 6))),
        ("classifier_model", False, ((0, 1),)),
    ])
    def test_emb_only_equals_the_full_backward(self, model, causal, targets,
                                               batch, request, rng):
        params = request.getfixturevalue(model)
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(params,
                                   ScoreTerm(tuple(tokens), causal, targets))
        vals, seed = batched(vals, mask, batch, rng)
        _, full = grad(fg.graph, fg.log_probs, vals, tuple(fg.graph.leaves),
                       seed)
        assert tuple(full) == tuple(fg.graph.leaves)
        _, emb = grad(fg.graph, fg.log_probs, vals, ("emb",), seed)
        assert tuple(emb) == ("emb",)
        assert np.array_equal(emb["emb"], full["emb"])


    def test_only_the_path_from_emb_is_walked(self, tiny_ar_model):
        fg = build_forward_graph(tiny_ar_model.hyper, 4, causal=True)
        steps = fg.graph.backward_plan(("emb",))
        walked = [nid for nid, _, _, _ in steps]
        wanted = {i for _, _, inputs, want in steps
                  for i, wants in zip(inputs, want) if wants}
        assert walked == sorted(walked, reverse=True)
        for name, nid in fg.graph.leaves.items():
            assert (nid in wanted) == (name == "emb"), name
        assert walked[0] == fg.log_probs == len(fg.graph.nodes) - 1
        # a graph that grows has its cached plans dropped
        g = Graph()
        x = g.leaf((2,), "x")
        assert g.backward_plan(("y",)) == []
        y = g.leaf((2,), "y")
        s = g.add(x, y)
        assert [(nid, inputs, want) for nid, _, inputs, want
                in g.backward_plan(("y",))] == [(s, (x, y), (False, True))]


class TestSavedValues:
    """The backward reads what the forward kept, and computes it no more."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("emb_only", [True, False])
    def test_one_grad_computes_each_kept_value_once(self, tiny_ar_model,
                                                    batch, emb_only,
                                                    monkeypatch, rng):
        params = tiny_ar_model
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(params,
                                   ScoreTerm(tuple(tokens), True, ((5, 3),)))
        vals, seed = batched(vals, mask, batch, rng)
        ops = [node.op for node in fg.graph.nodes]
        assert (ops.count("layer_norm"), ops.count("gelu")) == (5, 2)
        calls = {"moments": 0, "tanh": 0}

        def counted(fn, key):
            def spy(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(autodiff, "_centred",
                            counted(autodiff._centred, "moments"))
        monkeypatch.setattr(np, "tanh", counted(np.tanh, "tanh"))
        wrt = ("emb",) if emb_only else tuple(fg.graph.leaves)
        grad(fg.graph, fg.log_probs, vals, wrt, seed)
        assert calls == {"moments": 5, "tanh": 2}


MODEL_PASSES = [
    ("tiny_ar_model", True, ((5, 3), (2, 1))),
    ("diffusion_model", False, ((2, 4), (4, 6))),
    ("classifier_model", False, ((0, 1),)),
]


def batched(vals, mask, batch, rng):
    """``vals`` with ``batch`` points whose embeddings differ, and the
    target mask ``mask`` as the seed of each, or both as they are for
    None."""
    if batch is None:
        return vals, mask
    return ({**vals, "emb": vals["emb"] + 0.1 * rng.standard_normal(
                (batch,) + vals["emb"].shape)},
            np.stack([mask] * batch))


def arrays_kept(vals) -> int:
    return sum(isinstance(v, np.ndarray) for v in vals)


def keep_all_grads(g, node, vals, wrt, seed) -> dict:
    """The gradient of ``sum(node * seed)`` in each leaf named in ``wrt``,
    from a backward that reads a pass keeping every value and drops none:
    the reference for grad, whose passes keep and drop by the liveness
    plan."""
    adj = autodiff._backward(g.backward_plan(wrt), node, seed,
                             evaluate(g, vals), itertools.repeat(()))
    leaves = [g.nodes[g.leaves[name]] for name in wrt]
    return {leaf.name: adj.get(leaf.nid, np.zeros(leaf.shape))
            for leaf in leaves}


@st.composite
def liveness_cases(draw):
    """A small graph drawn from every op, on (rows, n) nodes over an (n, n)
    leaf "x" that may carry a batch axis; its leaf values, the outputs a
    pass keeps, one of them to seed and the leaves to differentiate
    into."""
    n, heads, dh = (draw(st.integers(1, 3)) for _ in range(3))
    batch = draw(st.sampled_from([None, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    g = Graph()
    vals = {"x": rng.standard_normal((n, n) if batch is None
                                     else (batch, n, n))}

    def weight(*shape):
        name = f"w{len(vals)}"
        vals[name] = rng.standard_normal(shape)
        return g.leaf(shape, name)

    # (node, rows) of each node an op may read
    pool = [(g.leaf((n, n), "x"), n), (g.const(rng.standard_normal((n, n))), n)]
    for _ in range(draw(st.integers(1, 6))):
        a, r = draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["add", "matmul", "attention", "rows",
                                   "gelu", "log_softmax", "softmax",
                                   "layer_norm", "affine"]))
        if op == "add":
            same = [b for b, rb in pool if rb == r]
            b = draw(st.sampled_from(same + [None]))
            out = g.add(a, weight(n) if b is None else b)  # None: broadcast
        elif op == "matmul":
            square = [b for b, rb in pool if rb == n]
            b = draw(st.sampled_from(square + [None]))
            out = g.matmul(a, weight(n, n) if b is None else b)
        elif op == "attention":
            read = draw(st.lists(st.integers(0, r - 1), min_size=1,
                                 max_size=r, unique=True))
            q = g.heads(g.rows(a, sorted(read)) if len(read) < r else a,
                        weight(heads, n, dh))
            mask = np.where(rng.random((len(read), r)) < 0.3, -np.inf, 0.0)
            mask[:, draw(st.integers(0, r - 1))] = 0.0  # a row attends
            probs = g.softmax(g.scores(q, g.heads(a, weight(heads, n, dh)),
                                       0.5), mask)
            att = g.matmul(probs, g.heads(a, weight(heads, n, dh)))
            out, r = g.merge_heads(att, weight(heads, dh, n)), len(read)
        elif op == "rows":
            read = draw(st.lists(st.integers(0, r - 1), min_size=1,
                                 max_size=r, unique=True))
            out, r = g.rows(a, read), len(read)
        elif op == "layer_norm":
            out = g.layer_norm(a, weight(n), weight(n))
        elif op == "affine":
            out = g.affine(a, weight(n, n), weight(n))
        else:
            out = getattr(g, op)(a)
        pool.append((out, r))
    ops = [node.nid for node in g.nodes if node.op not in ("leaf", "const")]
    outputs = tuple(draw(st.lists(st.sampled_from(ops), min_size=1,
                                  max_size=2, unique=True)))
    wrt = tuple(draw(st.lists(st.sampled_from(sorted(g.leaves)), unique=True)))
    return g, vals, outputs, draw(st.sampled_from(outputs)), wrt


class TestLiveness:
    """A pass keeps what its caller reads and drops every other value after
    its last reader; what it keeps has the bits of a pass that keeps every
    value."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=liveness_cases(), key=st.integers(0, 2 ** 16))
    def test_a_pass_over_a_generated_graph_equals_keep_all(self, case, key):
        g, vals, outputs, node, wrt = case
        keep_all = evaluate(g, vals)
        freeing = evaluate(g, vals, outputs, wrt)
        for i in outputs:
            assert np.array_equal(freeing[i], keep_all[i]), i
        seed = np.random.default_rng(key).standard_normal(keep_all[node].shape)
        value, got = grad(g, node, vals, wrt, seed)
        assert np.array_equal(value, keep_all[node])
        want = keep_all_grads(g, node, vals, wrt, seed)
        for name in wrt:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("every_weight", [False, True])
    @pytest.mark.parametrize("model, causal, targets", MODEL_PASSES)
    def test_grad_after_a_freeing_forward_equals_keep_all(
            self, model, causal, targets, every_weight, pruned, batch,
            request, rng):
        params = request.getfixturevalue(model)
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(
            params, ScoreTerm(tuple(tokens), causal, targets), pruned=pruned)
        vals, seed = batched(vals, mask, batch, rng)
        g = fg.graph
        wrt = tuple(g.leaves) if every_weight else ("emb",)
        keep_all = evaluate(g, vals)
        freeing = evaluate(g, vals, (fg.log_probs,), wrt)
        assert np.array_equal(freeing[fg.log_probs], keep_all[fg.log_probs])
        assert arrays_kept(freeing) < arrays_kept(keep_all) == len(g.nodes)
        assert freeing.saved.keys() <= keep_all.saved.keys()
        want = keep_all_grads(g, fg.log_probs, vals, wrt, seed)
        # grad's own forward, dropped from in its backward too
        _, got = grad(g, fg.log_probs, vals, wrt, seed)
        assert tuple(got) == wrt
        for name in wrt:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("model, causal, targets", MODEL_PASSES)
    def test_grad_returns_the_nodes_value(self, model, causal, targets,
                                          pruned, batch, request, rng):
        params = request.getfixturevalue(model)
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(
            params, ScoreTerm(tuple(tokens), causal, targets), pruned=pruned)
        vals, seed = batched(vals, mask, batch, rng)
        g = fg.graph
        expected = evaluate(g, vals, (fg.log_probs,))[fg.log_probs]
        assert expected.shape == seed.shape
        for wrt in (("emb",), tuple(g.leaves)):
            value, _ = grad(g, fg.log_probs, vals, wrt, seed)
            assert value.shape == expected.shape
            assert np.all(value == expected)

    def test_an_embedding_gradient_keeps_less_than_every_weights(
            self, tiny_ar_model, rng):
        tokens = rng.integers(0, tiny_ar_model.hyper.vocab_size, size=6)
        fg, vals, _ = bind_pass(tiny_ar_model,
                                ScoreTerm(tuple(tokens), True, ((5, 3),)))
        emb = evaluate(fg.graph, vals, (fg.log_probs,), ("emb",))
        every = evaluate(fg.graph, vals, (fg.log_probs,),
                         tuple(fg.graph.leaves))
        assert arrays_kept(emb) < arrays_kept(every)

    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("every_weight", [False, True])
    def test_a_backward_drops_each_kept_value_after_its_last_reader(
            self, tiny_ar_model, every_weight, pruned, rng):
        tokens = rng.integers(0, tiny_ar_model.hyper.vocab_size, size=6)
        fg, vals, _ = bind_pass(tiny_ar_model,
                                ScoreTerm(tuple(tokens), True, ((5, 3), (2, 1))),
                                pruned=pruned)
        g = fg.graph
        wrt = tuple(g.leaves) if every_weight else ("emb",)
        forward = evaluate(g, vals, (fg.log_probs,), wrt)
        kept = {node.nid for node in g.nodes
                if node.op not in ("leaf", "const")
                and isinstance(forward[node.nid], np.ndarray)}
        gones = forward.plan.backward_gone
        # every kept value but the output goes once, at a step of the
        # backward plan that reads it (a step before its last reader would
        # leave that reader a None: see the test above)
        assert sorted(i for gone in gones for i, _ in gone) == \
            sorted(kept - {fg.log_probs})
        to_none, to_shape = set(), set()
        for (nid, _, inputs, want), gone in zip(g.backward_plan(wrt), gones):
            value, shape, own, _ = autodiff._READS[g.nodes[nid].op](want)
            read = {inputs[j] for j in value} | ({nid} if own else set())
            assert {i for i, _ in gone} <= read, nid
            # no step reads a value that has gone, or the shape of a value
            # that went to None: in a pruned graph, a block's input is read
            # by shape alone after the key and value products read it
            assert read.isdisjoint(to_none | to_shape), nid
            assert to_none.isdisjoint(inputs[j] for j in shape), nid
            for i, shaped in gone:
                (to_shape if shaped else to_none).add(i)

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("model, causal, targets", MODEL_PASSES)
    def test_a_forward_only_pass_keeps_its_outputs_alone(
            self, model, causal, targets, batch, request, rng):
        params = request.getfixturevalue(model)
        tokens = rng.integers(0, params.hyper.vocab_size, size=6)
        fg, vals, mask = bind_pass(params,
                                   ScoreTerm(tuple(tokens), causal, targets))
        vals, _ = batched(vals, mask, batch, rng)
        g = fg.graph
        keep_all = evaluate(g, vals)
        logits = g.nodes[fg.log_probs].inputs[0]
        for outputs in ((fg.log_probs,), (logits,), (logits, fg.log_probs)):
            got = evaluate(g, vals, outputs)
            assert got.saved == {}
            for node in g.nodes:
                if node.op in ("leaf", "const"):
                    assert got[node.nid] is not None
                elif node.nid in outputs:
                    assert np.array_equal(got[node.nid], keep_all[node.nid])
                else:
                    assert got[node.nid] is None, node

    def test_a_dropped_shape_is_kept_for_the_rules_that_read_it(self, rng):
        # d(sum((x + y) + y))/dy reads only the sums' and y's shapes; x + y
        # is read by no kept node, so its value goes
        g = Graph()
        x = g.leaf((2, 3), "x")
        y = g.leaf((3,), "y")
        total = g.add(x, y)
        s = g.gelu(total)
        leaves = {"x": rng.standard_normal((2, 3)),
                  "y": rng.standard_normal(3)}
        forward = evaluate(g, leaves, (s,), ("y",))
        assert forward[total] is not None  # gelu's gradient reads its input
        plain = g.add(x, y)
        s2 = g.add(plain, y)
        forward = evaluate(g, leaves, (s2,), ("y",))
        assert forward[plain].shape == (2, 3)
        assert not isinstance(forward[plain], np.ndarray)
        seed = rng.standard_normal((2, 3))
        assert np.array_equal(grad(g, s2, leaves, ("y",), seed)[1]["y"],
                              keep_all_grads(g, s2, leaves, ("y",), seed)["y"])

    def test_a_value_read_by_shape_after_its_last_reader_is_a_shape_record(
            self, monkeypatch, rng):
        # a grad into x and w reads h by value at q's rule and then by
        # shape alone at p's
        g = Graph()
        x = g.leaf((3, 3), "x")
        w = g.leaf((3, 3), "w")
        h = g.gelu(x)
        p = g.add(h, w)
        q = g.matmul(p, h)
        seen = []

        def add_grad(*args):
            seen.append(args[2][0])
            return autodiff._add_grad(*args)

        monkeypatch.setitem(autodiff._RULES, "add", add_grad)
        leaves = {"x": rng.standard_normal((3, 3)),
                  "w": rng.standard_normal((3, 3))}
        seed = rng.standard_normal((3, 3))
        _, got = grad(g, q, leaves, ("x", "w"), seed)
        assert len(seen) == 1 and seen[0].shape == (3, 3)
        assert not isinstance(seen[0], np.ndarray)
        want = keep_all_grads(g, q, leaves, ("x", "w"), seed)
        for name in ("x", "w"):
            assert np.array_equal(got[name], want[name]), name


def per_node_evaluate(graph: Graph, leaf_values) -> list:
    """The forward pass with a finiteness check after every op node: the
    reference for which passes evaluate rejects, and with what message."""
    vals = []
    for node in graph.nodes:
        if node.op == "leaf":
            v = np.asarray(leaf_values[node.name], dtype=np.float64)
        elif node.op == "const":
            v = node.const
        else:
            v = _kernel(node)(*[vals[i] for i in node.inputs])
            if node.op in _SAVING:
                v = v[0]
            if not np.all(np.isfinite(v)):
                raise NumericError(f"non-finite output at node {node.nid} ({node.op})")
        vals.append(v)
    return vals


def outcome(evaluate_fn, graph, leaf_values):
    """The values of a pass, or the message of the NumericError it raised."""
    with np.errstate(all="ignore"):
        try:
            return evaluate_fn(graph, leaf_values)
        except NumericError as exc:
            return str(exc)


class TestFiniteness:
    """evaluate checks the output nodes and softmax inputs once per pass,
    and rejects exactly the passes a per-node check rejects."""

    @pytest.fixture(scope="class")
    def models(self, tiny_ar_model, diffusion_model, classifier_model):
        return [tiny_ar_model, diffusion_model, classifier_model]

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_rejects_exactly_where_the_per_node_check_does(self, models,
                                                           data):
        params = data.draw(st.sampled_from(models))
        length = data.draw(st.integers(1, 6))
        tokens = data.draw(st.lists(
            st.integers(0, params.hyper.vocab_size - 1),
            min_size=length, max_size=length))
        fg, vals, _ = bind_pass(params, ScoreTerm(
            tuple(tokens), data.draw(st.booleans()), ((0, 0),)))
        batch = data.draw(st.sampled_from([None, 1, 3]))
        if batch is not None:
            vals = {**vals, "emb": np.stack([vals["emb"]] * batch)}
        # up to two non-finite entries at drawn leaves and positions
        for _ in range(data.draw(st.integers(0, 2))):
            name = data.draw(st.sampled_from(sorted(vals)))
            value = vals[name].astype(np.float64, copy=True)
            flat = value.reshape(-1)
            flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
            vals = {**vals, name: value}

        expected = outcome(per_node_evaluate, fg.graph, vals)
        got = outcome(evaluate, fg.graph, vals)
        # a pass that drops values rejects the same passes, at the same node
        freeing = outcome(functools.partial(
            evaluate, outputs=(fg.log_probs,), wrt=("emb",)), fg.graph, vals)
        if isinstance(expected, str):
            assert got == freeing == expected
        else:
            assert not isinstance(got, str), got
            assert all(np.array_equal(a, b, equal_nan=True)
                       for a, b in zip(got, expected))
            assert np.array_equal(freeing[fg.log_probs],
                                  expected[fg.log_probs])

    def test_finite_checks_are_the_outputs_and_softmax_inputs(self):
        g = Graph()
        x = g.leaf((2, 3), "x")
        m = g.leaf((2, 3), "m")
        shifted = g.add(x, m)
        sm = g.softmax(shifted)
        side = g.gelu(x)          # read by no node
        s = g.gelu(sm)
        # whatever a pass keeps, its plan checks the same steps
        for outputs, wrt in ((None, None), ((s,), None),
                             ((sm,), frozenset({"x"}))):
            steps = g.forward_plan(outputs, wrt).steps
            assert [nid for nid, _, _, _, checked, _ in steps
                    if checked] == [shifted, side, s]

    def test_softmax_hides_minus_inf_yet_the_pass_is_rejected(self):
        g = Graph()
        x = g.leaf((2, 3), "x")
        m = g.leaf((2, 3), "m")
        shifted = g.add(x, m)
        s = g.softmax(shifted)
        mask = np.zeros((2, 3))
        mask[0, 1] = -np.inf
        leaves = {"x": np.ones((2, 3)), "m": mask}
        # exp(-inf) = 0, so the output node alone is finite
        with np.errstate(all="ignore"):
            assert np.isfinite(_kernel(g.nodes[s])(np.ones((2, 3)) + mask)).all()
        message = f"non-finite output at node {shifted} (add)"
        assert outcome(per_node_evaluate, g, leaves) == message
        assert outcome(evaluate, g, leaves) == message

    def test_a_bad_node_before_a_malformed_binding_is_named(self):
        # the pass stops at the first non-finite node, as a per-node check
        # would, before it reaches the missing leaf
        g = Graph()
        x = g.leaf((2,), "x")
        h = g.gelu(x)
        g.add(h, g.leaf((2,), "w"))
        with pytest.raises(NumericError,
                           match=f"non-finite output at node {h} \\(gelu\\)"):
            evaluate(g, {"x": np.array([np.nan, 1.0])})

    def test_grad_rejects_a_non_finite_gradient(self):
        # gelu'(x) at |x| = 1e200 is 0 * inf: the forward pass is finite
        g = Graph()
        x = g.leaf((2,), "x")
        w = g.leaf((2,), "w")
        y = g.add(g.gelu(x), w)
        leaves = {"x": np.array([1e200, 1.0]), "w": np.zeros(2)}
        assert np.isfinite(evaluate(g, leaves)[y]).all()
        # grad checks the gradients it returns, so overflow on the way must
        # not warn
        with warnings.catch_warnings(), \
                pytest.raises(NumericError, match="gradient for leaf 'x'"):
            warnings.simplefilter("error", RuntimeWarning)
            grad(g, y, leaves, ("x", "w"), np.zeros(2))
