"""Gradient-engine unit tests: finite-difference checks per primitive,
normalization identities, purity, non-finite handling, and the batch axis."""
import numpy as np
import pytest

from attrscope.autodiff import (
    Graph, GraphError, NumericError, ShapeError, evaluate, grad,
)
from attrscope.models.transformer import build_forward_graph, leaf_values

FD_STEP = 1e-4


def fd_grad(f, x: np.ndarray, entries, step=FD_STEP) -> dict:
    out = {}
    for idx in entries:
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        out[idx] = (f(xp) - f(xm)) / (2 * step)
    return out


def check_unary(build, shape, rng, n_entries=6, rtol=1e-5):
    """FD-check d(sum(op(x)))/dx at random entries."""
    g = Graph()
    x = g.leaf(shape, "x")
    s = g.sum_all(build(g, x))
    val = rng.standard_normal(shape)

    def f(xv):
        return float(evaluate(g, {"x": xv})[s])

    gx = grad(g, s, {"x": val})["x"]
    flat = [tuple(int(i) for i in idx)
            for idx in rng.integers(0, shape, size=(n_entries, len(shape)))]
    for idx, fd in fd_grad(f, val, flat).items():
        denom = max(1.0, abs(fd))
        assert abs(gx[idx] - fd) / denom < rtol, (idx, gx[idx], fd)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("opname", ["gelu", "softmax", "log_softmax",
                                        "layer_norm", "transpose"])
    def test_unary_ops(self, opname, rng):
        check_unary(lambda g, x: getattr(g, opname)(x), (4, 5), rng)

    def test_add_mul_broadcast(self, rng):
        for op in ("add", "mul"):
            g = Graph()
            a = g.leaf((3, 4), "a")
            b = g.leaf((4,), "b")
            s = g.sum_all(getattr(g, op)(a, b))
            av, bv = rng.standard_normal((3, 4)), rng.standard_normal(4)
            gs = grad(g, s, {"a": av, "b": bv})

            def f_b(bv2):
                return float(evaluate(g, {"a": av, "b": bv2})[s])

            for idx, fd in fd_grad(f_b, bv, [(0,), (3,)]).items():
                assert abs(gs["b"][idx] - fd) < 1e-5

    def test_matmul(self, rng):
        g = Graph()
        a = g.leaf((3, 4), "a")
        b = g.leaf((4, 2), "b")
        s = g.sum_all(g.gelu(g.matmul(a, b)))
        av, bv = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        gs = grad(g, s, {"a": av, "b": bv})

        def f(av2):
            return float(evaluate(g, {"a": av2, "b": bv})[s])

        for idx, fd in fd_grad(f, av, [(0, 0), (2, 3)]).items():
            assert abs(gs["a"][idx] - fd) / max(1.0, abs(fd)) < 1e-5

    def test_random_compositions(self, rng):
        """Property check over 100 random tensors through a mixed graph."""
        g = Graph()
        x = g.leaf((5, 5), "x")
        w = g.leaf((5, 5), "w")
        h = g.layer_norm(g.gelu(g.matmul(x, w)))
        s = g.sum_all(g.mul(g.softmax(h), g.log_softmax(h)))
        for trial in range(100):
            xv = rng.standard_normal((5, 5))
            wv = rng.standard_normal((5, 5))
            gx = grad(g, s, {"x": xv, "w": wv})["x"]

            def f(xv2):
                return float(evaluate(g, {"x": xv2, "w": wv})[s])

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
        ln = g.layer_norm(x)
        vals = evaluate(g, {"x": rng.standard_normal((3, 8))})
        assert np.max(np.abs(vals[ln].mean(axis=-1))) < 1e-12
        assert np.max(np.abs(vals[ln].var(axis=-1) - 1.0)) < 1e-4


class TestGraphMechanics:
    def test_evaluate_is_pure(self, rng):
        g = Graph()
        x = g.leaf((3, 3), "x")
        s = g.sum_all(g.gelu(x))
        xv = rng.standard_normal((3, 3))
        xv_copy = xv.copy()
        v1 = evaluate(g, {"x": xv})
        v2 = evaluate(g, {"x": xv})
        assert float(v1[s]) == float(v2[s])
        assert np.array_equal(xv, xv_copy)

    def test_reuse_with_new_leaf_values(self, rng):
        g = Graph()
        x = g.leaf((2, 2), "x")
        s = g.sum_all(g.gelu(x))
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        va = float(evaluate(g, {"x": a})[s])
        vb = float(evaluate(g, {"x": b})[s])
        assert va != vb
        assert float(evaluate(g, {"x": a})[s]) == va

    def test_topological_order(self):
        g = Graph()
        x = g.leaf((2,), "x")
        y = g.add(x, x)
        z = g.mul(y, x)
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
        g.sum_all(x)
        with pytest.raises((ShapeError, GraphError)):
            evaluate(g, {"x": np.zeros((4, 4))})

    def test_non_finite_raises(self):
        g = Graph()
        x = g.leaf((2,), "x")
        g.sum_all(g.gelu(x))
        with pytest.raises(NumericError):
            evaluate(g, {"x": np.array([np.nan, 1.0])})

    def test_grad_ignores_non_differentiable_leaves(self, rng):
        g = Graph()
        x = g.leaf((2, 2), "x")
        m = g.leaf((2, 2), "m", differentiable=False)
        s = g.sum_all(g.mul(x, m))
        gs = grad(g, s, {"x": rng.standard_normal((2, 2)),
                         "m": np.ones((2, 2))})
        assert "m" not in gs and "x" in gs


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
        fg = build_forward_graph(params.hyper, len(tokens), causal)
        vals = leaf_values(params, tokens, targets)
        embs = vals["emb"] + 0.1 * rng.standard_normal((5,) + vals["emb"].shape)

        batched = grad(fg.graph, fg.score, {**vals, "emb": embs})
        slices = [grad(fg.graph, fg.score, {**vals, "emb": e}) for e in embs]
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
        g.sum_all(g.matmul(x, w))
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
        assert out.shape == (3,)  # one sum per point
        assert np.array_equal(out, [(x @ w).sum() for x, w in zip(xs, ws)])

    def test_sum_all_and_grad_per_point(self, rng):
        """A batched sum_all gives one scalar per point, and grad seeds each
        point with 1: both equal the unbatched pass on that point's slice."""
        g = Graph()
        x = g.leaf((3, 4), "x")
        w = g.leaf((4, 2), "w")
        s = g.sum_all(g.gelu(g.matmul(x, w)))
        xs = rng.standard_normal((5, 3, 4))
        wv = rng.standard_normal((4, 2))
        out = evaluate(g, {"x": xs, "w": wv})[s]
        assert out.shape == (5,)
        assert np.array_equal(out, [evaluate(g, {"x": xv, "w": wv})[s]
                                    for xv in xs])
        batched = grad(g, s, {"x": xs, "w": wv})
        slices = [grad(g, s, {"x": xv, "w": wv}) for xv in xs]
        assert np.array_equal(batched["x"], np.stack([d["x"] for d in slices]))
        assert np.allclose(batched["w"], sum(d["w"] for d in slices),
                           rtol=1e-12, atol=1e-12)

    def test_grad_target_must_be_a_scalar_per_point(self, rng):
        g = Graph()
        x = g.leaf((3, 4), "x")
        w = g.leaf((4, 1), "w")
        col = g.matmul(x, w)  # shape (3, 1): not a scalar, batched or not
        with pytest.raises(GraphError):
            grad(g, col, {"x": rng.standard_normal((3, 4)),
                          "w": rng.standard_normal((4, 1))})
        with pytest.raises(GraphError):
            grad(g, col, {"x": rng.standard_normal((2, 3, 4)),
                          "w": rng.standard_normal((4, 1))})
