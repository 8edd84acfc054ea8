"""Transformer forward passes expressed as autodiff graphs, ending in the
one score every contract score and the training loss are built from.

Graphs depend only on (hyperparams, sequence length, attention mode), so
they are cached and re-evaluated with different leaf values. The weights
and the per-token input embeddings are leaves; each layer's attention
weights are bound stacked on a heads axis (``ModelParams.graph_weights``),
so every head runs in the same nodes. Each graph ends in
``score = sum(log_probs * target_mask)``, where the target mask is a leaf
no caller asks a gradient of: one forward pass of a score is a ScoreTerm,
naming the tokens and the (row, column) log-prob entries it sums.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ..autodiff import Graph, evaluate
from .params import Hyperparams, ModelParams, CLASSIFIER

NEG_MASK = -1e9  # additive attention mask; large but finite


class ContextOverflowError(ValueError):
    """Sequence longer than the model's context window."""


@dataclass(frozen=True)
class ForwardGraph:
    graph: Graph
    log_probs: int  # log_softmax node: (L, V), or (1, C) for classifiers
    score: int      # scalar: sum(log_probs * target_mask)


_CACHE: dict[tuple, ForwardGraph] = {}


def build_forward_graph(hp: Hyperparams, seq_len: int, causal: bool) -> ForwardGraph:
    key = (hp, seq_len, causal)
    if key in _CACHE:
        return _CACHE[key]
    fg = build_fresh_forward_graph(hp, seq_len, causal)
    _CACHE[key] = fg
    return fg


def build_fresh_forward_graph(hp: Hyperparams, seq_len: int,
                              causal: bool) -> ForwardGraph:
    """Uncached variant of build_forward_graph."""
    g = Graph()
    d, dh, H = hp.width, hp.head_dim, hp.heads
    emb = g.leaf((seq_len, d), "emb")
    pos = g.leaf((seq_len, d), "pos")
    x = g.add(emb, pos)

    if causal:
        mask = np.triu(np.full((seq_len, seq_len), NEG_MASK), k=1)
    else:
        mask = np.zeros((seq_len, seq_len))
    mask_c = g.const(mask)
    scale_c = g.const(1.0 / np.sqrt(dh))

    def layer_norm(xid: int, name: str) -> int:
        return g.layer_norm(xid, g.leaf((d,), name + ".g"),
                            g.leaf((d,), name + ".b"))

    def affine(xid: int, shape: tuple[int, int], w: str, b: str) -> int:
        return g.affine(xid, g.leaf(shape, w), g.leaf(shape[1:], b))

    for i in range(hp.layers):
        p = f"blk{i}."
        # every head at once: the heads axis sits before the rows
        h = g.expand(layer_norm(x, p + "ln1"))
        q = g.matmul(h, g.leaf((H, d, dh), p + "wq"))
        k = g.matmul(h, g.leaf((H, d, dh), p + "wk"))
        v = g.matmul(h, g.leaf((H, d, dh), p + "wv"))
        s = g.mul(g.matmul(q, g.transpose(k)), scale_c)
        a = g.softmax(g.add(s, mask_c))
        o = g.matmul(g.matmul(a, v), g.leaf((H, dh, d), p + "wo"))
        x = g.add(x, g.sum_heads(o))

        m = hp.mlp_hidden
        u = affine(layer_norm(x, p + "ln2"), (d, m), p + "mlp.w1", p + "mlp.b1")
        x = g.add(x, affine(g.gelu(u), (m, d), p + "mlp.w2", p + "mlp.b2"))

    xf = layer_norm(x, "lnf")
    if hp.kind == CLASSIFIER:
        pool = g.matmul(g.const(np.full((1, seq_len), 1.0 / seq_len)), xf)
        logits = affine(pool, (d, hp.n_classes), "head.w", "head.b")
    else:
        logits = affine(xf, (d, hp.vocab_size), "out.w", "out.b")
    lsm = g.log_softmax(logits)
    target_mask = g.leaf(_mask_shape(hp, seq_len), "target_mask")
    score = g.sum_all(g.mul(lsm, target_mask))

    return ForwardGraph(graph=g, log_probs=lsm, score=score)


def _mask_shape(hp: Hyperparams, seq_len: int) -> tuple[int, int]:
    if hp.kind == CLASSIFIER:
        return (1, hp.n_classes)
    return (seq_len, hp.vocab_size)


def check_context(hp: Hyperparams, length: int) -> None:
    if length > hp.context_len:
        raise ContextOverflowError(
            f"sequence length {length} exceeds context {hp.context_len}")
    if length < 1:
        raise ValueError("sequence must be non-empty")


def _target_masks(hp: Hyperparams, seq_len: int, target_lists) -> np.ndarray:
    """One target-mask leaf value per list of score targets, stacked: 1 at
    each (row, column) log-prob entry the pass's score sums, else 0."""
    target_lists = list(target_lists)
    masks = np.zeros((len(target_lists),) + _mask_shape(hp, seq_len))
    rows, cols = masks.shape[1:]
    for mask, targets in zip(masks, target_lists):
        for row, col in targets:
            if not (0 <= row < rows and 0 <= col < cols):
                raise ValueError(f"score target ({row}, {col}) outside the"
                                 f" {rows} x {cols} log-prob table")
            mask[row, col] = 1.0
    return masks


def _bind(hp: Hyperparams, leaves: dict[str, np.ndarray], ids,
          target_mask: np.ndarray) -> dict[str, np.ndarray]:
    """Leaf values for a pass over the token ids ``ids``, of shape (L,), or
    (B, L) for a batched pass, taken from the score-graph leaves ``leaves``
    (``ModelParams.graph_weights``): the embeddings are the emb rows of the
    ids, and every weight leaf is shared, not copied. The caller checks L
    against the context window."""
    ids = np.asarray(ids, dtype=int)
    if ids.min() < 0 or ids.max() >= hp.vocab_size:
        raise ValueError("token index out of vocab range")
    vals = dict(leaves)
    vals["emb"] = leaves["emb"][ids]
    vals["pos"] = leaves["pos"][:ids.shape[-1]]
    vals["target_mask"] = target_mask
    return vals


def leaf_values(params: ModelParams, tokens,
                targets=()) -> dict[str, np.ndarray]:
    """Leaf bindings for a forward pass over concrete tokens; the score node
    sums the log-probs at the (row, column) entries in ``targets``."""
    hp = params.hyper
    check_context(hp, len(tokens))
    mask = _target_masks(hp, len(tokens), [targets])[0]
    return _bind(hp, params.graph_weights, tokens, mask)


@dataclass(frozen=True)
class ScoreTerm:
    """One forward pass of a score: the sum of ``log_probs[row, col]`` over
    ``targets`` for a pass over ``tokens``."""
    tokens: tuple[int, ...]
    causal: bool
    targets: tuple[tuple[int, int], ...]

    def bind(self, params: ModelParams) -> tuple[ForwardGraph, dict[str, np.ndarray]]:
        """The cached score graph of this pass and its leaf values."""
        vals = leaf_values(params, self.tokens, self.targets)
        return build_forward_graph(params.hyper, len(self.tokens), self.causal), vals


# Points per forward pass, for IG's path points and for every batch of
# score and log-prob passes. A pass keeps every point's forward values (and,
# for IG, until its backward), about 0.3 MB per point for a 2-layer,
# width-64 model, so peak memory grows with this number while the per-node
# dispatch cost it saves shrinks.
POINTS_PER_PASS = 8
# The leaves that differ between passes over one cached graph; a batch
# stacks them and shares every other leaf.
_PER_PASS_LEAVES = ("emb", "target_mask")


def _stacked(passes: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One batched binding of unbatched passes over the same graph."""
    first = passes[0]
    vals = {}
    for name, value in first.items():
        if name in _PER_PASS_LEAVES:
            vals[name] = np.stack([p[name] for p in passes])
            continue
        for p in passes[1:]:
            if p[name] is not value and not np.array_equal(p[name], value):
                raise ValueError(f"passes of one batch differ in leaf {name!r}")
        vals[name] = value
    return vals


def evaluate_passes(fg: ForwardGraph, passes: list[dict[str, np.ndarray]],
                    node: int) -> list[np.ndarray]:
    """The value of ``node`` in each pass over ``fg``, computed in forward
    passes of up to POINTS_PER_PASS passes stacked on their emb and
    target_mask leaves; every other leaf must be equal in all passes."""
    out: list[np.ndarray] = []
    for first in range(0, len(passes), POINTS_PER_PASS):
        batch = _stacked(passes[first:first + POINTS_PER_PASS])
        out.extend(evaluate(fg.graph, batch)[node])
    return out


def score_sums(bound_lists) -> list[float]:
    """For each list of (ForwardGraph, leaf values) passes, the sum of their
    score nodes, added in list order. Passes over the same cached graph are
    scored together, whichever lists they come from."""
    bound_lists = [list(bound) for bound in bound_lists]
    groups: dict[int, tuple[ForwardGraph, list]] = {}
    for i, bound in enumerate(bound_lists):
        for j, (fg, vals) in enumerate(bound):
            groups.setdefault(id(fg), (fg, []))[1].append((i, j, vals))
    scores = [[0.0] * len(bound) for bound in bound_lists]
    for fg, passes in groups.values():
        values = evaluate_passes(fg, [vals for _, _, vals in passes], fg.score)
        for (i, j, _), value in zip(passes, values):
            scores[i][j] = float(value)
    # plain left-to-right adds: sum() compensates on Python >= 3.12
    return [functools.reduce(operator.add, terms, 0.0) for terms in scores]


def terms_score(params: ModelParams, terms) -> float:
    """A score given as terms, evaluated on the model's own weights."""
    return score_sums([[term.bind(params) for term in terms]])[0]
