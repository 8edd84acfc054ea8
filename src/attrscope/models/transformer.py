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

Every score, log-prob and embedding-gradient pass is bound as a pass
group, a ScoreTerm plus embedding-row overrides, and run by run_groups;
``_bind``, which training calls too, is the one place leaf values are built.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ..autodiff import Graph, evaluate, grad
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
          target_mask: np.ndarray, overrides) -> dict[str, np.ndarray]:
    """Leaf values for a pass over the token ids ``ids``, of shape (L,), or
    (B, L) for a batched pass, taken from the score-graph leaves ``leaves``
    (``ModelParams.graph_weights``): the embeddings are the emb rows of the
    ids, with each (index, vector) of ``overrides`` written to
    ``emb[index]``, and every weight leaf is shared, not copied. The caller
    checks L against the context window."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.view(np.uint64).max() >= hp.vocab_size:  # catches negative ids too
        raise ValueError("token index out of vocab range")
    emb = leaves["emb"][ids]
    for index, vec in overrides:
        emb[index] = vec
    vals = dict(leaves)
    vals["emb"] = emb
    vals["pos"] = leaves["pos"][:ids.shape[-1]]
    vals["target_mask"] = target_mask
    return vals


@dataclass(frozen=True)
class ScoreTerm:
    """One forward pass of a score: the sum of ``log_probs[row, col]`` over
    ``targets`` for a pass over ``tokens``."""
    tokens: tuple[int, ...]
    causal: bool
    targets: tuple[tuple[int, int], ...]


# Points per pass: run_groups packs the pass groups over one cached graph,
# IG's path points among them, into passes of at most this many. A pass
# keeps every point's forward values (and, for IG, until its backward),
# about 0.3 MB per point for a 2-layer, width-64 model, so peak memory
# grows with this number while the per-node dispatch cost it saves shrinks.
POINTS_PER_PASS = 8


def run_groups(params: ModelParams, groups, read: str) -> list[np.ndarray]:
    """Per pass group, the value of its "score" or "log_probs" node, or
    (``read`` "emb_grad") the gradient of its score in its embeddings.

    A pass group is a (ScoreTerm, overrides) pair; ``overrides`` maps an
    embedding row to the vector that replaces it, (d,) for one pass or
    (B, d) for B passes, whose B values come back stacked. The groups over
    one cached graph (length, attention mode) share passes, in order."""
    hp = params.hyper
    sizes = []  # per group: B, or None for one unbatched pass
    by_graph: dict[tuple[int, bool], list[int]] = {}
    for i, (term, overrides) in enumerate(groups):
        batch = {len(v) for v in overrides.values() if v.ndim == 2} if overrides else ()
        if len(batch) > 1:
            raise ValueError("overrides of one pass group differ in batch size")
        sizes.append(batch.pop() if batch else None)
        by_graph.setdefault((len(term.tokens), term.causal), []).append(i)
    pieces: list[list[np.ndarray]] = [[] for _ in groups]
    for (length, causal), members in by_graph.items():
        check_context(hp, length)
        fg = build_forward_graph(hp, length, causal)
        points = [(i, k) for i in members for k in range(sizes[i] or 1)]
        for first in range(0, len(points), POINTS_PER_PASS):
            _run_pass(params, fg, groups, read, pieces,
                      points[first:first + POINTS_PER_PASS])
    return [p[0][0] if n is None else p[0] if len(p) == 1 else np.concatenate(p)
            for p, n in zip(pieces, sizes)]


def _run_pass(params: ModelParams, fg: ForwardGraph, groups, read: str,
              pieces: list[list[np.ndarray]], points) -> None:
    """One pass over ``fg`` of ``points``, each (group, point); appends
    each group's values in it, stacked, to the group's pieces."""
    segments: dict[int, list[int]] = {}  # group -> its points in this pass
    for i, k in points:
        segments.setdefault(i, []).append(k)
    ids, overrides = [], []
    for i, ks in segments.items():
        term, rows = groups[i]
        at = slice(len(ids), len(ids) + len(ks))
        overrides += [((at, row), vec if vec.ndim == 1 else vec[ks[0]:ks[-1] + 1])
                      for row, vec in rows.items()]
        ids += [term.tokens] * len(ks)
    hp = params.hyper
    masks = _target_masks(hp, len(ids[0]),
                          [groups[i][0].targets for i in segments])
    if len(ids) > len(segments):  # a group has several points in the pass
        masks = masks.repeat([len(ks) for ks in segments.values()], axis=0)
    vals = _bind(hp, params.graph_weights, ids, masks, overrides)
    if len(ids) == 1:  # numpy runs a one-point pass faster unbatched
        vals["emb"], vals["target_mask"] = vals["emb"][0], vals["target_mask"][0]
    if read == "emb_grad":
        out = grad(fg.graph, fg.score, vals, wrt=("emb",))["emb"]
    else:
        out = evaluate(fg.graph, vals)[getattr(fg, read)]
    out = out[None] if len(ids) == 1 else out
    for i, ks in segments.items():
        pieces[i].append(out[:len(ks)])
        out = out[len(ks):]


def score_sums(params: ModelParams, group_lists) -> list[float]:
    """For each list of pass groups (see run_groups), the sum of their
    scores, added in list order. The groups of all lists are run together."""
    values = iter(run_groups(params, [group for groups in group_lists
                                      for group in groups], "score"))
    # plain left-to-right adds: sum() compensates on Python >= 3.12
    return [functools.reduce(operator.add,
                             [float(next(values)) for _ in groups], 0.0)
            for groups in group_lists]


def terms_score(params: ModelParams, terms) -> float:
    """A score given as terms, evaluated on the model's own weights."""
    return score_sums(params, [[(term, {}) for term in terms]])[0]
