"""Transformer forward passes expressed as autodiff graphs, ending in the
log-prob table every contract score and the training loss are read from.

Graphs depend only on (hyperparams, sequence length, the rows they
compute), so they are cached and re-evaluated with different leaf values.
The model kind fixes the attention mode: an AR model's passes are causal,
every other model's bidirectional. The weights and the per-token input
embeddings are leaves; each layer's attention weights hold every head on
a leading axis, as ``ModelParams.weights`` keeps them, so every head runs
in the same nodes.
Each graph ends in its ``log_softmax`` table. One forward pass of a score
is a ScoreTerm, naming the tokens and the (row, column) log-prob entries
it sums: its score is ``(table * mask).sum()`` for the term's target mask,
1 at each of those entries, and the gradient of the score is the table's
backward seeded with that mask (see ``autodiff.grad``).

A pass computes only the log-prob rows it reads, a training pass too. In
the last block, keys and values stay on every row, while the query, the
attention output, the MLP, the final layer norm and the output head run on
the read rows alone. An AR pass also stops at its last read row: no
earlier row attends to a later one, so the graph is built at length
``max(rows) + 1``. Diffusion training (its terms read every row) and the
classifier's pooled head use the full graph, the graph of every row.

Every log-prob and embedding-gradient pass is bound as a pass group, a
ScoreTerm plus embedding-row overrides, and run by run_groups; ``_bind``,
which training calls too, is the one place leaf values are built.
score_sums, the one place a score is computed, reads the tables.

Within one op (see ``op``), each distinct input of a log-prob pass runs
through the model at most once. The op's store holds the log-prob table of
each such input, under its ``table_key``, and run_groups alone reads and
fills it: a read of a group that overrides no row is answered from the
table of its input when the store, or an identical input earlier in the
same run_groups call, has one. Batched passes equal unbatched ones, so a
served table equals a fresh pass bit for bit. A stage term over a chain's
state reads every response slot, as the chain's step did, so the term's
graph and input are the step's. Outside an op no table outlives its
run_groups call. Embedding gradients always run their passes.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import operator
from dataclasses import dataclass

import numpy as np

from ..autodiff import Graph, evaluate, grad
from .params import AR, CLASSIFIER, Hyperparams, ModelParams

NEG_MASK = -1e9  # additive attention mask; large but finite


class ContextOverflowError(ValueError):
    """Sequence longer than the model's context window."""


@dataclass(frozen=True)
class ForwardGraph:
    graph: Graph
    log_probs: int  # log_softmax node: (len(rows), V), or (1, C) for classifiers
    rows: tuple[int, ...]  # the sequence row of each log-prob row


_CACHE: dict[tuple, ForwardGraph] = {}


def build_forward_graph(hp: Hyperparams, seq_len: int,
                        rows=None) -> ForwardGraph:
    """The cached graph over ``seq_len`` tokens whose log-prob table
    holds only the sorted sequence rows ``rows``. Every row, or None, gives
    the full graph, which is a classifier's only graph."""
    if rows is not None:
        rows = tuple(rows)
        if hp.kind == CLASSIFIER or rows == tuple(range(seq_len)):
            rows = None
    key = (hp, seq_len, rows)
    if key in _CACHE:
        return _CACHE[key]
    fg = build_fresh_forward_graph(hp, seq_len, rows)
    _CACHE[key] = fg
    return fg


def build_fresh_forward_graph(hp: Hyperparams, seq_len: int,
                              rows=None) -> ForwardGraph:
    """Uncached variant of build_forward_graph, for the rows it passes: a
    tuple of some of the rows, or None."""
    g = Graph()
    d, dh, H = hp.width, hp.head_dim, hp.heads
    emb = g.leaf((seq_len, d), "emb")
    pos = g.leaf((seq_len, d), "pos")
    x = g.add(emb, pos)

    if hp.kind == AR:
        mask = np.triu(np.full((seq_len, seq_len), NEG_MASK), k=1)
    else:
        mask = np.zeros((seq_len, seq_len))
    scale = 1.0 / np.sqrt(dh)

    def layer_norm(xid: int, name: str) -> int:
        return g.layer_norm(xid, g.leaf((d,), name + ".g"),
                            g.leaf((d,), name + ".b"))

    def affine(xid: int, shape: tuple[int, int], w: str, b: str) -> int:
        return g.affine(xid, g.leaf(shape, w), g.leaf(shape[1:], b))

    for i in range(hp.layers):
        p = f"blk{i}."
        # every head at once: the heads axis sits before the rows
        h = layer_norm(x, p + "ln1")
        hq, mask_q = h, mask
        if rows is not None and i == hp.layers - 1:
            # from here on only the read rows: their queries attend to the
            # keys and values of every row
            hq, x = g.rows(h, rows), g.rows(x, rows)
            mask_q = mask[list(rows)]
        q = g.heads(hq, g.leaf((H, d, dh), p + "wq"))
        k = g.heads(h, g.leaf((H, d, dh), p + "wk"))
        v = g.heads(h, g.leaf((H, d, dh), p + "wv"))
        a = g.softmax(g.scores(q, k, scale), mask_q)
        o = g.merge_heads(g.matmul(a, v), g.leaf((H, dh, d), p + "wo"))
        x = g.add(x, o)

        m = hp.mlp_hidden
        u = affine(layer_norm(x, p + "ln2"), (d, m), p + "mlp.w1", p + "mlp.b1")
        x = g.add(x, affine(g.gelu(u), (m, d), p + "mlp.w2", p + "mlp.b2"))

    xf = layer_norm(x, "lnf")
    if hp.kind == CLASSIFIER:
        pool = g.matmul(g.const(np.full((1, seq_len), 1.0 / seq_len)), xf)
        logits = affine(pool, (d, hp.n_classes), "head.w", "head.b")
        table_rows = (0,)
    else:
        logits = affine(xf, (d, hp.vocab_size), "out.w", "out.b")
        table_rows = tuple(range(seq_len)) if rows is None else rows
    return ForwardGraph(graph=g, log_probs=g.log_softmax(logits),
                        rows=table_rows)


def check_context(hp: Hyperparams, length: int) -> None:
    if length > hp.context_len:
        raise ContextOverflowError(
            f"sequence length {length} exceeds context {hp.context_len}")
    if length < 1:
        raise ValueError("sequence must be non-empty")


def _target_masks(hp: Hyperparams, rows, target_lists) -> np.ndarray:
    """One target mask per list of score targets, stacked, for a log-prob
    table of the sequence rows ``rows`` (``ForwardGraph.rows``): 1 at each
    (row, column) log-prob entry the pass's score sums, else 0."""
    target_lists = list(target_lists)
    cols = hp.n_classes if hp.kind == CLASSIFIER else hp.vocab_size
    masks = np.zeros((len(target_lists), len(rows), cols))
    at = {row: i for i, row in enumerate(rows)}
    for mask, targets in zip(masks, target_lists):
        for row, col in targets:
            if row not in at or not 0 <= col < cols:
                raise ValueError(f"score target ({row}, {col}) outside the"
                                 f" {len(rows)} x {cols} log-prob table")
            mask[at[row], col] = 1.0
    return masks


def _bind(hp: Hyperparams, leaves: dict[str, np.ndarray], ids,
          overrides) -> dict[str, np.ndarray]:
    """Leaf values for a pass over the token ids ``ids``, of shape (L,), or
    (B, L) for a batched pass, taken from the weights ``leaves`` (as
    ``ModelParams.weights`` holds them): the embeddings are the emb rows of the
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
    return vals


@dataclass(frozen=True)
class ScoreTerm:
    """One forward pass of a score: the sum of ``log_probs[row, col]`` over
    ``targets`` for a pass over ``tokens``. The pass reads the target rows
    and ``rows``, the further rows its log-prob table holds, and computes
    only those (see run_groups); a term that names no row reads
    every row."""
    tokens: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]
    rows: tuple[int, ...] = ()


# Points per pass: run_groups packs the pass groups over one cached graph,
# IG's path points among them, into passes of at most POINTS_PER_PASS
# points and at most ROWS_PER_PASS rows, points times the graph's length.
# A log-prob pass keeps only the table it returns, and an embedding-gradient
# pass what its backward reads (see autodiff): for a 2-layer, width-64
# model over 21 tokens, a pass's traced peak is about 0.10 MB per point at
# 11 rows for a score and 0.22 MB for an embedding gradient, and 0.41 and
# 0.97 MB at 64 rows. Peak memory grows with the rows of a pass while the
# share of the per-pass dispatch cost each point pays shrinks; the row
# budget keeps a long graph's passes near the memory of a short one's.
POINTS_PER_PASS = 16
ROWS_PER_PASS = 128


def _pass_size(length: int) -> int:
    """The points of a pass over a graph of ``length`` rows."""
    return max(1, min(POINTS_PER_PASS, ROWS_PER_PASS // length))


def pass_points(hp: Hyperparams, terms) -> int:
    """The points of a pass that fits the graph of each of ``terms``."""
    return min(_pass_size(_graph_key(hp, term)[0]) for term in terms)


def _graph_key(hp: Hyperparams, term: ScoreTerm):
    """(length, rows) of the cached graph that passes over ``term`` run
    on: the rows are the log-prob rows it reads (None: every row), and an
    AR model's graph ends at the last of them."""
    length = len(term.tokens)
    check_context(hp, length)
    rows = sorted({row for row, _ in term.targets}.union(term.rows))
    if hp.kind == CLASSIFIER or not rows:
        return length, None
    if rows[0] < 0 or rows[-1] >= length:
        raise ValueError(f"log-prob rows {rows} outside a pass over"
                         f" {length} tokens")
    if hp.kind == AR:
        length = rows[-1] + 1
    return length, None if len(rows) == length else tuple(rows)


def table_key(params: ModelParams, term: ScoreTerm) -> tuple:
    """The pass input of ``term``, which keys the log-prob table of its
    pass: the model id, the key of the cached graph the pass runs on
    (length, rows read) and the tokens that graph reads."""
    key = _graph_key(params.hyper, term)
    return params.model_id, key, term.tokens[:key[0]]


# The store of the open op, or None outside any op.
_STORE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "op_store", default=None)


@contextlib.contextmanager
def op():
    """Runs its body in one op: opens a fresh store of log-prob tables, or
    joins the op already open, and on leaving the op it opened closes the
    store again, on an exception too. Works as a decorator as well:
    ``compute_map``, ``faithfulness_report`` and the ``attribute`` and
    ``evaluate`` commands each run in one op; ``train`` runs in none."""
    if _STORE.get() is not None:
        yield
        return
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


def run_groups(params: ModelParams, groups, read: str) -> list[np.ndarray]:
    """Per pass group, its "log_probs" table (the rows its term reads, in
    row order) or, with ``read`` "emb_grad", the gradient of its score in
    its embeddings: (L, d) for a term of L tokens, exactly zero in the rows
    after an AR pass's last read row.

    A pass group is a (ScoreTerm, overrides) pair; ``overrides`` maps an
    embedding row to the vector that replaces it, (d,) for one pass or
    (B, d) for B passes, whose B values come back stacked. The groups over
    one cached graph (length, rows read) share passes, in order. A
    log-prob read of a group that overrides nothing runs no pass when the
    store of the open op (see ``op``) holds the table of its input or an
    earlier group has the same input. Both are found under the term's
    table_key: the model, the graph and the tokens it reads. Such a group's
    table is read-only, and in an op it stays in the op's store."""
    if read not in ("log_probs", "emb_grad"):
        raise ValueError(f"unknown read {read!r}")
    hp = params.hyper
    inputs = [table_key(params, term) for term, _ in groups]
    store = _STORE.get()
    tables = {} if store is None else store  # input -> its log-prob table
    fresh: dict[tuple, int] = {}  # input -> the group whose pass runs it
    sizes = []  # per group: B, or None for one unbatched pass
    by_graph: dict[tuple, list[int]] = {}
    for i, ((term, overrides), inp) in enumerate(zip(groups, inputs)):
        batch = {len(v) for v in overrides.values() if v.ndim == 2} if overrides else ()
        if len(batch) > 1:
            raise ValueError("overrides of one pass group differ in batch size")
        sizes.append(batch.pop() if batch else None)
        if read == "log_probs" and not overrides:
            if inp in tables or inp in fresh:
                continue
            fresh[inp] = i
        by_graph.setdefault(inp[1], []).append(i)
    pieces: list[list[np.ndarray]] = [[] for _ in groups]
    for key, members in by_graph.items():
        fg = build_forward_graph(hp, *key)
        points = [(i, k) for i in members for k in range(sizes[i] or 1)]
        size = _pass_size(key[0])
        for start in range(0, len(points), size):
            _run_pass(params, fg, key[0], groups, read, pieces,
                      points[start:start + size])
    for inp, i in fresh.items():
        table = pieces[i][0][0]
        table.flags.writeable = False  # kept, and read by later groups
        tables[inp] = table
    out = []
    for (_, overrides), inp, p, n in zip(groups, inputs, pieces, sizes):
        if read == "log_probs" and not overrides:
            out.append(tables[inp])
        else:
            out.append(p[0][0] if n is None else p[0] if len(p) == 1
                       else np.concatenate(p))
    return out


def _run_pass(params: ModelParams, fg: ForwardGraph, length: int, groups,
              read: str, pieces: list[list[np.ndarray]], points) -> None:
    """One pass over ``fg``, a graph over the first ``length`` tokens of
    each term, of ``points``, each (group, point); appends each group's
    values in it, stacked, to the group's pieces."""
    segments: dict[int, list[int]] = {}  # group -> its points in this pass
    for i, k in points:
        segments.setdefault(i, []).append(k)
    ids, overrides = [], []
    for i, ks in segments.items():
        term, replaced = groups[i]
        at = slice(len(ids), len(ids) + len(ks))
        overrides += [((at, row), vec if vec.ndim == 1 else vec[ks[0]:ks[-1] + 1])
                      for row, vec in replaced.items() if row < length]
        ids += [term.tokens[:length]] * len(ks)
    hp = params.hyper
    vals = _bind(hp, params.weights, ids, overrides)
    if read == "emb_grad":
        # each point's score is its table against its term's target mask
        masks = _target_masks(hp, fg.rows,
                              [groups[i][0].targets for i in segments])
        if len(ids) > len(segments):  # a group has several points in the pass
            masks = masks.repeat([len(ks) for ks in segments.values()], axis=0)
        out = grad(fg.graph, fg.log_probs, vals, ("emb",), masks)[1]["emb"]
    else:
        # the pass keeps only the table
        out = evaluate(fg.graph, vals, (fg.log_probs,))[fg.log_probs]
    at = 0
    for i, ks in segments.items():
        piece = out[at:at + len(ks)]
        at += len(ks)
        full = len(groups[i][0].tokens)
        if read == "emb_grad" and full > length:
            # the rows the AR pass stopped before feed no row it reads
            piece = np.concatenate(
                [piece, np.zeros((len(ks), full - length, piece.shape[-1]))],
                axis=1)
        pieces[i].append(piece)


def score_sums(params: ModelParams, group_lists) -> list[float]:
    """For each list of pass groups (see run_groups), each overriding rows
    with (d,) vectors or none, the sum of their scores, added in list
    order. A group's score is ``(table * mask).sum()``, its log-prob table
    against its term's target mask. The groups of all lists are run
    together."""
    hp = params.hyper
    groups = [group for groups in group_lists for group in groups]
    scores = []
    for (term, _), table in zip(groups, run_groups(params, groups, "log_probs")):
        rows = build_forward_graph(hp, *_graph_key(hp, term)).rows
        mask = _target_masks(hp, rows, [term.targets])[0]
        scores.append(float((table * mask).sum()))
    scores = iter(scores)
    # plain left-to-right adds: sum() compensates on Python >= 3.12
    return [functools.reduce(operator.add, [next(scores) for _ in groups], 0.0)
            for groups in group_lists]


def terms_score(params: ModelParams, terms) -> float:
    """A score given as terms, evaluated on the model's own weights."""
    return score_sums(params, [[(term, {}) for term in terms]])[0]
