"""Plain SGD training with cosine-decayed learning rate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..autodiff import NumericError, grad
from .autoregressive import span_term
from .classifier import class_term
from .params import AR, DIFFUSION, Hyperparams, ModelParams, init_params
from .transformer import (
    _CACHE, ScoreTerm, _bind, _graph_key, _target_masks, build_forward_graph,
    terms_score,
)
from .vocab import Vocab


class TrainingDiverged(Exception):
    """Loss became non-finite; aborts with the offending step recorded."""


_LOSS_CACHE = _CACHE  # the one graph cache; attrbench/run.py clears it by this name
DEFAULT_LR = 0.05      # the peak learning rate train and `train --lr` default to
LR_FLOOR_FRAC = 0.02   # the decayed rate never drops below this fraction of lr
BATCH_SIZE = 8         # examples per SGD step


def _example_term(kind: str, vocab: Vocab, example,
                  rng: np.random.Generator) -> ScoreTerm:
    """The score term one training example maximises, for a model of
    ``kind`` over ``vocab``. A diffusion term reads every row: pruned to its
    masked slots, almost every term would have a graph of its own."""
    if kind == AR:
        prompt, target = example
        return span_term(prompt, target)
    if kind == DIFFUSION:
        prompt, response = example
        n = len(prompt)
        tokens = list(prompt) + list(response)
        p_mask = float(rng.uniform(0.15, 1.0))
        masked = [s for s in range(len(response)) if rng.uniform() < p_mask]
        if not masked:
            masked = [int(rng.integers(len(response)))]
        for s in masked:
            tokens[n + s] = vocab.mask
        return ScoreTerm(tokens=tuple(tokens),
                         targets=tuple((n + s, response[s]) for s in masked),
                         rows=tuple(range(len(tokens))))
    tokens, label = example
    return class_term(tokens, label)


def _batch_grads(hp: Hyperparams, pad: int, leaves: dict[str, np.ndarray],
                 terms: list[ScoreTerm]) -> tuple[float, dict[str, np.ndarray]]:
    """The minibatch's loss (minus its summed score) and the summed score's
    gradient, keyed by weight, at the weights ``leaves`` (as
    ``ModelParams.weights`` holds them).

    An AR model's terms run in one forward and one backward pass, cut or
    right-padded with the ``pad`` id to the ``_graph_key`` graph that reads
    every row from the first any term reads to the last, one graph per
    (longest length, first read row): a causal row never attends to a
    later one, and pad rows are in no target, so they change no real row
    and get exactly zero gradient. Padding would change what a
    bidirectional row attends to, so another model's terms run in one full
    pass per length. Each gradient is an array of its own, none a view of
    another."""
    buckets: dict[int | None, list[ScoreTerm]] = {}
    for term in terms:
        buckets.setdefault(None if hp.kind == AR else len(term.tokens),
                           []).append(term)
    loss = 0.0
    acc: dict[str, np.ndarray] = {}
    for bucket in buckets.values():
        read = {row for term in bucket for row, _ in term.targets}.union(
            *(term.rows for term in bucket))
        L, rows = _graph_key(hp, ScoreTerm(
            max((term.tokens for term in bucket), key=len), (),
            tuple(range(min(read), max(read) + 1))))
        ids = np.full((len(bucket), L), pad)
        for row, term in zip(ids, bucket):
            row[:min(L, len(term.tokens))] = term.tokens[:L]
        fg = build_forward_graph(hp, L, rows)
        masks = _target_masks(hp, fg.rows, [term.targets for term in bucket])
        # each term's score is its table against its mask: the backward of
        # the tables seeded with the masks gives the summed score's gradient
        table, grads = grad(fg.graph, fg.log_probs, _bind(hp, leaves, ids, ()),
                            fg.graph.leaves, masks)
        loss -= float((table * masks).reshape(len(bucket), -1).sum(-1).sum())
        for name, gval in grads.items():
            if name == "emb":  # (B, L, d): one row per token of each term
                # one GEMM: each id's one-hot against the rows it fed
                flat = ids.reshape(-1)
                onehot = np.zeros((len(leaves["emb"]), len(flat)))
                onehot[flat, np.arange(len(flat))] = 1.0
                gval = onehot @ gval.reshape(len(flat), -1)
            elif name == "pos":  # into the L rows the pass read alone
                if name not in acc:
                    acc[name] = np.zeros_like(leaves[name])
                acc[name][:L] += gval
                continue
            if name in acc:
                acc[name] += gval
            else:
                acc[name] = gval
    return loss, acc


def _mean_loss(params: ModelParams, corpus, seed: int) -> float:
    """Minus the mean score of the corpus's terms, as drawn."""
    rng = np.random.default_rng(seed)  # fixed seed: a loss comparable across runs
    terms = [_example_term(params.kind, params.vocab, ex, rng) for ex in corpus]
    return -terms_score(params, terms) / len(corpus)


@dataclass
class TrainResult:
    params: ModelParams
    final_loss: float


def train(corpus, vocab: Vocab, hp: Hyperparams, seed: int, *,
          steps: int = 2000, lr: float = DEFAULT_LR) -> TrainResult:
    """SGD with cosine decay of a model of kind ``hp.kind``; deterministic
    given (corpus, hp, seed).

    Each step draws BATCH_SIZE examples and ascends their summed score by
    one forward and one backward pass over all of them, which computes
    only the rows their scores read (one full pass per length for
    bidirectional terms; see ``_batch_grads``). The weights are held as the
    score graph's leaves throughout, and made a ModelParams once, at the
    end."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    rng = np.random.default_rng(seed)
    # each step writes the weights in place: no model holds them until the
    # last step is done
    leaves = dict(init_params(hp, vocab, seed).weights)
    last_loss = math.nan

    for step in range(steps):
        lr_t = max(lr * LR_FLOOR_FRAC,
                   0.5 * lr * (1.0 + math.cos(math.pi * step / steps)))
        idx = rng.integers(0, len(corpus), size=BATCH_SIZE)
        terms = [_example_term(hp.kind, vocab, corpus[int(j)], rng)
                 for j in idx]
        try:
            batch_loss, acc = _batch_grads(hp, vocab.pad, leaves, terms)
        except NumericError as exc:
            raise TrainingDiverged(
                f"non-finite loss at step {step} (last finite: {last_loss})") from exc
        last_loss = batch_loss / BATCH_SIZE
        # ascend the score, i.e. descend the loss: ``w + (lr_t / BATCH_SIZE)
        # * g``, in place. The next pass checks the weights' finiteness, so
        # overflow here is not worth a warning
        with np.errstate(all="ignore"):
            for name, gval in acc.items():
                gval *= lr_t / BATCH_SIZE
                leaves[name] += gval

    params = ModelParams(hyper=hp, vocab=vocab, weights=leaves)
    eval_corpus = list(corpus[: min(64, len(corpus))])
    try:
        final_loss = _mean_loss(params, eval_corpus, seed=seed + 1)
    except NumericError as exc:  # the last update overflowed
        raise TrainingDiverged(
            f"non-finite final loss after {steps} steps"
            f" (last finite: {last_loss})") from exc
    return TrainResult(params=params, final_loss=final_loss)
