"""Plain SGD training with cosine-decayed learning rate."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..autodiff import NumericError, evaluate, grad
from .autoregressive import span_term
from .classifier import class_term
from .params import (
    AR, DIFFUSION, Hyperparams, ModelParams, init_params, per_head,
)
from .transformer import _CACHE, ScoreTerm, _stacked, terms_score
from .vocab import Vocab


class TrainingDiverged(Exception):
    """Loss became non-finite; aborts with the offending step recorded."""


_LOSS_CACHE = _CACHE  # the one graph cache; attrbench/run.py clears it by this name
LR_FLOOR_FRAC = 0.02   # the decayed rate never drops below this fraction of lr
BATCH_SIZE = 8         # examples per SGD step


def _example_term(params: ModelParams, example, rng: np.random.Generator) -> ScoreTerm:
    """The score term one training example maximises, for the model's kind."""
    hp = params.hyper
    if hp.kind == AR:
        prompt, target = example
        return span_term(prompt, target)
    if hp.kind == DIFFUSION:
        prompt, response = example
        n = len(prompt)
        tokens = list(prompt) + list(response)
        p_mask = float(rng.uniform(0.15, 1.0))
        masked = [s for s in range(len(response)) if rng.uniform() < p_mask]
        if not masked:
            masked = [int(rng.integers(len(response)))]
        for s in masked:
            tokens[n + s] = params.vocab.mask
        return ScoreTerm(tokens=tuple(tokens), causal=False,
                         targets=tuple((n + s, response[s]) for s in masked))
    tokens, label = example
    return class_term(tokens, label)


def _batch_grads(params: ModelParams,
                 terms: list[ScoreTerm]) -> tuple[float, dict[str, np.ndarray]]:
    """The minibatch's loss (minus its summed score) and the summed score's
    gradient, from one forward and one backward pass per length bucket."""
    buckets: dict[tuple[int, bool], list[ScoreTerm]] = {}
    for term in terms:
        buckets.setdefault((len(term.tokens), term.causal), []).append(term)
    loss = 0.0
    acc: dict[str, np.ndarray] = {}
    for (L, _), bucket in buckets.items():
        bound = [term.bind(params) for term in bucket]
        fg, vals = bound[0][0], _stacked([v for _, v in bound])
        forward = evaluate(fg.graph, vals)
        loss -= float(forward[fg.score].sum())
        weights = [name for name in fg.graph.leaves if name != "target_mask"]
        for name, gval in grad(fg.graph, fg.score, vals, weights,
                               forward=forward).items():
            if name == "emb":  # (B, L, d): one row per token of each term
                ge = np.zeros_like(params.weights["emb"])
                ids = np.asarray([term.tokens for term in bucket], dtype=int)
                np.add.at(ge, ids.reshape(-1), gval.reshape(-1, gval.shape[-1]))
                gval = ge
            elif name == "pos":
                gp = np.zeros_like(params.weights["pos"])
                gp[:L] = gval
                gval = gp
            acc[name] = acc[name] + gval if name in acc else gval
    return loss, acc


def _mean_loss(params: ModelParams, corpus, seed: int) -> float:
    rng = np.random.default_rng(seed)  # fixed seed: a loss comparable across runs
    terms = (_example_term(params, example, rng) for example in corpus)
    return -terms_score(params, terms) / len(corpus)


@dataclass
class TrainResult:
    params: ModelParams
    final_loss: float


def train(kind: str, corpus, vocab: Vocab, hp: Hyperparams, seed: int, *,
          steps: int = 2000, lr: float = 0.5) -> TrainResult:
    """SGD with cosine decay; deterministic given (corpus, hp, seed)."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if hp.kind != kind:
        raise ValueError("hyperparams kind disagrees with requested kind")
    rng = np.random.default_rng(seed)
    params = init_params(hp, vocab, seed)
    last_loss = math.nan

    for step in range(steps):
        lr_t = max(lr * LR_FLOOR_FRAC,
                   0.5 * lr * (1.0 + math.cos(math.pi * step / steps)))
        idx = rng.integers(0, len(corpus), size=BATCH_SIZE)
        terms = [_example_term(params, corpus[int(j)], rng) for j in idx]
        try:
            batch_loss, acc = _batch_grads(params, terms)
        except NumericError as exc:
            raise TrainingDiverged(
                f"non-finite loss at step {step} (last finite: {last_loss})") from exc
        last_loss = batch_loss / BATCH_SIZE
        # ascend the score, i.e. descend the loss
        new_weights = dict(params.weights)
        for name, gval in per_head(hp, acc).items():
            new_weights[name] = params.weights[name] + (lr_t / BATCH_SIZE) * gval
        params = ModelParams(hyper=hp, vocab=params.vocab, weights=new_weights)

    eval_corpus = list(corpus[: min(64, len(corpus))])
    return TrainResult(params=params,
                       final_loss=_mean_loss(params, eval_corpus, seed=seed + 1))
