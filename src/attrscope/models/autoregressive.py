"""Autoregressive scores and decoding."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, AR
from .transformer import ScoreTerm, check_context, run_groups, terms_score


def _require_ar(params: ModelParams) -> None:
    if params.kind != AR:
        raise ValueError(f"operation requires an autoregressive model, got {params.kind}")


def ar_next_log_probs(params: ModelParams, prompt, prefix) -> np.ndarray:
    """log p(. | prompt, prefix): a vector over the vocabulary, from a pass
    that computes the last row alone."""
    _require_ar(params)
    tokens = tuple(prompt) + tuple(prefix)
    term = ScoreTerm(tokens=tokens, targets=(), rows=(len(tokens) - 1,))
    return run_groups(params, [(term, {})], "log_probs")[0][0]


def token_term(prompt, prefix, target: int) -> ScoreTerm:
    """log p(target | prompt, prefix): the last row of one causal pass."""
    tokens = tuple(prompt) + tuple(prefix)
    return ScoreTerm(tokens=tokens, targets=((len(tokens) - 1, target),))


def span_term(prompt, span) -> ScoreTerm:
    """log p(span | prompt): one causal pass over prompt + span, where the
    row before each span token scores that token."""
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if not span:
        raise ValueError("span must be non-empty")
    n = len(prompt)
    return ScoreTerm(tokens=tuple(prompt) + tuple(span),
                     targets=tuple((n + i - 1, tok) for i, tok in enumerate(span)))


def span_log_prob(params: ModelParams, prompt, span) -> float:
    """log p(span | prompt) = sum of per-token conditionals, one forward pass."""
    _require_ar(params)
    return terms_score(params, [span_term(prompt, span)])


@dataclass(frozen=True)
class GreedyPolicy:
    """Decode the most likely token at each step."""


@dataclass(frozen=True)
class SamplePolicy:
    temperature: float = 1.0


def ar_generate(params: ModelParams, prompt, max_len: int, policy, seed: int) -> list[int]:
    """Decode until EOS or max_len; deterministic given (params, inputs, seed)."""
    _require_ar(params)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[int] = []
    for _ in range(max_len):
        check_context(params.hyper, len(prompt) + len(out) + 1)
        logp = ar_next_log_probs(params, prompt, out)
        if isinstance(policy, GreedyPolicy):
            tok = int(np.argmax(logp))
        elif isinstance(policy, SamplePolicy):
            scaled = logp / policy.temperature
            p = np.exp(scaled - scaled.max())
            p /= p.sum()
            tok = int(rng.choice(len(p), p=p))
        else:
            raise ValueError(f"unknown decode policy {policy!r}")
        out.append(tok)
        if tok == params.vocab.eos:
            break
    return out
