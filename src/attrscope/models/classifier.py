"""Toy classifier head over a pooled transformer representation."""
from __future__ import annotations

from .params import ModelParams, CLASSIFIER
from .transformer import ScoreTerm, terms_score


def class_term(tokens, class_index: int) -> ScoreTerm:
    """log p(class | tokens): the pooled pass's only log-prob row."""
    return ScoreTerm(tokens=tuple(tokens), causal=False,
                     targets=((0, class_index),))


def classifier_log_prob(params: ModelParams, tokens, class_index: int) -> float:
    if params.kind != CLASSIFIER:
        raise ValueError(f"operation requires a classifier model, got {params.kind}")
    if not (0 <= class_index < params.hyper.n_classes):
        raise ValueError(f"class index {class_index} out of range")
    return terms_score(params, [class_term(tokens, class_index)])
