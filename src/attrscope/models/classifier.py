"""Toy classifier head over a pooled transformer representation."""
from __future__ import annotations

from .transformer import ScoreTerm


def class_term(tokens, class_index: int) -> ScoreTerm:
    """log p(class | tokens): the pooled pass's only log-prob row."""
    return ScoreTerm(tokens=tuple(tokens), targets=((0, class_index),))
