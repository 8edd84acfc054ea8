"""Symbolic token vocabulary with the four reserved specials."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    pad: int
    mask: int
    sep: int
    eos: int

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocab tokens must be distinct")
        specials = (self.pad, self.mask, self.sep, self.eos)
        if len(set(specials)) != 4:
            raise ValueError("special token indices must be distinct")
        for idx in specials:
            if not (0 <= idx < len(self.tokens)):
                raise ValueError(f"special index {idx} out of range")

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise KeyError(f"unknown token {token!r}") from None

    def encode(self, text: str) -> list[int]:
        return [self.index(tok) for tok in text.split()]

    def decode(self, ids) -> str:
        return " ".join(self.tokens[i] for i in ids)


def make_vocab(extra_tokens) -> Vocab:
    """Standard layout: PAD, MASK, SEP, EOS first, then the task tokens."""
    tokens = ("<pad>", "<mask>", "SEP", "EOS") + tuple(extra_tokens)
    return Vocab(tokens=tokens, pad=0, mask=1, sep=2, eos=3)
