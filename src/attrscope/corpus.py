"""Synthetic translation corpus: a token-level bijection rendered as
"TR: s_i1 .. s_il SEP" -> "t_i1 .. t_il EOS" pairs."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models.vocab import Vocab, make_vocab

MAX_VOCAB = 64
HELDOUT_FRAC = 0.2  # share of the pairs held out from training


@dataclass(frozen=True)
class SynCorpus:
    lexicon_size: int
    vocab: Vocab
    source_ids: tuple[int, ...]   # token id of s_i
    target_ids: tuple[int, ...]   # token id of t_i (the bijection image)
    train_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    heldout_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    seed: int

    @property
    def tr_id(self) -> int:
        return self.vocab.index("TR:")

    def translate_source(self, source_token_id: int) -> int:
        """Bijection image of a source token id."""
        return self.target_ids[self.source_ids.index(source_token_id)]


def make_syn_corpus(lexicon_size: int, lengths, n_pairs: int,
                    seed: int) -> SynCorpus:
    if lexicon_size < 2:
        raise ValueError("need a lexicon of at least 2 entries")
    n_tokens = 5 + 2 * lexicon_size  # specials + TR: + lexicon
    if n_tokens > MAX_VOCAB:
        raise ValueError(f"vocab budget exceeded: {n_tokens} > {MAX_VOCAB}")
    lengths = sorted(set(int(x) for x in lengths))
    if not lengths or lengths[0] < 1:
        raise ValueError("lengths must be positive")

    vocab = make_vocab(["TR:"]
                       + [f"s{i}" for i in range(lexicon_size)]
                       + [f"t{i}" for i in range(lexicon_size)])
    source_ids = tuple(vocab.index(f"s{i}") for i in range(lexicon_size))
    target_ids = tuple(vocab.index(f"t{i}") for i in range(lexicon_size))
    tr, sep, eos = vocab.index("TR:"), vocab.sep, vocab.eos

    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    sequences: list[tuple[int, ...]] = []
    attempts = 0
    while len(sequences) < n_pairs and attempts < 100 * n_pairs:
        attempts += 1
        length = int(rng.choice(lengths))
        seq = tuple(int(rng.integers(lexicon_size)) for _ in range(length))
        if seq in seen:
            continue
        seen.add(seq)
        sequences.append(seq)

    pairs = []
    for seq in sequences:
        prompt = (tr,) + tuple(source_ids[i] for i in seq) + (sep,)
        target = tuple(target_ids[i] for i in seq) + (eos,)
        pairs.append((prompt, target))

    n_held = max(1, int(round(HELDOUT_FRAC * len(pairs))))
    return SynCorpus(lexicon_size=lexicon_size, vocab=vocab,
                     source_ids=source_ids, target_ids=target_ids,
                     train_pairs=tuple(pairs[n_held:]),
                     heldout_pairs=tuple(pairs[:n_held]), seed=seed)
