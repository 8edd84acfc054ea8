"""Synthetic translation corpus: a token-level bijection rendered as
"TR: s_i1 .. s_il SEP" -> "t_i1 .. t_il EOS" pairs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models.vocab import Vocab, make_vocab

MAX_VOCAB = 64
HELDOUT_FRAC = 0.2  # share of the pairs held out from training


@dataclass(frozen=True)
class SynCorpus:
    vocab: Vocab
    train_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    heldout_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


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
    source_ids = [vocab.index(f"s{i}") for i in range(lexicon_size)]
    target_ids = [vocab.index(f"t{i}") for i in range(lexicon_size)]  # s_i -> t_i
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
    return SynCorpus(vocab=vocab, train_pairs=tuple(pairs[n_held:]),
                     heldout_pairs=tuple(pairs[:n_held]))
