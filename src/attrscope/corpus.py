"""Synthetic translation corpus: a token-level bijection rendered as
"TR: s_i1 .. s_il SEP" -> "t_i1 .. t_il EOS" pairs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models.params import Hyperparams
from .models.vocab import Vocab, make_vocab

MAX_VOCAB = 64
HELDOUT_FRAC = 0.2  # share of the pairs held out from training


@dataclass(frozen=True)
class SynCorpus:
    vocab: Vocab
    train_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    heldout_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def make_syn_corpus(lexicon_size: int, lengths, n_pairs: int,
                    seed: int) -> SynCorpus:
    """Up to ``n_pairs`` distinct pairs; fewer when the lexicon and lengths
    give fewer distinct sequences or the draws keep repeating."""
    if not _is_int(lexicon_size) or lexicon_size < 2:
        raise ValueError("need a lexicon of at least 2 entries")
    n_tokens = 5 + 2 * lexicon_size  # specials + TR: + lexicon
    if n_tokens > MAX_VOCAB:
        raise ValueError(f"vocab budget exceeded: {n_tokens} > {MAX_VOCAB}")
    if not _is_int(n_pairs) or n_pairs < 1:
        raise ValueError(f"n_pairs must be an integer >= 1, got {n_pairs!r}")
    lengths = list(lengths)
    if not lengths or not all(_is_int(x) and x >= 1 for x in lengths):
        raise ValueError(f"lengths must be integers >= 1, got {lengths!r}")
    lengths = sorted(set(lengths))
    # a pair of source length L is a pass of 2L + 3 tokens (prompt and
    # target), and must fit the default context window
    context = Hyperparams.context_len
    if 2 * lengths[-1] + 3 > context:
        raise ValueError(f"length {lengths[-1]} gives pairs longer than the"
                         f" {context}-token context window")

    vocab = make_vocab(["TR:"]
                       + [f"s{i}" for i in range(lexicon_size)]
                       + [f"t{i}" for i in range(lexicon_size)])
    source_ids = [vocab.index(f"s{i}") for i in range(lexicon_size)]
    target_ids = [vocab.index(f"t{i}") for i in range(lexicon_size)]  # s_i -> t_i
    tr, sep, eos = vocab.index("TR:"), vocab.sep, vocab.eos

    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    sequences: list[tuple[int, ...]] = []
    distinct = sum(lexicon_size ** length for length in lengths)
    attempts = 0
    while (len(sequences) < min(n_pairs, distinct)
           and attempts < 100 * n_pairs):
        attempts += 1
        # the same draws as rng.choice(lengths) and one rng.integers call
        # per token, in fewer calls
        length = lengths[int(rng.integers(len(lengths)))]
        seq = tuple(rng.integers(lexicon_size, size=length).tolist())
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
