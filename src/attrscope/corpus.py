"""Synthetic translation corpus: a token-level bijection rendered as
"TR: s_i1 .. s_il SEP" -> "t_i1 .. t_il EOS" pairs."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models.params import Hyperparams
from .models.vocab import Vocab, make_vocab

MAX_VOCAB = 64
# the largest lexicon within MAX_VOCAB: the vocab holds the specials and
# TR: (5 tokens) and each lexicon entry's source and target token
MAX_LEXICON = (MAX_VOCAB - 5) // 2
# the longest source: a pair of source length L is a pass of 2L + 3 tokens
# (prompt and target), which must fit the default context window
MAX_LENGTH = (Hyperparams.context_len - 3) // 2
HELDOUT_FRAC = 0.2  # share of the pairs held out from training
_WORD = 2 ** 32  # the values of one raw next_uint32 word
_WORDS_PER_BLOCK = 4096  # raw words drawn per bulk call


@dataclass(frozen=True)
class SynCorpus:
    vocab: Vocab
    train_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    heldout_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _lemire_values(words: np.ndarray, n: int) -> list:
    """The value ``Generator.integers(n)`` (n <= 2**32) makes of each raw
    32-bit word, or None where it rejects the word and draws again.

    Lemire's method: m = word * n, rejected while m mod 2**32 is below
    (2**32 - n) % n, else the value m >> 32."""
    m = words * np.uint64(n)
    values = (m >> np.uint64(32)).tolist()
    rejected = m & np.uint64(_WORD - 1) < (_WORD - n) % n
    for i in np.flatnonzero(rejected).tolist():
        values[i] = None
    return values


def _attempts(rng: np.random.Generator, lengths: list[int],
              lexicon_size: int):
    """Yields, attempt after attempt, the tokens that
    ``lengths[rng.integers(len(lengths))]`` and then that many
    ``rng.integers(lexicon_size)`` calls would draw, read from raw words
    that ``rng`` draws a block at a time."""
    step = 1 if len(lengths) > 1 else 0  # numpy draws no word for one value
    longest = max(lengths)
    # the unread words, as the value each gives a length or a token draw
    length_at, token_at, pos = [], [], 0
    while True:
        if len(token_at) - pos <= longest:  # an attempt's words at most
            words = rng.integers(0, _WORD, size=_WORDS_PER_BLOCK,
                                 dtype=np.uint64)
            length_at = length_at[pos:] + _lemire_values(words, len(lengths))
            token_at = token_at[pos:] + _lemire_values(words, lexicon_size)
            pos = 0
        i = length_at[pos]
        if i is not None:
            first = pos + step
            tokens = token_at[first:first + lengths[i]]
            if None not in tokens:
                pos = first + lengths[i]
                yield tuple(tokens)
                continue
        # a rejected word gives no value and the draw takes the next word:
        # drop it from the stream and make the attempt again
        skip = pos if i is None else first + tokens.index(None)
        del length_at[skip], token_at[skip]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def make_syn_corpus(lexicon_size: int, lengths, n_pairs: int,
                    seed: int) -> SynCorpus:
    """Up to ``n_pairs`` distinct pairs; fewer when the lexicon and lengths
    give fewer distinct sequences or the draws keep repeating."""
    if not _is_int(lexicon_size) or lexicon_size < 2:
        raise ValueError("need a lexicon of at least 2 entries")
    if lexicon_size > MAX_LEXICON:
        raise ValueError(f"vocab budget exceeded: {5 + 2 * lexicon_size}"
                         f" > {MAX_VOCAB}")
    if not _is_int(n_pairs) or n_pairs < 1:
        raise ValueError(f"n_pairs must be an integer >= 1, got {n_pairs!r}")
    lengths = list(lengths)
    if not lengths or not all(_is_int(x) and x >= 1 for x in lengths):
        raise ValueError(f"lengths must be integers >= 1, got {lengths!r}")
    lengths = sorted(set(lengths))
    if lengths[-1] > MAX_LENGTH:
        raise ValueError(f"length {lengths[-1]} gives pairs longer than the"
                         f" {Hyperparams.context_len}-token context window")

    vocab = make_vocab(["TR:"]
                       + [f"s{i}" for i in range(lexicon_size)]
                       + [f"t{i}" for i in range(lexicon_size)])
    source_ids = [vocab.index(f"s{i}") for i in range(lexicon_size)]
    target_ids = [vocab.index(f"t{i}") for i in range(lexicon_size)]  # s_i -> t_i
    tr, sep, eos = vocab.index("TR:"), vocab.sep, vocab.eos

    # rng.integers(n) takes one PCG64 next_uint32 word per value by
    # Lemire's method, and integers(0, 2**32, dtype=np.uint64) returns those
    # words as they are; so _attempts draws what rng.choice(lengths) and one
    # rng.integers call per token drew, in the same order, from a few bulk
    # draws. The generator is this call's own, so the words drawn past the
    # last attempt change nothing. test_io.py::TestCorpus pins this:
    # test_draws_equal_the_per_token_loop and test_corpora_keep_their_bytes.
    seen: set[tuple[int, ...]] = set()
    sequences: list[tuple[int, ...]] = []
    wanted = min(n_pairs, sum(lexicon_size ** length for length in lengths))
    for seq in itertools.islice(
            _attempts(np.random.default_rng(seed), lengths, lexicon_size),
            100 * n_pairs):
        if seq not in seen:
            seen.add(seq)
            sequences.append(seq)
            if len(sequences) == wanted:
                break

    pairs = []
    for seq in sequences:
        prompt = (tr, *map(source_ids.__getitem__, seq), sep)
        target = (*map(target_ids.__getitem__, seq), eos)
        pairs.append((prompt, target))

    n_held = max(1, int(round(HELDOUT_FRAC * len(pairs))))
    return SynCorpus(vocab=vocab, train_pairs=tuple(pairs[n_held:]),
                     heldout_pairs=tuple(pairs[:n_held]))
