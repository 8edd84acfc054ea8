import sys

import numpy as np
import pytest

from attrscope.corpus import make_syn_corpus
from attrscope.models import (
    Hyperparams, ar_generate, diffusion_generate, init_params, train,
)
from attrscope.models.params import AR, CLASSIFIER, DIFFUSION
from attrscope.models.transformer import (
    _bind, _graph_key, _target_masks, build_forward_graph, check_context,
)


def bind_pass(params, term, rows=None, pruned=False):
    """The cached score graph of one unbatched pass over the ScoreTerm
    ``term`` and its leaf values, bound by ``transformer._bind`` on the
    model's own weights; ``rows`` maps an embedding row to the (d,) vector
    that replaces it. The graph is the full one over every token, or with
    ``pruned`` the one run_groups runs the term's passes on, which computes
    only the rows the term reads and, causal, stops at the last of them."""
    hp = params.hyper
    check_context(hp, len(term.tokens))
    length, causal, graph_rows = (_graph_key(hp, term) if pruned else
                                  (len(term.tokens), term.causal, None))
    fg = build_forward_graph(hp, length, causal, graph_rows)
    mask = _target_masks(hp, fg.rows, [term.targets])[0]
    vals = _bind(hp, params.graph_weights, term.tokens[:length], mask,
                 [(row, vec) for row, vec in (rows or {}).items()
                  if row < length])
    return fg, vals


@pytest.fixture(scope="session")
def corpus():
    return make_syn_corpus(8, [1, 2, 3, 4], 1000, seed=3)


@pytest.fixture(scope="session")
def ar_model(corpus):
    """Translation model trained to high held-out accuracy (used by the
    acceptance tests); expensive, built once per session."""
    hp = Hyperparams(kind=AR, vocab_size=len(corpus.vocab), layers=2, heads=2,
                     width=64, mlp_hidden=128, context_len=64)
    result = train(AR, list(corpus.train_pairs), corpus.vocab, hp, seed=0,
                   steps=2500, lr=0.05)
    return result.params


@pytest.fixture(scope="session")
def tiny_corpus():
    return make_syn_corpus(4, [1, 2, 3, 4], 140, seed=5)


@pytest.fixture(scope="session")
def tiny_ar_model(tiny_corpus):
    """Cheap partially trained model for unit tests that only need
    well-behaved scores, not accuracy."""
    hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=2,
                     heads=2, width=32, mlp_hidden=64, context_len=32)
    result = train(AR, list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                   seed=1, steps=80, lr=0.05)
    return result.params


@pytest.fixture(scope="session")
def diffusion_model(tiny_corpus):
    hp = Hyperparams(kind=DIFFUSION, vocab_size=len(tiny_corpus.vocab),
                     layers=2, heads=2, width=32, mlp_hidden=64,
                     context_len=32)
    result = train(DIFFUSION, list(tiny_corpus.train_pairs), tiny_corpus.vocab,
                   hp, seed=2, steps=120, lr=0.05)
    return result.params


@pytest.fixture(scope="session")
def classifier_model(tiny_corpus):
    hp = Hyperparams(kind=CLASSIFIER, vocab_size=len(tiny_corpus.vocab),
                     layers=1, heads=2, width=32, mlp_hidden=64,
                     context_len=32, n_classes=3)
    return init_params(hp, tiny_corpus.vocab, seed=4)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def generation_calls(monkeypatch):
    """The names of the generation functions called while the test runs.

    Spies replace ar_generate and diffusion_generate under every name an
    attrscope module binds them to, so a call through any import is seen;
    each spy records its call and then runs the original."""
    calls: list[str] = []
    for original in (ar_generate, diffusion_generate):
        def spy(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        bound = 0
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "attrscope" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
                    bound += 1
        assert bound, f"no attrscope module binds {original.__name__}"
    return calls
