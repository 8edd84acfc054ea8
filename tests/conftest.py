import hashlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, settings

from attrscope.corpus import make_syn_corpus
from attrscope.models import (
    Hyperparams, ar_generate, diffusion_generate, init_params, train,
    transformer,
)
from attrscope.models.params import AR, CLASSIFIER, DIFFUSION
from attrscope.models.transformer import (
    _bind, _graph_key, _target_masks, build_forward_graph, check_context,
)

# Every property test reports the first failing example it generates,
# unshrunk: shrinking a failure of a derandomised property over graphs or
# models can run for minutes and grow the process by hundreds of MB
settings.register_profile(
    "unshrunk", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("unshrunk")


def bind_pass(params, term, rows=None, pruned=False):
    """The cached graph of one unbatched pass over the ScoreTerm ``term``,
    its leaf values, bound by ``transformer._bind`` on the model's own
    weights, and the term's target mask over the graph's log-prob table:
    the term's score is ``(table * mask).sum()``, and the mask seeds its
    gradient. ``rows`` maps an embedding row to the (d,) vector that
    replaces it. The graph is the full one over every token, or with
    ``pruned`` the one run_groups runs the term's passes on, which computes
    only the rows the term reads and, for an AR model, stops at the last of
    them."""
    hp = params.hyper
    check_context(hp, len(term.tokens))
    length, graph_rows = (_graph_key(hp, term) if pruned else
                          (len(term.tokens), None))
    fg = build_forward_graph(hp, length, graph_rows)
    vals = _bind(hp, params.weights, term.tokens[:length],
                 [(row, vec) for row, vec in (rows or {}).items()
                  if row < length])
    return fg, vals, _target_masks(hp, fg.rows, [term.targets])[0]


def counted_points(points):
    """Patches transformer's ``evaluate`` to append the number of points of
    each pass run_groups makes to ``points``."""
    original = transformer.evaluate

    def counting(graph, vals, *args, **kwargs):
        points.append(len(vals["emb"]) if vals["emb"].ndim == 3 else 1)
        return original(graph, vals, *args, **kwargs)

    return mock.patch.object(transformer, "evaluate", counting)


def file_shapes(hyper: dict) -> dict[str, tuple[int, ...]]:
    """The arrays of a model file whose header holds the hyperparameters
    ``hyper``, by name: the reference for the file format, which stores
    each head of a block's attention weights as its own array
    (``blk{i}.wq{h}``, ``wk{h}``, ``wv{h}`` of shape (d, dh), ``wo{h}`` of
    shape (dh, d))."""
    d, m, heads = hyper["width"], hyper["mlp_hidden"], hyper["heads"]
    dh, V = d // heads, hyper["vocab_size"]
    C = hyper["n_classes"] if hyper["kind"] == CLASSIFIER else V
    out = "head" if hyper["kind"] == CLASSIFIER else "out"
    shapes = {"emb": (V, d), "pos": (hyper["context_len"], d),
              "lnf.g": (d,), "lnf.b": (d,), f"{out}.w": (d, C), f"{out}.b": (C,)}
    for i in range(hyper["layers"]):
        p = f"blk{i}."
        shapes.update({p + "ln1.g": (d,), p + "ln1.b": (d,),
                       p + "ln2.g": (d,), p + "ln2.b": (d,),
                       p + "mlp.w1": (d, m), p + "mlp.b1": (m,),
                       p + "mlp.w2": (m, d), p + "mlp.b2": (d,)})
        for h in range(heads):
            shapes.update({p + f"wq{h}": (d, dh), p + f"wk{h}": (d, dh),
                           p + f"wv{h}": (d, dh), p + f"wo{h}": (dh, d)})
    return shapes


def file_arrays(hyper: dict, weight_order, body: bytes) -> list[tuple[str, bytes]]:
    """(name, bytes) of each array in a model file's weight body, in the
    header's ``weight_order``, each sized by file_shapes."""
    shapes = file_shapes(hyper)
    arrays, offset = [], 0
    for name in weight_order:
        size = 8 * math.prod(shapes[name])
        arrays.append((name, body[offset:offset + size]))
        offset += size
    return arrays


def file_model_id(header_text: str, arrays) -> str:
    """The model_id a model file's header JSON (less its model_id) and its
    arrays (see file_arrays) give: SHA-256 over the header, then each
    array's name and bytes."""
    digest = hashlib.sha256(header_text.encode())
    for name, raw in arrays:
        digest.update(name.encode())
        digest.update(raw)
    return digest.hexdigest()


@pytest.fixture(scope="session")
def corpus():
    return make_syn_corpus(8, [1, 2, 3, 4], 1000, seed=3)


@pytest.fixture(scope="session")
def ar_model(corpus):
    """Translation model trained to high held-out accuracy (used by the
    acceptance tests); expensive, built once per session."""
    hp = Hyperparams(kind=AR, vocab_size=len(corpus.vocab), layers=2, heads=2,
                     width=64, mlp_hidden=128, context_len=64)
    result = train(list(corpus.train_pairs), corpus.vocab, hp, seed=0,
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
    result = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                   seed=1, steps=80, lr=0.05)
    return result.params


@pytest.fixture(scope="session")
def diffusion_model(tiny_corpus):
    hp = Hyperparams(kind=DIFFUSION, vocab_size=len(tiny_corpus.vocab),
                     layers=2, heads=2, width=32, mlp_hidden=64,
                     context_len=32)
    result = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                   seed=2, steps=120, lr=0.05)
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
