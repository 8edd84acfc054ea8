"""Model parameters, content hashing, and the binary persistence format."""
from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, asdict

import numpy as np

from .vocab import Vocab

MAGIC = b"ATSCOPE1"

AR = "autoregressive"
DIFFUSION = "masked_diffusion"
CLASSIFIER = "classifier"
KINDS = (AR, DIFFUSION, CLASSIFIER)


class ModelIOError(Exception):
    """Corrupt or mismatched model file."""


@dataclass(frozen=True)
class Hyperparams:
    kind: str
    vocab_size: int
    layers: int = 2
    heads: int = 2
    width: int = 64
    mlp_hidden: int = 128
    context_len: int = 64
    n_classes: int = 0  # classifier only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        sizes = ["vocab_size", "layers", "heads", "width", "mlp_hidden",
                 "context_len"] + (["n_classes"] if self.kind == CLASSIFIER else [])
        for size in sizes:
            if getattr(self, size) < 1:
                raise ValueError(f"{size} must be positive")
        if self.width % self.heads != 0:
            raise ValueError("width must divide evenly across heads")

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


def weight_shapes(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Each weight's shape, in init_params's draw order; a block's attention
    weights hold every head, stacked on a leading heads axis."""
    d, m = hp.width, hp.mlp_hidden
    dh, H = hp.head_dim, hp.heads
    shapes: dict[str, tuple[int, ...]] = {
        "emb": (hp.vocab_size, d),
        "pos": (hp.context_len, d),
    }
    for i in range(hp.layers):
        p = f"blk{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "wq"] = shapes[p + "wk"] = shapes[p + "wv"] = (H, d, dh)
        shapes[p + "wo"] = (H, dh, d)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "mlp.w1"] = (d, m)
        shapes[p + "mlp.b1"] = (m,)
        shapes[p + "mlp.w2"] = (m, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["lnf.g"] = (d,)
    shapes["lnf.b"] = (d,)
    if hp.kind == CLASSIFIER:
        shapes["head.w"] = (d, hp.n_classes)
        shapes["head.b"] = (hp.n_classes,)
    else:
        shapes["out.w"] = (d, hp.vocab_size)
        shapes["out.b"] = (hp.vocab_size,)
    return shapes


@dataclass(frozen=True)
class ModelParams:
    hyper: Hyperparams
    vocab: Vocab
    weights: dict[str, np.ndarray]

    def __post_init__(self):
        expected = weight_shapes(self.hyper)
        if set(expected) != set(self.weights):
            missing = set(expected) ^ set(self.weights)
            raise ValueError(f"weight name mismatch: {sorted(missing)}")
        for name, shape in expected.items():
            if self.weights[name].shape != shape:
                raise ValueError(
                    f"weight {name!r} has shape {self.weights[name].shape}, want {shape}")
        if len(self.vocab) != self.hyper.vocab_size:
            raise ValueError("vocab size disagrees with hyperparams")

    @property
    def kind(self) -> str:
        return self.hyper.kind

    @functools.cached_property
    def model_id(self) -> str:
        """SHA-256 of the header and the weights; hashed once per model,
        since nothing writes a model's weight arrays in place."""
        digest = hashlib.sha256()
        digest.update(json.dumps(_header_dict(self), sort_keys=True).encode())
        for name, array in _file_arrays(self):
            digest.update(name.encode())
            digest.update(array)
        return digest.hexdigest()


def init_params(hp: Hyperparams, vocab: Vocab, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, _, _, shape in _file_layout(hp):  # the file's draw order
        if name.endswith(".g"):
            arrays[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, 0.02, size=shape)
    return ModelParams(hyper=hp, vocab=vocab, weights=_stacked(hp, arrays))


# -- persistence ---------------------------------------------------------
#
# A model file stores each attention weight one head at a time: the heads of
# blk{i}.wq are the arrays blk{i}.wq0, blk{i}.wq1, ..., likewise wk, wv and
# wo. Every other weight is stored whole, under its own name.


def _file_layout(hp: Hyperparams) -> list[tuple[str, str, int | None, tuple]]:
    """(array name, weight, head, shape) of each array in a model file, in
    init_params's draw order: a block's attention arrays head by head
    (wq0, wk0, wv0, wo0, wq1, ...); head None for a whole weight."""
    shapes = weight_shapes(hp)
    layout = []
    for weight, shape in shapes.items():
        block, _, w = weight.rpartition(".")
        if w == "wq":
            layout += [(f"{block}.{a}{h}", f"{block}.{a}", h,
                        shapes[f"{block}.{a}"][1:])
                       for h in range(hp.heads) for a in ("wq", "wk", "wv", "wo")]
        elif w not in ("wk", "wv", "wo"):
            layout.append((weight, weight, None, shape))
    return layout


def _stacked(hp: Hyperparams, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The weights, from a model file's arrays keyed by array name."""
    weights = {w: np.empty(shape) for w, shape in weight_shapes(hp).items()}
    for name, weight, head, _ in _file_layout(hp):
        weights[weight][() if head is None else head] = arrays[name]
    return weights


def _file_arrays(params: ModelParams):
    """(array name, array) of each array in the model's file, in file
    order (sorted by name); each array is C-contiguous little-endian f64,
    so its buffer is its bytes in the file, a view where the weight is
    already so."""
    for name, weight, head, _ in sorted(_file_layout(params.hyper)):
        array = params.weights[weight]
        yield name, np.ascontiguousarray(
            array if head is None else array[head], dtype="<f8")


def _header_dict(params: ModelParams) -> dict:
    return {
        "hyper": asdict(params.hyper),
        "vocab": {
            "tokens": list(params.vocab.tokens),
            "pad": params.vocab.pad, "mask": params.vocab.mask,
            "sep": params.vocab.sep, "eos": params.vocab.eos,
        },
        "weight_order": sorted(name for name, *_ in _file_layout(params.hyper)),
    }


def save_model(params: ModelParams, path: str) -> None:
    """Single self-describing file: header JSON + little-endian f64 weights."""
    header = _header_dict(params)
    header["model_id"] = params.model_id
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = b"".join(array for _, array in _file_arrays(params))
    payload = MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + body
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ModelIOError("bad magic; not a model file")
    if len(blob) < 12:
        raise ModelIOError("file ends inside the header length")
    (hlen,) = struct.unpack("<I", blob[8:12])
    if 12 + hlen > len(blob):
        raise ModelIOError(f"header length {hlen} runs past the end of the file")
    try:
        header = json.loads(blob[12:12 + hlen].decode())
        hp = Hyperparams(**header["hyper"])
        v = header["vocab"]
        vocab = Vocab(tokens=tuple(v["tokens"]), pad=v["pad"], mask=v["mask"],
                      sep=v["sep"], eos=v["eos"])
        layout = sorted(_file_layout(hp))
        if header["weight_order"] != [name for name, *_ in layout]:
            raise ModelIOError("weight_order does not list the model's weights"
                               " in sorted order")
        counts = [int(np.prod(shape)) for *_, shape in layout]
        if len(blob) - 12 - hlen != 8 * sum(counts):
            raise ModelIOError(f"weight body is {len(blob) - 12 - hlen} bytes,"
                               f" expected {8 * sum(counts)}")
        arrays = {}
        offset = 12 + hlen
        for (name, _, _, shape), count in zip(layout, counts):
            arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                         offset=offset).reshape(shape)
            offset += count * 8
        params = ModelParams(hyper=hp, vocab=vocab, weights=_stacked(hp, arrays))
        model_id = header["model_id"]
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON; a JSON number of 1e999
        # reads as inf, and int(inf) raises OverflowError
        raise ModelIOError(f"corrupt header: {exc}") from exc
    if params.model_id != model_id:
        raise ModelIOError("model_id hash mismatch; file corrupted")
    return params
