"""Model parameters, content hashing, and the binary persistence format."""
from __future__ import annotations

import functools
import hashlib
import json
import math
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
        layout = _file_layout(self.hyper)
        return _model_digest(self, layout, (
            array for _, array in _file_arrays(self, layout)))


def init_params(hp: Hyperparams, vocab: Vocab, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    arrays = {}
    layout = _file_layout(hp)
    for name, _, _, shape in layout:  # the file's draw order
        if name.endswith(".g"):
            arrays[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, 0.02, size=shape)
    return ModelParams(hyper=hp, vocab=vocab,
                       weights=_stacked(hp, arrays, layout))


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


def _stacked(hp: Hyperparams, arrays: dict[str, np.ndarray],
             layout) -> dict[str, np.ndarray]:
    """The weights, from a model file's arrays keyed by array name; the
    file's ``layout`` is ``_file_layout(hp)``."""
    weights = {w: np.empty(shape) for w, shape in weight_shapes(hp).items()}
    for name, weight, head, _ in layout:
        weights[weight][() if head is None else head] = arrays[name]
    return weights


def _file_arrays(params: ModelParams, layout):
    """(array name, array) of each array in the model's file, in file
    order (sorted by name), for the file's ``layout``; each array is
    C-contiguous little-endian f64, so its buffer is its bytes in the file,
    a view where the weight is already so."""
    for name, weight, head, _ in sorted(layout):
        array = params.weights[weight]
        yield name, np.ascontiguousarray(
            array if head is None else array[head], dtype="<f8")


def _header_dict(params: ModelParams, layout) -> dict:
    return {
        "hyper": asdict(params.hyper),
        "vocab": {
            "tokens": list(params.vocab.tokens),
            "pad": params.vocab.pad, "mask": params.vocab.mask,
            "sep": params.vocab.sep, "eos": params.vocab.eos,
        },
        "weight_order": sorted(name for name, *_ in layout),
    }


def _model_digest(params: ModelParams, layout, buffers) -> str:
    """The model id: SHA-256 of the header (less its model_id), then the
    name and bytes of each array, in file order; ``buffers`` yields the
    arrays' bytes in that order."""
    digest = hashlib.sha256(
        json.dumps(_header_dict(params, layout), sort_keys=True).encode())
    for (name, *_), buffer in zip(sorted(layout), buffers):
        digest.update(name.encode())
        digest.update(buffer)
    return digest.hexdigest()


def save_model(params: ModelParams, path: str) -> None:
    """Single self-describing file: header JSON + little-endian f64 weights."""
    layout = _file_layout(params.hyper)
    header = _header_dict(params, layout)
    header["model_id"] = params.model_id
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = b"".join(array for _, array in _file_arrays(params, layout))
    payload = MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + body
    _atomic_write(path, payload)


def _atomic_write(path: str, data: bytes) -> None:
    """Writes ``data`` to a temporary file beside ``path`` and renames it
    over ``path``, so that ``path`` holds the old bytes or the new ones."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
        layout = _file_layout(hp)
        in_file = sorted(layout)
        if header["weight_order"] != [name for name, *_ in in_file]:
            raise ModelIOError("weight_order does not list the model's weights"
                               " in sorted order")
        counts = [math.prod(shape) for *_, shape in in_file]
        if len(blob) - 12 - hlen != 8 * sum(counts):
            raise ModelIOError(f"weight body is {len(blob) - 12 - hlen} bytes,"
                               f" expected {8 * sum(counts)}")
        arrays, buffers = {}, []  # each array's bytes, a slice of the file's
        offset = 12 + hlen
        for (name, _, _, shape), count in zip(in_file, counts):
            arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                         offset=offset).reshape(shape)
            buffers.append(memoryview(blob)[offset:offset + 8 * count])
            offset += count * 8
        params = ModelParams(hyper=hp, vocab=vocab,
                             weights=_stacked(hp, arrays, layout))
        model_id = header["model_id"]
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON; a JSON number of 1e999
        # reads as inf, and int(inf) raises OverflowError
        raise ModelIOError(f"corrupt header: {exc}") from exc
    # the id hashes the bytes the weights were read from
    if _model_digest(params, layout, buffers) != model_id:
        raise ModelIOError("model_id hash mismatch; file corrupted")
    object.__setattr__(params, "model_id", model_id)  # verified: no re-hash
    return params
