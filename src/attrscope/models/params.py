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
        if self.heads < 1:
            raise ValueError("heads must be positive")
        if self.width % self.heads != 0:
            raise ValueError("width must divide evenly across heads")

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


def weight_shapes(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    d, m = hp.width, hp.mlp_hidden
    dh = hp.head_dim
    shapes: dict[str, tuple[int, ...]] = {
        "emb": (hp.vocab_size, d),
        "pos": (hp.context_len, d),
    }
    for i in range(hp.layers):
        p = f"blk{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        for h in range(hp.heads):
            shapes[p + f"wq{h}"] = (d, dh)
            shapes[p + f"wk{h}"] = (d, dh)
            shapes[p + f"wv{h}"] = (d, dh)
            shapes[p + f"wo{h}"] = (dh, d)
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


# per-head attention weights, saved as blk{i}.wq{h} and bound to the score
# graph stacked on a leading heads axis as one leaf, blk{i}.wq
HEAD_WEIGHTS = ("wq", "wk", "wv", "wo")


def stacked_heads(hp: Hyperparams) -> dict[str, tuple[str, ...]]:
    """Each stacked attention leaf and the per-head weights it stacks, in
    head order."""
    return {f"blk{i}.{w}": tuple(f"blk{i}.{w}{h}" for h in range(hp.heads))
            for i in range(hp.layers) for w in HEAD_WEIGHTS}


def per_head(hp: Hyperparams, leaves: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Values keyed by score-graph leaf, keyed by weight instead: each
    stacked attention value is split back into its heads."""
    groups = stacked_heads(hp)
    out = {}
    for name, value in leaves.items():
        if name in groups:
            out.update(zip(groups[name], value))
        else:
            out[name] = value
    return out


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

    @functools.cached_property
    def graph_weights(self) -> dict[str, np.ndarray]:
        """The weights as score-graph leaves: per-head attention weights
        stacked as (H, d, dh) or (H, dh, d) under one name, every other
        weight as it is. Stacked once, so every binding shares the arrays."""
        leaves = dict(self.weights)
        for name, names in stacked_heads(self.hyper).items():
            leaves[name] = np.stack([leaves.pop(n) for n in names])
        return leaves

    @property
    def kind(self) -> str:
        return self.hyper.kind

    @functools.cached_property
    def model_id(self) -> str:
        """SHA-256 of the header and the weights; hashed once per model,
        since nothing writes a model's weight arrays in place."""
        header = _header_dict(self)
        digest = hashlib.sha256()
        digest.update(json.dumps(header, sort_keys=True).encode())
        for name in sorted(self.weights):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.weights[name]).astype("<f8").tobytes())
        return digest.hexdigest()


def init_params(hp: Hyperparams, vocab: Vocab, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in weight_shapes(hp).items():
        if name.endswith(".g"):
            weights[name] = np.ones(shape)
        elif name.endswith(".b") or name.endswith((".b1", ".b2")):
            weights[name] = np.zeros(shape)
        else:
            weights[name] = rng.normal(0.0, 0.02, size=shape)
    return ModelParams(hyper=hp, vocab=vocab, weights=weights)


# -- persistence ---------------------------------------------------------


def _header_dict(params: ModelParams) -> dict:
    return {
        "hyper": asdict(params.hyper),
        "vocab": {
            "tokens": list(params.vocab.tokens),
            "pad": params.vocab.pad, "mask": params.vocab.mask,
            "sep": params.vocab.sep, "eos": params.vocab.eos,
        },
        "weight_order": sorted(params.weights),
    }


def save_model(params: ModelParams, path: str) -> None:
    """Single self-describing file: header JSON + little-endian f64 weights."""
    header = _header_dict(params)
    header["model_id"] = params.model_id
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = b"".join(
        np.ascontiguousarray(params.weights[n]).astype("<f8").tobytes()
        for n in sorted(params.weights))
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
        shapes = weight_shapes(hp)
        names = sorted(shapes)
        if header["weight_order"] != names:
            raise ModelIOError("weight_order does not list the model's weights"
                               " in sorted order")
        counts = [int(np.prod(shapes[name])) for name in names]
        if len(blob) - 12 - hlen != 8 * sum(counts):
            raise ModelIOError(f"weight body is {len(blob) - 12 - hlen} bytes,"
                               f" expected {8 * sum(counts)}")
        weights = {}
        offset = 12 + hlen
        for name, count in zip(names, counts):
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            weights[name] = arr.reshape(shapes[name]).astype(np.float64)
            offset += count * 8
        params = ModelParams(hyper=hp, vocab=vocab, weights=weights)
        model_id = header["model_id"]
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        # ValueError covers bad UTF-8 and bad JSON; a JSON number of 1e999
        # reads as inf, and int(inf) raises OverflowError
        raise ModelIOError(f"corrupt header: {exc}") from exc
    if params.model_id != model_id:
        raise ModelIOError("model_id hash mismatch; file corrupted")
    return params
