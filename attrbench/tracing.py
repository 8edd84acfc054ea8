"""Span tracing from outside the program.

``install`` wraps every public function that an ``attrscope.*`` module
defines, and rebinds the wrapper under every name in every loaded
``attrscope.*`` module that refers to the original function object. The
modules import functions by name (``attribution.grad``,
``training.evaluate``, ``cli.compute_map``, ...), so wrapping only the
defining module would miss most calls. The private functions in
``PRIVATE`` are wrapped too.

Spans are kept in memory as tuples and written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "attrscope"


def _graph_len(args, kwargs) -> int:
    graph = args[0] if args else kwargs["graph"]
    return len(graph.nodes)


def _text_bytes(args, kwargs) -> int:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode())


def _ig_steps(args, kwargs) -> int:
    return int(args[4] if len(args) > 4 else kwargs.get("steps", 64))


# Private functions traced as well: (module, name). The checkpoint loss
# passes of ``train`` run in ``_mean_loss``, which no public function
# isolates.
PRIVATE = {("attrscope.models.training", "_mean_loss")}

# span name -> how to read the span's work count from the call's arguments
PROBES = {
    "autodiff.evaluate": _graph_len,
    "autodiff.grad": _graph_len,
    "fileio.atomic_write_text": _text_bytes,
    "attribution.integrated_gradients": _ig_steps,
}


class Tracer:
    """Collects (name, start, end, parent, op, work) spans while active."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.active = False
        self.op = -1
        self._patched: list = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                work = probe(args, kwargs) if probe is not None else 0
                spans[idx] = (name, start, end, parent, self.op, work)

        return wrapper

    def install(self) -> int:
        """Patch every binding; returns the number of names rebound."""
        modules = [(name, mod) for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers: dict[int, tuple] = {}
        for modname, mod in modules:
            short = modname.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == modname
                        and (not attr.startswith("_")
                             or (modname, attr) in PRIVATE)):
                    wrappers[id(value)] = (value,
                                           self._wrap(value, f"{short}.{attr}"))
        for _, mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                name, start, end, parent, op, work = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "work": work}) + "\n")


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, self and total seconds, summed work, and the
    number of calls made directly from each parent span name."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "work": 0, "by_parent": {}})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_s[i]
        row["work"] += work
        pname = spans[parent][0] if parent >= 0 else None
        row["by_parent"][pname] = row["by_parent"].get(pname, 0) + 1
    return out


def _row(agg, name):
    return agg.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0,
                          "by_parent": {}})


def per_layer_metrics(agg: dict, ops: int, overhead_frac: float) -> dict:
    """The per-layer metrics, per op (total / ops) unless stated."""
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls(span):
        put(f"{span}.calls", _row(agg, span)["calls"] / ops, "count")

    def self_s(span):
        put(f"{span}.self_s", _row(agg, span)["self_s"] / ops, "s")

    for span in ("autodiff.grad", "autodiff.evaluate"):
        row = _row(agg, span)
        calls(span)
        self_s(span)
        # graph length per call, read from the graph argument
        put(f"{span}.nodes", row["work"] / row["calls"] if row["calls"] else 0.0,
            "count")
    put("attribution.ig.path_points",
        _row(agg, "attribution.integrated_gradients")["work"] / ops, "count")
    self_s("attribution.integrated_gradients")
    calls("attribution.bind_score")
    self_s("attribution.bind_score")
    self_s("attribution.occlusion")
    self_s("attribution.stage_attribution")
    for span in ("evaluation.context_score", "evaluation.perturb"):
        calls(span)
        self_s(span)
    calls("diffusion.masked_log_probs")
    calls("diffusion.run_chain")
    self_s("diffusion.run_chain")
    self_s("diffusion.teacher_forced_score")
    calls("transformer.build_fresh_forward_graph")
    lookups = _row(agg, "transformer.build_forward_graph")["calls"]
    misses = _row(agg, "transformer.build_fresh_forward_graph")["by_parent"].get(
        "transformer.build_forward_graph", 0)
    put("transformer.graph_cache.hit_ratio",
        (lookups - misses) / lookups if lookups else 0.0, "ratio")
    self_s("training.train")
    # the five checkpoint loss passes, with the forward passes they make
    put("training.mean_loss.total_s",
        _row(agg, "training._mean_loss")["total_s"] / ops, "s")
    self_s("params.load_model")
    self_s("params.save_model")
    self_s("contract.validate")
    calls("contract.canonical_id")
    calls("fileio.atomic_write_text")
    self_s("fileio.atomic_write_text")
    self_s("fileio.file_digest")
    put("fileio.bytes_written",
        _row(agg, "fileio.atomic_write_text")["work"] / ops, "bytes")
    self_s("heatmap.render_heatmap")
    self_s("cli.main")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return metrics
