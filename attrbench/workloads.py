"""The benchmark's workloads: set-up, the op schedule, and output checks.

Each op is one in-process call to ``attrscope.cli.main(argv)``. A workload
yields its ops in rounds. A round holds one op per (source length, case)
pair, so every round has the same mix of sequence lengths and settings
and the cost of a round does not depend on the seed. The seed picks which
held-out prompts fill each round and the training seeds.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from attrscope.attribution import (
    PAD_BASELINE, baseline_endpoint_score, prefix_mass, score,
)
from attrscope.cli import main as cli_main
from attrscope.contract import canonical_id, make_named
from attrscope.corpus import make_syn_corpus
from attrscope.fileio import parse_map, parse_report, serialize_report
from attrscope.models import (
    PromptedInstance, init_params, load_model, span_log_prob,
)

# The corpus every workload uses: make_syn_corpus(8, [1,2,3,4], 1000, seed=3).
CORPUS_ARGS = ["--lexicon", "8", "--lengths", "1,2,3,4", "--n-pairs", "1000",
               "--seed", "3"]
SOURCE_LENGTHS = (1, 2, 3, 4)
# Set-up trains the model the ops use. The op cost does not depend on how
# well the model is trained, so a short run keeps set-up small.
SETUP_TRAIN_STEPS = 60
# One ar-train op. Measured on a 2-vCPU Xeon host, the five checkpoint
# loss passes took 17-18 % of an 80-step op (about 0.42 of 2.4 s), so SGD
# steps are most of it. A traced run reports the split as
# ``training.mean_loss.total_s`` and ``record.checkpoint_share``.
TRAIN_OP_STEPS = 80
TRAIN_WARMUP_STEPS = 20
IG_STEPS = 64
EVAL_K = 3
EVAL_RANDOM_ORDERINGS = 10
# held-out pairs whose gold-target log-prob an ar-train op must improve
TRAIN_CHECK_PAIRS = 16


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    key: str              # equal keys must give byte-identical outputs
    case: str             # ops of one case cost the same: one per round
    argv: tuple[str, ...]
    contract: str | None  # contract file text, written before the op
    info: dict            # what the check needs to know about the inputs


def run_cli(argv) -> None:
    """One CLI call, outside any timed region (set-up)."""
    rc = cli_main(list(argv))
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: {argv}")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    name = ""
    model_kind: str | None = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus = make_syn_corpus(8, list(SOURCE_LENGTHS), 1000, seed=3)
        self.contract_path = os.path.join(workdir, "op.contract")
        self.outdir = os.path.join(workdir, "out")
        rng = np.random.default_rng(seed)
        by_len: dict[int, list] = {n: [] for n in SOURCE_LENGTHS}
        for prompt, target in self.corpus.heldout_pairs:
            by_len[len(prompt) - 2].append((prompt, target))
        # per source length, the held-out pairs in a seeded order
        self.pairs = {n: [pairs[i] for i in rng.permutation(len(pairs))]
                      for n, pairs in by_len.items()}
        self.corpus_file = None
        self.model_file = None
        self.params = None

    def pair(self, length: int, round_no: int):
        pairs = self.pairs[length]
        return pairs[round_no % len(pairs)]

    def setup(self, setup_dir: str) -> None:
        """Builds the corpus file and, where the ops need one, the model."""
        run_cli(["gen-corpus", *CORPUS_ARGS,
                 "--out", os.path.join(setup_dir, "corpus")])
        self.corpus_file = os.path.join(setup_dir, "corpus", "corpus.json")
        if self.model_kind is not None:
            model_dir = os.path.join(setup_dir, "model")
            run_cli(["train", "--corpus", self.corpus_file,
                     "--kind", self.model_kind,
                     "--steps", str(SETUP_TRAIN_STEPS),
                     "--seed", str(self.seed), "--out", model_dir])
            self.model_file = os.path.join(model_dir, "model.bin")
            self.params = load_model(self.model_file)

    def round(self, round_no: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> str:
        """Raises CheckFailed; returns the digest of the op's output bytes."""
        raise NotImplementedError

    def decode(self, ids) -> str:
        return self.corpus.vocab.decode(ids)


def _contract_text(**fields) -> str:
    return "".join(f"{k}: {v}\n" for k, v in fields.items())


class ArAttribute(Workload):
    """IG-64 maps on the AR model under the three AR settings. The
    generation is pinned to the gold target, so a numerics change that
    moves a greedy argmax tie cannot change the sequence lengths."""
    name = "ar-attribute"
    model_kind = "ar"
    SETTINGS = ("local-next-token", "prompt-conditioned", "span-level-prompt")

    def round(self, round_no):
        ops = []
        for length in SOURCE_LENGTHS:
            prompt, target = self.pair(length, round_no)
            for setting in self.SETTINGS:
                fields = {"setting": setting}
                t = None
                if setting != "span-level-prompt":
                    t = len(target)  # the last generated token
                    fields["target"] = t
                fields.update({"model": self.model_file,
                               "prompt": self.decode(prompt),
                               "gen-tokens": self.decode(target),
                               "seed": 0})
                ops.append(Op(
                    key=f"{setting}|{self.decode(prompt)}",
                    case=f"{setting}/L{length}",
                    argv=("attribute", "--contract", self.contract_path,
                          "--method", "ig", "--ig-steps", str(IG_STEPS),
                          "--baseline", "pad", "--out", self.outdir),
                    contract=_contract_text(**fields),
                    info={"setting": setting, "prompt": prompt,
                          "target": target, "t": t}))
        return ops

    def check(self, op):
        path = os.path.join(self.outdir, "map.txt")
        with open(path) as fh:
            attr_map = parse_map(fh.read())
        info = op.info
        instance = PromptedInstance(prompt=tuple(info["prompt"]), seed=0,
                                    generation=tuple(info["target"]))
        contract = make_named(info["setting"], instance, info["t"])
        if attr_map.contract_id != canonical_id(contract).digest:
            raise CheckFailed("map contract digest does not match")
        if attr_map.model_id != self.params.model_id:
            raise CheckFailed("map model id does not match")
        total = sum(s for _, s in attr_map.entries)
        delta = (score(contract, self.params, instance)
                 - baseline_endpoint_score(self.params, instance, contract,
                                           PAD_BASELINE))
        if not abs(total - delta) <= 1e-3 * (1 + abs(delta)):
            raise CheckFailed(f"IG completeness: sum {total!r} vs delta {delta!r}")
        if (info["setting"] == "prompt-conditioned"
                and prefix_mass(attr_map) != 0.0):
            raise CheckFailed("prompt-conditioned map has prefix mass")
        return sha256_file(path)


class DiffusionEvaluate(Workload):
    """Faithfulness reports on the masked-diffusion model: forward passes
    only, no backward pass."""
    name = "diffusion-evaluate"
    model_kind = "diffusion"
    # (setting, target, extra evaluate flags)
    CASES = (
        ("state-level", 1, ("--method", "occlusion")),
        ("prompt-to-output", None, ("--method", "occlusion")),
        ("prompt-to-output", None, ("--method", "occlusion", "--regenerate")),
        ("denoising-stage", None, ("--method", "stage", "--stage-kind", "ablate")),
    )

    def round(self, round_no):
        ops = []
        for length in SOURCE_LENGTHS:
            prompt, target = self.pair(length, round_no)
            steps = min(3, len(target))
            for setting, t, flags in self.CASES:
                fields = {"setting": setting}
                if t is not None:
                    fields["target"] = t
                fields.update({"model": self.model_file,
                               "prompt": self.decode(prompt),
                               "response-len": len(target), "steps": steps,
                               "seed": 0})
                case = setting + ("-regenerate" if "--regenerate" in flags else "")
                ops.append(Op(
                    key=f"{case}|{self.decode(prompt)}",
                    case=f"{case}/L{length}",
                    argv=("evaluate", "--contract", self.contract_path, *flags,
                          "--k", str(EVAL_K), "--random-orderings",
                          str(EVAL_RANDOM_ORDERINGS), "--out", self.outdir),
                    contract=_contract_text(**fields),
                    info={"stage": setting == "denoising-stage",
                          "steps": steps}))
        return ops

    def check(self, op):
        path = os.path.join(self.outdir, "report.txt")
        with open(path) as fh:
            text = fh.read()
        report = parse_report(text)
        if serialize_report(report) != text:
            raise CheckFailed("report does not round-trip")
        if op.info["stage"]:
            if len(report.stage_entries) != op.info["steps"]:
                raise CheckFailed(f"{len(report.stage_entries)} stage entries,"
                                  f" want {op.info['steps']}")
            return sha256_file(path)
        randoms = report.random_deletions + report.random_insertions
        if (len(report.random_deletions) != EVAL_RANDOM_ORDERINGS
                or len(report.random_insertions) != EVAL_RANDOM_ORDERINGS):
            raise CheckFailed("wrong number of random curves")
        for curve in (report.deletion, report.insertion, *randoms):
            if len(curve.scores) != EVAL_K + 1:
                raise CheckFailed(f"curve has {len(curve.scores)} points")
        aopcs = (report.deletion_aopc, report.insertion_aopc,
                 *report.random_deletion_aopcs)
        if not all(isinstance(a, float) and math.isfinite(a) for a in aopcs):
            raise CheckFailed("non-finite AOPC")
        return sha256_file(path)


class ArTrain(Workload):
    """Fixed-step AR training with a fresh seed per op: gradients into
    every weight, weights rewritten every step, model.bin written."""
    name = "ar-train"

    def setup(self, setup_dir):
        super().setup(setup_dir)
        # fills the per-length loss-graph cache before the timed ops
        run_cli(["train", "--corpus", self.corpus_file, "--kind", "ar",
                 "--steps", str(TRAIN_WARMUP_STEPS), "--seed", "0",
                 "--out", os.path.join(setup_dir, "warmup")])

    def round(self, round_no):
        train_seed = self.seed * 1000 + round_no
        return [Op(key=f"train|{train_seed}", case="train",
                   argv=("train", "--corpus", self.corpus_file, "--kind", "ar",
                         "--steps", str(TRAIN_OP_STEPS),
                         "--seed", str(train_seed), "--out", self.outdir),
                   contract=None, info={"seed": train_seed})]

    def check(self, op):
        path = os.path.join(self.outdir, "model.bin")
        params = load_model(path)
        with open(os.path.join(self.outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        if manifest.get("model_id") != params.model_id:
            raise CheckFailed("manifest model_id does not match model.bin")
        init = init_params(params.hyper, params.vocab, op.info["seed"])
        pairs = self.corpus.heldout_pairs[:TRAIN_CHECK_PAIRS]
        trained = np.mean([span_log_prob(params, p, t) for p, t in pairs])
        untrained = np.mean([span_log_prob(init, p, t) for p, t in pairs])
        if not trained > untrained:
            raise CheckFailed(f"trained gold log-prob {trained:.4f} does not"
                              f" beat init {untrained:.4f}")
        return sha256_file(path)


WORKLOADS = {w.name: w for w in (ArAttribute, DiffusionEvaluate, ArTrain)}
