"""Command-line surface.

Exit codes: 0 success, 2 validation diagnostic, 3 numeric abort, 4 I/O error.
Every run that writes outputs also writes a manifest sufficient to reproduce
those outputs bit-identically via the ``rerun`` subcommand.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

from . import __version__
from .attribution import BaselinePolicy, map_mismatch, prefix_mass
from .autodiff import NumericError
from .contract import (
    ContractError, SETTING_LOCAL, SETTING_PROMPT_COND, canonical_id,
    make_named, validate,
)
from .corpus import make_syn_corpus
from .evaluation import (
    EvaluationError, PerturbationPolicy, REGENERATE, RESCORE, compute_map,
    faithfulness_report,
)
from .fileio import (
    MapParseError, RunManifest, atomic_write_text, file_digest, parse_map,
    parse_contract_file, read_manifest, serialize_map, serialize_report,
    write_manifest,
)
from .heatmap import render_heatmap
from .models import (
    GreedyPolicy, Hyperparams, ModelIOError, PromptedInstance, SamplePolicy,
    TrainingDiverged, ar_generate, diffusion_generate, load_model, save_model,
    train,
)
from .models.params import AR, CLASSIFIER, DIFFUSION

EXIT_OK = 0
EXIT_DIAGNOSTIC = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_BASELINES = {"pad": "pad_token", "mask": "mask_token", "zero": "zero_embedding"}
_METHODS = {"ig": "ig", "gxi": "grad_x_input", "occlusion": "occlusion",
            "stage": "stage"}


class CLIError(Exception):
    def __init__(self, message: str, code: int = EXIT_DIAGNOSTIC):
        super().__init__(message)
        self.code = code


def _load_contract_spec(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read contract file: {exc}", EXIT_IO) from exc
    result = parse_contract_file(text)
    if not result.ok:
        msgs = "\n".join(str(d) for d in result.diagnostics)
        raise CLIError(f"contract file rejected:\n{msgs}")
    return result.spec


def _load_model(args, spec=None):
    path = getattr(args, "model", None) or (spec.model_path if spec else None)
    if path is None:
        raise CLIError("no model: pass --model or a model path in the contract file")
    try:
        return load_model(path), path
    except OSError as exc:
        raise CLIError(f"cannot read model file: {exc}", EXIT_IO) from exc
    except ModelIOError as exc:
        raise CLIError(f"model file rejected: {exc}") from exc


def _encode(params, field: str, text: str):
    """The token ids of ``text``, the value of the input ``field`` names."""
    if not text:
        raise CLIError(f"{field} is empty")
    try:
        return tuple(params.vocab.encode(text))
    except KeyError as exc:
        raise CLIError(f"a token of {field} is not in the model vocabulary:"
                       f" {exc.args[0]}") from exc


def _build_instance(spec, params) -> PromptedInstance:
    prompt = _encode(params, "contract file prompt",
                     spec.prompt_text or "")
    if params.kind == CLASSIFIER:
        if spec.class_index is None:
            raise CLIError("classifier instances need a class field")
        return PromptedInstance(prompt=prompt, seed=spec.seed,
                                class_target=spec.class_index)
    if params.kind == AR:
        if spec.gen_tokens is not None:
            gen = _encode(params, "contract file gen-tokens", spec.gen_tokens)
        else:
            # parse_contract_file admits greedy and sample:<t> alone
            policy = (GreedyPolicy() if spec.generation == "greedy" else
                      SamplePolicy(temperature=float(
                          spec.generation.split(":", 1)[1])))
            gen = tuple(ar_generate(params, prompt, spec.max_len, policy,
                                    spec.seed))
        if not gen:
            raise CLIError("empty generation")
        return PromptedInstance(prompt=prompt, seed=spec.seed, generation=gen)
    # diffusion
    if spec.response_len is None or spec.steps is None:
        raise CLIError("diffusion instances need response-len and steps fields")
    traj = diffusion_generate(params, prompt, spec.response_len, spec.steps,
                              spec.seed)
    return PromptedInstance(prompt=prompt, seed=spec.seed, trajectory=traj)


def _bound_contract(setting, target, instance):
    try:
        contract = make_named(setting, instance, target)
    except ContractError as exc:
        raise CLIError(f"contract cannot bind to this instance: {exc}") from exc
    problems = validate(contract, instance)
    if problems:
        raise CLIError("contract validation failed:\n" + "\n".join(problems))
    return contract


def _contract_run(args, settings=None):
    """What a command on a contract file works on: the file's spec, the
    model and its path, the instance the spec builds on the model, and the
    contracts of ``settings`` (by default the spec's own setting alone),
    each bound to that instance at the spec's target. The spec's setting
    must be one of ``settings``."""
    spec = _load_contract_spec(args.contract)
    if settings is None:
        settings = (spec.setting,)
    elif spec.setting not in settings:
        raise CLIError(f"{args.command} needs a {' or '.join(settings)}"
                       " contract file")
    params, model_path = _load_model(args, spec)
    instance = _build_instance(spec, params)
    contracts = [_bound_contract(setting, spec.target, instance)
                 for setting in settings]
    return spec, params, model_path, instance, contracts


def _method_config(args) -> dict:
    method = {"name": _METHODS[args.method],
              "baseline": _BASELINES[args.baseline]}
    if args.method == "ig":
        method["steps"] = args.ig_steps
    if args.method == "stage":
        method["kind"] = args.stage_kind
        if args.commit_count is not None:
            method["commit_count"] = args.commit_count
    return method


def _outdir(args) -> str:
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CLIError(f"cannot create output directory: {exc}", EXIT_IO) from exc
    return out


def _write_outputs(out: str, files: dict[str, str]) -> list[str]:
    try:
        for name, text in files.items():
            atomic_write_text(os.path.join(out, name), text)
    except OSError as exc:
        raise CLIError(f"cannot write outputs: {exc}", EXIT_IO) from exc
    return sorted(files)


def _emit_manifest(args, command: str, out: str, outputs: list[str],
                   model_id=None, contract_id=None, inputs=(), seeds=None):
    argv = list(getattr(args, "_argv", []))
    digests = {}
    for path in inputs:
        try:
            digests[path] = file_digest(path)
        except OSError as exc:
            raise CLIError(f"cannot digest input {path}: {exc}", EXIT_IO) from exc
    manifest = RunManifest(
        tool_version=__version__, command=command, argv=argv,
        model_id=model_id, contract_id=contract_id, input_digests=digests,
        seeds=seeds or {}, outputs=outputs,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    write_manifest(manifest, os.path.join(out, "manifest.json"))


# -- subcommands ----------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    lengths = [int(x) for x in args.lengths.split(",")]
    corpus = make_syn_corpus(args.lexicon, lengths, args.n_pairs, args.seed)
    out = _outdir(args)
    config = {"lexicon_size": args.lexicon, "lengths": lengths,
              "n_pairs": args.n_pairs, "seed": args.seed}
    outputs = _write_outputs(out, {
        "corpus.json": json.dumps(config, sort_keys=True) + "\n"})
    _emit_manifest(args, "gen-corpus", out, outputs, seeds={"corpus": args.seed})
    print(f"corpus: {len(corpus.train_pairs)} train /"
          f" {len(corpus.heldout_pairs)} held-out pairs,"
          f" vocab {len(corpus.vocab)}")
    return EXIT_OK


def _corpus_from_file(path: str):
    try:
        with open(path) as fh:
            config = json.load(fh)
        return make_syn_corpus(config["lexicon_size"], config["lengths"],
                               config["n_pairs"], config["seed"])
    except OSError as exc:
        raise CLIError(f"cannot read corpus file: {exc}", EXIT_IO) from exc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CLIError(f"corpus file rejected: {exc}") from exc


def cmd_train(args) -> int:
    corpus = _corpus_from_file(args.corpus)
    kind = {"ar": AR, "diffusion": DIFFUSION}[args.kind]
    hp = Hyperparams(kind=kind, vocab_size=len(corpus.vocab),
                     layers=args.layers, heads=2, width=args.width,
                     mlp_hidden=2 * args.width, context_len=64)
    result = train(kind, list(corpus.train_pairs), corpus.vocab, hp,
                   seed=args.seed, steps=args.steps, lr=args.lr)
    out = _outdir(args)
    model_path = os.path.join(out, "model.bin")
    save_model(result.params, model_path)
    _emit_manifest(args, "train", out, ["model.bin"],
                   model_id=result.params.model_id, inputs=[args.corpus],
                   seeds={"train": args.seed})
    print(f"trained {kind} model {result.params.model_id[:12]}"
          f"  final loss {result.final_loss:.4f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    params, _ = _load_model(args)
    prompt = _encode(params, "--prompt", args.prompt)
    if params.kind == AR:
        policy = (SamplePolicy(args.temperature)
                  if args.temperature is not None else GreedyPolicy())
        out_ids = ar_generate(params, prompt, args.max_len, policy, args.seed)
        text = params.vocab.decode(out_ids)
    elif params.kind == DIFFUSION:
        if args.response_len is None or args.steps is None:
            raise CLIError("diffusion generation needs --response-len and --steps")
        traj = diffusion_generate(params, prompt, args.response_len,
                                  args.steps, args.seed)
        text = params.vocab.decode(traj.commit_tokens)
    else:
        raise CLIError("generate applies to sequence models only")
    print(text)
    if args.out:
        out = _outdir(args)
        outputs = _write_outputs(out, {"generation.txt": text + "\n"})
        _emit_manifest(args, "generate", out, outputs,
                       model_id=params.model_id, inputs=[args.model],
                       seeds={"decode": args.seed})
    return EXIT_OK


def cmd_attribute(args) -> int:
    spec, params, model_path, instance, (contract,) = _contract_run(args)
    attr_map = compute_map(params, instance, contract, _method_config(args))
    html, text = render_heatmap(attr_map, instance, contract, params)
    out = _outdir(args)
    outputs = _write_outputs(out, {"map.txt": serialize_map(attr_map),
                                   "heatmap.html": html,
                                   "heatmap.txt": text})
    _emit_manifest(args, "attribute", out, outputs,
                   model_id=params.model_id,
                   contract_id=canonical_id(contract).digest,
                   inputs=[args.contract, model_path],
                   seeds={"instance": spec.seed, "method": args.seed})
    print(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    spec, params, model_path, instance, (contract,) = _contract_run(args)
    policy = PerturbationPolicy(
        replacement=BaselinePolicy(_BASELINES[args.baseline]),
        rescoring=REGENERATE if args.regenerate else RESCORE)
    report = faithfulness_report(params, instance, contract,
                                 _method_config(args), args.k, policy,
                                 n_random=args.random_orderings,
                                 seed=args.seed)
    out = _outdir(args)
    outputs = _write_outputs(out, {"report.txt": serialize_report(report)})
    _emit_manifest(args, "evaluate", out, outputs,
                   model_id=params.model_id,
                   contract_id=report.contract_id,
                   inputs=[args.contract, model_path],
                   seeds={"instance": spec.seed, "eval": args.seed})
    if report.deletion_aopc is not None:
        line = (f"deletion AOPC {report.deletion_aopc:+.4f}"
                f"  insertion AOPC {report.insertion_aopc:+.4f}")
        rand = report.random_deletion_aopcs
        if rand:
            line += f"  random deletion AOPC mean {sum(rand) / len(rand):+.4f}"
        print(line)
    else:
        for ref, s in report.stage_entries:
            shown = "infeasible" if s is None else f"{s:+.4f}"
            print(f"{ref.label()}: {shown}")
    return EXIT_OK


def cmd_render(args) -> int:
    spec, params, model_path, instance, (contract,) = _contract_run(args)
    try:
        with open(args.map) as fh:
            attr_map = parse_map(fh.read())
    except OSError as exc:
        raise CLIError(f"cannot read map file: {exc}", EXIT_IO) from exc
    except MapParseError as exc:
        raise CLIError(f"map file rejected: {exc}") from exc
    mismatch = map_mismatch(attr_map, params, instance, contract)
    if mismatch:
        raise CLIError(f"map rejected: {mismatch}")
    html, text = render_heatmap(attr_map, instance, contract, params)
    out = _outdir(args)
    outputs = _write_outputs(out, {"heatmap.html": html, "heatmap.txt": text})
    _emit_manifest(args, "render", out, outputs, model_id=params.model_id,
                   contract_id=attr_map.contract_id,
                   inputs=[args.contract, model_path, args.map],
                   seeds={"instance": spec.seed})
    print(text)
    return EXIT_OK


def cmd_demo_fallacy(args) -> int:
    settings = (SETTING_LOCAL, SETTING_PROMPT_COND)
    spec, params, model_path, instance, contracts = _contract_run(args, settings)
    lines = []
    masses = {}
    for setting, contract in zip(settings, contracts):
        attr_map = compute_map(params, instance, contract,
                               {"name": "ig", "baseline": "pad_token",
                                "steps": args.ig_steps})
        mass = prefix_mass(attr_map)
        masses[setting] = mass
        lines.append(f"{setting:>20}: prefix mass {mass:.4f}")
    lines.append("")
    lines.append("The two maps answer different questions: under the"
                 f" {SETTING_LOCAL} contract {masses[SETTING_LOCAL]:.0%} of the"
                 " attribution magnitude sits on the already-generated prefix;"
                 f" the {SETTING_PROMPT_COND} contract holds that prefix fixed,"
                 " so the same method must place everything on the prompt."
                 " Reading one map under the other contract's question is the"
                 " self-attribution fallacy.")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        out = _outdir(args)
        outputs = _write_outputs(out, {"demo.txt": text})
        _emit_manifest(args, "demo-fallacy", out, outputs,
                       model_id=params.model_id,
                       inputs=[args.contract, model_path],
                       seeds={"instance": spec.seed})
    return EXIT_OK


def cmd_rerun(args) -> int:
    try:
        manifest = read_manifest(args.manifest)
    except OSError as exc:
        raise CLIError(f"cannot read manifest: {exc}", EXIT_IO) from exc
    except (ValueError, RecursionError, TypeError) as exc:
        raise CLIError(f"manifest rejected: {exc}") from exc
    if manifest.argv[:1] == ["rerun"]:
        raise CLIError("manifest rejected: it records a rerun; rerun the"
                       " original run's manifest instead")
    for path, digest in manifest.input_digests.items():
        try:
            now = file_digest(path)
        except OSError as exc:
            raise CLIError(f"manifest input missing: {exc}", EXIT_IO) from exc
        if now != digest:
            raise CLIError(f"input changed since the original run: {path}")
    return main(manifest.argv + ["--out", args.out])


# -- argument parsing -----------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a finite float > 0, else a usage error naming the flag."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse's "invalid float value" message


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=sorted(_METHODS), default="ig")
    p.add_argument("--ig-steps", type=_int_at_least(1), default=64)
    p.add_argument("--baseline", choices=sorted(_BASELINES), default="pad")
    p.add_argument("--stage-kind", choices=("ablate", "noise_schedule",
                                            "substitute_step"),
                   default="ablate")
    p.add_argument("--commit-count", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrscope",
        description="Contract-typed feature attribution for small"
                    " generative models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic translation corpus")
    p.add_argument("--lexicon", type=_int_at_least(2), default=8)
    p.add_argument("--lengths", default="1,2,3,4")
    p.add_argument("--n-pairs", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=("ar", "diffusion"), default="ar")
    p.add_argument("--steps", type=_int_at_least(1), default=2500)
    p.add_argument("--lr", type=_positive_float, default=0.05)
    p.add_argument("--width", type=_int_at_least(1), default=64)
    p.add_argument("--layers", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="decode from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-len", type=_int_at_least(1), default=16)
    p.add_argument("--temperature", type=_positive_float, default=None)
    p.add_argument("--response-len", type=_int_at_least(1), default=None)
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("attribute", help="compute an attribution map")
    p.add_argument("--contract", required=True)
    p.add_argument("--model", default=None)
    _add_method_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="contract-matched faithfulness report")
    p.add_argument("--contract", required=True)
    p.add_argument("--model", default=None)
    _add_method_flags(p)
    p.add_argument("--k", type=_int_at_least(1), default=None)
    p.add_argument("--random-orderings", type=_int_at_least(0), default=10)
    p.add_argument("--regenerate", action="store_true",
                   help="re-run the diffusion chain instead of rescoring")
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="render a stored map as a heatmap")
    p.add_argument("--contract", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("demo-fallacy",
                       help="prefix mass under local vs prompt-conditioned"
                            " contracts for one instance")
    p.add_argument("--contract", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--ig-steps", type=_int_at_least(1), default=32)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rerun", help="reproduce a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    """Runs one command; may be called any number of times in a process."""
    global _PARSER
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # stash the argv minus the output directory for the manifest
    stripped = []
    skip = False
    for item in argv:
        if skip:
            skip = False
            continue
        if item == "--out":
            skip = True
            continue
        if item.startswith("--out="):
            continue
        stripped.append(item)
    args._argv = stripped
    # looked up by name on every call, so that a function rebound in this
    # module after the parser was built is the one that runs
    func = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ContractError, EvaluationError, MapParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (NumericError, TrainingDiverged) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
