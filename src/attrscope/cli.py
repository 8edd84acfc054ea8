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
from .corpus import MAX_LENGTH, MAX_LEXICON, MAX_VOCAB, make_syn_corpus
from .evaluation import (
    EvaluationError, PerturbationPolicy, REGENERATE, RESCORE, compute_map,
    faithfulness_report,
)
from .fileio import (
    MapParseError, RunManifest, atomic_write_text, file_digest, parse_map,
    parse_contract_file, read_manifest, serialize_map, serialize_report,
)
from .heatmap import render_heatmap
from .models import (
    GreedyPolicy, Hyperparams, ModelIOError, PromptedInstance, SamplePolicy,
    TrainingDiverged, ar_generate, diffusion_generate, load_model, save_model,
    train,
)
from .models.params import AR, CLASSIFIER, DIFFUSION
from .models.training import DEFAULT_LR
from .models.transformer import op

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


def _load_model(args, path: str):
    """The model at ``path``, its ``model_id`` checked against the bytes
    read, or the one that ``rerun`` read and checked from ``path`` before
    the command ran; an unreadable file is exit 4, a rejected one exit 2."""
    if path in args._models:
        return args._models[path]
    try:
        return load_model(path)
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
    model_path = args.model or spec.model_path
    if model_path is None:
        raise CLIError("no model: pass --model or a model path in the contract file")
    params = _load_model(args, model_path)
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


def _publish(args, files, *, model_id=None, model_path=None,
             contract_id=None, inputs=(), seeds=None) -> None:
    """Writes ``files``, each name's text or model, into the ``--out``
    directory, then the manifest that records them, the run's argv and
    the digest of each input: the file SHA-256 of each of ``inputs``, and
    for the model the run read from ``model_path``, its ``model_id``,
    which ``load_model`` checked against the bytes the run used. Any I/O
    error is exit 4."""
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(args.out, name)
            if isinstance(content, str):
                atomic_write_text(path, content)
            else:
                save_model(content, path)
        digests = {path: file_digest(path) for path in inputs}
        if model_path is not None:
            digests[model_path] = model_id
        manifest = RunManifest(
            tool_version=__version__, command=args.command, argv=args._argv,
            model_id=model_id, contract_id=contract_id,
            input_digests=digests,
            seeds=seeds or {}, outputs=sorted(files),
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
        atomic_write_text(os.path.join(args.out, "manifest.json"),
                          manifest.to_json())
    except OSError as exc:
        raise CLIError(f"cannot write outputs: {exc}", EXIT_IO) from exc


# -- subcommands ----------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    corpus = make_syn_corpus(args.lexicon, args.lengths, args.n_pairs, args.seed)
    config = {"lexicon_size": args.lexicon, "lengths": args.lengths,
              "n_pairs": args.n_pairs, "seed": args.seed}
    _publish(args, {"corpus.json": json.dumps(config, sort_keys=True) + "\n"},
             seeds={"corpus": args.seed})
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
    _publish(args, {"model.bin": result.params},
             model_id=result.params.model_id, inputs=[args.corpus],
             seeds={"train": args.seed})
    print(f"trained {kind} model {result.params.model_id[:12]}"
          f"  final loss {result.final_loss:.4f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if (None not in (args.steps, args.response_len)
            and args.steps > args.response_len):
        raise CLIError(f"argument --steps: must be <= --response-len"
                       f" ({args.response_len}), got {args.steps}")
    params = _load_model(args, args.model)
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
        _publish(args, {"generation.txt": text + "\n"},
                 model_id=params.model_id, model_path=args.model,
                 seeds={"decode": args.seed})
    return EXIT_OK


@op()  # the instance's generation too
def cmd_attribute(args) -> int:
    spec, params, model_path, instance, (contract,) = _contract_run(args)
    attr_map = compute_map(params, instance, contract, _method_config(args))
    html, text = render_heatmap(attr_map, instance, contract, params)
    _publish(args, {"map.txt": serialize_map(attr_map),
                    "heatmap.html": html, "heatmap.txt": text},
             model_id=params.model_id, model_path=model_path,
             contract_id=canonical_id(contract).digest,
             inputs=[args.contract],
             seeds={"instance": spec.seed})
    print(text)
    return EXIT_OK


@op()  # the instance's generation too
def cmd_evaluate(args) -> int:
    spec, params, model_path, instance, (contract,) = _contract_run(args)
    policy = PerturbationPolicy(
        replacement=BaselinePolicy(_BASELINES[args.baseline]),
        rescoring=REGENERATE if args.regenerate else RESCORE)
    report = faithfulness_report(params, instance, contract,
                                 _method_config(args), args.k, policy,
                                 n_random=args.random_orderings,
                                 seed=args.seed)
    _publish(args, {"report.txt": serialize_report(report)},
             model_id=params.model_id, model_path=model_path,
             contract_id=report.contract_id, inputs=[args.contract],
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
    _publish(args, {"heatmap.html": html, "heatmap.txt": text},
             model_id=params.model_id, model_path=model_path,
             contract_id=attr_map.contract_id, inputs=[args.contract, args.map],
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
        _publish(args, {"demo.txt": text}, model_id=params.model_id,
                 model_path=model_path, inputs=[args.contract],
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
    models = {}  # each model input, as read and checked here
    for path, digest in manifest.input_digests.items():
        if digest == manifest.model_id:  # a model, recorded by its checked id
            models[path] = _load_model(args, path)
            now = models[path].model_id
        else:
            try:
                now = file_digest(path)
            except OSError as exc:
                raise CLIError(f"manifest input missing: {exc}",
                               EXIT_IO) from exc
        if now != digest:
            raise CLIError(f"input changed since the original run: {path}")
    return _run(manifest.argv + ["--out", args.out], models)


# -- argument parsing -----------------------------------------------------


def _int_at_least(low: int, high: int | None = None, why: str = ""):
    """An argparse type: an integer >= low (and <= high, for ``why``),
    else a usage error naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be <= {high} ({why}), got {value}")
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


def _lengths(text: str) -> list[int]:
    """An argparse type: comma-separated integers >= 1, none above
    corpus.MAX_LENGTH, else a usage error naming the flag."""
    values = [int(x) if x.strip().isdecimal() else 0 for x in text.split(",")]
    if min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers >= 1, got {text!r}")
    if max(values) > MAX_LENGTH:
        raise argparse.ArgumentTypeError(
            f"must be <= {MAX_LENGTH} (pairs of 2 * length + 3 tokens fit the"
            f" context window), got {max(values)}")
    return values


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=sorted(_METHODS), default="ig")
    p.add_argument("--ig-steps", type=_int_at_least(1), default=64)
    p.add_argument("--baseline", choices=sorted(_BASELINES), default="pad")
    p.add_argument("--stage-kind", choices=("ablate", "noise_schedule",
                                            "substitute_step"),
                   default="ablate")
    p.add_argument("--commit-count", type=_int_at_least(0), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrscope",
        description="Contract-typed feature attribution for small"
                    " generative models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic translation corpus")
    p.add_argument("--lexicon", type=_int_at_least(
        2, MAX_LEXICON, f"a vocab of at most {MAX_VOCAB} tokens"), default=8)
    p.add_argument("--lengths", type=_lengths, default="1,2,3,4")
    p.add_argument("--n-pairs", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=("ar", "diffusion"), default="ar")
    p.add_argument("--steps", type=_int_at_least(1), default=2500)
    p.add_argument("--lr", type=_positive_float, default=DEFAULT_LR)
    p.add_argument("--width", type=_int_at_least(1), default=64)
    p.add_argument("--layers", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="decode from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-len", type=_int_at_least(1), default=16)
    p.add_argument("--temperature", type=_positive_float, default=None)
    p.add_argument("--response-len", type=_int_at_least(1), default=None)
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    return _run(sys.argv[1:] if argv is None else argv, {})


def _run(argv, models) -> int:
    """Runs the command of ``argv`` with ``models``, each model already
    read and checked, by path, in place of reading that path again."""
    global _PARSER
    argv = list(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    args._models = models
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
