"""Fuzzers for every file the tool reads: model files, attribution maps,
faithfulness reports, run manifests and corpus files.

Each case mutates a valid file, either byte by byte or by replacing one
JSON value and then recomputing the file's digest (the map and report
footer, the model header's length and model_id), so that the mutation
reaches the parser behind the digest check. Every case must end in the
file type's own error (ModelIOError, MapParseError) or a successful read,
a manifest rerun in CLI exit 0, 2 or 4, and a training run on a corpus
file in exit 0 or 2: never another exception, and never a hang."""
import hashlib
import json
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from attrscope.attribution import AttributionMap
from attrscope.cli import EXIT_DIAGNOSTIC, EXIT_IO, EXIT_OK, main
from attrscope.contract import FeatureRef, PROMPT_TOKEN, STAGE, STATE_COMMITMENT
from attrscope.corpus import make_syn_corpus
from attrscope.evaluation import DELETE, INSERT, FaithfulnessCurve, FaithfulnessReport
from attrscope.fileio import (
    MapParseError, RunManifest, parse_map, parse_report, serialize_map,
    serialize_report,
)
from attrscope.models import Hyperparams, ModelIOError, init_params, load_model, save_model
from attrscope.models.params import AR, MAGIC
from conftest import file_arrays, file_model_id

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

PLACEHOLDER = "@@mutated@@"
DEEP = "[" * 200_000 + "]" * 200_000
# JSON texts that are well formed but of the wrong type, sign or size:
# 1e999 reads as inf, 10**400 overflows a float, 5000 digits exceed the
# int conversion limit, and DEEP nests past the recursion limit
NASTY = ("1e999", "-1e999", "NaN", "1" + "0" * 400, "9" * 5000, DEEP, "-1",
         "0", "2.5", "true", "null", '""', '"x"', "[]", "{}", "[1, 2, 3]",
         '["prompt_token", 0, -1]', '{"a": 1}')
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6).map(json.dumps)
# ("json", path, raw): replace the value at path (an int picks a child by
# position, a str names a key) with the JSON text raw
json_mutations = st.tuples(
    st.just("json"), st.lists(st.integers(0, 40), max_size=4).map(tuple),
    st.sampled_from(NASTY) | json_values)
# ("bytes", edits): each edit flips, deletes or inserts one byte
byte_mutations = st.tuples(
    st.just("bytes"),
    st.lists(st.tuples(st.integers(0, 1 << 20),
                       st.sampled_from(("flip", "delete", "insert")),
                       st.integers(0, 255)),
             min_size=1, max_size=3).map(tuple))
mutations = json_mutations | byte_mutations


def replace_at(tree, path, new):
    """tree with the value at path replaced by new."""
    if not path or not isinstance(tree, (dict, list)) or not tree:
        return new
    step, rest = path[0], path[1:]
    if isinstance(tree, dict):
        key = step if isinstance(step, str) else sorted(tree)[step % len(tree)]
        return {**tree, key: replace_at(tree[key], rest, new)}
    i = step % len(tree)
    return tree[:i] + [replace_at(tree[i], rest, new)] + tree[i + 1:]


def mutate_json(text: str, path, raw: str) -> str:
    tree = replace_at(json.loads(text), path, PLACEHOLDER)
    return json.dumps(tree, sort_keys=True).replace(json.dumps(PLACEHOLDER), raw)


def mutate_bytes(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, kind, byte in edits:
        pos %= len(out) + 1
        if kind == "insert":
            out.insert(pos, byte)
        elif out and pos < len(out):
            if kind == "flip":
                out[pos] ^= byte or 1
            else:
                del out[pos]
    return bytes(out)


def digest_document(text: str, mutation) -> str:
    """A map or report file mutated; a JSON mutation of its body gets the
    body's own digest footer."""
    if mutation[0] == "bytes":
        return mutate_bytes(text.encode(), mutation[1]).decode(
            "utf-8", errors="replace")
    header, body, _ = text.split("\n", 2)
    body = mutate_json(body, *mutation[1:])
    return f"{header}\n{body}\ndigest: {hashlib.sha256(body.encode()).hexdigest()}\n"


def model_file(blob: bytes, mutation) -> bytes:
    """A model file mutated; a JSON mutation of its header gets the header
    length and model_id that the mutated header and the file's own arrays
    (its weight_order and body) give."""
    if mutation[0] == "bytes":
        return mutate_bytes(blob, mutation[1])
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    del header["model_id"]
    text = mutate_json(json.dumps(header), *mutation[1:])
    model_id = file_model_id(text, file_arrays(
        header["hyper"], header["weight_order"], blob[12 + hlen:]))
    if text.startswith("{") and text.endswith("}"):
        text = f'{text[:-1]}, "model_id": "{model_id}"}}'
    raw = text.encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_model(workdir):
    """The bytes of a small AR model's file."""
    corpus = make_syn_corpus(2, [1], 2, seed=0)
    hp = Hyperparams(kind=AR, vocab_size=len(corpus.vocab), layers=1, heads=2,
                     width=8, mlp_hidden=8, context_len=8)
    params = init_params(hp, corpus.vocab, seed=0)
    path = str(workdir / "model.bin")
    save_model(params, path)
    with open(path, "rb") as fh:
        return fh.read()


SAMPLE_MAP = serialize_map(AttributionMap(
    entries=((FeatureRef(PROMPT_TOKEN, 0), 0.5),
             (FeatureRef(STATE_COMMITMENT, 2, slot=1), None)),
    contract_id="c" * 64, method=(("name", "ig"), ("steps", 8)),
    model_id="m" * 64, instance_digest="d" * 64, seed=3))
SAMPLE_REPORT = serialize_report(FaithfulnessReport(
    contract_id="c" * 64, method=(("name", "occlusion"),), K=1,
    policy_mode_pair=("pad_token", "rescore_fixed_output"),
    deletion=FaithfulnessCurve((0, 1), (-1.0, -2.5), "map", DELETE),
    insertion=FaithfulnessCurve((0, 1), (-2.5, -1.0), "map", INSERT),
    random_deletions=(FaithfulnessCurve((0, 1), (-1.0, -2.0), "random:0",
                                        DELETE),),
    random_insertions=(FaithfulnessCurve((0, 1), (-2.5, -1.5), "random:0",
                                         INSERT),),
    deletion_aopc=1.5, insertion_aopc=1.5, random_deletion_aopcs=(1.0,),
    stage_entries=((FeatureRef(STAGE, 1), None),), seed=0))


class TestModelFileFuzz:
    @FUZZ
    @given(mutation=mutations)
    @example(mutation=("json", (), DEEP))
    @example(mutation=("json", ("hyper", "vocab_size"), "1e999"))
    @example(mutation=("json", ("vocab", "pad"), "4"))
    def test_load_rejects_or_reads(self, tiny_model, workdir, mutation):
        path = str(workdir / "mutated.bin")
        with open(path, "wb") as fh:
            fh.write(model_file(tiny_model, mutation))
        try:
            load_model(path)
        except ModelIOError:
            return
        assert main(["generate", "--model", path, "--prompt", "TR: s0 SEP",
                     "--max-len", "2"]) in (EXIT_OK, EXIT_DIAGNOSTIC)

    def test_json_mutation_passes_the_model_id_check(self, tiny_model,
                                                     workdir):
        path = str(workdir / "pad4.bin")
        with open(path, "wb") as fh:
            fh.write(model_file(tiny_model, ("json", ("vocab", "pad"), "4")))
        assert load_model(path).vocab.pad == 4

    def test_deep_header_exits_2(self, tiny_model, workdir, capsys):
        path = str(workdir / "deep.bin")
        with open(path, "wb") as fh:
            fh.write(model_file(tiny_model, ("json", (), DEEP)))
        assert main(["generate", "--model", path, "--prompt", "TR: s0 SEP"]) \
            == EXIT_DIAGNOSTIC
        assert "model file rejected" in capsys.readouterr().err


def check_parse(parse, text):
    try:
        parse(text)
    except MapParseError:
        pass


class TestMapFileFuzz:
    @FUZZ
    @given(mutation=mutations)
    @example(mutation=("json", ("seed",), "1e999"))
    @example(mutation=("json", ("entries", 0, 1), "1e999"))
    @example(mutation=("json", ("entries", 0, 3), "1" + "0" * 400))
    @example(mutation=("json", (), DEEP))
    def test_parse_rejects_or_reads(self, mutation):
        check_parse(parse_map, digest_document(SAMPLE_MAP, mutation))

    def test_json_mutation_passes_the_digest_check(self):
        text = digest_document(SAMPLE_MAP, ("json", ("seed",), "4"))
        assert parse_map(text).seed == 4


class TestReportFileFuzz:
    @FUZZ
    @given(mutation=mutations)
    @example(mutation=("json", ("K",), "1e999"))
    @example(mutation=("json", ("deletion", "k_values", 0), "1e999"))
    @example(mutation=("json", (), DEEP))
    @example(mutation=("json", ("deletion_aopc",), '"x"'))
    @example(mutation=("json", ("policy",), '{"a": 1}'))
    def test_parse_rejects_or_reads(self, mutation):
        """A report that parses is one serialize_report writes back."""
        try:
            report = parse_report(digest_document(SAMPLE_REPORT, mutation))
        except MapParseError:
            return
        assert parse_report(serialize_report(report)) == report

    @pytest.mark.parametrize("path, raw", [
        (("deletion_aopc",), '"x"'), (("insertion_aopc",), "true"),
        (("deletion_aopc",), "NaN"), (("random_deletion_aopcs", 0), "1e999"),
        (("policy",), '{"a": 1}'), (("policy",), '["pad_token"]'),
        (("policy", 1), "3"), (("deletion", "scores", 0), '"-1.0"'),
        (("method", 0), '"ab"'), (("method", 0, 1), "NaN"),
    ])
    def test_wrongly_typed_field_rejected(self, path, raw):
        with pytest.raises(MapParseError):
            parse_report(digest_document(SAMPLE_REPORT, ("json", path, raw)))

    def test_json_mutation_passes_the_digest_check(self):
        text = digest_document(SAMPLE_REPORT, ("json", ("K",), "2"))
        assert parse_report(text).K == 2


SAMPLE_MANIFEST = RunManifest(
    tool_version="0.1.0", command="gen-corpus",
    argv=["gen-corpus", "--lexicon", "2", "--lengths", "1", "--n-pairs", "2",
          "--seed", "0"],
    model_id=None, contract_id=None, input_digests={}, seeds={"corpus": 0},
    timestamp="2026-01-01T00:00:00+00:00",
    outputs=["corpus.json"]).to_json()


class TestManifestFuzz:
    @FUZZ
    @given(mutation=mutations)
    @example(mutation=("json", (), DEEP))
    @example(mutation=("json", ("argv",), "1e999"))
    @example(mutation=("json", ("seeds", "corpus"), "9" * 5000))
    def test_rerun_exits_cleanly(self, workdir, mutation):
        if mutation[0] == "bytes":
            blob = mutate_bytes(SAMPLE_MANIFEST.encode(), mutation[1])
        else:
            blob = mutate_json(SAMPLE_MANIFEST, *mutation[1:]).encode()
        path = str(workdir / "manifest.json")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            code = main(["rerun", "--manifest", path,
                         "--out", str(workdir / "rerun")])
        except SystemExit as exc:  # argparse rejects a mutated argv
            code = exc.code
        assert code in (EXIT_OK, EXIT_DIAGNOSTIC, EXIT_IO)

    def test_deep_manifest_rejected(self, workdir, capsys):
        path = str(workdir / "deep.json")
        with open(path, "w") as fh:
            fh.write(DEEP)
        assert main(["rerun", "--manifest", path,
                     "--out", str(workdir / "rerun")]) == EXIT_DIAGNOSTIC
        assert "manifest rejected" in capsys.readouterr().err


SAMPLE_CORPUS = json.dumps({"lexicon_size": 2, "lengths": [1, 2],
                            "n_pairs": 4, "seed": 0}, sort_keys=True)


class TestCorpusFileFuzz:
    @FUZZ
    @given(mutation=mutations)
    @example(mutation=("json", ("n_pairs",), "1e999"))
    @example(mutation=("json", ("n_pairs",), "30000"))
    @example(mutation=("json", ("n_pairs",), "true"))
    @example(mutation=("json", ("lengths", 0), "1" + "0" * 400))
    @example(mutation=("json", ("lengths", 0), "1e999"))
    @example(mutation=("json", (), DEEP))
    def test_train_exits_cleanly(self, workdir, mutation):
        if mutation[0] == "bytes":
            blob = mutate_bytes(SAMPLE_CORPUS.encode(), mutation[1])
        else:
            blob = mutate_json(SAMPLE_CORPUS, *mutation[1:]).encode()
        path = str(workdir / "corpus.json")
        with open(path, "wb") as fh:
            fh.write(blob)
        assert main(["train", "--corpus", path, "--steps", "1", "--width", "4",
                     "--layers", "1", "--out", str(workdir / "trained")]) \
            in (EXIT_OK, EXIT_DIAGNOSTIC)
