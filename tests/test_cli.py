"""Command-line tests: the full pipeline in-process, exit codes, and
manifest reruns."""
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrscope import cli
from attrscope.cli import (
    EXIT_DIAGNOSTIC, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main,
)
from attrscope.corpus import make_syn_corpus
from attrscope.models import (
    Hyperparams, ModelParams, init_params, load_model, save_model,
)
from attrscope.models.params import CLASSIFIER


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + quickly trained model + contract file, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = str(root / "corpus")
    model_dir = str(root / "model")
    assert main(["gen-corpus", "--lexicon", "4", "--lengths", "1,2",
                 "--n-pairs", "24", "--seed", "3", "--out", corpus_dir]) == EXIT_OK
    assert main(["train", "--corpus", os.path.join(corpus_dir, "corpus.json"),
                 "--kind", "ar", "--steps", "60", "--lr", "0.05",
                 "--width", "32", "--seed", "0", "--out", model_dir]) == EXIT_OK
    contract = root / "pc.contract"
    contract.write_text(
        "setting: prompt-conditioned\n"
        "target: 1\n"
        f"model: {os.path.join(model_dir, 'model.bin')}\n"
        "prompt: TR: s1 SEP\n"
        "generation: greedy\n"
        "max-len: 4\n"
        "seed: 0\n")
    return {"root": root, "corpus": corpus_dir, "model": model_dir,
            "contract": str(contract)}


class TestPipeline:
    def test_gen_corpus_writes_manifest(self, workspace):
        assert os.path.exists(os.path.join(workspace["corpus"],
                                           "manifest.json"))

    def test_generate(self, workspace, capsys):
        code = main(["generate", "--model",
                     os.path.join(workspace["model"], "model.bin"),
                     "--prompt", "TR: s1 SEP", "--max-len", "4",
                     "--seed", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out  # decoded something

    def test_attribute_outputs(self, workspace, tmp_path):
        out = str(tmp_path / "attr")
        code = main(["attribute", "--contract", workspace["contract"],
                     "--method", "ig", "--ig-steps", "8", "--out", out])
        assert code == EXIT_OK
        for name in ("map.txt", "heatmap.html", "heatmap.txt",
                     "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_evaluate_outputs(self, workspace, tmp_path):
        out = str(tmp_path / "eval")
        code = main(["evaluate", "--contract", workspace["contract"],
                     "--method", "ig", "--ig-steps", "8", "--k", "2",
                     "--random-orderings", "2", "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "report.txt"))

    def test_render_from_stored_map(self, workspace, tmp_path):
        attr = str(tmp_path / "attr")
        rend = str(tmp_path / "rend")
        assert main(["attribute", "--contract", workspace["contract"],
                     "--ig-steps", "4", "--out", attr]) == EXIT_OK
        code = main(["render", "--contract", workspace["contract"],
                     "--map", os.path.join(attr, "map.txt"), "--out", rend])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(rend, "heatmap.html"))

    def test_demo_fallacy(self, workspace, capsys):
        code = main(["demo-fallacy", "--contract", workspace["contract"],
                     "--ig-steps", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "prefix mass" in out
        assert "local-next-token" in out and "prompt-conditioned" in out


class TestRenderChecksEveryId:
    """render reads a map only under the contract, model and instance it
    was computed under. Two prompts of one length, with generations of one
    length, share a contract id, so only the instance digest tells a map of
    one from a map of the other."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("render-ids")
        corpus = str(root / "corpus")
        assert main(["gen-corpus", "--lexicon", "8", "--lengths", "2",
                     "--n-pairs", "24", "--seed", "3",
                     "--out", corpus]) == EXIT_OK
        models = []
        for seed in (0, 1):
            out = str(root / f"model{seed}")
            assert main(["train", "--corpus",
                         os.path.join(corpus, "corpus.json"), "--kind", "ar",
                         "--steps", "30", "--width", "16", "--layers", "1",
                         "--seed", str(seed), "--out", out]) == EXIT_OK
            models.append(os.path.join(out, "model.bin"))
        contracts = {}
        for name, setting, prompt, gen in (
                ("s3 s1", "prompt-conditioned", "s3 s1", "t3 t1 EOS"),
                ("s5 s2", "prompt-conditioned", "s5 s2", "t5 t2 EOS"),
                ("local", "local-next-token", "s3 s1", "t3 t1 EOS")):
            path = root / f"{name.replace(' ', '')}.contract"
            path.write_text(f"setting: {setting}\n"
                            # at token 1 the two settings name one contract
                            "target: 2\n"
                            f"model: {models[0]}\n"
                            f"prompt: TR: {prompt} SEP\n"
                            f"gen-tokens: {gen}\n"
                            "seed: 0\n")
            contracts[name] = str(path)
        attr = str(root / "attr")
        assert main(["attribute", "--contract", contracts["s3 s1"],
                     "--ig-steps", "4", "--out", attr]) == EXIT_OK
        return {"models": models, "contracts": contracts,
                "map": os.path.join(attr, "map.txt")}

    def render(self, run, tmp_path, contract, *model):
        return main(["render", "--contract", run["contracts"][contract],
                     *model, "--map", run["map"],
                     "--out", str(tmp_path / "rend")])

    def test_own_run_renders(self, run, tmp_path):
        assert self.render(run, tmp_path, "s3 s1") == EXIT_OK

    def test_other_instance_refused(self, run, tmp_path, capsys):
        assert self.render(run, tmp_path, "s5 s2") == EXIT_DIAGNOSTIC
        assert "instance_digest" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "rend" / "heatmap.txt")

    def test_other_contract_refused(self, run, tmp_path, capsys):
        assert self.render(run, tmp_path, "local") == EXIT_DIAGNOSTIC
        assert "contract_id" in capsys.readouterr().err

    def test_other_model_refused(self, run, tmp_path, capsys):
        assert self.render(run, tmp_path, "s3 s1",
                           "--model", run["models"][1]) == EXIT_DIAGNOSTIC
        assert "model_id" in capsys.readouterr().err


class TestRerun:
    def test_rerun_bit_identical(self, workspace, tmp_path):
        first = str(tmp_path / "a")
        again = str(tmp_path / "b")
        third = str(tmp_path / "c")
        assert main(["attribute", "--contract", workspace["contract"],
                     "--ig-steps", "8", "--out", first]) == EXIT_OK
        manifest = os.path.join(first, "manifest.json")
        assert main(["rerun", "--manifest", manifest,
                     "--out", again]) == EXIT_OK
        assert main(["rerun", "--manifest", manifest,
                     "--out", third]) == EXIT_OK
        for name in ("map.txt", "heatmap.html", "heatmap.txt"):
            a, b, c = (Path(run, name).read_bytes()
                       for run in (first, again, third))
            assert a == b == c

    def test_rerun_detects_changed_inputs(self, workspace, tmp_path):
        out = str(tmp_path / "a")
        assert main(["attribute", "--contract", workspace["contract"],
                     "--ig-steps", "4", "--out", out]) == EXIT_OK
        manifest_path = os.path.join(out, "manifest.json")
        data = json.loads(Path(manifest_path).read_text())
        key = next(iter(data["input_digests"]))
        data["input_digests"][key] = "0" * 64
        Path(manifest_path).write_text(json.dumps(data))
        assert main(["rerun", "--manifest", manifest_path,
                     "--out", str(tmp_path / "b")]) == EXIT_DIAGNOSTIC

    def test_rerun_of_a_rerun_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        Path(path).write_text(json.dumps({
            "tool_version": "0", "command": "rerun",
            "argv": ["rerun", "--manifest", path], "model_id": None,
            "contract_id": None, "input_digests": {}, "seeds": {},
            "timestamp": "", "outputs": []}))
        assert main(["rerun", "--manifest", path,
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC


def rerun_writes_the_same(command, fields, argv, output):
    """Whether ``rerun`` of the manifest of ``command`` run on a contract
    file of ``fields`` with ``argv`` writes ``output`` with the same
    bytes."""
    with tempfile.TemporaryDirectory() as root:
        contract = os.path.join(root, "c.contract")
        with open(contract, "w") as fh:
            fh.write(fields)
        first, again = os.path.join(root, "a"), os.path.join(root, "b")
        assert main([command, "--contract", contract, *argv,
                     "--out", first]) == EXIT_OK
        assert main(["rerun", "--manifest",
                     os.path.join(first, "manifest.json"),
                     "--out", again]) == EXIT_OK
        with open(os.path.join(first, output), "rb") as a, \
                open(os.path.join(again, output), "rb") as b:
            return a.read() == b.read()


AR_SETTINGS = ["local-next-token", "prompt-conditioned", "span-level-prompt"]


class TestRerunProperty:
    """``rerun`` of a generated ``attribute`` or ``evaluate`` manifest
    writes the same map or report bytes, over the AR settings with
    prompts and generations of several lengths, and for ``evaluate`` the
    diffusion settings too, with every rescoring and stage kind. The graph
    a pass runs on depends on the rows its score reads, and a served
    log-prob table on the chain that kept it, so this pins that both are
    functions of the manifest's inputs."""

    @pytest.fixture(scope="class")
    def model_file(self, tiny_ar_model, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rerun") / "model.bin")
        save_model(tiny_ar_model, path)
        return path

    @pytest.fixture(scope="class")
    def diffusion_file(self, diffusion_model, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rerun") / "diffusion.bin")
        save_model(diffusion_model, path)
        return path

    @staticmethod
    def ar_fields(data, model_file, vocab, setting, min_words=1):
        """An AR contract file of ``setting`` over the model file."""
        words = st.lists(st.sampled_from(vocab.tokens[2:]),
                         min_size=min_words, max_size=5)
        fields = f"setting: {setting}\nmodel: {model_file}\n" \
            f"prompt: {' '.join(data.draw(words))}\nseed: 0\n"
        if data.draw(st.booleans()):
            gen = data.draw(words)
            fields += f"gen-tokens: {' '.join(gen)}\n"
            gen_len = len(gen)
        else:  # greedy decoding, which may stop early at EOS
            gen_len = 1
            fields += f"generation: greedy\nmax-len: {data.draw(st.integers(1, 4))}\n"
        if setting != "span-level-prompt":
            fields += f"target: {data.draw(st.integers(1, gen_len))}\n"
        return fields

    @staticmethod
    def method_flags(data):
        """The flags of a drawn embedding or token method."""
        method = data.draw(st.sampled_from(["ig", "gxi", "occlusion"]))
        argv = ["--method", method, "--baseline",
                data.draw(st.sampled_from(["pad", "mask"]))]
        if method == "ig":
            argv += ["--ig-steps", str(data.draw(st.integers(1, 12)))]
        return argv

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rerun_writes_the_same_map(self, model_file, tiny_ar_model, data):
        setting = data.draw(st.sampled_from(AR_SETTINGS))
        fields = self.ar_fields(data, model_file, tiny_ar_model.vocab, setting)
        assert rerun_writes_the_same("attribute", fields,
                                     self.method_flags(data), "map.txt")

    @pytest.mark.parametrize("setting, flags", [
        *[(setting, []) for setting in AR_SETTINGS],
        ("state-level", []), ("prompt-to-output", []),
        ("prompt-to-output", ["--regenerate"]),
        *[("denoising-stage", ["--stage-kind", kind])
          for kind in ("ablate", "noise_schedule", "substitute_step")]])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rerun_writes_the_same_report(self, model_file, diffusion_file,
                                          tiny_ar_model, setting, flags, data):
        vocab = tiny_ar_model.vocab
        if setting in AR_SETTINGS:
            # at least two eligible features, so K may be 2
            fields = self.ar_fields(data, model_file, vocab, setting,
                                    min_words=2)
        else:
            prompt = data.draw(st.lists(st.sampled_from(vocab.tokens[2:]),
                                        min_size=2, max_size=4))
            # a stage map needs two stages for a stage before the last,
            # the only kind that ablate and noise_schedule can perturb
            least = 2 if setting == "denoising-stage" else 1
            response_len = data.draw(st.integers(least, 3))
            steps = data.draw(st.integers(least, response_len))
            fields = f"setting: {setting}\nmodel: {diffusion_file}\n" \
                f"prompt: {' '.join(prompt)}\nresponse-len: {response_len}\n" \
                f"steps: {steps}\nseed: {data.draw(st.integers(0, 2))}\n"
            if setting == "state-level":
                fields += f"target: {data.draw(st.integers(1, steps))}\n"
        if setting == "denoising-stage":
            flags = ["--method", "stage", *flags]
            if "noise_schedule" in flags:
                flags += ["--commit-count", str(data.draw(st.integers(0, 2)))]
        else:
            flags = self.method_flags(data) + flags
        flags += ["--k", str(data.draw(st.integers(1, 2))),
                  "--random-orderings", str(data.draw(st.integers(0, 2))),
                  "--seed", str(data.draw(st.integers(0, 2)))]
        assert rerun_writes_the_same("evaluate", fields, flags, "report.txt")


def recorder(calls):
    """A subcommand function that records its arguments and succeeds."""
    def cmd(args):
        calls.append(args)
        return EXIT_OK
    return cmd


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        return builds

    def test_usage_error_then_a_valid_call(self, builds, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_train", recorder(calls))
        for argv in (["train", "--steps", "0", "--corpus", "c", "--out", "o"],
                     ["no-such-command"], ["train", "--out", "o"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_DIAGNOSTIC
        assert main(["train", "--corpus", "c.json", "--out", "o"]) == EXIT_OK
        (args,) = calls
        assert (args.corpus, args.steps, args.lr) == ("c.json", 2500, 0.05)
        assert builds == [1]

    def test_flags_do_not_leak_into_the_next_call(self, builds, monkeypatch):
        calls = []
        for name in ("cmd_train", "cmd_evaluate", "cmd_attribute"):
            monkeypatch.setattr(cli, name, recorder(calls))
        main(["train", "--corpus", "c.json", "--seed", "5", "--out", "o"])
        main(["evaluate", "--contract", "c", "--out", "o"])
        main(["attribute", "--contract", "c", "--ig-steps", "8",
              "--method", "gxi", "--model", "m.bin", "--out", "o"])
        main(["attribute", "--contract", "c", "--out", "o"])
        train, evaluate, attribute, again = calls
        assert train.seed == 5 and evaluate.seed == 0
        assert (attribute.ig_steps, attribute.method, attribute.model) == \
            (8, "gxi", "m.bin")
        assert (again.ig_steps, again.method, again.model) == \
            (64, "ig", None)
        assert again._argv == ["attribute", "--contract", "c"]
        assert not hasattr(evaluate, "corpus")
        assert builds == [1]

    def test_the_function_bound_at_call_time_runs(self, builds, monkeypatch):
        first, second = [], []
        monkeypatch.setattr(cli, "cmd_attribute", recorder(first))
        main(["attribute", "--contract", "c", "--out", "o"])
        monkeypatch.setattr(cli, "cmd_attribute", recorder(second))
        main(["attribute", "--contract", "c", "--out", "o"])
        assert len(first) == 1 and len(second) == 1
        assert builds == [1]

    def test_rerun_inside_main_writes_the_same_bytes(self, builds, tmp_path):
        first, again = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-corpus", "--lexicon", "3", "--lengths", "1,2",
                     "--n-pairs", "5", "--seed", "4", "--out", first]) == EXIT_OK
        assert main(["rerun", "--manifest",
                     os.path.join(first, "manifest.json"),
                     "--out", again]) == EXIT_OK
        with open(os.path.join(first, "corpus.json"), "rb") as a, \
                open(os.path.join(again, "corpus.json"), "rb") as b:
            assert a.read() == b.read()
        assert builds == [1]


class TestRerunManifestTypes:
    @pytest.mark.parametrize("field, value", [
        ("argv", 5), ("argv", "attribute"), ("input_digests", ["a"]),
        ("seeds", {"instance": "0"})])
    def test_wrongly_typed_field_rejected(self, field, value, tmp_path,
                                          capsys):
        data = {"tool_version": "0", "command": "gen-corpus",
                "argv": ["gen-corpus", "--lexicon", "2", "--lengths", "1",
                         "--n-pairs", "4"],
                "model_id": None, "contract_id": None, "input_digests": {},
                "seeds": {"corpus": 0}, "timestamp": "", "outputs": []}
        data[field] = value
        path = str(tmp_path / "manifest.json")
        Path(path).write_text(json.dumps(data))
        assert main(["rerun", "--manifest", path,
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC
        assert "manifest rejected" in capsys.readouterr().err


class TestNumericArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--random-orderings", "-3"], "--random-orderings"),
        (["evaluate", "--k", "-2"], "--k"),
        (["evaluate", "--k", "0"], "--k"),
        (["evaluate", "--ig-steps", "0"], "--ig-steps"),
        (["attribute", "--ig-steps", "-1"], "--ig-steps"),
        (["demo-fallacy", "--ig-steps", "0"], "--ig-steps"),
        (["train", "--steps", "-1"], "--steps"),
        (["train", "--steps", "0"], "--steps"),
        (["train", "--layers", "0"], "--layers"),
        (["train", "--width", "0"], "--width"),
        (["gen-corpus", "--lexicon", "1"], "--lexicon"),
        (["gen-corpus", "--n-pairs", "0"], "--n-pairs"),
        (["generate", "--max-len", "0"], "--max-len"),
        (["generate", "--response-len", "0"], "--response-len"),
        (["generate", "--steps", "-2"], "--steps"),
        (["attribute", "--commit-count", "-1"], "--commit-count"),
    ])
    def test_out_of_range_rejected_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--contract", "c.contract", "--out", "o"])
        assert exc.value.code == EXIT_DIAGNOSTIC
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "--temperature", "0"], "--temperature"),
        (["generate", "--temperature", "-1"], "--temperature"),
        (["generate", "--temperature", "nan"], "--temperature"),
        (["train", "--lr", "0"], "--lr"),
        (["train", "--lr", "inf"], "--lr"),
    ])
    def test_non_positive_float_rejected_naming_the_flag(self, argv, flag,
                                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--model", "m.bin", "--prompt", "s0", "--out", "o"])
        assert exc.value.code == EXIT_DIAGNOSTIC
        assert (f"argument {flag}: must be a finite number > 0"
                in capsys.readouterr().err)

    def test_no_random_orderings_prints_no_random_mean(self, workspace,
                                                       tmp_path, capsys):
        code = main(["evaluate", "--contract", workspace["contract"],
                     "--ig-steps", "4", "--k", "2", "--random-orderings", "0",
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "deletion AOPC" in out
        assert "random" not in out and "nan" not in out


class TestExitCodes:
    def test_bad_contract_file(self, workspace, tmp_path):
        bad = tmp_path / "bad.contract"
        bad.write_text("score: nonsense\n")
        assert main(["attribute", "--contract", str(bad),
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC

    def test_missing_contract_file(self, tmp_path):
        assert main(["attribute", "--contract", "/no/such/file",
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_missing_model_file(self, workspace, tmp_path):
        contract = tmp_path / "c.contract"
        contract.write_text("setting: prompt-conditioned\ntarget: 1\n"
                            "model: /no/such/model.bin\n"
                            "prompt: TR: s1 SEP\n")
        assert main(["attribute", "--contract", str(contract),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    @pytest.fixture(scope="class")
    def diffusion_model_file(self, workspace, tmp_path_factory):
        """A barely trained diffusion model; its context is 64 tokens."""
        out = str(tmp_path_factory.mktemp("diffusion"))
        assert main(["train", "--corpus",
                     os.path.join(workspace["corpus"], "corpus.json"),
                     "--kind", "diffusion", "--steps", "2", "--width", "16",
                     "--seed", "0", "--out", out]) == EXIT_OK
        return os.path.join(out, "model.bin")

    def test_generate_past_the_context(self, diffusion_model_file, capsys):
        assert main(["generate", "--model", diffusion_model_file,
                     "--prompt", "TR: s1 SEP", "--response-len", "100",
                     "--steps", "3"]) == EXIT_DIAGNOSTIC
        assert "exceeds context" in capsys.readouterr().err

    def test_evaluate_past_the_context(self, diffusion_model_file, tmp_path,
                                       capsys):
        contract = tmp_path / "c.contract"
        contract.write_text("setting: prompt-to-output\n"
                            f"model: {diffusion_model_file}\n"
                            "prompt: TR: s1 SEP\nresponse-len: 100\n"
                            "steps: 3\nseed: 0\n")
        assert main(["evaluate", "--contract", str(contract), "--method",
                     "occlusion", "--out", str(tmp_path / "o")]) == \
            EXIT_DIAGNOSTIC
        assert "exceeds context" in capsys.readouterr().err

    @pytest.mark.parametrize("class_index", ["-1", "99"])
    def test_class_outside_the_classifier_head(self, tmp_path, capsys,
                                               class_index):
        corpus = make_syn_corpus(4, [1, 2], 24, seed=3)
        hp = Hyperparams(kind=CLASSIFIER, vocab_size=len(corpus.vocab),
                         layers=1, heads=2, width=16, mlp_hidden=32,
                         context_len=16, n_classes=3)
        model = str(tmp_path / "classifier.bin")
        save_model(init_params(hp, corpus.vocab, seed=0), model)
        contract = tmp_path / "c.contract"
        contract.write_text(f"setting: classifier\nmodel: {model}\n"
                            f"prompt: TR: s1 SEP\nclass: {class_index}\n")
        assert main(["attribute", "--contract", str(contract),
                     "--ig-steps", "2", "--out", str(tmp_path / "o")]) == \
            EXIT_DIAGNOSTIC
        assert "outside the 1 x 3 log-prob table" in capsys.readouterr().err

    @staticmethod
    def train_diverges(workspace, tmp_path, capsys, lr):
        # the abort is the diagnostic alone: no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--corpus",
                         os.path.join(workspace["corpus"], "corpus.json"),
                         "--steps", "20", "--lr", lr, "--width", "16",
                         "--layers", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        assert "non-finite loss at step" in capsys.readouterr().err

    def test_diverged_training_exits_3(self, workspace, tmp_path, capsys):
        self.train_diverges(workspace, tmp_path, capsys, "1e30")

    def test_overflowing_sgd_update_exits_3(self, workspace, tmp_path, capsys):
        """At this rate the first SGD update itself overflows."""
        self.train_diverges(workspace, tmp_path, capsys, "1e308")

    def test_non_finite_gradient_exits_3(self, workspace, tmp_path, capsys):
        """MLP pre-activations near 1e160 leave the forward pass finite
        (the zero second MLP layer drops them), but gelu's gradient there
        is 0 * inf: IG aborts as a numeric failure, not a bad map."""
        params = load_model(os.path.join(workspace["model"], "model.bin"))
        weights = dict(params.weights)
        for i in range(params.hyper.layers):
            weights[f"blk{i}.mlp.w1"] = weights[f"blk{i}.mlp.w1"] * 1e160
            weights[f"blk{i}.mlp.w2"] = np.zeros_like(weights[f"blk{i}.mlp.w2"])
        model = str(tmp_path / "model.bin")
        save_model(ModelParams(hyper=params.hyper, vocab=params.vocab,
                               weights=weights), model)
        contract = tmp_path / "c.contract"
        contract.write_text(Path(workspace["contract"]).read_text().replace(
            os.path.join(workspace["model"], "model.bin"), model))
        # the abort is the diagnostic alone: no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["attribute", "--contract", str(contract),
                         "--ig-steps", "4", "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        assert "non-finite gradient for leaf 'emb'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["attribute", "demo-fallacy"])
    def test_target_out_of_range_cannot_bind(self, workspace, tmp_path,
                                             capsys, command):
        contract = tmp_path / "c.contract"
        contract.write_text(Path(workspace["contract"]).read_text().replace(
            "target: 1\n", "target: 9\n"))
        assert main([command, "--contract", str(contract),
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC
        assert "error: contract cannot bind to this instance" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("gen_tokens, message", [
        ("", "contract file gen-tokens is empty"),
        ("s1 zebra", "a token of contract file gen-tokens is not in the"
                     " model vocabulary: unknown token 'zebra'")])
    def test_bad_gen_tokens_named(self, workspace, tmp_path, capsys,
                                  gen_tokens, message):
        contract = tmp_path / "c.contract"
        contract.write_text(
            "setting: prompt-conditioned\ntarget: 1\n"
            f"model: {os.path.join(workspace['model'], 'model.bin')}\n"
            f"prompt: TR: s1 SEP\ngen-tokens: {gen_tokens}\n")
        assert main(["attribute", "--contract", str(contract),
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC
        assert message in capsys.readouterr().err

    def test_prompt_outside_vocab(self, workspace, tmp_path):
        contract = tmp_path / "c.contract"
        contract.write_text(
            "setting: prompt-conditioned\ntarget: 1\n"
            f"model: {os.path.join(workspace['model'], 'model.bin')}\n"
            "prompt: TR: zebra SEP\n")
        assert main(["attribute", "--contract", str(contract),
                     "--out", str(tmp_path / "o")]) == EXIT_DIAGNOSTIC
