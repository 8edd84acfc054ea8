"""File-format tests: contract files, map/report digests, fuzzing,
heatmaps, corpora, and manifests."""
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrscope.attribution import AttributionMap, integrated_gradients
from attrscope.contract import (
    FeatureRef, INDEXED_TARGETS, PROMPT_TOKEN, SCORE_PROCESS, SCORE_TARGET,
    SETTING_PROMPT_COND, SETTING_SCHEMA, make_named,
)
from attrscope.corpus import _attempts, _lemire_values, make_syn_corpus
from attrscope.evaluation import PerturbationPolicy, faithfulness_report
from attrscope.fileio import (
    Diagnostic, E_BAD_VALUE, E_MISSING_FIELD, E_MISSING_TARGET, E_OVERLAP,
    E_UNKNOWN_FIELD, E_UNKNOWN_SCORE, MapParseError, RunManifest, atomic_write_text,
    parse_contract_file, parse_map, parse_report, read_manifest,
    serialize_map, serialize_report, write_manifest,
)
from attrscope.heatmap import render_heatmap
from attrscope.models import (
    DenoisingTrajectory, GreedyPolicy, PromptedInstance, ar_generate,
)


@pytest.fixture(scope="module")
def ar_instance(tiny_ar_model, tiny_corpus):
    prompt = tiny_corpus.heldout_pairs[0][0]
    gen = tuple(ar_generate(tiny_ar_model, prompt, 6, GreedyPolicy(), seed=0))
    return PromptedInstance(prompt=prompt, seed=0, generation=gen)


@pytest.fixture(scope="module")
def sample_map(tiny_ar_model, ar_instance):
    c = make_named(SETTING_PROMPT_COND, ar_instance,
                   len(ar_instance.generation))
    return c, integrated_gradients(tiny_ar_model, ar_instance, c, steps=8)


class TestContractFiles:
    def test_named_setting_equals_constructor(self, ar_instance):
        t = len(ar_instance.generation)
        result = parse_contract_file(
            f"setting: prompt-conditioned\ntarget: {t}\n")
        assert result.ok
        spec = result.spec
        assert make_named(spec.setting, ar_instance, spec.target) == \
            make_named(SETTING_PROMPT_COND, ar_instance, t)

    def test_explicit_schematic_equals_named(self):
        """Every named setting, spelled out as its five fields, resolves to
        the same contract as make_named and as its ``setting:`` file."""
        traj = DenoisingTrajectory(num_steps=3, response_len=4,
                                   commit_tokens=(7, 8, 9, 10),
                                   commit_steps=(3, 2, 2, 1), seed=0)
        instances = {
            "autoregressive": PromptedInstance(prompt=(4, 5, 6), seed=0,
                                               generation=(7, 8, 9)),
            "diffusion": PromptedInstance(prompt=(4, 5), seed=0,
                                          trajectory=traj),
            "classifier": PromptedInstance(prompt=(4, 5, 6), seed=0,
                                           class_target=1),
        }
        for setting, (score, fixed, eligible) in SETTING_SCHEMA.items():
            output = SCORE_TARGET[score]
            process = SCORE_PROCESS[score]
            t = 2 if output in INDEXED_TARGETS else None
            target = "" if t is None else f"target: {t}\n"
            schematic = parse_contract_file(
                f"score: {score}\nfixed: {fixed}\noutput: {output}\n"
                f"process: {process}\neligible: {eligible}\n{target}")
            named = parse_contract_file(f"setting: {setting}\n{target}")
            assert schematic.ok and named.ok, setting
            instance = instances[process]
            expected = make_named(setting, instance, t)
            for spec in (schematic.spec, named.spec):
                assert make_named(spec.setting, instance, spec.target) == \
                    expected

    def test_empty_file_missing_score(self):
        result = parse_contract_file("")
        assert not result.ok
        assert result.diagnostics[0].code == E_MISSING_FIELD
        assert "missing required field: score" in result.diagnostics[0].message

    def test_overlap_diagnostic(self):
        text = ("score: token_log_prob\nfixed: prefix\noutput: token\n"
                "process: autoregressive\neligible: prompt+prefix\ntarget: 1\n")
        result = parse_contract_file(text)
        codes = [d.code for d in result.diagnostics]
        assert codes == [E_OVERLAP]
        assert any("eligible/fixed overlap" in d.message
                   for d in result.diagnostics)

    @pytest.mark.parametrize("text, message", [
        ("score: token_log_prob\nfixed: none\noutput: class\n"
         "process: autoregressive\neligible: prompt+prefix\n",
         "score token_log_prob requires output token"),
        ("score: state_log_prob\nfixed: none\noutput: output\n"
         "process: diffusion\neligible: prompt+states\n",
         "score state_log_prob requires output state")])
    def test_output_must_match_score(self, text, message):
        result = parse_contract_file(text)
        assert [str(d) for d in result.diagnostics] == [
            f"E_BAD_COMBINATION: {message} (line 3)"]

    @pytest.mark.parametrize("temperature", ["0", "-1", "nan", "abc"])
    def test_bad_sample_temperature(self, temperature):
        result = parse_contract_file(
            "setting: prompt-conditioned\ntarget: 1\n"
            f"generation: sample:{temperature}\n")
        assert [(d.code, d.line) for d in result.diagnostics] == [
            (E_BAD_VALUE, 3)]
        assert "sample temperature" in result.diagnostics[0].message

    @pytest.mark.parametrize("value", ["beam", "given", "sample", ""])
    def test_unknown_generation_rejected(self, value):
        result = parse_contract_file(
            "setting: prompt-conditioned\ntarget: 1\n"
            f"generation: {value}\n")
        assert [(d.code, d.line) for d in result.diagnostics] == [
            (E_BAD_VALUE, 3)]
        assert "generation must be greedy or sample:<t>" \
            in result.diagnostics[0].message

    def test_sample_temperature_accepted(self):
        result = parse_contract_file(
            "setting: prompt-conditioned\ntarget: 1\ngeneration: sample:0.7\n")
        assert result.ok and result.spec.generation == "sample:0.7"

    def test_unknown_score_diagnostic(self):
        result = parse_contract_file("score: wishful_thinking\n")
        assert [d.code for d in result.diagnostics] == [E_UNKNOWN_SCORE]

    def test_missing_target_diagnostic(self):
        result = parse_contract_file("setting: local-next-token\n")
        assert [d.code for d in result.diagnostics] == [E_MISSING_TARGET]

    def test_unknown_field_rejected(self):
        result = parse_contract_file("setting: span-level-prompt\nfoo: 1\n")
        assert E_UNKNOWN_FIELD in [d.code for d in result.diagnostics]

    def test_diagnostics_carry_line_numbers(self):
        result = parse_contract_file("\n# comment\nscore: nope\n")
        assert result.diagnostics[0].line == 3


class TestContractFuzz:
    def test_ten_thousand_random_inputs_never_crash(self):
        rng = np.random.default_rng(123)
        for i in range(10_000):
            n = int(rng.integers(0, 120))
            blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            text = blob.decode("utf-8", errors="replace")
            result = parse_contract_file(text)
            assert (result.spec is None) == bool(result.diagnostics) or \
                result.spec is not None


class TestMapFiles:
    def test_round_trip(self, sample_map):
        _, attr_map = sample_map
        assert parse_map(serialize_map(attr_map)) == attr_map

    def test_tamper_detected(self, sample_map):
        _, attr_map = sample_map
        text = serialize_map(attr_map)
        body = text.splitlines()[1]
        broken = text.replace(body, body.replace("0", "1", 1))
        with pytest.raises(MapParseError):
            parse_map(broken)

    def test_full_float_precision(self, sample_map):
        c, attr_map = sample_map
        awkward = AttributionMap(
            entries=((FeatureRef(PROMPT_TOKEN, 0), 0.1 + 0.2),
                     (FeatureRef(PROMPT_TOKEN, 1), -1.0 / 3.0)),
            contract_id=attr_map.contract_id, method=attr_map.method,
            model_id=attr_map.model_id,
            instance_digest=attr_map.instance_digest, seed=0)
        back = parse_map(serialize_map(awkward))
        assert back.entries[0][1] == 0.1 + 0.2
        assert back.entries[1][1] == -1.0 / 3.0

    def test_map_fuzz(self, sample_map):
        _, attr_map = sample_map
        good = serialize_map(attr_map)
        rng = np.random.default_rng(7)
        for i in range(10_000):
            if i % 2 == 0:
                n = int(rng.integers(0, 100))
                text = bytes(rng.integers(0, 256, size=n, dtype=np.uint8)
                             ).decode("utf-8", errors="replace")
            else:
                # structured corruption of a valid document
                pos = int(rng.integers(0, len(good)))
                text = good[:pos] + chr(int(rng.integers(32, 127))) + \
                    good[pos + 1:]
            try:
                parse_map(text)
            except MapParseError:
                pass


class TestReportFiles:
    def test_round_trip(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        report = faithfulness_report(tiny_ar_model, ar_instance, c,
                                     {"name": "ig", "steps": 4}, K=2,
                                     policy=PerturbationPolicy(), n_random=2,
                                     seed=0)
        assert parse_report(serialize_report(report)) == report


class TestHeatmap:
    def test_all_zero_map_uniform(self, sample_map, tiny_ar_model,
                                  ar_instance):
        c, attr_map = sample_map
        zero = AttributionMap(
            entries=tuple((r, 0.0) for r, _ in attr_map.entries),
            contract_id=attr_map.contract_id, method=attr_map.method,
            model_id=attr_map.model_id,
            instance_digest=attr_map.instance_digest, seed=0)
        html, text = render_heatmap(zero, ar_instance, c, tiny_ar_model)
        # no bar has any fill and no cell is shaded
        for line in text.splitlines():
            if "|" in line and "held fixed" not in line and "no score" not in line:
                bar = line.split("|")[1]
                assert bar.strip() == ""

    def test_scale_equivariance(self, sample_map, tiny_ar_model, ar_instance):
        c, attr_map = sample_map
        scaled = AttributionMap(
            entries=tuple((r, None if s is None else 7.5 * s)
                          for r, s in attr_map.entries),
            contract_id=attr_map.contract_id, method=attr_map.method,
            model_id=attr_map.model_id,
            instance_digest=attr_map.instance_digest, seed=0)
        base_html, base_text = render_heatmap(attr_map, ar_instance, c,
                                              tiny_ar_model)
        new_html, new_text = render_heatmap(scaled, ar_instance, c,
                                            tiny_ar_model)

        def bars(t):
            return [ln.split("|")[1] for ln in t.splitlines() if "|" in ln]

        assert bars(base_text) == bars(new_text)

        def shades(h):
            return [seg.split(")")[0] for seg in h.split("rgba(")[1:]]

        assert shades(base_html) == shades(new_html)

    def test_prefix_hatched_under_prompt_conditioned(self, tiny_ar_model,
                                                     ar_instance):
        t = len(ar_instance.generation)
        if t < 2:
            pytest.skip("needs a prefix")
        c = make_named(SETTING_PROMPT_COND, ar_instance, t)
        attr_map = integrated_gradients(tiny_ar_model, ar_instance, c,
                                        steps=4)
        html, text = render_heatmap(attr_map, ar_instance, c, tiny_ar_model)
        assert "held fixed" in text
        assert 'class="tok fixed"' in html
        # hatched cells never get an intensity background
        for span in html.split("<span")[1:]:
            if "fixed" in span.split(">")[0]:
                assert "rgba(" not in span.split(">")[0]

    def test_single_feature_max_intensity(self, sample_map, tiny_ar_model,
                                          ar_instance):
        c, attr_map = sample_map
        lone = AttributionMap(
            entries=tuple((r, 3.0 if i == 0 else 0.0)
                          for i, (r, _) in enumerate(attr_map.entries)),
            contract_id=attr_map.contract_id, method=attr_map.method,
            model_id=attr_map.model_id,
            instance_digest=attr_map.instance_digest, seed=0)
        html, _ = render_heatmap(lone, ar_instance, c, tiny_ar_model)
        assert "rgba(30,30,30,1.0)" in html

    def test_target_outlined(self, sample_map, tiny_ar_model, ar_instance):
        c, attr_map = sample_map
        html, text = render_heatmap(attr_map, ar_instance, c, tiny_ar_model)
        assert "<target>" in text
        assert "outline:2px solid" in html


class TestCorpus:
    def test_bijection_alignment(self):
        corpus = make_syn_corpus(4, [1, 2, 3], 40, seed=0)
        for prompt, target in corpus.train_pairs + corpus.heldout_pairs:
            sources = prompt[1:-1]  # strip TR: and SEP
            outputs = target[:-1]   # strip EOS
            assert len(sources) == len(outputs)
            for s, t in zip(sources, outputs):  # s_i -> t_i
                assert corpus.vocab.tokens[t] == "t" + corpus.vocab.tokens[s][1:]

    def test_deterministic(self):
        assert make_syn_corpus(4, [1, 2], 30, seed=9) == \
            make_syn_corpus(4, [1, 2], 30, seed=9)

    def test_minimal_lexicon(self):
        corpus = make_syn_corpus(2, [1], 2, seed=0)
        pairs = corpus.train_pairs + corpus.heldout_pairs
        assert len({p for p, _ in pairs}) == 2

    def test_vocab_budget(self):
        with pytest.raises(ValueError):
            make_syn_corpus(40, [1], 10, seed=0)

    @pytest.mark.parametrize("args, digest", [
        ((8, [1, 2, 3, 4], 1000, 3),  # the benchmark's corpus
         "4a381fa2c3d8dcc2e2b641f5d3ee37237b1945b5a2972f6a7e5c62e2756c99c1"),
        ((4, [1, 2, 3, 4], 140, 5),
         "d01312ab8649dee6bfde59942c1a15f9f1f38ae29036e2f11862d1c30980e893"),
        ((2, [1, 2], 10, 0),  # asks more pairs than the 6 distinct ones
         "888a32832b2a398a7665fff2a2d0f76d5cdc1f53ca4edf7612df292b275dab51"),
    ])
    def test_corpora_keep_their_bytes(self, args, digest):
        """Pinned from the draw loop that stopped only after 100 attempts
        per pair: stopping once every distinct sequence is drawn changes
        no corpus."""
        c = make_syn_corpus(*args)
        text = repr((c.vocab, c.train_pairs, c.heldout_pairs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lexicon_size=st.integers(2, 29),
           lengths=st.lists(st.integers(1, 30), min_size=1, max_size=5),
           n_pairs=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_draws_equal_the_per_token_loop(self, lexicon_size, lengths,
                                            n_pairs, seed):
        """make_syn_corpus draws a length and its tokens in two calls; the
        per-token loop below, its earlier form, is the reference."""
        corpus = make_syn_corpus(lexicon_size, lengths, n_pairs, seed)
        rng = np.random.default_rng(seed)
        lengths = sorted(set(lengths))
        distinct = sum(lexicon_size ** length for length in lengths)
        seen, sequences, attempts = set(), [], 0
        while (len(sequences) < min(n_pairs, distinct)
               and attempts < 100 * n_pairs):
            attempts += 1
            length = int(rng.choice(lengths))
            seq = tuple(int(rng.integers(lexicon_size)) for _ in range(length))
            if seq not in seen:
                seen.add(seq)
                sequences.append(seq)
        pairs = corpus.heldout_pairs + corpus.train_pairs
        assert [tuple(corpus.vocab.tokens[t][1:] for t in target[:-1])
                for _, target in pairs] == \
            [tuple(str(i) for i in seq) for seq in sequences]

    @pytest.mark.parametrize("n", [3, 29, 2 ** 31 + 1])
    def test_bounded_draws_equal_numpy(self, n):
        """The values _lemire_values makes of raw words against
        Generator.integers(n) from the same seed, call by call, and the
        attempts of a corpus draw against the per-draw loop. No corpus
        draw meets a rejected word; at n = 2**31 + 1 about half are."""
        words = np.random.default_rng(17).integers(0, 2 ** 32, size=20000,
                                                   dtype=np.uint64)
        values = _lemire_values(words, n)
        rejected = values.count(None) / len(values)
        assert (0.4 < rejected < 0.6) if n == 2 ** 31 + 1 else rejected == 0
        rng = np.random.default_rng(17)
        kept = [v for v in values if v is not None]
        assert kept == [int(rng.integers(n)) for _ in kept]
        for lengths in ([1, 2, 5], [3]):  # one length takes no word
            attempts = _attempts(np.random.default_rng(23), lengths, n)
            rng = np.random.default_rng(23)
            for _ in range(3000):  # several blocks of words
                length = lengths[int(rng.integers(len(lengths)))]
                assert next(attempts) == \
                    tuple(int(rng.integers(n)) for _ in range(length))

    def test_rejected_words_are_skipped(self):
        """A word that Lemire's method rejects gives no value, for a
        length draw and for a token draw; threshold (2**32 - n) % n is 1
        for n = 3 and n = 5, so only the word 0 is rejected."""
        class Words:
            def integers(self, low, high, size, dtype):
                block = np.full(size, 2 ** 31, dtype=dtype)
                block[[0, 2, 4, 6]] = [0, 0, 2 ** 32 - 1, 2 ** 32 - 1]
                return block
        # words 0 2**31 0 2**31 2**32-1 2**31 2**32-1: length draw (n = 3)
        # rejects 0, takes 2**31 (lengths[1]); token draws (n = 5) reject 0
        # and take 2**31 (2) and 2**32-1 (4); the next length draw takes
        # 2**31 and its tokens 2**32-1 (4) and 2**31 (2)
        attempts = _attempts(Words(), [1, 2, 3], 5)
        assert [next(attempts) for _ in range(3)] == [(2, 4), (4, 2), (2, 2)]

    def test_stops_once_every_sequence_is_drawn(self):
        corpus = make_syn_corpus(2, [1], 30000, seed=0)
        assert len(corpus.train_pairs + corpus.heldout_pairs) == 2

    @pytest.mark.parametrize("n_pairs", [1e999, float("nan"), 2.0, True, 0,
                                         -3, "4", None])
    def test_n_pairs_must_be_a_positive_int(self, n_pairs):
        with pytest.raises(ValueError, match="n_pairs"):
            make_syn_corpus(2, [1], n_pairs, seed=0)

    @pytest.mark.parametrize("lengths", [[], [0], [1e999], [True], [2.0],
                                         [31], [10 ** 400]])
    def test_lengths_are_small_positive_ints(self, lengths):
        with pytest.raises(ValueError, match="length"):
            make_syn_corpus(2, lengths, 4, seed=0)


class TestManifests:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(tool_version="0.1.0", command="attribute",
                               argv=["attribute", "--contract", "c"],
                               model_id="m" * 64, contract_id="c" * 64,
                               input_digests={"c": "d" * 64},
                               seeds={"instance": 1},
                               timestamp="2026-01-01T00:00:00+00:00",
                               outputs=["map.txt"])
        path = str(tmp_path / "manifest.json")
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert Path(path).read_text() == "two"
        assert os.listdir(tmp_path) == ["f.txt"]  # no temp files left
