"""Acceptance gate. One test per criterion A1-A9; the pytest -v line for
each test is the pass/fail line for that criterion."""
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

import attrscope.attribution as attribution_mod
from attrscope.attribution import (
    PAD_BASELINE, baseline_endpoint_score, integrated_gradients, occlusion,
    prefix_mass, score, stage_attribution,
)
from attrscope.autodiff import Graph, evaluate, grad
from attrscope.cli import EXIT_OK, main
from attrscope.contract import (
    FeatureRef, PROMPT_TOKEN, SETTING_LOCAL, SETTING_PROMPT_COND,
    SETTING_SPAN, SETTING_STAGE, SETTING_STATE, make_named,
)
from attrscope.evaluation import (
    PerturbationPolicy, faithfulness_report, perturb_sets,
)
from attrscope.fileio import (
    E_MISSING_FIELD, E_MISSING_TARGET, E_OVERLAP, E_UNKNOWN_SCORE,
    MapParseError, parse_contract_file, parse_map,
)
from attrscope.models import (
    GreedyPolicy, PromptedInstance, StagePerturbation,
    ar_generate, diffusion_generate, span_log_prob, trajectory_score,
    teacher_forced_score,
)
from attrscope.models.autoregressive import token_term
from attrscope.models.diffusion import perturbed_plan, run_chain, InfeasiblePerturbationError
from attrscope.models.transformer import (
    ScoreTerm, build_fresh_forward_graph, terms_score,
)
from conftest import bind_pass

FD_STEP = 1e-4
POLICY = PerturbationPolicy()


def ar_instances(model, corpus, n, max_len=8, min_out=1):
    out = []
    for prompt, target in corpus.heldout_pairs:
        if len(target) < min_out:
            continue
        gen = tuple(ar_generate(model, prompt, max_len, GreedyPolicy(),
                                seed=0))
        out.append(PromptedInstance(prompt=prompt, seed=0, generation=gen))
        if len(out) == n:
            break
    return out


def argmax_ref(attr_map):
    """The feature with the largest finite score; a tie goes to the larger
    FeatureRef."""
    finite = [(ref, s) for ref, s in attr_map.entries if s is not None]
    return max(finite, key=lambda e: (e[1], e[0]))[0]


def diff_instances(model, corpus, n, response_len=4, steps=3):
    out = []
    for i, (prompt, _) in enumerate(corpus.heldout_pairs[:n]):
        traj = diffusion_generate(model, prompt, response_len, steps, seed=i)
        out.append(PromptedInstance(prompt=prompt, seed=i, trajectory=traj))
    return out


class TestA1GradientCorrectness:
    def test_A1_primitives_and_transformer_match_finite_differences(
            self, tiny_ar_model, rng):
        # -- primitives: 13 random entries of each input of every op the
        # transformer graph builds, each op through gelu, seeded with a
        # random array c: the gradient of sum(gelu(op) * c)
        shapes = {"a": (4, 4), "b": (4, 4), "gain": (4,), "bias": (4,),
                  "heads": (2, 4, 4), "heads2": (2, 4, 4)}
        primitives = {
            "add": lambda g, x: g.add(x("a"), x("b")),
            "matmul": lambda g, x: g.matmul(x("a"), x("b")),
            "gelu": lambda g, x: g.gelu(x("a")),
            "softmax": lambda g, x: g.softmax(x("a")),
            "log_softmax": lambda g, x: g.log_softmax(x("a")),
            "layer_norm": lambda g, x: g.layer_norm(x("a"), x("gain"),
                                                    x("bias")),
            "affine": lambda g, x: g.affine(x("a"), x("b"), x("bias")),
            # attention's ops: (L, d) rows through per-head weights, heads
            # through per-head weights and summed, scaled scores of
            # queries against keys, and a softmax under a fixed mask
            "heads": lambda g, x: g.heads(x("a"), x("heads")),
            "merge_heads": lambda g, x: g.merge_heads(x("heads"),
                                                      x("heads2")),
            "scores": lambda g, x: g.scores(x("heads"), x("heads2"), 0.5),
            "masked_softmax": lambda g, x: g.softmax(
                x("a"), np.linspace(-2.0, 2.0, 16).reshape(4, 4)),
            # rows 1 and 2 are not taken: their gradient is zero
            "rows": lambda g, x: g.rows(x("a"), (3, 0)),
        }
        per_input = 13
        checked = 0
        for opname, build in primitives.items():
            g = Graph()
            y = g.gelu(build(g, lambda name: g.leaf(shapes[name], name)))
            vals = {name: rng.standard_normal(shapes[name])
                    for name in g.leaves}
            c = rng.standard_normal(evaluate(g, vals)[y].shape)
            _, grads = grad(g, y, vals, tuple(vals), c)

            def f(vals):
                return float((evaluate(g, vals)[y] * c).sum())

            for name in g.leaves:
                for _ in range(per_input):
                    idx = tuple(int(rng.integers(n)) for n in shapes[name])
                    vp = {**vals, name: vals[name].copy()}
                    vp[name][idx] += FD_STEP
                    vm = {**vals, name: vals[name].copy()}
                    vm[name][idx] -= FD_STEP
                    fd = (f(vp) - f(vm)) / (2 * FD_STEP)
                    assert abs(grads[name][idx] - fd) / max(1.0, abs(fd)) \
                        <= 1e-4, (opname, name)
                    checked += 1
        # the rows op on a batched operand: 3 points of an (L, d) leaf,
        # each point's seeded sum against its own entries
        g = Graph()
        y = g.gelu(g.rows(g.leaf((4, 4), "a"), (2, 0)))
        xs = rng.standard_normal((3, 4, 4))
        c = rng.standard_normal((3, 2, 4))
        ga = grad(g, y, {"a": xs}, ("a",), c)[1]["a"]
        assert ga.shape == xs.shape

        def f_point(xv, k):
            return float((evaluate(g, {"a": xv})[y][k] * c[k]).sum())

        for _ in range(per_input):
            idx = tuple(int(rng.integers(n)) for n in xs.shape)
            xp, xm = xs.copy(), xs.copy()
            xp[idx] += FD_STEP
            xm[idx] -= FD_STEP
            fd = (f_point(xp, idx[0]) - f_point(xm, idx[0])) / (2 * FD_STEP)
            assert abs(ga[idx] - fd) / max(1.0, abs(fd)) <= 1e-4, idx
            checked += 1
        assert checked == 22 * per_input

        # -- full 2-layer transformer score vs finite differences: the
        # log-prob table against a one-hot target mask, which seeds its
        # gradient, log p(target | tokens)
        params = tiny_ar_model
        tokens = [4, 5, 2, 6]
        target = 7
        fg = build_fresh_forward_graph(params.hyper, len(tokens))
        _, base_vals, mask = bind_pass(params, ScoreTerm(
            tuple(tokens), ((len(tokens) - 1, target),)))
        checked_leaves = ("emb", "blk0.wq", "blk0.wo", "blk1.mlp.w1", "out.w",
                          "lnf.g")
        _, grads = grad(fg.graph, fg.log_probs, base_vals, checked_leaves,
                        mask)

        def f(vals):
            return float((evaluate(fg.graph, vals)[fg.log_probs] * mask).sum())

        checked = 0
        for name in checked_leaves:
            gval = grads[name]
            arr = base_vals[name]
            flat_idx = rng.integers(0, arr.size, size=3)
            for fi in flat_idx:
                idx = np.unravel_index(int(fi), arr.shape)
                vp = dict(base_vals); vp[name] = arr.copy(); vp[name][idx] += FD_STEP
                vm = dict(base_vals); vm[name] = arr.copy(); vm[name][idx] -= FD_STEP
                fd = (f(vp) - f(vm)) / (2 * FD_STEP)
                assert abs(gval[idx] - fd) / max(1.0, abs(fd)) <= 1e-4, name
                checked += 1
        assert checked == 18


class TestA2ScoreConsistency:
    def test_A2_span_score_equals_sum_of_token_scores(self, tiny_ar_model,
                                                      rng):
        V = tiny_ar_model.hyper.vocab_size
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            prompt = [int(x) for x in rng.integers(0, V, size=n)]
            span = [int(x) for x in rng.integers(0, V, size=m)]
            total = span_log_prob(tiny_ar_model, prompt, span)
            parts = sum(terms_score(tiny_ar_model,
                                    [token_term(prompt, span[:i], span[i])])
                        for i in range(m))
            assert abs(total - parts) <= 1e-10


class TestA3IGCompleteness:
    STEPS = 256

    def check(self, params, instance, contract):
        attr_map = integrated_gradients(params, instance, contract,
                                        baseline=PAD_BASELINE,
                                        steps=self.STEPS)
        total = sum(s for _, s in attr_map.entries)
        delta = (score(contract, params, instance)
                 - baseline_endpoint_score(params, instance, contract,
                                           PAD_BASELINE))
        assert abs(total - delta) <= 1e-3 * (1 + abs(delta))

    def test_A3_completeness_local_and_prompt_conditioned_and_span(
            self, tiny_ar_model, tiny_corpus):
        instances = ar_instances(tiny_ar_model, tiny_corpus, 20)
        assert len(instances) == 20
        for inst in instances:
            t = len(inst.generation)
            self.check(tiny_ar_model, inst,
                       make_named(SETTING_LOCAL, inst, t))
            self.check(tiny_ar_model, inst,
                       make_named(SETTING_PROMPT_COND, inst, t))
            self.check(tiny_ar_model, inst, make_named(SETTING_SPAN, inst))

    def test_A3_completeness_state_level(self, diffusion_model, tiny_corpus):
        instances = diff_instances(diffusion_model, tiny_corpus, 20)
        assert len(instances) == 20
        for inst in instances:
            t = inst.trajectory.num_steps
            self.check(diffusion_model, inst,
                       make_named(SETTING_STATE, inst, t))


class TestA4ContractSeparation:
    def test_A4_figure_one_reproduction(self, ar_model, corpus):
        # (0) held-out exact match >= 95%
        hits = 0
        for prompt, target in corpus.heldout_pairs:
            gen = ar_generate(ar_model, prompt, len(target) + 2,
                              GreedyPolicy(), seed=0)
            hits += tuple(gen) == tuple(target)
        em = hits / len(corpus.heldout_pairs)
        assert em >= 0.95, f"held-out exact match {em:.3f}"

        # 50 held-out instances with a nonempty prefix (target length >= 2)
        picked = []
        for prompt, target in corpus.heldout_pairs:
            if len(target) >= 3:  # at least 2 content tokens + EOS
                picked.append(PromptedInstance(prompt=prompt, seed=0,
                                               generation=tuple(target)))
            if len(picked) == 50:
                break
        assert len(picked) == 50

        aligned_hits = 0
        argmax_differs = 0
        for inst in picked:
            # (i)/(ii) at a content position: the second generated token,
            # whose aligned source is the prompt token at the same index
            t = 2
            cond = make_named(SETTING_PROMPT_COND, inst, t)
            local = make_named(SETTING_LOCAL, inst, t)
            cond_map = integrated_gradients(ar_model, inst, cond, steps=64)
            local_map = integrated_gradients(ar_model, inst, local, steps=64)
            aligned_hits += argmax_ref(cond_map) == FeatureRef(PROMPT_TOKEN, t)
            assert prefix_mass(cond_map) == 0.0
            assert prefix_mass(local_map) > 0.0

            # (iii) at the end-of-sequence position, where the generated
            # prefix itself carries the stopping signal: the two contracts
            # must disagree about the top feature
            te = len(inst.generation)
            cond_e = integrated_gradients(
                ar_model, inst, make_named(SETTING_PROMPT_COND, inst, te),
                steps=64)
            local_e = integrated_gradients(
                ar_model, inst, make_named(SETTING_LOCAL, inst, te),
                steps=64)
            assert prefix_mass(cond_e) == 0.0
            argmax_differs += argmax_ref(local_e) != argmax_ref(cond_e)

        assert aligned_hits / 50 >= 0.80, f"aligned argmax rate {aligned_hits/50:.2f}"
        assert argmax_differs / 50 >= 0.50, f"argmax disagreement rate {argmax_differs/50:.2f}"


class TestA5OcclusionOracle:
    def test_A5_occlusion_equals_scripted_replace_and_rescore(
            self, tiny_ar_model, tiny_corpus):
        instances = ar_instances(tiny_ar_model, tiny_corpus, 20)
        pad = tiny_ar_model.vocab.pad
        for inst in instances:
            t = len(inst.generation)
            for contract in (make_named(SETTING_PROMPT_COND, inst, t),
                             make_named(SETTING_LOCAL, inst, t)):
                attr_map = occlusion(tiny_ar_model, inst, contract,
                                     baseline=PAD_BASELINE)
                base = score(contract, tiny_ar_model, inst)
                for ref, s in attr_map.entries:
                    prompt = list(inst.prompt)
                    gen = list(inst.generation)
                    if ref.kind == PROMPT_TOKEN:
                        prompt[ref.index] = pad
                    else:
                        gen[ref.index] = pad
                    changed = PromptedInstance(prompt=tuple(prompt), seed=0,
                                               generation=tuple(gen))
                    oracle = base - score(contract, tiny_ar_model, changed)
                    assert abs(s - oracle) <= 1e-10


class TestA6FaithfulnessDiscipline:
    def test_A6_discipline_assertions(self, tiny_ar_model, diffusion_model,
                                      tiny_corpus, monkeypatch,
                                      generation_calls):
        inst = ar_instances(tiny_ar_model, tiny_corpus, 1)[0]
        # span-level evaluation performs zero generate calls
        span = make_named(SETTING_SPAN, inst)
        generation_calls.clear()
        faithfulness_report(tiny_ar_model, inst, span,
                            {"name": "ig", "steps": 4}, 2, POLICY, n_random=0)
        assert generation_calls == []

        # prompt-conditioned evaluation never mutates prefix tokens
        t = len(inst.generation)
        cond = make_named(SETTING_PROMPT_COND, inst, t)
        contexts = perturb_sets(tiny_ar_model, inst, cond,
                                [list(cond.eligible)[:k]
                                 for k in range(len(cond.eligible) + 1)],
                                POLICY)
        assert all(ctx.instance.generation == inst.generation
                   for ctx in contexts)

        # stage evaluation re-runs chains with the original seed
        dinst = diff_instances(diffusion_model, tiny_corpus, 1, steps=3)[0]
        stage = make_named(SETTING_STAGE, dinst)
        seen_seeds = []
        original_run_chains = attribution_mod.run_chains

        def spy(params, chains, response_len, seed):
            reruns = original_run_chains(params, chains, response_len, seed)
            seen_seeds.extend(new.seed for new in reruns)
            return reruns

        monkeypatch.setattr(attribution_mod, "run_chains", spy)
        stage_attribution(diffusion_model, dinst, stage, pert_kind="ablate")
        assert seen_seeds and all(s == dinst.trajectory.seed
                                  for s in seen_seeds)

    def test_A6_sign_test_map_beats_random(self, ar_model, corpus):
        """Map-ordered deletion AOPC beats the random-ordering mean for IG
        under each autoregressive contract; sign test p < 0.05 over 20
        trained instances."""
        picked = []
        for prompt, target in corpus.heldout_pairs:
            if len(target) >= 3:
                picked.append(PromptedInstance(prompt=prompt, seed=0,
                                               generation=tuple(target)))
            if len(picked) == 20:
                break
        assert len(picked) == 20

        for setting in (SETTING_LOCAL, SETTING_PROMPT_COND, SETTING_SPAN):
            wins = 0
            for inst in picked:
                # token-level contracts target a content token whose score
                # is actually sensitive to deletions
                t = 2 if setting != SETTING_SPAN else None
                contract = make_named(setting, inst, t)
                K = min(3, len(contract.eligible))
                report = faithfulness_report(
                    ar_model, inst, contract, {"name": "ig", "steps": 32},
                    K=K, policy=POLICY, n_random=10, seed=inst.prompt[1])
                rand_mean = float(np.mean(report.random_deletion_aopcs))
                wins += report.deletion_aopc > rand_mean
            p = binomtest(wins, 20, alternative="greater").pvalue
            assert p < 0.05, f"{setting}: {wins}/20 wins, p={p:.4f}"


class TestA7StageSanity:
    def test_A7_stage_attribution_oracle(self, diffusion_model, tiny_corpus):
        # identity noise-schedule perturbation -> all-zero stage map
        dinst = diff_instances(diffusion_model, tiny_corpus, 1, steps=3)[0]
        stage = make_named(SETTING_STAGE, dinst)
        ident = stage_attribution(diffusion_model, dinst, stage,
                                  pert_kind="noise_schedule")
        assert all(s == 0.0 for _, s in ident.entries)

        # T=1 ablation reports infeasible
        prompt = tiny_corpus.heldout_pairs[0][0]
        traj1 = diffusion_generate(diffusion_model, prompt, 3, 1, seed=0)
        one = PromptedInstance(prompt=prompt, seed=0, trajectory=traj1)
        one_map = stage_attribution(diffusion_model, one,
                                    make_named(SETTING_STAGE, one),
                                    pert_kind="ablate")
        assert [s for _, s in one_map.entries] == [None]

        # each stage entry matches an independent chain-runner oracle
        rng = np.random.default_rng(0)
        for i in range(10):
            prompt = tiny_corpus.heldout_pairs[i % len(tiny_corpus.heldout_pairs)][0]
            L = int(rng.integers(3, 6))
            T = int(rng.integers(2, min(5, L) + 1))
            traj = diffusion_generate(diffusion_model, prompt, L, T, seed=i)
            inst = PromptedInstance(prompt=prompt, seed=i, trajectory=traj)
            attr_map = stage_attribution(diffusion_model, inst,
                                         make_named(SETTING_STAGE, inst),
                                         pert_kind="ablate")
            base = trajectory_score(diffusion_model, prompt, traj)
            for ref, s in attr_map.entries:
                pert = StagePerturbation(ref.index, "ablate")
                try:
                    plan = perturbed_plan(traj.commit_plan(), pert)
                except InfeasiblePerturbationError:
                    assert s is None
                    continue
                new_traj = run_chain(diffusion_model, prompt, L, plan,
                                     traj.seed)
                oracle = base - teacher_forced_score(diffusion_model, prompt,
                                                     traj, new_traj)
                assert s is not None and abs(s - oracle) <= 1e-10


class TestA8Determinism:
    def test_A8_rerun_from_manifest_bit_identical(self, tmp_path):
        import os
        root = str(tmp_path)
        corpus_dir = os.path.join(root, "corpus")
        model_dir = os.path.join(root, "model")
        assert main(["gen-corpus", "--lexicon", "4", "--lengths", "1,2",
                     "--n-pairs", "24", "--seed", "3",
                     "--out", corpus_dir]) == EXIT_OK
        assert main(["train", "--corpus",
                     os.path.join(corpus_dir, "corpus.json"),
                     "--kind", "ar", "--steps", "40", "--lr", "0.05",
                     "--width", "32", "--seed", "0",
                     "--out", model_dir]) == EXIT_OK
        contract = os.path.join(root, "pc.contract")
        with open(contract, "w") as fh:
            fh.write("setting: prompt-conditioned\ntarget: 1\n"
                     f"model: {os.path.join(model_dir, 'model.bin')}\n"
                     "prompt: TR: s1 SEP\ngeneration: greedy\n"
                     "max-len: 4\nseed: 0\n")

        attr1 = os.path.join(root, "attr1")
        assert main(["attribute", "--contract", contract, "--ig-steps", "8",
                     "--out", attr1]) == EXIT_OK
        eval1 = os.path.join(root, "eval1")
        assert main(["evaluate", "--contract", contract, "--ig-steps", "8",
                     "--k", "2", "--random-orderings", "2",
                     "--out", eval1]) == EXIT_OK

        pairs = []
        for src, names in ((attr1, ("map.txt", "heatmap.html",
                                    "heatmap.txt")),
                           (eval1, ("report.txt",))):
            manifest = os.path.join(src, "manifest.json")
            out_a = src + "_a"
            out_b = src + "_b"
            assert main(["rerun", "--manifest", manifest,
                         "--out", out_a]) == EXIT_OK
            assert main(["rerun", "--manifest", manifest,
                         "--out", out_b]) == EXIT_OK
            for name in names:
                pairs.append((os.path.join(out_a, name),
                              os.path.join(out_b, name),
                              os.path.join(src, name)))
        for a, b, orig in pairs:
            assert Path(a).read_bytes() == Path(b).read_bytes() \
                == Path(orig).read_bytes()


class TestA9ParserRobustness:
    def test_A9_fuzz_and_canonical_diagnostics(self):
        rng = np.random.default_rng(2026)
        seeds = ["", "setting: prompt-conditioned\ntarget: 2\n",
                 "score: token_log_prob\nfixed: prefix\noutput: token\n"
                 "process: autoregressive\neligible: prompt\ntarget: 1\n"]
        for i in range(10_000):
            if i % 3 == 0:
                n = int(rng.integers(0, 200))
                text = bytes(rng.integers(0, 256, size=n, dtype=np.uint8)
                             ).decode("utf-8", errors="replace")
            else:
                base = seeds[int(rng.integers(len(seeds)))]
                if base:
                    pos = int(rng.integers(len(base)))
                    text = base[:pos] + chr(int(rng.integers(0, 0x2000))) + \
                        base[pos:]
                else:
                    text = base
            result = parse_contract_file(text)   # must never raise
            try:
                parse_map(text)
            except MapParseError:
                pass

        # canonical diagnostics reproduce their documented codes
        assert parse_contract_file("").diagnostics[0].code == E_MISSING_FIELD
        assert parse_contract_file("score: bogus\n").diagnostics[0].code == \
            E_UNKNOWN_SCORE
        overlap = parse_contract_file(
            "score: token_log_prob\nfixed: prefix\noutput: token\n"
            "process: autoregressive\neligible: prompt+prefix\ntarget: 1\n")
        assert overlap.diagnostics[0].code == E_OVERLAP
        assert parse_contract_file("setting: local-next-token\n"
                                   ).diagnostics[0].code == E_MISSING_TARGET
