"""Model-layer tests: decoding, scores, the denoising chain, persistence,
and training behavior."""
import hashlib
import inspect
import json
import math
import os
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrscope.models import (
    GreedyPolicy, Hyperparams, ModelIOError,
    PromptedInstance, SamplePolicy, StagePerturbation,
    InfeasiblePerturbationError, ar_generate, ar_next_log_probs,
    default_commit_plan, diffusion_generate, init_params, instance_digest,
    load_model, masked_log_probs, save_model, span_log_prob, trajectory_score,
    train, teacher_forced_score, TrainingDiverged,
)
from attrscope import attribution, autodiff
from attrscope.attribution import stage_attribution
from attrscope.autodiff import evaluate, grad
from attrscope.contract import SETTING_STAGE, make_named
from attrscope.models.autoregressive import span_term, token_term
from attrscope.models.classifier import class_term
from attrscope.models.diffusion import (
    ABLATE, PERT_KINDS, SUBSTITUTE_STEP, ChainSpec,
    perturbed_plan, run_chains, stage_term,
)
from attrscope.models import params as model_params, training, transformer
from attrscope.models.params import (
    AR, CLASSIFIER, DIFFUSION, ModelParams, weight_shapes,
)
from attrscope.models.transformer import (
    ContextOverflowError, ScoreTerm, build_forward_graph, check_context,
    run_groups, score_sums, terms_score,
)
from attrscope.cli import EXIT_DIAGNOSTIC, build_parser, main
from conftest import bind_pass, file_arrays, file_model_id, file_shapes


def sample_prompt(corpus):
    src, _ = corpus.heldout_pairs[0]
    return src


class TestAutoregressive:
    def test_next_log_probs_normalize(self, tiny_ar_model, tiny_corpus):
        logp = ar_next_log_probs(tiny_ar_model, sample_prompt(tiny_corpus), [])
        assert abs(np.logaddexp.reduce(logp)) < 1e-10

    def test_span_equals_token_sum(self, tiny_ar_model, tiny_corpus, rng):
        prompt, target = tiny_corpus.heldout_pairs[0]
        span = list(target)
        total = span_log_prob(tiny_ar_model, prompt, span)
        parts = sum(terms_score(tiny_ar_model,
                                [token_term(prompt, span[:i], span[i])])
                    for i in range(len(span)))
        assert abs(total - parts) < 1e-10

    def test_greedy_generation_deterministic(self, tiny_ar_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        a = ar_generate(tiny_ar_model, prompt, 8, GreedyPolicy(), seed=0)
        b = ar_generate(tiny_ar_model, prompt, 8, GreedyPolicy(), seed=99)
        assert a == b

    def test_sampling_seeded(self, tiny_ar_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        a = ar_generate(tiny_ar_model, prompt, 8, SamplePolicy(2.0), seed=7)
        b = ar_generate(tiny_ar_model, prompt, 8, SamplePolicy(2.0), seed=7)
        assert a == b

    def test_generation_stops_at_eos(self, tiny_ar_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        out = ar_generate(tiny_ar_model, prompt, 16, GreedyPolicy(), seed=0)
        eos = tiny_ar_model.vocab.eos
        assert eos not in out[:-1]

    def test_context_overflow(self, tiny_ar_model):
        with pytest.raises(ContextOverflowError):
            check_context(tiny_ar_model.hyper,
                          tiny_ar_model.hyper.context_len + 1)

    def test_kind_guard(self, diffusion_model, tiny_corpus):
        with pytest.raises(ValueError):
            ar_next_log_probs(diffusion_model, sample_prompt(tiny_corpus), [])


class TestCommitPlan:
    def test_plan_covers_response(self):
        for L in range(1, 12):
            for T in range(1, L + 1):
                plan = default_commit_plan(L, T)
                assert sum(plan.values()) == L
                assert set(plan) == set(range(1, T + 1))

    def test_front_loaded_ceil(self):
        # 5 slots over 3 stages: ceil(5/3)=2, ceil(3/2)=2, then 1
        assert default_commit_plan(5, 3) == {3: 2, 2: 2, 1: 1}


class TestDiffusionChain:
    def test_generate_commits_everything(self, diffusion_model, tiny_corpus):
        traj = diffusion_generate(diffusion_model, sample_prompt(tiny_corpus),
                                  4, 3, seed=0)
        assert len(traj.commit_tokens) == 4
        assert all(1 <= u <= 3 for u in traj.commit_steps)
        assert traj.commit_plan() == default_commit_plan(4, 3)

    def test_states_monotone_unmasking(self, diffusion_model, tiny_corpus):
        traj = diffusion_generate(diffusion_model, sample_prompt(tiny_corpus),
                                  4, 3, seed=0)
        mask = diffusion_model.vocab.mask
        prev_masked = None
        for t in range(traj.num_steps, -1, -1):
            masked = sum(1 for tok in traj.state_tokens(t, mask)
                         if tok == mask)
            if prev_masked is not None:
                assert masked <= prev_masked
            prev_masked = masked
        assert traj.state_tokens(traj.num_steps, mask) == [mask] * 4
        assert list(traj.state_tokens(0, mask)) == list(traj.commit_tokens)

    def test_chain_deterministic(self, diffusion_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        a = diffusion_generate(diffusion_model, prompt, 4, 2, seed=5)
        b = diffusion_generate(diffusion_model, prompt, 4, 2, seed=5)
        assert a == b

    def test_state_score_sums_to_trajectory_score(self, diffusion_model,
                                                  tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        traj = diffusion_generate(diffusion_model, prompt, 4, 3, seed=0)
        total = trajectory_score(diffusion_model, prompt, traj)
        mask = diffusion_model.vocab.mask
        parts = sum(terms_score(diffusion_model,
                                [stage_term(prompt, traj, traj, t, mask)])
                    for t in range(1, traj.num_steps + 1))
        assert abs(total - parts) < 1e-10

    def test_masked_log_probs_normalize(self, diffusion_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        tokens = list(prompt) + [diffusion_model.vocab.mask] * 3
        rows = masked_log_probs(diffusion_model, [tokens], range(len(tokens)))
        lse = np.logaddexp.reduce(rows, axis=-1)
        assert np.max(np.abs(lse)) < 1e-10


class TestBatchedPasses:
    """Batched passes give every sequence, chain and score exactly what an
    unbatched pass over it gives, across several passes of 8."""

    @staticmethod
    def sequences(params, n, length, seed):
        rng = np.random.default_rng(seed)
        return [list(rng.integers(0, params.hyper.vocab_size, size=length))
                for _ in range(n)]

    def test_masked_log_probs_rows_equal_unbatched_passes(self,
                                                          diffusion_model):
        seqs = self.sequences(diffusion_model, 19, 6, seed=0)
        rows = masked_log_probs(diffusion_model, seqs, range(6))
        assert rows.shape == (19, 6, diffusion_model.hyper.vocab_size)
        for tokens, batched in zip(seqs, rows):
            fg, vals, _ = bind_pass(diffusion_model,
                                    ScoreTerm(tuple(tokens), ()))
            assert np.array_equal(batched,
                                  evaluate(fg.graph, vals)[fg.log_probs])

    def test_masked_log_probs_needs_equal_lengths(self, diffusion_model):
        with pytest.raises(ValueError):
            masked_log_probs(diffusion_model, [[5, 6], [5, 6, 7]], [0])
        with pytest.raises(ValueError):
            masked_log_probs(diffusion_model, [], [0])

    @pytest.mark.parametrize("substitute", [
        None, StagePerturbation(2, "substitute_step", temperature=1.5),
        "mixed"])
    def test_lockstep_chains_equal_per_prompt_chains(self, diffusion_model,
                                                     substitute):
        prompts = self.sequences(diffusion_model, 11, 3, seed=1)
        plan = default_commit_plan(5, 3)
        if substitute == "mixed":
            # plans of 1 to 4 stages and substitutes at different stages
            plans = [plan, {3: 1, 2: 1, 1: 3}, {2: 5, 1: 0}, {1: 5},
                     {4: 2, 3: 0, 2: 2, 1: 1}]
            subs = [None, StagePerturbation(2, "substitute_step",
                                            temperature=1.5),
                    StagePerturbation(1, "substitute_step", temperature=0.7)]
            chains = [ChainSpec(tuple(prompt), plans[i % len(plans)],
                                substitute=subs[i % len(subs)])
                      for i, prompt in enumerate(prompts)]
        else:
            chains = [ChainSpec(tuple(prompt), plan, substitute=substitute)
                      for prompt in prompts]
        assert run_chains(diffusion_model, chains, 5, 7) == [
            run_chains(diffusion_model, [chain], 5, 7)[0] for chain in chains]

    @pytest.mark.parametrize("model", ["tiny_ar_model", "diffusion_model"])
    def test_score_sums_equal_unbatched_passes(self, model, request):
        # per kind of overrides, 3 lists of pass groups, 21 in all: terms
        # over two sequence lengths, several groups to a pass, and batched
        # groups of 1-11 points that straddle passes; causal passes on the
        # AR model, bidirectional on the diffusion model
        params = request.getfixturevalue(model)
        rng = np.random.default_rng(2)
        vocab, d = params.hyper.vocab_size, params.hyper.width

        def unbatched(term, rows):
            """The log-prob table of one unbatched pass per point of the
            group, stacked for a batched group, on the graph run_groups
            runs the term on, and (unbatched) the score it gives."""
            batch = {len(vec) for vec in rows.values() if vec.ndim == 2}
            if batch:
                return np.stack([unbatched(term, {row: vec[k]
                                                  for row, vec in rows.items()})[0]
                                 for k in range(batch.pop())]), None
            fg, vals, mask = bind_pass(params, term, rows, pruned=True)
            table = evaluate(fg.graph, vals)[fg.log_probs]
            return table, float((table * mask).sum())

        for overrides in ("none", "row", "batched", "mixed"):
            lists = []
            for n_groups in (9, 1, 11):
                groups = []
                for n in rng.integers(2, 4, size=n_groups):
                    term = span_term(tuple(rng.integers(0, vocab, size=n)),
                                     tuple(rng.integers(0, vocab, size=n)))
                    kind = (overrides if overrides != "mixed" else
                            ("none", "row", "batched")[rng.integers(3)])
                    shape = {"none": None, "row": (d,),
                             "batched": (int(rng.integers(1, 12)), d)}[kind]
                    rows = rng.choice(2 * n, size=2, replace=False)
                    groups.append((term, {} if shape is None else {
                        int(row): rng.standard_normal(shape)
                        for row in rows}))
                lists.append(groups)

            flat = [group for groups in lists for group in groups]
            for table, group in zip(run_groups(params, flat, "log_probs"),
                                    flat):
                assert np.array_equal(table, unbatched(*group)[0])
            if overrides in ("none", "row"):  # one score per group
                sums = []
                for groups in lists:
                    total = 0.0
                    for group in groups:
                        total += unbatched(*group)[1]
                    sums.append(total)
                assert score_sums(params, lists) == sums


class TestLogProbReads:
    """A log-prob read names its rows and gets only those, within 1e-12
    of the full graph's table."""

    def test_a_pass_reads_its_table_or_its_embedding_gradient(self,
                                                              tiny_ar_model):
        # a score is no read: score_sums computes it from the table
        groups = [(ScoreTerm((4, 5, 6), ((2, 7),)), {})]
        for read in ("score", "emb", ""):
            with pytest.raises(ValueError, match="unknown read"):
                run_groups(tiny_ar_model, groups, read)

    def test_next_log_probs_are_the_full_graphs_last_row(self, tiny_ar_model,
                                                         tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        for prefix in ([], [5], [5, 6, 7]):
            tokens = tuple(prompt) + tuple(prefix)
            fg, vals, _ = bind_pass(tiny_ar_model, ScoreTerm(tokens, ()))
            full = evaluate(fg.graph, vals)[fg.log_probs]
            got = ar_next_log_probs(tiny_ar_model, prompt, prefix)
            assert got.shape == (tiny_ar_model.hyper.vocab_size,)
            assert np.max(np.abs(got - full[-1])) <= 1e-12

    def test_masked_log_probs_at_positions(self, diffusion_model):
        seqs = TestBatchedPasses.sequences(diffusion_model, 11, 6, seed=3)
        full = masked_log_probs(diffusion_model, seqs, range(6))
        for positions in ([5], [0, 3], [1, 2, 4, 5]):
            got = masked_log_probs(diffusion_model, seqs, positions)
            assert got.shape == (11, len(positions),
                                 diffusion_model.hyper.vocab_size)
            assert np.max(np.abs(got - full[:, positions])) <= 1e-12
        with pytest.raises(ValueError):
            masked_log_probs(diffusion_model, seqs, [3, 1])
        with pytest.raises(ValueError):
            masked_log_probs(diffusion_model, seqs, [])
        with pytest.raises(ValueError):
            masked_log_probs(diffusion_model, seqs, [6])


class TestGraphCache:
    """Graphs are cached by (hp, length, attention mode, rows read)."""

    @staticmethod
    def graphs_run(params, groups):
        """The graph of every pass run_groups makes for ``groups``."""
        graphs = []
        original = transformer.evaluate

        def recording(graph, *args, **kwargs):
            graphs.append(graph)
            return original(graph, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transformer, "evaluate", recording)
            run_groups(params, groups, "log_probs")
        return graphs

    def test_every_row_read_is_the_full_graph(self, tiny_ar_model,
                                              diffusion_model):
        for params in (tiny_ar_model, diffusion_model):
            hp = params.hyper
            tokens = (4, 5, 6, 7, 8)
            # a causal pass reading rows 0-3 stops there: the full graph of 4
            n = 4 if params.kind == AR else 5
            term = ScoreTerm(tokens, tuple((r, 3) for r in range(n)))
            graphs = self.graphs_run(params, [(term, {})])
            assert graphs == [build_forward_graph(hp, n).graph]
            assert build_forward_graph(hp, n, range(n)) \
                is build_forward_graph(hp, n)
            # reading fewer rows takes a graph of its own
            fewer = ScoreTerm(tokens, ((1, 3), (3, 2)))
            graph, = self.graphs_run(params, [(fewer, {})])
            assert build_forward_graph(hp, n, (1, 3)).graph is graph
            assert graph is not graphs[0]
            assert [node.op for node in graph.nodes].count("rows") == 2

    def test_the_classifier_graph_does_not_change(self, classifier_model,
                                                  tiny_corpus):
        hp = classifier_model.hyper
        prompt = tuple(sample_prompt(tiny_corpus))
        full = build_forward_graph(hp, len(prompt))
        assert build_forward_graph(hp, len(prompt), (0,)) is full
        assert "rows" not in {node.op for node in full.graph.nodes}
        assert full.rows == (0,)
        assert self.graphs_run(classifier_model,
                               [(class_term(prompt, 1), {})]) == [full.graph]

    # an AR step's graph is pruned: test_ar_training_runs_the_graphs_it_reads
    @pytest.mark.parametrize("kind", [DIFFUSION])
    def test_training_builds_no_pruned_graph(self, tiny_corpus, kind):
        # the SGD steps and the final loss alike
        hp = Hyperparams(kind=kind, vocab_size=len(tiny_corpus.vocab),
                         layers=1, heads=2, width=8, mlp_hidden=16,
                         context_len=16)
        graphs = []
        # the SGD steps' passes run in grad, the final loss's in evaluate
        for module, name in ((training, "grad"), (transformer, "evaluate")):
            def recording(graph, *args, _original=getattr(module, name),
                          **kwargs):
                graphs.append(graph)
                return _original(graph, *args, **kwargs)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, name, recording)
                train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                      seed=0, steps=3, lr=0.05)
        assert graphs
        for graph in graphs:
            assert "rows" not in {node.op for node in graph.nodes}
            length = graph.nodes[graph.leaves["emb"]].shape[0]
            assert graph is build_forward_graph(hp, length).graph

    def test_ar_training_runs_the_graphs_it_reads(self, tiny_corpus,
                                                  monkeypatch):
        """Each SGD step runs on the graph of the rows from the first its
        terms read to the last, which ends at its last target row; the
        final loss runs each term on the graph of the rows it reads, as
        run_groups would run it."""
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=8, mlp_hidden=16, context_len=16)
        drawn = record_terms(monkeypatch)
        graphs = {training: [], transformer: []}
        for (module, seen), name in zip(graphs.items(), ("grad", "evaluate")):
            def recording(graph, *args, _original=getattr(module, name),
                          _seen=seen, **kwargs):
                _seen.append(graph)
                return _original(graph, *args, **kwargs)
            monkeypatch.setattr(module, name, recording)
        steps, B = 3, training.BATCH_SIZE
        train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
              seed=0, steps=steps, lr=0.05)

        assert graphs[training] == [
            read_graph(hp, drawn[i * B:(i + 1) * B]).graph
            for i in range(steps)]
        # no span term reads row 0, so every step's last block is cut
        assert all("rows" in {node.op for node in graph.nodes}
                   for graph in graphs[training])
        final = drawn[steps * B:]
        assert len(final) == len(tiny_corpus.train_pairs[:64])
        assert {id(graph) for graph in graphs[transformer]} == {
            id(read_graph(hp, [term]).graph) for term in final}

    def test_ar_training_keeps_a_graph_per_longest_length_and_first_row(
            self, corpus, monkeypatch):
        """On the benchmark's corpus and model shape, a 20-step warm-up and
        two 80-step runs, as the ar-train workload makes them: every graph
        AR training leaves is the one of its longest length and first read
        row, and the count is pinned."""
        monkeypatch.setattr(transformer, "_CACHE", {})
        hp = Hyperparams(kind=AR, vocab_size=len(corpus.vocab))
        for seed, steps in ((0, 20), (1000, 80), (1001, 80)):
            train(list(corpus.train_pairs), corpus.vocab, hp, seed=seed,
                  steps=steps, lr=0.05)
        keys = list(transformer._CACHE)
        assert {key[0] for key in keys} == {hp}
        starts = set()
        for _, length, rows in keys:
            start = 0 if rows is None else rows[0]
            assert rows in (None, tuple(range(start, length)))
            starts.add((length, start))
        # the steps' (10, 3) and (10, 4); the final loss's (6, 3), (8, 4)
        # and (10, 5), which steps over source length 4 alone share
        assert len(starts) == len(keys) == 5


def response_len_perturbed_plan(plan, pert, response_len):
    """perturbed_plan as it was when its caller passed the response length
    and the slots open at t were counted from it: the reference for
    perturbed_plan, which counts them from the plan."""
    t = pert.stage
    if t not in plan:
        raise ValueError(f"stage {t} not in plan")
    new = dict(plan)
    if pert.kind == SUBSTITUTE_STEP:
        return new

    target = 0 if pert.kind == ABLATE else int(pert.commit_count)
    if target < 0:
        raise InfeasiblePerturbationError("negative commit count")
    remaining_at_t = response_len - sum(k for u, k in plan.items() if u > t)
    if target > remaining_at_t:
        raise InfeasiblePerturbationError(
            f"stage {t} cannot commit {target}; only {remaining_at_t} slots open")
    delta = plan[t] - target
    later = range(1, t)
    if delta != 0 and not later:
        raise InfeasiblePerturbationError(
            f"stage {t} is the last stage; no later stage can absorb {delta} commits")
    new[t] = target
    if delta > 0:
        base, rem = divmod(delta, len(later))
        for u in later:
            new[u] += base
        for u in later[:rem]:
            new[u] += 1
    elif delta < 0:
        to_remove = -delta
        while to_remove > 0:
            progressed = False
            for u in later:
                if to_remove == 0:
                    break
                if new[u] > 0:
                    new[u] -= 1
                    to_remove -= 1
                    progressed = True
            if not progressed:
                raise InfeasiblePerturbationError(
                    "later stages have no commits left to remove")
    return new


def plan_outcome(fn, *args):
    """The plan ``fn`` returns, or InfeasiblePerturbationError when it
    raises that."""
    try:
        return fn(*args)
    except InfeasiblePerturbationError:
        return InfeasiblePerturbationError


class TestPerturbedPlans:
    def test_ablate_rebalances(self):
        plan = {3: 2, 2: 2, 1: 1}
        new = perturbed_plan(plan, StagePerturbation(3, "ablate"))
        assert new[3] == 0 and sum(new.values()) == 5

    def test_ablate_last_stage_infeasible(self):
        plan = {1: 3}
        with pytest.raises(InfeasiblePerturbationError):
            perturbed_plan(plan, StagePerturbation(1, "ablate"))

    def test_noise_schedule_identity(self):
        plan = {3: 2, 2: 2, 1: 1}
        new = perturbed_plan(plan, StagePerturbation(3, "noise_schedule",
                                                     commit_count=2))
        assert new == plan

    def test_noise_schedule_increase(self):
        plan = {2: 2, 1: 2}
        new = perturbed_plan(plan, StagePerturbation(2, "noise_schedule",
                                                     commit_count=4))
        assert new == {2: 4, 1: 0}

    def test_noise_schedule_overcommit_infeasible(self):
        plan = {2: 2, 1: 2}
        with pytest.raises(InfeasiblePerturbationError):
            perturbed_plan(plan, StagePerturbation(1, "noise_schedule",
                                                   commit_count=5))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=5))
    def test_equals_the_response_length_form(self, counts):
        """Over a full plan of stages T..1, every kind, stage and commit
        count from 0 to one past the response length: the same plan, or
        the same InfeasiblePerturbationError, as the reference given the
        plan's total."""
        plan = dict(zip(range(len(counts), 0, -1), counts))
        total = sum(counts)
        for t in plan:
            for kind in PERT_KINDS:
                for count in range(total + 2):
                    pert = StagePerturbation(t, kind, commit_count=count)
                    assert plan_outcome(perturbed_plan, plan, pert) == \
                        plan_outcome(response_len_perturbed_plan, plan, pert,
                                     total), (plan, pert)

    def test_perturbed_chain_uses_original_seed(self, diffusion_model,
                                                tiny_corpus, monkeypatch):
        prompt = sample_prompt(tiny_corpus)
        traj = diffusion_generate(diffusion_model, prompt, 4, 3, seed=11)
        inst = PromptedInstance(prompt=prompt, seed=11, trajectory=traj)
        contract = make_named(SETTING_STAGE, inst)
        reruns = []

        def spy(params, chains, response_len, seed):
            out = run_chains_(params, chains, response_len, seed)
            reruns.append(out)
            return out

        run_chains_ = attribution.run_chains
        monkeypatch.setattr(attribution, "run_chains", spy)
        first = stage_attribution(diffusion_model, inst, contract,
                                  pert_kind="ablate")
        again = stage_attribution(diffusion_model, inst, contract,
                                  pert_kind="ablate")
        assert first == again
        assert len(reruns) == 2 and reruns[0] == reruns[1] and reruns[0]
        assert all(new.seed == traj.seed for new in reruns[0])

    def test_teacher_forcing_identity(self, diffusion_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        traj = diffusion_generate(diffusion_model, prompt, 4, 3, seed=0)
        assert teacher_forced_score(diffusion_model, prompt, traj, traj) == \
            trajectory_score(diffusion_model, prompt, traj)


class TestClassifier:
    def test_log_prob_normalized(self, classifier_model, tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        total = sum(np.exp(terms_score(classifier_model,
                                       [class_term(prompt, c)]))
                    for c in range(classifier_model.hyper.n_classes))
        assert abs(total - 1.0) < 1e-10

    def test_class_outside_the_head_rejected(self, classifier_model,
                                             tiny_corpus):
        prompt = sample_prompt(tiny_corpus)
        for class_index in (-1, 3, 99):  # 3 classes
            with pytest.raises(ValueError, match="outside the 1 x 3"):
                terms_score(classifier_model, [class_term(prompt, class_index)])


class TestPersistence:
    def test_round_trip(self, tiny_ar_model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(tiny_ar_model, path)
        loaded = load_model(path)
        assert loaded.model_id == tiny_ar_model.model_id
        assert loaded.hyper == tiny_ar_model.hyper
        for name, w in tiny_ar_model.weights.items():
            assert np.array_equal(loaded.weights[name], w)

    def test_tamper_detected(self, tiny_ar_model, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(tiny_ar_model, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-3] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(ModelIOError):
            load_model(path)

    @staticmethod
    def _with_header(blob: bytes, edit) -> bytes:
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode()
        return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:]

    @pytest.mark.parametrize("mutation", [
        "heads_zero", "unknown_weight_name", "unknown_hyper_key",
        "shorter_than_12_bytes", "truncated_body", "trailing_bytes"])
    def test_malformed_file_rejected(self, tiny_corpus, tmp_path, mutation):
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        path = str(tmp_path / "m.bin")
        save_model(init_params(hp, tiny_corpus.vocab, seed=0), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        mutate = {
            "heads_zero": lambda b: self._with_header(
                b, lambda h: h["hyper"].update(heads=0)),
            "unknown_weight_name": lambda b: self._with_header(
                b, lambda h: h["weight_order"].__setitem__(0, "no.such")),
            "unknown_hyper_key": lambda b: self._with_header(
                b, lambda h: h["hyper"].update(dropout=0.1)),
            "shorter_than_12_bytes": lambda b: b[:10],
            "truncated_body": lambda b: b[:-5],
            "trailing_bytes": lambda b: b + bytes(8),
        }[mutation]
        with open(path, "wb") as fh:
            fh.write(mutate(blob))
        with pytest.raises(ModelIOError):
            load_model(path)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from([AR, DIFFUSION, CLASSIFIER]),
           heads=st.sampled_from([1, 2, 4]), layers=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_round_trip_keeps_the_stacked_weights(self, tiny_corpus, kind,
                                                  heads, layers, seed):
        """load(save(p)) holds p's stacked weights bit for bit under the
        same model_id, and the file holds each head as its own array."""
        params = random_model(kind, tiny_corpus.vocab, heads, seed,
                              layers=layers)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.bin")
            save_model(params, path)
            loaded = load_model(path)
            with open(path, "rb") as fh:
                blob = fh.read()
        assert loaded.model_id == params.model_id
        assert loaded.weights.keys() == params.weights.keys()
        for name, w in params.weights.items():
            assert loaded.weights[name].shape == w.shape
            assert loaded.weights[name].tobytes() == w.tobytes(), name
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        assert header["weight_order"] == sorted(file_shapes(header["hyper"]))
        arrays = dict(file_arrays(header["hyper"], header["weight_order"],
                                  blob[12 + hlen:]))
        for name, w in params.weights.items():  # a stacked weight is 3-D
            stored = (zip([f"{name}{h}" for h in range(heads)], w)
                      if w.ndim == 3 else [(name, w)])
            for array, value in stored:
                assert arrays[array] == value.astype("<f8").tobytes(), array

    def test_weights_named_by_head_rejected(self, tiny_ar_model):
        weights = {}
        for name, w in tiny_ar_model.weights.items():
            if name.endswith((".wq", ".wk", ".wv", ".wo")):
                weights.update((f"{name}{h}", head) for h, head in enumerate(w))
            else:
                weights[name] = w
        with pytest.raises(ValueError, match="weight name mismatch"):
            ModelParams(hyper=tiny_ar_model.hyper, vocab=tiny_ar_model.vocab,
                        weights=weights)

    @pytest.mark.parametrize("kind, size, value", [
        (AR, "vocab_size", 0), (AR, "layers", -2), (AR, "width", 0),
        (AR, "mlp_hidden", 0), (AR, "context_len", 0),
        (CLASSIFIER, "n_classes", 0)])
    def test_a_size_that_cannot_run_is_rejected(self, tiny_corpus, tmp_path,
                                                capsys, kind, size, value):
        """A model file whose header gives a size below 1, with the
        weight_order, body and model_id that header gives, is rejected on
        load, and a command on it exits 2."""
        vocab = tiny_corpus.vocab
        hyper = {"kind": kind, "vocab_size": len(vocab), "layers": 1,
                 "heads": 2, "width": 8, "mlp_hidden": 8, "context_len": 8,
                 "n_classes": 3 if kind == CLASSIFIER else 0, size: value}
        header = {"hyper": hyper,
                  "vocab": {"tokens": list(vocab.tokens), "pad": vocab.pad,
                            "mask": vocab.mask, "sep": vocab.sep,
                            "eos": vocab.eos},
                  "weight_order": sorted(file_shapes(hyper))}
        body = bytes(8 * sum(math.prod(shape)
                             for shape in file_shapes(hyper).values()))
        header["model_id"] = file_model_id(
            json.dumps(header, sort_keys=True),
            file_arrays(hyper, header["weight_order"], body))
        raw = json.dumps(header, sort_keys=True).encode()
        path = str(tmp_path / "m.bin")
        with open(path, "wb") as fh:
            fh.write(model_params.MAGIC + struct.pack("<I", len(raw)) + raw
                     + body)
        with pytest.raises(ModelIOError, match=f"{size} must be positive"):
            load_model(path)
        assert main(["generate", "--model", path, "--prompt", "TR: s0 SEP"]) \
            == EXIT_DIAGNOSTIC
        assert "model file rejected" in capsys.readouterr().err

    def test_model_id_depends_on_weights(self, tiny_corpus):
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        a = init_params(hp, tiny_corpus.vocab, seed=0)
        b = init_params(hp, tiny_corpus.vocab, seed=1)
        assert a.model_id != b.model_id
        assert a.model_id == init_params(hp, tiny_corpus.vocab, seed=0).model_id

    def test_a_model_is_hashed_once(self, tiny_corpus, tmp_path, monkeypatch):
        """Saving a model, loading it back and reading both ids again
        hashes each of the two models once."""
        hashed = []
        sha256 = model_params.hashlib.sha256

        def counting(*args):
            hashed.append(args)
            return sha256(*args)

        monkeypatch.setattr(model_params, "hashlib",
                            SimpleNamespace(sha256=counting))
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        model = init_params(hp, tiny_corpus.vocab, seed=0)
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        loaded = load_model(path)
        assert model.model_id == loaded.model_id == model.model_id
        assert len(hashed) == 2


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class TestModelFileFormat:
    """ar_l1_w8.bin is a 1-layer, 2-head, width-8 AR model written (after
    3 SGD steps) by the code from before the attention weights were bound
    on a heads axis (commit a24c4e5); ar_l1_w8.json holds its model_id,
    the model_id of init_params at its seed, and its score for one term,
    all computed by that code."""

    @pytest.fixture(scope="class")
    def fixture(self):
        with open(os.path.join(FIXTURES, "ar_l1_w8.json")) as fh:
            meta = json.load(fh)
        return os.path.join(FIXTURES, "ar_l1_w8.bin"), meta

    def test_loads_with_the_same_id_and_score(self, fixture):
        path, meta = fixture
        params = load_model(path)
        assert params.model_id == meta["model_id"]
        # the pinned score is of a causal pass, which the AR model runs
        assert meta["term"]["causal"] and params.kind == AR
        term = ScoreTerm(tokens=tuple(meta["term"]["tokens"]),
                         targets=tuple(map(tuple, meta["term"]["targets"])))
        assert abs(terms_score(params, [term]) - meta["score"]) <= 1e-12

    def test_save_rewrites_it_byte_identically(self, fixture, tmp_path):
        path, _ = fixture
        out = str(tmp_path / "m.bin")
        save_model(load_model(path), out)
        with open(path, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()

    def test_init_params_keeps_its_draw_order(self, fixture):
        path, meta = fixture
        params = load_model(path)
        init = init_params(params.hyper, params.vocab, meta["init_seed"])
        assert init.model_id == meta["init_model_id"]


def kernel_probe() -> str:
    """SHA-256 of numpy's version and of what its float kernels give on
    fixed inputs: exp, log and tanh, and GEMMs of a width-64 model's
    shapes, among them the weight gradients folded over a step's rows:
    per head, (d, N) x (N, dh), one (H dh, N) x (N, d), and the one-hot
    embedding gradient. Hosts whose kernels round alike give equal
    digests."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-8.0, 8.0, 4096)
    a, b = rng.uniform(-1.0, 1.0, (88, 64)), rng.uniform(-1.0, 1.0, (64, 128))
    q, k = rng.uniform(-1.0, 1.0, (2, 8, 2, 11, 32))
    heads = rng.uniform(-1.0, 1.0, (2, 88, 32))
    c = rng.uniform(-1.0, 1.0, (88, 64))
    onehot = np.eye(24)[rng.integers(0, 24, 88)].T
    digest = hashlib.sha256(np.__version__.encode())
    for value in (np.exp(x), np.log(np.abs(x)), np.tanh(x), a @ b,
                  a.T @ (a @ b), (a @ b) @ b.T, q @ k.mT, a.T @ heads,
                  c.T @ a, onehot @ a):
        digest.update(value.tobytes())
    return digest.hexdigest()


class TestTrainedModelIds:
    """trained_models.json holds the model_id and final loss of a tiny AR
    and a tiny diffusion model trained at fixed seeds, as its "how" says,
    so a change that moves training's bits shows here. Bits depend on
    numpy's kernels, so the ids are checked on hosts whose kernels give the
    fixture's kernel_probe; the final losses are checked everywhere."""

    @pytest.mark.parametrize("kind", [AR, DIFFUSION])
    def test_training_keeps_its_bits(self, tiny_corpus, kind):
        with open(os.path.join(FIXTURES, "trained_models.json")) as fh:
            meta = json.load(fh)
        pinned = meta["models"][kind]
        hp = Hyperparams(kind=kind, vocab_size=len(tiny_corpus.vocab),
                         **meta["hyperparams"])
        result = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                       seed=pinned["seed"], steps=20, lr=0.05)
        assert abs(result.final_loss - pinned["final_loss"]) <= 1e-9
        if kernel_probe() != meta["kernel_probe"]:
            pytest.skip("numpy's kernels here round otherwise than those"
                        " the pinned ids were computed with")
        assert result.params.model_id == pinned["model_id"]


def random_model(kind, vocab, heads, seed, layers=2):
    """A model whose every weight, gains and biases included, is drawn at
    random, so no head or affine term is trivial."""
    hp = Hyperparams(kind=kind, vocab_size=len(vocab), layers=layers,
                     heads=heads, width=16, mlp_hidden=24, context_len=16,
                     n_classes=3 if kind == CLASSIFIER else 0)
    rng = np.random.default_rng(seed)
    weights = {name: (1.0 if name.endswith(".g") else 0.0)
               + 0.3 * rng.standard_normal(shape)
               for name, shape in weight_shapes(hp).items()}
    return ModelParams(hyper=hp, vocab=vocab, weights=weights)


def per_head_log_probs(params, tokens):
    """The transformer's log-prob table in plain numpy, one head at a time,
    each head's weights read from its row of the stacked weights, causal
    for an AR model: the reference for the heads-axis graph."""
    hp, w = params.hyper, params.weights
    L = len(tokens)

    def layer_norm(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-6) * w[name + ".g"] + w[name + ".b"]

    def log_softmax(x):
        shifted = x - x.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                        * (x + 0.044715 * x ** 3)))

    mask = (np.triu(np.full((L, L), -1e9), k=1) if hp.kind == AR
            else np.zeros((L, L)))
    x = w["emb"][list(tokens)] + w["pos"][:L]
    for i in range(hp.layers):
        p = f"blk{i}."
        h = layer_norm(x, p + "ln1")
        for hd in range(hp.heads):
            q, k, v = (h @ w[p + name][hd] for name in ("wq", "wk", "wv"))
            a = np.exp(log_softmax(q @ k.T / np.sqrt(hp.head_dim) + mask))
            x = x + a @ v @ w[p + "wo"][hd]
        u = layer_norm(x, p + "ln2") @ w[p + "mlp.w1"] + w[p + "mlp.b1"]
        x = x + gelu(u) @ w[p + "mlp.w2"] + w[p + "mlp.b2"]
    xf = layer_norm(x, "lnf")
    if hp.kind == CLASSIFIER:
        return log_softmax(xf.mean(axis=0, keepdims=True) @ w["head.w"]
                           + w["head.b"])
    return log_softmax(xf @ w["out.w"] + w["out.b"])


class TestHeadsAxis:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", [AR, DIFFUSION, CLASSIFIER])
    def test_graph_equals_a_per_head_loop(self, tiny_corpus, kind, heads):
        params = random_model(kind, tiny_corpus.vocab, heads, seed=heads)
        rng = np.random.default_rng(heads)
        for length in (1, 5, 9):
            tokens = rng.integers(0, len(tiny_corpus.vocab), size=length)
            fg, vals, _ = bind_pass(params, ScoreTerm(tuple(tokens), ()))
            got = evaluate(fg.graph, vals)[fg.log_probs]
            expected = per_head_log_probs(params, tokens)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_heads_are_stacked_once_per_model(self, tiny_ar_model):
        _, a, _ = bind_pass(tiny_ar_model, ScoreTerm((1, 2, 3), ()))
        _, b, _ = bind_pass(tiny_ar_model, ScoreTerm((4, 5), ()))
        assert a["blk0.wq"] is b["blk0.wq"] is tiny_ar_model.weights["blk0.wq"]
        assert a["blk1.wo"].shape == (2, 16, 32)


class TestInstances:
    def test_exactly_one_output_source(self):
        with pytest.raises(ValueError):
            PromptedInstance(prompt=(1, 2), seed=0)
        with pytest.raises(ValueError):
            PromptedInstance(prompt=(1, 2), seed=0, generation=(3,),
                             class_target=1)

    def test_digest_sensitivity(self):
        a = PromptedInstance(prompt=(1, 2), seed=0, generation=(3,))
        b = PromptedInstance(prompt=(1, 2), seed=0, generation=(4,))
        assert instance_digest(a) != instance_digest(b)
        assert instance_digest(a) == instance_digest(
            PromptedInstance(prompt=(1, 2), seed=0, generation=(3,)))


class TestTraining:
    def test_loss_decreases(self, tiny_corpus):
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        def final_loss(steps):
            return train(list(tiny_corpus.train_pairs), tiny_corpus.vocab,
                         hp, seed=0, steps=steps, lr=0.05).final_loss

        # zero steps: the loss of the initial weights
        assert final_loss(40) < final_loss(0)

    def test_the_default_rate_lowers_the_loss_at_the_benchmark_shape(
            self, corpus):
        """80 steps at the default rate, on the benchmark's corpus and the
        model shape `train` builds by default, end below the untrained
        loss. A rate ten times the CLI's ends at a finite loss above 1e14
        here, so it would raise no TrainingDiverged either."""
        hp = Hyperparams(kind=AR, vocab_size=len(corpus.vocab), layers=2,
                         heads=2, width=64, mlp_hidden=128, context_len=64)
        def final_loss(steps):
            return train(list(corpus.train_pairs), corpus.vocab, hp,
                         seed=0, steps=steps).final_loss

        # the CLI's --lr default is train's
        assert build_parser().parse_args(
            ["train", "--corpus", "c", "--out", "o"]).lr == \
            inspect.signature(train).parameters["lr"].default
        trained = final_loss(80)
        assert math.isfinite(trained) and trained < final_loss(0)

    def test_divergence_names_the_step(self, tiny_corpus):
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDiverged,
                              match="non-finite loss at step 6 ") as info:
            train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                  seed=0, steps=20, lr=1e30)
        assert "non-finite output at node" in str(info.value.__cause__)

    def test_overflow_in_the_last_update_raises_diverged(self, tiny_corpus):
        # the one step's loss is finite; its update overflows the weights,
        # so the final loss pass is the first to see it
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        with pytest.raises(TrainingDiverged,
                           match="non-finite final loss after 1 steps") as info:
            train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                  seed=0, steps=1, lr=1e308)
        assert "non-finite output at node" in str(info.value.__cause__)

    def test_training_deterministic(self, tiny_corpus):
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        a = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                  seed=0, steps=10, lr=0.05)
        b = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
                  seed=0, steps=10, lr=0.05)
        assert a.params.model_id == b.params.model_id


def per_example_grads(params, term):
    """One example's loss (minus its score) and gradient, from its own
    forward and backward pass: the reference for the batched step."""
    fg, vals, mask = bind_pass(params, term)
    full = {}
    table, grads = grad(fg.graph, fg.log_probs, vals, fg.graph.leaves, mask)
    score = (table * mask).sum()
    for name, gval in grads.items():
        if name == "emb":
            full[name] = np.zeros_like(params.weights["emb"])
            np.add.at(full[name], np.asarray(term.tokens, dtype=int), gval)
        elif name == "pos":
            full[name] = np.zeros_like(params.weights["pos"])
            full[name][:len(term.tokens)] = gval
        else:
            full[name] = gval
    return -float(score), full


def per_example_train(kind, corpus, vocab, hp, seed, steps, lr):
    """train() with one pass per example, drawing each example's term just
    before its pass; returns the weights and the terms in drawing order."""
    rng = np.random.default_rng(seed)
    params = init_params(hp, vocab, seed)
    drawn = []
    for step in range(steps):
        lr_t = max(lr * training.LR_FLOOR_FRAC,
                   0.5 * lr * (1.0 + math.cos(math.pi * step / steps)))
        acc = {}
        for j in rng.integers(0, len(corpus), size=training.BATCH_SIZE):
            term = training._example_term(kind, vocab, corpus[int(j)], rng)
            drawn.append(term)
            for name, gval in per_example_grads(params, term)[1].items():
                acc[name] = acc[name] + gval if name in acc else gval
        params = training.ModelParams(
            hyper=hp, vocab=params.vocab,
            weights={**params.weights,
                     **{name: params.weights[name]
                        + (lr_t / training.BATCH_SIZE) * g
                        for name, g in acc.items()}})
    return params.weights, drawn


def record_terms(monkeypatch):
    """The terms training draws, in drawing order, as it draws them."""
    drawn = []
    draw = training._example_term

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(training, "_example_term", recording)
    return drawn


def read_graph(hp, terms):
    """The graph an SGD step over the causal ``terms`` runs on: it computes
    the rows from the first any term reads to the last, where it ends."""
    read = sorted(row for term in terms for row, _ in term.targets)
    return build_forward_graph(hp, read[-1] + 1, range(read[0], read[-1] + 1))


def assert_close(got, expected, rtol=1e-12):
    assert np.max(np.abs(got - expected)) <= rtol * max(1.0, np.max(np.abs(expected)))


class TestBatchedTrainingStep:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_per_example_passes(self, tiny_ar_model, diffusion_model,
                                       tiny_corpus, data):
        """A minibatch of mixed lengths, span terms and masked diffusion
        terms alike, on either model: causal passes on the AR model,
        bidirectional on the diffusion model."""
        params = data.draw(st.sampled_from([tiny_ar_model, diffusion_model]))
        pairs = tiny_corpus.train_pairs
        picks = data.draw(st.lists(st.integers(0, len(pairs) - 1),
                                   min_size=1, max_size=training.BATCH_SIZE))
        rng = np.random.default_rng(data.draw(st.integers(0, 3)))
        terms = []
        for i in picks:
            prompt, target = pairs[i]
            if data.draw(st.booleans()):
                terms.append(span_term(prompt, target))
            else:
                terms.append(training._example_term(
                    DIFFUSION, diffusion_model.vocab, pairs[i], rng))
        loss, grads = training._batch_grads(params.hyper, params.vocab.pad,
                                            params.weights, terms)

        reference = [per_example_grads(params, term) for term in terms]
        assert_close(loss, sum(r[0] for r in reference))
        assert grads.keys() == reference[0][1].keys()
        for name, g in grads.items():
            assert_close(g, sum(r[1][name] for r in reference))

    def test_the_sgd_step_writes_the_weights_in_place(self, tiny_corpus,
                                                      monkeypatch):
        """Each step adds its scaled gradient into the weight arrays train
        started from; the model it returns holds those arrays."""
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab),
                         layers=1, heads=2, width=16, mlp_hidden=32,
                         context_len=16)
        started = {}

        def init(*args):
            params = init_params(*args)
            started.update(params.weights)
            return params

        monkeypatch.setattr(training, "init_params", init)
        before = {name: w.copy() for name, w in
                  init_params(hp, tiny_corpus.vocab, 4).weights.items()}
        result = train(list(tiny_corpus.train_pairs), tiny_corpus.vocab,
                       hp, seed=4, steps=2, lr=0.05)
        for name, w in result.params.weights.items():
            assert w is started[name], name
            assert not np.array_equal(w, before[name]), name

    @pytest.mark.parametrize("kind", [AR, DIFFUSION])
    def test_training_draws_the_same_terms(self, tiny_corpus, monkeypatch,
                                           kind):
        """train() draws every example's term, diffusion masks included,
        from the same random stream as a per-example loop would, and ends
        at the same weights up to summation order."""
        hp = Hyperparams(kind=kind, vocab_size=len(tiny_corpus.vocab),
                         layers=1, heads=2, width=16, mlp_hidden=32,
                         context_len=16)
        corpus = list(tiny_corpus.train_pairs)
        expected, expected_terms = per_example_train(
            kind, corpus, tiny_corpus.vocab, hp, seed=4, steps=3, lr=0.05)

        drawn = record_terms(monkeypatch)
        result = train(corpus, tiny_corpus.vocab, hp, seed=4, steps=3,
                       lr=0.05)
        # the terms after the SGD steps' are the final mean loss's
        assert drawn[:len(expected_terms)] == expected_terms
        for name, w in result.params.weights.items():
            assert_close(w, expected[name], rtol=1e-10)


def full_graph_step(params, terms):
    """The SGD step on full graphs: causal terms right-padded with the pad
    id to the longest, bidirectional ones in one pass per length, every row
    of every block computed. The reference for the pruned step."""
    hp, leaves = params.hyper, params.weights
    buckets, loss, acc = {}, 0.0, {}
    for term in terms:
        buckets.setdefault(None if hp.kind == AR else len(term.tokens),
                           []).append(term)
    for bucket in buckets.values():
        L = max(len(term.tokens) for term in bucket)
        ids = np.array([term.tokens + (params.vocab.pad,) * (L - len(term.tokens))
                        for term in bucket])
        fg = build_forward_graph(hp, L)
        assert "rows" not in {node.op for node in fg.graph.nodes}
        masks = transformer._target_masks(hp, fg.rows,
                                          [term.targets for term in bucket])
        table, grads = grad(fg.graph, fg.log_probs,
                            transformer._bind(hp, leaves, ids, ()),
                            fg.graph.leaves, masks)
        loss -= float((table * masks).reshape(len(bucket), -1).sum(-1).sum())
        for name, gval in grads.items():
            if name == "emb":
                gval, rows = np.zeros_like(leaves["emb"]), gval
                np.add.at(gval, ids.reshape(-1), rows.reshape(-1, hp.width))
            elif name == "pos":
                gval, rows = np.zeros_like(leaves["pos"]), gval
                gval[:L] = rows
            acc[name] = acc[name] + gval if name in acc else gval
    return loss, acc


class TestPrunedTrainingStep:
    """The pruned SGD step equals the full-graph step: up to rounding for
    causal terms, whose graph is cut, and bit for bit for bidirectional
    ones, whose graph is not."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_ar_batches_equal_the_full_graph_step(self, tiny_ar_model, data):
        """1-8 causal terms of mixed or of equal lengths, each reading a
        drawn set of rows, so the rows read may have gaps: the step runs
        one pass, on the graph of every row from the first read to the
        last."""
        params = tiny_ar_model
        V = params.hyper.vocab_size
        n = data.draw(st.integers(1, training.BATCH_SIZE))
        length = st.integers(2, 12)
        lengths = ([data.draw(length)] * n if data.draw(st.booleans())
                   else data.draw(st.lists(length, min_size=n, max_size=n)))
        terms = []
        for L in lengths:
            tokens = data.draw(st.lists(st.integers(0, V - 1), min_size=L,
                                        max_size=L))
            rows = data.draw(st.lists(st.integers(0, L - 1), min_size=1,
                                      max_size=L, unique=True))
            terms.append(ScoreTerm(tuple(tokens), tuple(
                (row, data.draw(st.integers(0, V - 1))) for row in sorted(rows))))
        with pytest.MonkeyPatch.context() as mp:
            _, _, graphs = spy_passes(mp)
            loss, grads = training._batch_grads(
                params.hyper, params.vocab.pad, params.weights, terms)
        assert graphs == [read_graph(params.hyper, terms).graph]
        expected_loss, expected = full_graph_step(params, terms)
        assert_close(loss, expected_loss)
        assert grads.keys() == expected.keys()
        for name, g in grads.items():
            assert_close(g, expected[name])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_diffusion_batches_equal_it_bit_for_bit(self, diffusion_model,
                                                   tiny_corpus, data):
        pairs = tiny_corpus.train_pairs
        if data.draw(st.booleans()):  # terms of one length
            n = len(data.draw(st.sampled_from(pairs))[0])
            pairs = [pair for pair in pairs if len(pair[0]) == n]
        picks = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=training.BATCH_SIZE))
        rng = np.random.default_rng(data.draw(st.integers(0, 3)))
        terms = [training._example_term(DIFFUSION, diffusion_model.vocab,
                                        pair, rng) for pair in picks]
        loss, grads = training._batch_grads(
            diffusion_model.hyper, diffusion_model.vocab.pad,
            diffusion_model.weights, terms)
        expected_loss, expected = full_graph_step(diffusion_model, terms)
        assert loss == expected_loss
        assert grads.keys() == expected.keys()
        for name, g in grads.items():
            assert np.array_equal(g, expected[name])


def spy_passes(monkeypatch):
    """Spies on training's grad and on every forward pass autodiff runs:
    each call appends its kind and its emb leaf's shape, and grad's its
    graph and its emb gradient too. A forward that grad runs for itself
    shows as the evaluate after that grad."""
    calls, emb_grads, graphs = [], [], []
    evaluate_fn, grad_fn = autodiff.evaluate, training.grad

    def evaluating(graph, vals, *args, **kwargs):
        calls.append(("evaluate", vals["emb"].shape))
        return evaluate_fn(graph, vals, *args, **kwargs)

    def differentiating(graph, node, vals, wrt, seed):
        calls.append(("grad", vals["emb"].shape))
        graphs.append(graph)
        out = grad_fn(graph, node, vals, wrt, seed)
        emb_grads.append(out[1]["emb"])
        return out

    monkeypatch.setattr(autodiff, "evaluate", evaluating)
    monkeypatch.setattr(training, "grad", differentiating)
    return calls, emb_grads, graphs


class TestOnePassPerStep:
    def test_an_ar_step_is_one_padded_pass(self, tiny_corpus, monkeypatch):
        """train() on an AR corpus makes one grad per step, which runs its
        one forward pass, both over all the step's terms up to its last
        target row, on the graph that computes the rows from its first
        target row on."""
        hp = Hyperparams(kind=AR, vocab_size=len(tiny_corpus.vocab), layers=1,
                         heads=2, width=16, mlp_hidden=32, context_len=16)
        drawn = record_terms(monkeypatch)
        calls, _, graphs = spy_passes(monkeypatch)
        steps, B = 5, training.BATCH_SIZE
        train(list(tiny_corpus.train_pairs), tiny_corpus.vocab, hp,
              seed=2, steps=steps, lr=0.05)
        batches = [drawn[i * B:(i + 1) * B] for i in range(steps)]
        # padding happened
        assert any(len({len(term.tokens) for term in batch}) > 1
                   for batch in batches)
        fgs = [read_graph(hp, batch) for batch in batches]
        assert calls == [(kind, (B, fg.rows[-1] + 1, hp.width))
                         for fg in fgs for kind in ("grad", "evaluate")]
        assert graphs == [fg.graph for fg in fgs]

    def test_bidirectional_terms_get_one_pass_per_length(
            self, diffusion_model, tiny_corpus, monkeypatch):
        by_length = {}
        for pair in tiny_corpus.train_pairs:
            by_length.setdefault(len(pair[0]) + len(pair[1]), []).append(pair)
        short, long = sorted(by_length)[:2]
        pairs = [by_length[short][0], by_length[long][0],
                 by_length[short][1], by_length[long][1], by_length[long][2]]
        rng = np.random.default_rng(0)
        terms = [training._example_term(DIFFUSION, diffusion_model.vocab,
                                        pair, rng) for pair in pairs]
        calls, _, _ = spy_passes(monkeypatch)
        training._batch_grads(diffusion_model.hyper, diffusion_model.vocab.pad,
                              diffusion_model.weights, terms)
        d = diffusion_model.hyper.width
        assert calls == [("grad", (2, short, d)), ("evaluate", (2, short, d)),
                         ("grad", (3, long, d)), ("evaluate", (3, long, d))]

    def test_pad_rows_get_exactly_zero_gradient(self, tiny_ar_model,
                                                tiny_corpus, monkeypatch):
        terms = [span_term(*pair) for pair in tiny_corpus.train_pairs[:8]]
        lengths = [len(term.tokens) for term in terms]
        assert len(set(lengths)) > 1
        _, emb_grads, _ = spy_passes(monkeypatch)
        training._batch_grads(tiny_ar_model.hyper, tiny_ar_model.vocab.pad,
                              tiny_ar_model.weights, terms)
        (g,) = emb_grads
        # the pass ends at the last target row, before the longest terms'
        # last token
        assert g.shape[:2] == (len(terms), max(lengths) - 1)
        for rows, n in zip(g, lengths):
            # the rows after a term's last target row, n - 2, feed no row it
            # reads; every row up to it is read
            assert np.all(rows[n - 1:] == 0.0)
            assert np.all(np.any(rows[:n - 1] != 0.0, axis=-1))
