"""Faithfulness-evaluation tests: perturbation operators, curve endpoint
identities, discipline guarantees, report plumbing, the batched report
against a sequential point-by-point reference, and state-level conditioning
chains against a stage-by-stage replay."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrscope import evaluation
from attrscope.models import transformer
from attrscope.attribution import (
    PAD_BASELINE, BaselinePolicy, bind_score, score, scores,
)
from attrscope.contract import (
    FeatureRef, PREFIX_TOKEN, PROMPT_TOKEN, SETTING_CLASSIFIER, SETTING_LOCAL,
    SETTING_P2O, SETTING_PROMPT_COND, SETTING_SPAN, SETTING_STAGE,
    SETTING_STATE, STATE_COMMITMENT, make_named,
)
from attrscope.evaluation import (
    DELETE, EvaluationError, FaithfulnessCurve, FaithfulnessReport, INSERT,
    PerturbationPolicy, REGENERATE, aopc, compute_map, faithfulness_report,
    perturb_sets, ranked_features,
)
from attrscope.corpus import make_syn_corpus
from attrscope.models import (
    GreedyPolicy, Hyperparams, InfeasiblePerturbationError, PromptedInstance,
    StagePerturbation, ar_generate, diffusion_generate, init_params,
    masked_log_probs, teacher_forced_score,
)
from attrscope.models.diffusion import (
    PERT_KINDS, SUBSTITUTE_STEP, ChainSpec, perturbed_plan, run_chains,
    stage_terms,
)
from attrscope.models.params import DIFFUSION
from attrscope.models.transformer import (
    ScoreTerm, run_groups, table_key, terms_score,
)

POLICY = PerturbationPolicy()
MASK_BASELINE = BaselinePolicy("mask_token")


@pytest.fixture(scope="module")
def ar_instance(tiny_ar_model, tiny_corpus):
    prompt = tiny_corpus.heldout_pairs[2][0]
    gen = tuple(ar_generate(tiny_ar_model, prompt, 6, GreedyPolicy(), seed=0))
    return PromptedInstance(prompt=prompt, seed=0, generation=gen)


@pytest.fixture(scope="module")
def diff_instance(diffusion_model, tiny_corpus):
    prompt = tiny_corpus.heldout_pairs[0][0]
    traj = diffusion_generate(diffusion_model, prompt, 4, 3, seed=0)
    return PromptedInstance(prompt=prompt, seed=0, trajectory=traj)


class TestPerturb:
    def test_only_eligible_features_move(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance,
                       len(ar_instance.generation))
        with pytest.raises(EvaluationError):
            perturb_sets(tiny_ar_model, ar_instance, c,
                         [[FeatureRef(PREFIX_TOKEN, 0)]], POLICY)

    def test_prompt_token_replaced_by_baseline(self, tiny_ar_model,
                                               ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        ctx = perturb_sets(tiny_ar_model, ar_instance, c,
                           [[FeatureRef(PROMPT_TOKEN, 1)]], POLICY)[0]
        assert ctx.instance.prompt[1] == tiny_ar_model.vocab.pad
        assert ctx.instance.prompt[0] == ar_instance.prompt[0]
        assert ctx.instance.generation == ar_instance.generation

    @staticmethod
    def assert_identity(params, instance, contract):
        """Evaluation, scoring and the bound attribution graph agree exactly
        on the unperturbed instance."""
        ctx = perturb_sets(params, instance, contract, [[]], POLICY)[0]
        live = score(contract, params, instance)
        assert scores(params, [(contract, ctx.instance, ctx.conditioning)]) \
            == [live]
        bs = bind_score(params, instance, contract)
        assert bs.values([{}]) == [live]

    def test_empty_perturbation_is_identity(self, tiny_ar_model, ar_instance,
                                            diffusion_model, diff_instance,
                                            classifier_model, tiny_corpus):
        t = len(ar_instance.generation)
        cls_instance = PromptedInstance(prompt=tiny_corpus.heldout_pairs[0][0],
                                        seed=0, class_target=1)
        cases = [
            (tiny_ar_model, ar_instance, make_named(SETTING_LOCAL, ar_instance, t)),
            (tiny_ar_model, ar_instance,
             make_named(SETTING_PROMPT_COND, ar_instance, 1)),
            (tiny_ar_model, ar_instance, make_named(SETTING_SPAN, ar_instance)),
            (diffusion_model, diff_instance,
             make_named(SETTING_STATE, diff_instance, 1)),
            (diffusion_model, diff_instance,
             make_named(SETTING_P2O, diff_instance)),
            (classifier_model, cls_instance,
             make_named(SETTING_CLASSIFIER, cls_instance)),
        ]
        for params, instance, contract in cases:
            self.assert_identity(params, instance, contract)

    def test_state_level_identity_replay(self, diffusion_model,
                                         diff_instance):
        for t in range(1, diff_instance.trajectory.num_steps + 1):
            c = make_named(SETTING_STATE, diff_instance, t)
            self.assert_identity(diffusion_model, diff_instance, c)

    def test_regenerate_restricted_to_prompt_to_output(self, diffusion_model,
                                                       diff_instance):
        c = make_named(SETTING_STATE, diff_instance, 1)
        regen = PerturbationPolicy(rescoring=REGENERATE)
        with pytest.raises(EvaluationError):
            perturb_sets(diffusion_model, diff_instance, c, [[]], regen)


class TestCurves:
    """Curves as faithfulness_report draws them, without random orderings."""

    @staticmethod
    def ig_report(params, instance, contract, K, policy=POLICY, steps=16):
        return faithfulness_report(params, instance, contract,
                                   {"name": "ig", "steps": steps}, K, policy,
                                   n_random=0)

    @pytest.mark.parametrize("setting,needs_t", [(SETTING_LOCAL, True),
                                                 (SETTING_PROMPT_COND, True),
                                                 (SETTING_SPAN, False)])
    def test_deletion_endpoint_identity(self, tiny_ar_model, ar_instance,
                                        setting, needs_t):
        t = len(ar_instance.generation) if needs_t else None
        c = make_named(setting, ar_instance, t)
        K = min(3, len(c.eligible))
        curve = self.ig_report(tiny_ar_model, ar_instance, c, K).deletion
        assert curve.scores[0] == score(c, tiny_ar_model, ar_instance)
        assert curve.k_values == tuple(range(K + 1))

    def test_insertion_duality(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        report = self.ig_report(tiny_ar_model, ar_instance, c,
                                len(c.eligible))
        dele, inse = report.deletion, report.insertion
        # everything restored == nothing deleted; nothing restored == all deleted
        assert inse.scores[-1] == dele.scores[0]
        assert inse.scores[0] == dele.scores[-1]

    def test_state_level_curve_runs(self, diffusion_model, diff_instance):
        t = 1
        c = make_named(SETTING_STATE, diff_instance, t)
        K = min(2, len(c.eligible))
        curve = self.ig_report(diffusion_model, diff_instance, c, K,
                               steps=8).deletion
        assert curve.scores[0] == score(c, diffusion_model, diff_instance)

    def test_prompt_to_output_regenerate(self, diffusion_model,
                                         diff_instance):
        c = make_named(SETTING_P2O, diff_instance)
        regen = PerturbationPolicy(rescoring=REGENERATE)
        curve = self.ig_report(diffusion_model, diff_instance, c, 2, regen,
                               steps=8).deletion
        assert curve.scores[0] == score(c, diffusion_model, diff_instance)

    def test_k_bounded_by_eligible(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        with pytest.raises(EvaluationError):
            self.ig_report(tiny_ar_model, ar_instance, c, len(c.eligible) + 1)


class TestAOPC:
    def test_deletion_arithmetic(self):
        curve = FaithfulnessCurve(k_values=(0, 1, 2),
                                  scores=(0.0, -1.0, -3.0),
                                  ordering="map", mode=DELETE)
        assert aopc(curve) == pytest.approx((1.0 + 3.0) / 2)

    def test_insertion_sign_flip(self):
        curve = FaithfulnessCurve(k_values=(0, 1, 2),
                                  scores=(-3.0, -1.0, 0.0),
                                  ordering="map", mode=INSERT)
        assert aopc(curve) == pytest.approx((2.0 + 3.0) / 2)

    def test_ranked_by_magnitude(self):
        refs = [FeatureRef(PROMPT_TOKEN, i) for i in range(3)]
        entries = ((refs[0], 0.1), (refs[1], -5.0), (refs[2], 2.0))
        fake = None
        order = ranked_features(type("M", (), {"entries": entries})())
        assert order == [refs[1], refs[2], refs[0]]


class TestDiscipline:
    def test_span_eval_never_generates(self, tiny_ar_model, ar_instance,
                                       generation_calls):
        c = make_named(SETTING_SPAN, ar_instance)
        faithfulness_report(tiny_ar_model, ar_instance, c,
                            {"name": "ig", "steps": 8}, 2, POLICY, n_random=0)
        assert generation_calls == []

    def test_prompt_conditioned_eval_never_touches_prefix(self, tiny_ar_model,
                                                          ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance,
                       len(ar_instance.generation))
        order = list(c.eligible)
        contexts = perturb_sets(tiny_ar_model, ar_instance, c,
                                [order[:k] for k in range(len(order) + 1)],
                                POLICY)
        assert all(ctx.instance.generation == ar_instance.generation
                   for ctx in contexts)


class TestReport:
    def test_token_report_structure(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        report = faithfulness_report(tiny_ar_model, ar_instance, c,
                                     {"name": "ig", "steps": 8}, K=2,
                                     policy=POLICY, n_random=3, seed=1)
        assert report.K == 2
        assert len(report.random_deletions) == 3
        assert len(report.random_deletion_aopcs) == 3
        assert report.deletion.mode == DELETE
        assert report.insertion.mode == INSERT
        assert report.stage_entries == ()

    def test_stage_report(self, diffusion_model, diff_instance):
        c = make_named(SETTING_STAGE, diff_instance)
        report = faithfulness_report(diffusion_model, diff_instance, c,
                                     {"name": "stage", "kind": "ablate"},
                                     K=None, policy=POLICY, n_random=2,
                                     seed=0)
        assert report.deletion is None
        assert len(report.stage_entries) == diff_instance.trajectory.num_steps

    def test_report_deterministic(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        a = faithfulness_report(tiny_ar_model, ar_instance, c,
                                {"name": "ig", "steps": 4}, K=2,
                                policy=POLICY, n_random=2, seed=5)
        b = faithfulness_report(tiny_ar_model, ar_instance, c,
                                {"name": "ig", "steps": 4}, K=2,
                                policy=POLICY, n_random=2, seed=5)
        assert a == b


def sequential_report(params, instance, contract, method, K, policy,
                      n_random, seed):
    """The report built point by point: one perturbation and one score per
    curve point, with no de-duplication."""
    attr_map = compute_map(params, instance, contract, method)
    eligible = list(contract.eligible)
    orderings = [(ranked_features(attr_map), "map")]
    for i in range(n_random):
        rng = np.random.default_rng(seed * 1000 + i)
        orderings.append(([eligible[j] for j in rng.permutation(len(eligible))],
                          f"random:{seed * 1000 + i}"))
    curves = []
    for order, label in orderings:
        for mode in (DELETE, INSERT):
            values = []
            for k in range(K + 1):
                removed = order[:k]
                if mode == INSERT:
                    removed = [ref for ref in eligible if ref not in order[:k]]
                ctx = perturb_sets(params, instance, contract, [removed],
                                   policy)[0]
                values.append(scores(params, [(contract, ctx.instance,
                                               ctx.conditioning)])[0])
            curves.append(FaithfulnessCurve(k_values=tuple(range(K + 1)),
                                            scores=tuple(values),
                                            ordering=label, mode=mode))
    dele, inse, *randoms = curves
    return FaithfulnessReport(
        contract_id=attr_map.contract_id, method=attr_map.method, K=K,
        policy_mode_pair=(policy.replacement.kind, policy.rescoring),
        deletion=dele, insertion=inse,
        random_deletions=tuple(randoms[0::2]),
        random_insertions=tuple(randoms[1::2]),
        deletion_aopc=aopc(dele), insertion_aopc=aopc(inse),
        random_deletion_aopcs=tuple(aopc(c) for c in randoms[0::2]),
        seed=seed)


@st.composite
def report_cases(draw, ar_params, diff_params):
    """(params, instance, contract, method, K, policy, n_random, seed) over
    the AR settings and diffusion state-level and prompt-to-output, rescored
    and regenerated."""
    setting, rescoring = draw(st.sampled_from([
        (SETTING_LOCAL, None), (SETTING_PROMPT_COND, None),
        (SETTING_SPAN, None), (SETTING_STATE, None), (SETTING_P2O, None),
        (SETTING_P2O, REGENERATE)]))
    diffusion = setting in (SETTING_STATE, SETTING_P2O)
    params = diff_params if diffusion else ar_params
    tokens = st.integers(0, params.hyper.vocab_size - 1)
    prompt = tuple(draw(st.lists(tokens, min_size=1, max_size=5)))
    seed = draw(st.integers(0, 3))
    t = None
    if diffusion:
        num_steps = draw(st.integers(1, 3))
        traj = diffusion_generate(params, prompt,
                                  draw(st.integers(num_steps, 4)), num_steps,
                                  seed)
        instance = PromptedInstance(prompt=prompt, seed=seed, trajectory=traj)
        if setting == SETTING_STATE:
            t = draw(st.integers(1, num_steps))
    else:
        gen = tuple(draw(st.lists(tokens, min_size=1, max_size=4)))
        instance = PromptedInstance(prompt=prompt, seed=seed, generation=gen)
        if setting != SETTING_SPAN:
            t = len(gen) - draw(st.integers(0, len(gen) - 1))
    contract = make_named(setting, instance, t)
    replacement = draw(st.sampled_from([PAD_BASELINE, MASK_BASELINE]))
    policy = PerturbationPolicy(replacement=replacement,
                                rescoring=rescoring or evaluation.RESCORE)
    method = draw(st.sampled_from([{"name": "occlusion"},
                                   {"name": "grad_x_input"}]))
    K = draw(st.integers(1, len(contract.eligible)))
    return (params, instance, contract, method, K, policy,
            draw(st.integers(0, 4)), draw(st.integers(0, 3)))


class TestBatchedReport:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_sequential_reference(self, tiny_ar_model, diffusion_model,
                                         data):
        case = data.draw(report_cases(tiny_ar_model, diffusion_model))
        params, instance, contract, method, K, policy, n_random, seed = case
        report = faithfulness_report(params, instance, contract, method, K,
                                     policy, n_random=n_random, seed=seed)
        assert report == sequential_report(*case)

    @pytest.mark.parametrize("setting, rescoring", [
        (SETTING_PROMPT_COND, evaluation.RESCORE),
        (SETTING_STATE, evaluation.RESCORE), (SETTING_P2O, REGENERATE)])
    def test_one_perturbation_and_score_per_distinct_feature_set(
            self, tiny_ar_model, ar_instance, diffusion_model, diff_instance,
            setting, rescoring):
        params, instance = ((diffusion_model, diff_instance)
                            if setting in (SETTING_STATE, SETTING_P2O)
                            else (tiny_ar_model, ar_instance))
        contract = make_named(setting, instance,
                              1 if setting != SETTING_P2O else None)
        policy = PerturbationPolicy(rescoring=rescoring)
        K, n_random = min(3, len(contract.eligible)), 10
        perturbed, scored = [], []

        def perturb_sets(params, instance, contract, feature_sets, policy):
            feature_sets = list(feature_sets)
            perturbed.append(feature_sets)
            return perturb_sets_(params, instance, contract, feature_sets,
                                 policy)

        def scores(params, cases):
            cases = list(cases)
            scored.append(cases)
            return scores_(params, cases)

        perturb_sets_, scores_ = evaluation.perturb_sets, evaluation.scores
        with mock.patch.object(evaluation, "perturb_sets", perturb_sets), \
                mock.patch.object(evaluation, "scores", scores):
            report = faithfulness_report(params, instance, contract,
                                         {"name": "occlusion"}, K, policy,
                                         n_random=n_random, seed=0)
        curves = (report.deletion, report.insertion,
                  *report.random_deletions, *report.random_insertions)
        assert sum(len(c.scores) for c in curves) == 2 * (K + 1) * (1 + n_random)
        # every curve point's feature set, as the sequential loop builds it
        eligible = list(contract.eligible)
        orders = [ranked_features(compute_map(params, instance, contract,
                                              {"name": "occlusion"}))]
        for i in range(n_random):
            rng = np.random.default_rng(i)
            orders.append([eligible[j] for j in rng.permutation(len(eligible))])
        points = {frozenset(order[:k]) for order in orders
                  for k in range(K + 1)}
        points |= {frozenset(eligible) - frozenset(order[:k])
                   for order in orders for k in range(K + 1)}
        assert len(perturbed) == 1 and len(scored) == 1
        assert len(scored[0]) == len(perturbed[0])
        assert sorted(map(frozenset, perturbed[0]), key=sorted) == \
            sorted(points, key=sorted)


def replay_to_state(params, prompts, traj, t, substitutions):
    """Re-run the chain from z_T down to z_t with the original slot schedule,
    once per (prompt, substitutions) pair; substituted commitments are
    forced, the rest re-predicted greedily. Each result's state z_t is the
    replayed one; its later commits are the original chain's. The
    stage-by-stage reference for state-level conditioning chains."""
    n = len(prompts[0])
    mask_id = params.vocab.mask
    replays = [[mask_id] * traj.response_len for _ in prompts]
    for u in range(traj.num_steps, t, -1):
        stage_slots = [s for s in range(traj.response_len)
                       if traj.commit_steps[s] == u]
        if not stage_slots:
            continue
        rows_per_replay = masked_log_probs(
            params, [list(prompt) + slots for prompt, slots in zip(prompts, replays)],
            range(n + traj.response_len))
        for rows, slots, subs in zip(rows_per_replay, replays, substitutions):
            for s in stage_slots:
                forced = subs.get((u, s))
                slots[s] = forced if forced is not None else int(np.argmax(rows[n + s]))
    return [replace(traj, commit_tokens=tuple(
        slot if u > t else tok
        for slot, tok, u in zip(slots, traj.commit_tokens, traj.commit_steps)))
        for slots in replays]


class TestStateReplay:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_conditioning_equals_replay_reference(self, diffusion_model,
                                                  data):
        params = diffusion_model
        tokens = st.integers(0, params.hyper.vocab_size - 1)
        prompt = tuple(data.draw(st.lists(tokens, min_size=1, max_size=5)))
        seed = data.draw(st.integers(0, 3))
        num_steps = data.draw(st.integers(1, 4))
        traj = diffusion_generate(params, prompt,
                                  data.draw(st.integers(num_steps, 5)),
                                  num_steps, seed)
        instance = PromptedInstance(prompt=prompt, seed=seed, trajectory=traj)
        t = data.draw(st.integers(1, num_steps))
        contract = make_named(SETTING_STATE, instance, t)
        policy = PerturbationPolicy(replacement=data.draw(
            st.sampled_from([PAD_BASELINE, MASK_BASELINE])))
        feature_sets = data.draw(st.lists(
            st.lists(st.sampled_from(contract.eligible), unique=True),
            min_size=1, max_size=4))
        contexts = perturb_sets(params, instance, contract, feature_sets,
                                policy)

        rep_tok = policy.replacement.token_id(params)
        prompts = [tuple(rep_tok if FeatureRef(PROMPT_TOKEN, j) in features
                         else tok for j, tok in enumerate(prompt))
                   for features in feature_sets]
        subs = [{(ref.index, ref.slot): rep_tok for ref in features
                 if ref.kind == STATE_COMMITMENT} for features in feature_sets]
        assert [ctx.conditioning for ctx in contexts] == \
            replay_to_state(params, prompts, traj, t, subs)


def counted_points(points):
    """Patches transformer's ``evaluate`` to append the number of points of
    each pass run_groups makes to ``points``."""
    original = transformer.evaluate

    def counting(graph, vals):
        points.append(len(vals["emb"]) if vals["emb"].ndim == 3 else 1)
        return original(graph, vals)

    return mock.patch.object(transformer, "evaluate", counting)


class TestServedTables:
    """A stage term over a state a chain ran a pass over reads that pass's
    log-prob table, and an input met earlier in one run_groups call reads
    the table of its first pass: neither runs a pass, and each equals a
    fresh pass bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_served_scores_equal_fresh_passes(self, diffusion_model, data):
        params = diffusion_model
        mask_id = params.vocab.mask
        tokens = st.integers(0, params.hyper.vocab_size - 1)
        prompt = tuple(data.draw(st.lists(tokens, min_size=1, max_size=5)))
        seed = data.draw(st.integers(0, 3))
        num_steps = data.draw(st.integers(1, 3))
        traj = diffusion_generate(params, prompt,
                                  data.draw(st.integers(num_steps, 4)),
                                  num_steps, seed)
        instance = PromptedInstance(prompt=prompt, seed=seed, trajectory=traj)
        # every kind of chain whose states stage terms read: the
        # generation, regenerated chains, stage re-runs of each kind and
        # state-level replays
        p2o = make_named(SETTING_P2O, instance)
        state = make_named(SETTING_STATE, instance,
                           data.draw(st.integers(1, num_steps)))
        contexts = []
        for contract, policy in ((p2o, PerturbationPolicy(rescoring=REGENERATE)),
                                 (state, POLICY)):
            feature_sets = data.draw(st.lists(
                st.lists(st.sampled_from(contract.eligible), unique=True),
                min_size=1, max_size=3))
            contexts += perturb_sets(params, instance, contract, feature_sets,
                                     policy)
        plan = traj.commit_plan()
        chains = []
        for kind in PERT_KINDS:
            for u in plan:
                pert = StagePerturbation(
                    u, kind, commit_count=data.draw(st.integers(0, plan[u] + 1)),
                    temperature=0.8)
                try:
                    new_plan = perturbed_plan(plan, pert, traj.response_len)
                except InfeasiblePerturbationError:
                    continue
                chains.append(ChainSpec(prompt, new_plan, substitute=pert
                                        if kind == SUBSTITUTE_STEP else None))
        reruns = run_chains(params, chains, traj.response_len, traj.seed)
        cases = ([(prompt, traj)]
                 + [(ctx.instance.prompt, ctx.conditioning) for ctx in contexts]
                 + [(prompt, rerun) for rerun in reruns])
        terms, fresh = [], []  # fresh: over chains without tables
        for p, conditioning in cases:
            bare = replace(conditioning, tables={})
            for schedule in (traj, conditioning):
                terms += stage_terms(p, schedule, conditioning, mask_id).values()
                fresh += stage_terms(p, schedule, bare, mask_id).values()
        assert terms == fresh  # tables take no part in equality
        kept = {term.tokens for term in terms
                if table_key(params, term) in term.tables}
        assert kept  # the generation's own stage terms at least
        for read in ("score", "log_probs"):
            points = []
            with counted_points(points):
                served = run_groups(params, [(term, {}) for term in terms],
                                    read)
            # one pass point per distinct input no chain kept a table of
            assert sum(points) == len({term.tokens for term in terms} - kept)
            for value, term in zip(served, fresh):
                assert np.array_equal(value, run_groups(
                    params, [(term, {})], read)[0])

    def test_another_models_chain_serves_no_table(self, diffusion_model,
                                                  diff_instance):
        other = init_params(diffusion_model.hyper, diffusion_model.vocab,
                            seed=11)
        prompt, traj = diff_instance.prompt, diff_instance.trajectory
        terms = stage_terms(prompt, traj, traj, other.vocab.mask).values()
        points = []
        with counted_points(points):
            served = teacher_forced_score(other, prompt, traj, traj)
        assert sum(points) == len(terms)
        assert served == teacher_forced_score(
            other, prompt, traj, replace(traj, tables={}))

    def test_rescored_context_with_perturbed_prompt_runs_its_pass(
            self, diffusion_model, diff_instance):
        contract = make_named(SETTING_P2O, diff_instance)
        contexts = perturb_sets(diffusion_model, diff_instance, contract,
                                [[], contract.eligible[:1]], POLICY)
        traj = diff_instance.trajectory
        stages = len(stage_terms(diff_instance.prompt, traj, traj,
                                 diffusion_model.vocab.mask))
        points = []
        with counted_points(points):
            actual, perturbed = scores(diffusion_model, [
                (contract, ctx.instance, ctx.conditioning) for ctx in contexts])
        # the unperturbed context reads its chain's tables
        assert sum(points) == stages
        assert [actual, perturbed] == scores(diffusion_model, [
            (contract, ctx.instance, replace(ctx.conditioning, tables={}))
            for ctx in contexts])

    def test_table_of_another_attention_mode_serves_no_term(self):
        """A causal term over the tokens of a bidirectional chain step, with
        the same rows, runs its own pass: tables are keyed by graph."""
        corpus = make_syn_corpus(4, [1, 2], 50, seed=3)
        hp = Hyperparams(kind=DIFFUSION, vocab_size=len(corpus.vocab),
                         layers=1, heads=2, width=16, mlp_hidden=32,
                         context_len=32)
        params = init_params(hp, corpus.vocab, seed=0)
        prompt, target = corpus.train_pairs[0]
        traj = diffusion_generate(params, prompt, len(target), 2, seed=0)
        n = len(prompt)
        term = ScoreTerm(tuple(prompt) + (params.vocab.mask,) * len(target),
                         causal=True, targets=((n, target[0]),),
                         rows=tuple(range(n, n + len(target))),
                         tables=traj.tables)
        points = []
        with counted_points(points):
            served = terms_score(params, [term])
        assert sum(points) == 1
        assert served == terms_score(params, [replace(term, tables=None)])
