"""Attribution-method tests: completeness, occlusion oracle, contract
separation, stage perturbations, map hygiene, and batched IG and occlusion
and lockstep stage re-runs against sequential loops."""
import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attrscope.attribution as attribution_mod
from attrscope.autodiff import evaluate, grad
from attrscope.attribution import (
    AttributionMap, BaselinePolicy, PAD_BASELINE, StageScoreError,
    baseline_endpoint_score, bind_score, grad_times_input,
    integrated_gradients, occlusion, prefix_mass, score, scores,
    stage_attribution,
)
from attrscope.contract import (
    FeatureRef, PREFIX_TOKEN, PROMPT_TOKEN, SETTING_CLASSIFIER, SETTING_LOCAL,
    SETTING_P2O, SETTING_PROMPT_COND, SETTING_SPAN, SETTING_STAGE,
    SETTING_STATE, ContractError, canonical_id, instance_shape, make_named,
    validate,
)
from attrscope.models import (
    GreedyPolicy, InfeasiblePerturbationError, PromptedInstance,
    StagePerturbation, ar_generate, diffusion_generate, instance_digest,
    teacher_forced_score, trajectory_score,
)
from attrscope.models import transformer
from attrscope.models.diffusion import (
    ChainSpec, perturbed_plan, run_chains,
)
from attrscope.models.transformer import (
    POINTS_PER_PASS, ROWS_PER_PASS, _graph_key, build_forward_graph,
    run_groups, score_sums, table_key,
)
from conftest import bind_pass

MASK_BASELINE = BaselinePolicy("mask_token")
ZERO_BASELINE = BaselinePolicy("zero_embedding")

@pytest.fixture(scope="module")
def ar_instance(tiny_ar_model, tiny_corpus):
    prompt = tiny_corpus.heldout_pairs[0][0]
    gen = tuple(ar_generate(tiny_ar_model, prompt, 6, GreedyPolicy(), seed=0))
    return PromptedInstance(prompt=prompt, seed=0, generation=gen)


@pytest.fixture(scope="module")
def diff_instance(diffusion_model, tiny_corpus):
    prompt = tiny_corpus.heldout_pairs[1][0]
    traj = diffusion_generate(diffusion_model, prompt, 4, 3, seed=0)
    return PromptedInstance(prompt=prompt, seed=0, trajectory=traj)


def completeness_error(params, instance, contract, steps, baseline=PAD_BASELINE):
    attr_map = integrated_gradients(params, instance, contract,
                                    baseline=baseline, steps=steps)
    total = sum(s for _, s in attr_map.entries)
    actual = score(contract, params, instance)
    at_baseline = baseline_endpoint_score(params, instance, contract, baseline)
    delta = actual - at_baseline
    return abs(total - delta), abs(delta)


class TestIntegratedGradients:
    def test_completeness_local(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_LOCAL, ar_instance, len(ar_instance.generation))
        err, mag = completeness_error(tiny_ar_model, ar_instance, c, 128)
        assert err <= 1e-3 * (1 + mag)

    def test_completeness_span(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_SPAN, ar_instance)
        err, mag = completeness_error(tiny_ar_model, ar_instance, c, 128)
        assert err <= 1e-3 * (1 + mag)

    def test_completeness_state(self, diffusion_model, diff_instance):
        c = make_named(SETTING_STATE, diff_instance,
                       diff_instance.trajectory.num_steps)
        err, mag = completeness_error(diffusion_model, diff_instance, c, 128)
        assert err <= 1e-3 * (1 + mag)

    def test_completeness_prompt_to_output(self, diffusion_model,
                                           diff_instance):
        c = make_named(SETTING_P2O, diff_instance)
        err, mag = completeness_error(diffusion_model, diff_instance, c, 64)
        assert err <= 1e-3 * (1 + mag)

    def test_riemann_sum_converges(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        coarse, _ = completeness_error(tiny_ar_model, ar_instance, c, 2)
        fine, _ = completeness_error(tiny_ar_model, ar_instance, c, 128)
        assert fine <= coarse + 1e-12

    def test_residual_shrinks_at_second_order(self, tiny_ar_model,
                                              ar_instance):
        """IG's path integral is a midpoint sum, whose error falls as
        1/steps**2: each doubling of the steps divides the signed
        completeness residual by about 4, not 2. This is why a fixed
        step count can miss a fixed tolerance on a model whose score
        curves harder along the path, with no fault in the map."""
        c = make_named(SETTING_SPAN, ar_instance)
        delta = (score(c, tiny_ar_model, ar_instance)
                 - baseline_endpoint_score(tiny_ar_model, ar_instance, c,
                                           PAD_BASELINE))
        residuals = []
        for steps in (16, 32, 64, 128):
            attr_map = integrated_gradients(tiny_ar_model, ar_instance, c,
                                            steps=steps)
            residuals.append(sum(s for _, s in attr_map.entries) - delta)
        for coarse, fine in zip(residuals, residuals[1:]):
            assert abs(fine) > 1e-9  # far above rounding
            assert 3.6 <= coarse / fine <= 4.4

    def test_entries_cover_exactly_the_eligible_set(self, tiny_ar_model,
                                                    ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        attr_map = integrated_gradients(tiny_ar_model, ar_instance, c, steps=4)
        assert tuple(r for r, _ in attr_map.entries) == c.eligible

    def test_purity_and_determinism(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_LOCAL, ar_instance, 1)
        before = (ar_instance.prompt, ar_instance.generation)
        a = integrated_gradients(tiny_ar_model, ar_instance, c, steps=8)
        b = integrated_gradients(tiny_ar_model, ar_instance, c, steps=8)
        assert a == b
        assert (ar_instance.prompt, ar_instance.generation) == before

    def test_baseline_choice_changes_map(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        pad = integrated_gradients(tiny_ar_model, ar_instance, c,
                                   baseline=PAD_BASELINE, steps=16)
        mask = integrated_gradients(tiny_ar_model, ar_instance, c,
                                    baseline=MASK_BASELINE, steps=16)
        assert pad.entries != mask.entries
        assert dict(pad.method)["baseline"] != dict(mask.method)["baseline"]

    def test_map_carries_contract_identity(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_LOCAL, ar_instance, 1)
        attr_map = integrated_gradients(tiny_ar_model, ar_instance, c, steps=4)
        assert attr_map.contract_id == canonical_id(c).digest
        assert attr_map.model_id == tiny_ar_model.model_id


class TestOcclusion:
    def test_matches_manual_replace_and_rescore(self, tiny_ar_model,
                                                ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        attr_map = occlusion(tiny_ar_model, ar_instance, c,
                             baseline=PAD_BASELINE)
        base = score(c, tiny_ar_model, ar_instance)
        pad = tiny_ar_model.vocab.pad
        for ref, s in attr_map.entries:
            assert ref.kind == PROMPT_TOKEN
            prompt = list(ar_instance.prompt)
            prompt[ref.index] = pad
            changed = PromptedInstance(prompt=tuple(prompt), seed=0,
                                       generation=ar_instance.generation)
            assert abs(s - (base - score(c, tiny_ar_model, changed))) < 1e-10

    def test_zero_embedding_rejected(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_PROMPT_COND, ar_instance, 1)
        with pytest.raises(ValueError):
            occlusion(tiny_ar_model, ar_instance, c, baseline=ZERO_BASELINE)


class TestGradTimesInput:
    def test_finite_and_aligned(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_LOCAL, ar_instance, 1)
        attr_map = grad_times_input(tiny_ar_model, ar_instance, c)
        assert tuple(r for r, _ in attr_map.entries) == c.eligible
        assert all(math.isfinite(s) for _, s in attr_map.entries)


class TestContractSeparation:
    def test_prompt_conditioned_never_scores_prefix(self, tiny_ar_model,
                                                    ar_instance):
        t = len(ar_instance.generation)
        c = make_named(SETTING_PROMPT_COND, ar_instance, t)
        attr_map = integrated_gradients(tiny_ar_model, ar_instance, c, steps=8)
        assert all(r.kind == PROMPT_TOKEN for r, _ in attr_map.entries)
        assert prefix_mass(attr_map) == 0.0

    def test_local_map_scores_prefix(self, tiny_ar_model, ar_instance):
        t = len(ar_instance.generation)
        c = make_named(SETTING_LOCAL, ar_instance, t)
        attr_map = integrated_gradients(tiny_ar_model, ar_instance, c,
                                        steps=16)
        kinds = {r.kind for r, _ in attr_map.entries}
        assert PREFIX_TOKEN in kinds
        assert prefix_mass(attr_map) > 0.0

    def test_same_method_different_contract_ids(self, tiny_ar_model,
                                                ar_instance):
        t = len(ar_instance.generation)
        local = integrated_gradients(
            tiny_ar_model, ar_instance,
            make_named(SETTING_LOCAL, ar_instance, t), steps=4)
        cond = integrated_gradients(
            tiny_ar_model, ar_instance,
            make_named(SETTING_PROMPT_COND, ar_instance, t), steps=4)
        assert local.contract_id != cond.contract_id


class TestStageAttribution:
    def test_identity_noise_schedule_is_all_zero(self, diffusion_model,
                                                 diff_instance):
        c = make_named(SETTING_STAGE, diff_instance)
        attr_map = stage_attribution(diffusion_model, diff_instance, c,
                                     pert_kind="noise_schedule")
        assert all(s == 0.0 for _, s in attr_map.entries)

    def test_single_stage_ablation_infeasible(self, diffusion_model,
                                              tiny_corpus):
        prompt = tiny_corpus.heldout_pairs[0][0]
        traj = diffusion_generate(diffusion_model, prompt, 3, 1, seed=0)
        inst = PromptedInstance(prompt=prompt, seed=0, trajectory=traj)
        c = make_named(SETTING_STAGE, inst)
        attr_map = stage_attribution(diffusion_model, inst, c,
                                     pert_kind="ablate")
        assert [s for _, s in attr_map.entries] == [None]

    def test_token_methods_reject_stage_contracts(self, diffusion_model,
                                                  diff_instance):
        c = make_named(SETTING_STAGE, diff_instance)
        with pytest.raises(StageScoreError):
            integrated_gradients(diffusion_model, diff_instance, c, steps=2)

    def test_prefix_mass_undefined_for_stage_maps(self, diffusion_model,
                                                  diff_instance):
        c = make_named(SETTING_STAGE, diff_instance)
        attr_map = stage_attribution(diffusion_model, diff_instance, c,
                                     pert_kind="noise_schedule")
        with pytest.raises(ValueError):
            prefix_mass(attr_map)


class TestMapHygiene:
    def test_non_finite_scores_rejected(self, tiny_ar_model, ar_instance):
        c = make_named(SETTING_LOCAL, ar_instance, 1)
        good = integrated_gradients(tiny_ar_model, ar_instance, c, steps=2)
        bad_entries = ((good.entries[0][0], float("nan")),) + good.entries[1:]
        with pytest.raises(ValueError):
            AttributionMap(entries=bad_entries, contract_id=good.contract_id,
                           method=good.method, model_id=good.model_id,
                           instance_digest=good.instance_digest, seed=0)

    def test_every_method_labels_its_map(self, tiny_ar_model, ar_instance,
                                         diffusion_model, diff_instance):
        """Each method's map names its contract, model, instance and seed,
        and describes its method as sorted (key, value) pairs."""
        local = make_named(SETTING_LOCAL, ar_instance, 1)
        stage = make_named(SETTING_STAGE, diff_instance)
        ar = (local, tiny_ar_model, ar_instance)
        cases = [
            (integrated_gradients(tiny_ar_model, ar_instance, local, steps=4),
             ar, (("baseline", "pad_token"), ("name", "ig"), ("steps", 4))),
            (grad_times_input(tiny_ar_model, ar_instance, local),
             ar, (("name", "grad_x_input"),)),
            (occlusion(tiny_ar_model, ar_instance, local, MASK_BASELINE),
             ar, (("baseline", "mask_token"), ("name", "occlusion"))),
            (stage_attribution(diffusion_model, diff_instance, stage,
                               pert_kind="noise_schedule"),
             (stage, diffusion_model, diff_instance),
             (("commit_count", None), ("kind", "noise_schedule"),
              ("name", "stage"), ("temperature", 1.0))),
        ]
        for attr_map, (contract, params, instance), method in cases:
            assert attr_map.method == method
            assert (attr_map.contract_id, attr_map.model_id,
                    attr_map.instance_digest, attr_map.seed) == \
                (canonical_id(contract).digest, params.model_id,
                 instance_digest(instance), instance.seed)

    def test_classifier_contract_works(self, classifier_model, tiny_corpus):
        inst = PromptedInstance(prompt=tiny_corpus.heldout_pairs[0][0],
                                seed=0, class_target=1)
        c = make_named("classifier", inst)
        attr_map = integrated_gradients(classifier_model, inst, c, steps=32)
        total = sum(s for _, s in attr_map.entries)
        actual = score(c, classifier_model, inst)
        at_base = baseline_endpoint_score(classifier_model, inst, c,
                                          PAD_BASELINE)
        assert abs(total - (actual - at_base)) <= 1e-3 * (1 + abs(actual - at_base))


def unbatched_grad(bs, refs, rows):
    """BoundScore.grad from one unbatched forward+backward pass per term,
    on the graph run_groups runs the term on; the rows after a causal
    graph's last read row get zero."""
    emb_grads = []
    for term, overrides in bs.with_rows(rows):
        fg, vals, mask = bind_pass(bs.params, term, overrides, pruned=True)
        g = np.zeros((len(term.tokens), bs.params.hyper.width))
        g[:len(vals["emb"])] = grad(fg.graph, fg.log_probs, vals, ("emb",),
                                    mask)[1]["emb"]
        emb_grads.append(g)
    out = {}
    for ref in refs:
        gsum = None
        for term, row in bs.feature_rows[ref]:
            gsum = (emb_grads[term][row].copy() if gsum is None
                    else gsum + emb_grads[term][row])
        out[ref] = gsum
    return out


def sequential_ig(params, instance, contract, baseline, steps):
    """IG entries from one unbatched forward+backward pass per term and
    path point, adding the gradients in k order: the reference the batched
    path loop must match."""
    bs = bind_score(params, instance, contract)
    base_vec = baseline.embedding(params)
    eligible = contract.eligible
    accum = {ref: None for ref in eligible}
    for k in range(1, steps + 1):
        alpha = (k - 0.5) / steps
        rows = {ref: base_vec + alpha * (bs.embedding(ref) - base_vec)
                for ref in eligible}
        grads = unbatched_grad(bs, eligible, rows)
        for ref in eligible:
            accum[ref] = grads[ref] if accum[ref] is None else accum[ref] + grads[ref]
    return tuple((ref, float(np.dot(bs.embedding(ref) - base_vec,
                                    accum[ref] / steps)))
                 for ref in eligible)


@contextlib.contextmanager
def recorded_passes(name):
    """Records the leaf values of every pass that run_groups makes through
    transformer's ``evaluate`` or ``grad``, each with the seed of its
    backward, or None for a forward pass."""
    original = getattr(transformer, name)
    passes = []

    def recording(graph, *args, **kwargs):
        passes.append((args[0], None) if name == "evaluate"
                      else (args[1], args[3]))
        return original(graph, *args, **kwargs)

    with mock.patch.object(transformer, name, recording):
        yield passes


def pass_points(params, vals, seed=None):
    """The emb of each point of a pass and, given the pass's ``seed``, the
    target mask that seeds the point's backward, after checking that it
    binds at most POINTS_PER_PASS points and ROWS_PER_PASS rows, each
    pass batched, shares every weight leaf with the model, and takes pos
    from its weight."""
    weights = params.weights
    emb = vals["emb"]
    assert emb.ndim == 3 and len(emb) <= POINTS_PER_PASS
    assert len(emb) == 1 or len(emb) * emb.shape[1] <= ROWS_PER_PASS
    assert vals.keys() == weights.keys()
    assert np.shares_memory(vals["pos"], weights["pos"])
    assert np.array_equal(vals["pos"], weights["pos"][:emb.shape[1]])
    for name, value in vals.items():
        if name not in ("emb", "pos"):
            assert value is weights[name], name
    if seed is None:
        return list(emb)
    assert len(seed) == len(emb)
    return list(zip(emb, seed))


@st.composite
def ig_cases(draw, models):
    """(params, instance, contract, baseline, steps) over every setting with
    a differentiable score, held-fixed prefix and span included."""
    setting = draw(st.sampled_from([SETTING_LOCAL, SETTING_PROMPT_COND,
                                    SETTING_SPAN, SETTING_STATE, SETTING_P2O,
                                    SETTING_CLASSIFIER]))
    params = models[setting]
    tokens = st.integers(0, params.hyper.vocab_size - 1)
    prompt = tuple(draw(st.lists(tokens, min_size=1, max_size=5)))
    seed = draw(st.integers(0, 3))
    t = None
    if setting == SETTING_CLASSIFIER:
        instance = PromptedInstance(
            prompt=prompt, seed=seed,
            class_target=draw(st.integers(0, params.hyper.n_classes - 1)))
    elif setting in (SETTING_STATE, SETTING_P2O):
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
            # the simplest draw is the last token: the longest held-fixed prefix
            t = len(gen) - draw(st.integers(0, len(gen) - 1))
    contract = make_named(setting, instance, t)
    baseline = draw(st.sampled_from([PAD_BASELINE, MASK_BASELINE,
                                     ZERO_BASELINE]))
    steps = draw(st.one_of(st.integers(1, 20), st.just(64)))
    return params, instance, contract, baseline, steps


class TestBatchedPathLoop:
    @pytest.fixture(scope="class")
    def models(self, tiny_ar_model, diffusion_model, classifier_model):
        return {SETTING_LOCAL: tiny_ar_model, SETTING_PROMPT_COND: tiny_ar_model,
                SETTING_SPAN: tiny_ar_model, SETTING_STATE: diffusion_model,
                SETTING_P2O: diffusion_model,
                SETTING_CLASSIFIER: classifier_model}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_sequential_loop_and_keeps_context_rows(self, models, data):
        params, instance, contract, baseline, steps = data.draw(
            ig_cases(models))
        with recorded_passes("grad") as passes:
            attr_map = integrated_gradients(params, instance, contract,
                                            baseline=baseline, steps=steps)
        assert attr_map.entries == sequential_ig(params, instance, contract,
                                                 baseline, steps)

        # every pass binds at most POINTS_PER_PASS points and the model's
        # own weights; each point has the eligible rows on the path and
        # every other row at its actual value (held-fixed features and
        # non-eligible context alike). Each batch of one pass's path points
        # packs the terms' points by graph (length, attention mode, rows
        # read), in term order.
        bs = bind_score(params, instance, contract)
        base_vec = baseline.embedding(params)
        by_graph = {}
        for i, term in enumerate(bs.terms):
            by_graph.setdefault(_graph_key(params.hyper, term), []).append(i)
        expected = []  # (term, k) of each point, in pass order
        size = transformer.pass_points(params.hyper, bs.terms)
        for first in range(1, steps + 1, size):
            ks = range(first, min(first + size, steps + 1))
            expected += [(i, k) for members in by_graph.values()
                         for i in members for k in ks]
        points = []  # (emb, target mask) of each point, in pass order
        for vals, seed in passes:
            points += pass_points(params, vals, seed)
        assert len(points) == len(expected)
        for (emb, mask), (i, k) in zip(points, expected):
            term = bs.terms[i]
            _, actual, actual_mask = bind_pass(params, term, pruned=True)
            path = actual["emb"].copy()
            for ref in contract.eligible:
                for ref_term, row in bs.feature_rows[ref]:
                    if ref_term == i and row < len(path):
                        x = bs.embedding(ref)
                        path[row] = base_vec + (k - 0.5) / steps * (x - base_vec)
            assert np.array_equal(emb, path)
            assert np.array_equal(mask, actual_mask)


class TestCompletenessProperty:
    """IG completeness over generated instances, for every setting with a
    differentiable score (a stage contract has none: IG refuses it) and
    both token baselines: the map sums to S(actual) - S(baseline endpoint)
    within the bound the hand-picked completeness tests use at the same
    step counts."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_map_sums_to_the_score_difference(self, data, tiny_ar_model,
                                              diffusion_model,
                                              classifier_model):
        models = {SETTING_LOCAL: tiny_ar_model,
                  SETTING_PROMPT_COND: tiny_ar_model,
                  SETTING_SPAN: tiny_ar_model, SETTING_STATE: diffusion_model,
                  SETTING_P2O: diffusion_model,
                  SETTING_CLASSIFIER: classifier_model}
        params, instance, contract, _, _ = data.draw(ig_cases(models))
        baseline = data.draw(st.sampled_from([PAD_BASELINE, MASK_BASELINE]))
        steps = data.draw(st.sampled_from([64, 128]))
        err, mag = completeness_error(params, instance, contract, steps,
                                      baseline)
        assert err <= 1e-3 * (1 + mag)


def unbatched_value(bs, rows):
    """A BoundScore's value with ``rows`` replaced, from one unbatched pass
    per term on the graph run_groups runs the term on."""
    total = 0.0
    for term, overrides in bs.with_rows(rows):
        fg, vals, mask = bind_pass(bs.params, term, overrides, pruned=True)
        total += float((evaluate(fg.graph, vals)[fg.log_probs] * mask).sum())
    return total


class TestBatchedOcclusion:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_sequential_loop(self, data, tiny_ar_model,
                                    diffusion_model, classifier_model):
        models = {SETTING_LOCAL: tiny_ar_model,
                  SETTING_PROMPT_COND: tiny_ar_model,
                  SETTING_SPAN: tiny_ar_model, SETTING_STATE: diffusion_model,
                  SETTING_P2O: diffusion_model,
                  SETTING_CLASSIFIER: classifier_model}
        params, instance, contract, _, _ = data.draw(ig_cases(models))
        baseline = data.draw(st.sampled_from([PAD_BASELINE, MASK_BASELINE]))
        with recorded_passes("evaluate") as passes:
            attr_map = occlusion(params, instance, contract, baseline=baseline)
        bs = bind_score(params, instance, contract)
        base_vec = baseline.embedding(params)
        s_actual = unbatched_value(bs, {})
        assert attr_map.entries == tuple(
            (ref, s_actual - unbatched_value(bs, {ref: base_vec}))
            for ref in contract.eligible)
        # one point per distinct input among the actual score's terms and
        # each deletion's, where the feature's rows hold the baseline
        # token: a call outside an op reads no table an earlier pass kept
        token = baseline.token_id(params)
        inputs = set()
        for ref in [None, *contract.eligible]:
            rows = dict(bs.feature_rows[ref]) if ref else {}
            for i, term in enumerate(bs.terms):
                tokens = list(term.tokens)
                if i in rows:
                    tokens[rows[i]] = token
                inputs.add(table_key(params, replace(term, tokens=tuple(tokens))))
        assert sum(len(pass_points(params, vals)) for vals, _ in passes) \
            == len(inputs)


def sequential_stage_entries(params, instance, contract, pert_kind,
                             commit_count, temperature):
    """Stage entries from one perturbed chain and one teacher-forced score
    per stage: the reference the lockstep re-runs must match."""
    prompt, traj = instance.prompt, instance.trajectory
    base = trajectory_score(params, prompt, traj)
    plan = traj.commit_plan()
    entries = []
    for ref in contract.eligible:
        count = (plan[ref.index] if pert_kind == "noise_schedule"
                 and commit_count is None else commit_count)
        pert = StagePerturbation(ref.index, pert_kind, commit_count=count,
                                 temperature=temperature)
        try:
            new_plan = perturbed_plan(plan, pert, traj.response_len)
        except InfeasiblePerturbationError:
            entries.append((ref, None))
            continue
        chain = ChainSpec(prompt, new_plan, substitute=pert
                          if pert_kind == "substitute_step" else None)
        new = run_chains(params, [chain], traj.response_len, traj.seed)[0]
        entries.append((ref, base - teacher_forced_score(params, prompt, traj,
                                                         new)))
    return tuple(entries)


class TestLockstepStageReruns:
    @pytest.mark.parametrize("pert_kind, commit_count, temperature", [
        ("ablate", None, 1.0), ("noise_schedule", None, 1.0),
        ("noise_schedule", 0, 1.0), ("noise_schedule", 2, 1.0),
        ("substitute_step", None, 0.7), ("substitute_step", None, 1.5)])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_per_stage_reference(self, diffusion_model, pert_kind,
                                        commit_count, temperature, data):
        tokens = st.integers(0, diffusion_model.hyper.vocab_size - 1)
        prompt = tuple(data.draw(st.lists(tokens, min_size=1, max_size=5)))
        seed = data.draw(st.integers(0, 3))
        num_steps = data.draw(st.integers(1, 4))
        traj = diffusion_generate(diffusion_model, prompt,
                                  data.draw(st.integers(num_steps, 5)),
                                  num_steps, seed)
        instance = PromptedInstance(prompt=prompt, seed=seed, trajectory=traj)
        contract = make_named(SETTING_STAGE, instance)
        attr_map = stage_attribution(diffusion_model, instance, contract,
                                     pert_kind=pert_kind,
                                     commit_count=commit_count,
                                     temperature=temperature)
        assert attr_map.entries == sequential_stage_entries(
            diffusion_model, instance, contract, pert_kind, commit_count,
            temperature)


class TestPrunedGraphs:
    """A pass group runs on a graph that computes only the log-prob rows
    its term reads (its target rows and, for a diffusion stage term, every
    response slot), and a causal one stops at the last of them. Under
    every setting that binds a score, its scores, the log-prob rows it
    reads and its embedding gradients equal one unbatched pass over the
    full graph within 1e-12, and the rows it stopped before get exactly
    zero gradient."""

    @staticmethod
    def instances(setting, params, tiny_corpus):
        """(instance, contract) pairs with prompts and outputs of several
        lengths, every target t of the token settings among them."""
        out = []
        for i, (prompt, _) in enumerate(tiny_corpus.heldout_pairs[:3]):
            prompt = prompt[:1 + 2 * i]  # prompts of 1, 3 and 5 tokens
            if setting in (SETTING_STATE, SETTING_P2O):
                traj = diffusion_generate(params, prompt, 2 + i, 1 + i, seed=i)
                instance = PromptedInstance(prompt=prompt, seed=i,
                                            trajectory=traj)
                ts = range(1, traj.num_steps + 1) if setting == SETTING_STATE \
                    else [None]
            else:
                gen = tuple(ar_generate(params, prompt, 2 + i, GreedyPolicy(),
                                        seed=i))
                instance = PromptedInstance(prompt=prompt, seed=i,
                                            generation=gen)
                ts = [None] if setting == SETTING_SPAN \
                    else range(1, len(gen) + 1)
            out += [(instance, make_named(setting, instance, t)) for t in ts]
        return out

    @pytest.mark.parametrize("setting", [SETTING_LOCAL, SETTING_PROMPT_COND,
                                         SETTING_SPAN, SETTING_STATE,
                                         SETTING_P2O])
    def test_equals_the_full_graph(self, setting, tiny_ar_model,
                                   diffusion_model, tiny_corpus):
        params = (diffusion_model if setting in (SETTING_STATE, SETTING_P2O)
                  else tiny_ar_model)
        hp, d = params.hyper, params.hyper.width
        rng = np.random.default_rng(7)
        pruned = 0
        for instance, contract in self.instances(setting, params, tiny_corpus):
            for term in bind_score(params, instance, contract).terms:
                read = sorted({row for row, _ in term.targets}.union(term.rows))
                if not term.causal:
                    n = len(instance.prompt)
                    assert read == list(range(n, len(term.tokens)))
                length = read[-1] + 1 if term.causal else len(term.tokens)
                fg = build_forward_graph(hp, *_graph_key(hp, term))
                assert list(fg.rows) == read
                pruned += len(fg.rows) < len(term.tokens)
                rows = rng.choice(len(term.tokens), replace=False,
                                  size=min(2, len(term.tokens)))
                for shape in (None, (d,), (3, d)):
                    overrides = {} if shape is None else {
                        int(row): rng.standard_normal(shape) for row in rows}
                    self.check(params, term, overrides, read, length)
        assert pruned  # the settings' terms do run on pruned graphs

    @staticmethod
    def check(params, term, overrides, read, length):
        groups = [(term, overrides)]
        log_probs, = run_groups(params, groups, "log_probs")
        emb_grad, = run_groups(params, groups, "emb_grad")
        batch = {len(v) for v in overrides.values() if v.ndim == 2}
        if batch:  # one value per point, stacked
            points = [{row: v[k] for row, v in overrides.items()}
                      for k in range(batch.pop())]
        else:
            points = [overrides]
            log_probs, emb_grad = log_probs[None], emb_grad[None]
        assert len(log_probs) == len(emb_grad) == len(points)
        # a score reads (d,) overrides: one group per point
        scores = score_sums(params, [[(term, point)] for point in points])
        for k, point in enumerate(points):
            fg, vals, mask = bind_pass(params, term, point)
            full = evaluate(fg.graph, vals)
            assert abs(scores[k] - (full[fg.log_probs] * mask).sum()) <= 1e-12
            assert log_probs[k].shape == (len(read), params.hyper.vocab_size)
            assert np.max(np.abs(log_probs[k] - full[fg.log_probs][read])) \
                <= 1e-12
            g = grad(fg.graph, fg.log_probs, vals, ("emb",), mask)[1]["emb"]
            assert emb_grad[k].shape == g.shape
            assert np.max(np.abs(emb_grad[k] - g)) <= 1e-12
            assert not emb_grad[k][length:].any()


class TestValidateOncePerShape:
    """scores checks each (contract, instance shape) once, and raises
    exactly when, and with the message, a check of every case would."""

    @pytest.fixture(scope="class")
    def pools(self, tiny_ar_model, tiny_corpus, diffusion_model):
        instances = []
        for prompt, _ in tiny_corpus.heldout_pairs[:2]:
            gen = tuple(ar_generate(tiny_ar_model, prompt, 4, GreedyPolicy(),
                                    seed=0))
            instances.append(PromptedInstance(prompt=prompt, seed=0,
                                              generation=gen))
        traj = diffusion_generate(diffusion_model,
                                  tiny_corpus.heldout_pairs[0][0], 3, 2, seed=0)
        diffusion = PromptedInstance(prompt=tiny_corpus.heldout_pairs[0][0],
                                     seed=0, trajectory=traj)
        # each contract with the instance it was made for
        pairs = [(make_named(setting, inst, t), inst)
                 for inst in instances
                 for setting, t in ((SETTING_LOCAL, 1), (SETTING_LOCAL, 4),
                                    (SETTING_PROMPT_COND, 2),
                                    (SETTING_SPAN, None))]
        pairs.append((make_named(SETTING_STATE, diffusion, 1), diffusion))
        return pairs

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_raises_exactly_where_a_check_per_case_does(
            self, tiny_ar_model, pools, data):
        vocab = tiny_ar_model.hyper.vocab_size
        cases = []
        for _ in range(data.draw(st.integers(1, 6))):
            contract, inst = data.draw(st.sampled_from(pools))
            if data.draw(st.integers(0, 3)) == 0:  # another contract's instance
                inst = data.draw(st.sampled_from(pools))[1]
            if inst.generation is not None:
                # perturbed: tokens replaced, and at times the generation
                # cut short, which changes its shape
                gen = list(inst.generation)
                for i in data.draw(st.lists(st.integers(0, len(gen) - 1),
                                            max_size=2)):
                    gen[i] = data.draw(st.integers(0, vocab - 1))
                if data.draw(st.booleans()):
                    gen = gen[:data.draw(st.integers(1, len(gen)))]
                inst = replace(inst, generation=tuple(gen))
            cases.append((contract, inst, None))
        expected = None
        for contract, inst, _ in cases:
            try:
                attribution_mod._check(contract, tiny_ar_model, inst)
            except ContractError as exc:
                expected = str(exc)
                break
        calls = []
        with mock.patch.object(attribution_mod, "validate",
                               side_effect=lambda c, i: calls.append(1)
                               or validate(c, i)):
            try:
                scores(tiny_ar_model, cases)
                got = None
            except ContractError as exc:
                got = str(exc)
        assert got == expected
        distinct = {(id(c), instance_shape(i)) for c, i, _ in cases}
        assert len(calls) <= len(distinct)
