"""Contract-layer tests: named constructors, validation, canonical IDs,
and the feature layout that maps and heatmaps are drawn on."""
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrscope.attribution import (
    StageScoreError, _map, bind_score, map_mismatch,
)
from attrscope.contract import (
    AttributionContract, ContractError, FeatureRef, PREFIX_TOKEN,
    PROMPT_TOKEN, SETTINGS, SETTING_CLASSIFIER, SETTING_LOCAL, SETTING_P2O,
    SETTING_PROMPT_COND, SETTING_SPAN, SETTING_STAGE, SETTING_STATE, STAGE,
    STATE_COMMITMENT, TOKEN_LOG_PROB, canonical_id, features, make_named,
    validate,
)
from attrscope.heatmap import render_heatmap
from attrscope.models import (
    DenoisingTrajectory, Hyperparams, InfeasiblePerturbationError,
    PromptedInstance, StagePerturbation, init_params,
)
from attrscope.models.diffusion import ABLATE, perturbed_plan
from attrscope.models.params import AR, CLASSIFIER, DIFFUSION
from attrscope.models.vocab import make_vocab

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def random_instance(rng) -> PromptedInstance:
    n = int(rng.integers(1, 6))
    kind = rng.choice(["ar", "diffusion", "classifier"])
    prompt = tuple(int(x) for x in rng.integers(4, 12, size=n))
    if kind == "ar":
        g = int(rng.integers(1, 5))
        return PromptedInstance(prompt=prompt, seed=int(rng.integers(100)),
                                generation=tuple(int(x) for x in
                                                 rng.integers(4, 12, size=g)))
    if kind == "classifier":
        return PromptedInstance(prompt=prompt, seed=0,
                                class_target=int(rng.integers(3)))
    L = int(rng.integers(1, 5))
    T = int(rng.integers(1, L + 1))
    plan_stages = sorted(rng.choice(range(1, T + 1), size=L))
    traj = DenoisingTrajectory(
        num_steps=T,
        commit_tokens=tuple(int(x) for x in rng.integers(4, 12, size=L)),
        commit_steps=tuple(int(u) for u in plan_stages),
        seed=int(rng.integers(100)))
    return PromptedInstance(prompt=prompt, seed=traj.seed, trajectory=traj)


def settings_for(instance):
    """Every named setting of the instance's kind, at every target t."""
    if instance.kind == "classifier":
        return [(SETTING_CLASSIFIER, None)]
    if instance.kind == "autoregressive":
        g = len(instance.generation)
        return ([(SETTING_LOCAL, t) for t in range(1, g + 1)]
                + [(SETTING_PROMPT_COND, t) for t in range(1, g + 1)]
                + [(SETTING_SPAN, None)])
    T = instance.trajectory.num_steps
    return ([(SETTING_STATE, t) for t in range(1, T + 1)]
            + [(SETTING_STAGE, None), (SETTING_P2O, None)])


class TestNamedConstructors:
    def test_fifty_random_instances_validate_clean(self):
        """Every named contract a constructor produces must pass validation
        and keep eligible/fixed disjoint."""
        rng = np.random.default_rng(42)
        built = 0
        for _ in range(50):
            instance = random_instance(rng)
            for setting, t in settings_for(instance):
                c = make_named(setting, instance, t)
                assert validate(c, instance) == []
                assert not c.held_fixed.intersection(c.eligible)
                built += 1
        assert built >= 50

    def test_local_eligible_includes_prefix(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6, 7, 8))
        c = make_named(SETTING_LOCAL, inst, 3)
        kinds = {r.kind for r in c.eligible}
        assert kinds == {PROMPT_TOKEN, PREFIX_TOKEN}
        assert c.held_fixed == frozenset()

    def test_prompt_conditioned_holds_prefix_fixed(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6, 7, 8))
        c = make_named(SETTING_PROMPT_COND, inst, 3)
        assert all(r.kind == PROMPT_TOKEN for r in c.eligible)
        assert {r.index for r in c.held_fixed} == {0, 1}
        assert all(r.kind == PREFIX_TOKEN for r in c.held_fixed)

    def test_state_level_eligibility_tracks_commit_step(self):
        traj = DenoisingTrajectory(num_steps=3, commit_tokens=(7, 8, 9),
                                   commit_steps=(3, 2, 1), seed=0)
        inst = PromptedInstance(prompt=(4,), seed=0, trajectory=traj)
        c = make_named(SETTING_STATE, inst, 2)
        commits = [r for r in c.eligible if r.kind == STATE_COMMITMENT]
        # only the slot committed at stage 3 (> t=2) is visible in z_2
        assert [(r.index, r.slot) for r in commits] == [(3, 0)]

    def test_stage_setting_enumerates_stages(self):
        traj = DenoisingTrajectory(num_steps=3, commit_tokens=(7, 8, 9),
                                   commit_steps=(3, 2, 1), seed=0)
        inst = PromptedInstance(prompt=(4,), seed=0, trajectory=traj)
        c = make_named(SETTING_STAGE, inst)
        assert [r.index for r in c.eligible] == [1, 2, 3]
        assert all(r.kind == STAGE for r in c.eligible)

    def test_bad_target_rejected(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6,))
        with pytest.raises(ContractError):
            make_named(SETTING_LOCAL, inst, 5)
        with pytest.raises(ContractError):
            make_named(SETTING_LOCAL, inst, None)

    def test_setting_instance_mismatch(self):
        inst = PromptedInstance(prompt=(4,), seed=0, class_target=1)
        with pytest.raises(ContractError):
            make_named(SETTING_LOCAL, inst, 1)


class TestValidation:
    def test_overlap_is_reported(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6, 7))
        c = make_named(SETTING_PROMPT_COND, inst, 2)
        bad = AttributionContract(
            score_kind=c.score_kind, held_fixed=c.held_fixed,
            target=c.target, process=c.process,
            eligible=c.eligible + tuple(c.held_fixed))
        problems = validate(bad, inst)
        assert any("eligible/fixed overlap" in p for p in problems)

    def test_out_of_range_feature(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6,))
        c = make_named(SETTING_LOCAL, inst, 1)
        bad = AttributionContract(
            score_kind=c.score_kind, held_fixed=c.held_fixed,
            target=c.target, process=c.process,
            eligible=c.eligible + (FeatureRef(PROMPT_TOKEN, 9),))
        assert ("prompt_token[9] is not a feature of this autoregressive"
                " instance" in validate(bad, inst))

    def test_process_instance_mismatch(self):
        ar_inst = PromptedInstance(prompt=(4,), seed=0, generation=(6,))
        cls_inst = PromptedInstance(prompt=(4,), seed=0, class_target=0)
        c = make_named(SETTING_LOCAL, ar_inst, 1)
        assert validate(c, cls_inst) != []

    def test_stage_features_only_under_stage_score(self):
        traj = DenoisingTrajectory(num_steps=2,
                                   commit_tokens=(7, 8), commit_steps=(2, 1),
                                   seed=0)
        inst = PromptedInstance(prompt=(4,), seed=0, trajectory=traj)
        c = make_named(SETTING_P2O, inst)
        bad = AttributionContract(
            score_kind=c.score_kind, held_fixed=c.held_fixed,
            target=c.target, process=c.process,
            eligible=c.eligible + (FeatureRef(STAGE, 1),))
        assert any("stage" in p for p in validate(bad, inst))


class TestCanonicalID:
    def test_digest_stable_and_order_insensitive(self):
        inst = PromptedInstance(prompt=(4, 5, 6), seed=0, generation=(7,))
        a = make_named(SETTING_PROMPT_COND, inst, 1)
        b = AttributionContract(
            score_kind=a.score_kind, held_fixed=a.held_fixed,
            target=a.target, process=a.process,
            eligible=tuple(reversed(a.eligible)))
        assert canonical_id(a).digest == canonical_id(b).digest

    def test_distinct_settings_distinct_ids(self):
        inst = PromptedInstance(prompt=(4, 5), seed=0, generation=(6, 7))
        ids = {canonical_id(make_named(s, inst, t)).digest
               for s, t in [(SETTING_LOCAL, 2), (SETTING_PROMPT_COND, 2),
                            (SETTING_SPAN, None)]}
        assert len(ids) == 3

    def test_text_mentions_all_five_fields(self):
        inst = PromptedInstance(prompt=(4,), seed=0, generation=(6,))
        text = make_named(SETTING_LOCAL, inst, 1).canonical_text()
        for key in ("score:", "fixed:", "output:", "process:", "eligible:"):
            assert key in text

    def test_feature_refs_are_ordered_values(self):
        a = FeatureRef(PROMPT_TOKEN, 0)
        b = FeatureRef(PROMPT_TOKEN, 1)
        assert a < b and a == FeatureRef(PROMPT_TOKEN, 0)
        with pytest.raises(ContractError):
            FeatureRef("nonsense", 0)
        with pytest.raises(ContractError):
            FeatureRef(STATE_COMMITMENT, 1)  # needs a slot
        for kind in (PROMPT_TOKEN, PREFIX_TOKEN, STAGE):
            for slot in (5, 0, -2):
                with pytest.raises(ContractError, match="takes no slot"):
                    FeatureRef(kind, 1, slot=slot)


# -- pinned feature layouts ------------------------------------------------

LAYOUT_VOCAB = make_vocab(["TR:", "s0", "s1", "s2", "t0", "t1", "t2"])


def layout_instances():
    """Fixed instances of the three kinds: an AR pair, a classifier input
    and three diffusion chains. Ablating stage 1 of each chain is
    infeasible (it commits a slot and no later stage can take it over),
    and stage 2 of the second chain commits nothing."""
    def chain(prompt, tokens, steps, num_steps):
        traj = DenoisingTrajectory(num_steps=num_steps,
                                   commit_tokens=tokens, commit_steps=steps,
                                   seed=5)
        return PromptedInstance(prompt=prompt, seed=5, trajectory=traj)
    return {
        "ar": PromptedInstance(prompt=(4, 5, 6, 2), seed=1,
                               generation=(8, 9, 3)),
        "classifier": PromptedInstance(prompt=(5, 6, 7), seed=0,
                                       class_target=1),
        "diffusion-a": chain((4, 6, 2), (9, 8, 10, 3), (3, 1, 2, 1), 3),
        "diffusion-b": chain((4, 7, 5, 2), (10, 9, 3), (3, 3, 1), 3),
        "diffusion-c": chain((5, 2), (8, 3), (1, 1), 1),
    }


def layout_entries(instance, contract):
    """A map's entries with fixed scores of both signs; a stage whose
    ablation is infeasible gets None, as stage_attribution gives it."""
    entries = []
    for i, ref in enumerate(contract.eligible):
        score = (-1) ** i * (i + 1) / 7
        if ref.kind == STAGE:
            traj = instance.trajectory
            try:
                perturbed_plan(traj.commit_plan(),
                               StagePerturbation(stage=ref.index, kind=ABLATE))
            except InfeasiblePerturbationError:
                score = None
        entries.append((ref, score))
    return entries


def layout_digests() -> dict[str, dict[str, str | None]]:
    """Per instance, setting and t: the SHA-256 of render_heatmap's HTML
    and text of a map with layout_entries' scores, and of the sorted
    (ref, (term, row) pairs) of bind_score's feature_rows (None where the
    score has no binding)."""
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    out = {}
    for name, instance in layout_instances().items():
        kind = {"autoregressive": AR, "masked_diffusion": DIFFUSION,
                "classifier": CLASSIFIER}[instance.kind]
        params = init_params(Hyperparams(
            kind=kind, vocab_size=len(LAYOUT_VOCAB), layers=1, heads=1,
            width=4, mlp_hidden=4, context_len=16,
            n_classes=3 if kind == CLASSIFIER else 0), LAYOUT_VOCAB, seed=0)
        for setting, t in settings_for(instance):
            contract = make_named(setting, instance, t)
            attr_map = _map(params, instance, contract,
                            layout_entries(instance, contract), name="ig")
            html, text = render_heatmap(attr_map, instance, contract, params)
            try:
                rows = bind_score(params, instance, contract).feature_rows
                rows_digest = sha(json.dumps(
                    [[ref.kind, ref.index, ref.slot, [list(p) for p in pairs]]
                     for ref, pairs in sorted(rows.items())]))
            except StageScoreError:
                rows_digest = None
            out[f"{name}/{setting}/t={t}"] = {
                "html": sha(html), "text": sha(text),
                "feature_rows": rows_digest}
    return out


class TestFeatureLayouts:
    def test_heatmaps_and_feature_rows_keep_their_bytes(self):
        """feature_layouts.json holds layout_digests() as computed by the
        code from before contract.features, when the prompt, generation,
        commitment and stage features were each enumerated in five
        places: every heatmap and binding must keep its bytes."""
        with open(os.path.join(FIXTURES, "feature_layouts.json")) as fh:
            pinned = json.load(fh)
        assert layout_digests() == pinned


# -- the feature universe over generated instances --------------------------


@st.composite
def instance_pairs(draw):
    """An instance of any kind, and another of equal shape (prompt and
    generation lengths, commit steps, stage count and class target) whose
    tokens and seed are drawn afresh."""
    kind = draw(st.sampled_from(["ar", "diffusion", "classifier"]))
    n = draw(st.integers(1, 5))
    g = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 4).flatmap(lambda T: st.lists(
        st.integers(1, T), min_size=T, max_size=5).map(lambda s: (T, s))))
    class_target = draw(st.integers(0, 2))

    def draw_instance():
        prompt = tuple(draw(st.lists(st.integers(4, 11), min_size=n,
                                     max_size=n)))
        seed = draw(st.integers(0, 3))
        if kind == "ar":
            return PromptedInstance(prompt=prompt, seed=seed, generation=tuple(
                draw(st.lists(st.integers(4, 11), min_size=g, max_size=g))))
        if kind == "classifier":
            return PromptedInstance(prompt=prompt, seed=seed,
                                    class_target=class_target)
        T, commit_steps = steps
        traj = DenoisingTrajectory(
            num_steps=T,
            commit_tokens=tuple(draw(st.lists(
                st.integers(4, 11), min_size=len(commit_steps),
                max_size=len(commit_steps)))),
            commit_steps=tuple(commit_steps), seed=seed)
        return PromptedInstance(prompt=prompt, seed=seed, trajectory=traj)
    return draw_instance(), draw_instance()


def named_contracts(instance):
    """Every named contract of the instance, at every target t."""
    return [make_named(setting, instance, t)
            for setting, t in settings_for(instance)]


def outside_refs(instance):
    """Refs that are no feature of the instance: an index past the end of
    each kind it has, a commitment with the wrong stage, stages 0 and past
    T, and each kind the instance does not have."""
    n, traj = len(instance.prompt), instance.trajectory
    refs = [FeatureRef(PROMPT_TOKEN, n), FeatureRef(PROMPT_TOKEN, -1)]
    if instance.generation is not None:
        refs += [FeatureRef(PREFIX_TOKEN, len(instance.generation)),
                 FeatureRef(STATE_COMMITMENT, 1, slot=0), FeatureRef(STAGE, 1)]
    elif traj is not None:
        T, u = traj.num_steps, traj.commit_steps[0]
        refs += [FeatureRef(STATE_COMMITMENT, v, slot=0)
                 for v in range(1, T + 2) if v != u]
        refs += [FeatureRef(STATE_COMMITMENT, u, slot=traj.response_len),
                 FeatureRef(STAGE, 0), FeatureRef(STAGE, T + 1),
                 FeatureRef(PREFIX_TOKEN, 0)]
    else:
        refs += [FeatureRef(PREFIX_TOKEN, 0), FeatureRef(STAGE, 1)]
    return refs


class TestFeatureUniverse:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pair=instance_pairs())
    def test_named_contracts_draw_on_the_features(self, pair):
        instance, _ = pair
        universe = set(features(instance))
        for contract in named_contracts(instance):
            assert set(contract.eligible) <= universe
            assert contract.held_fixed <= universe
            assert validate(contract, instance) == []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pair=instance_pairs())
    def test_each_ref_outside_them_is_named(self, pair):
        instance, _ = pair
        contract = named_contracts(instance)[0]
        for ref in outside_refs(instance):
            assert ref not in features(instance)
            message = (f"{ref.label()} is not a feature of this"
                       f" {instance.kind} instance")
            for bad in (
                    AttributionContract(
                        score_kind=contract.score_kind,
                        held_fixed=contract.held_fixed, target=contract.target,
                        process=contract.process,
                        eligible=contract.eligible + (ref,)),
                    AttributionContract(
                        score_kind=contract.score_kind,
                        held_fixed=contract.held_fixed | {ref},
                        target=contract.target, process=contract.process,
                        eligible=contract.eligible)):
                assert message in validate(bad, instance)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair=instance_pairs())
    def test_map_refused_under_every_other_contract_and_instance(
            self, pair, classifier_model):
        """A map's contract id tells contracts apart; instances of equal
        shape share every contract id, so only the instance digest tells
        them apart."""
        instance, other = pair
        contracts = named_contracts(instance)
        for contract in contracts:
            attr_map = _map(classifier_model, instance, contract,
                            [(ref, 0.0) for ref in contract.eligible])
            for under in contracts:
                same = canonical_id(under) == canonical_id(contract)
                assert (map_mismatch(attr_map, classifier_model, instance,
                                     under) is None) == same
            assert canonical_id(contract) in map(canonical_id,
                                                 named_contracts(other))
            assert (map_mismatch(attr_map, classifier_model, other, contract)
                    is None) == (other == instance)
