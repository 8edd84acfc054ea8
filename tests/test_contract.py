"""Contract-layer tests: named constructors, validation, canonical IDs."""
import numpy as np
import pytest

from attrscope.contract import (
    AttributionContract, ContractError, FeatureRef, PREFIX_TOKEN,
    PROMPT_TOKEN, SETTINGS, SETTING_CLASSIFIER, SETTING_LOCAL, SETTING_P2O,
    SETTING_PROMPT_COND, SETTING_SPAN, SETTING_STAGE, SETTING_STATE, STAGE,
    STATE_COMMITMENT, TOKEN_LOG_PROB, canonical_id, make_named, validate,
)
from attrscope.models import DenoisingTrajectory, PromptedInstance


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
        num_steps=T, response_len=L,
        commit_tokens=tuple(int(x) for x in rng.integers(4, 12, size=L)),
        commit_steps=tuple(int(u) for u in plan_stages),
        seed=int(rng.integers(100)))
    return PromptedInstance(prompt=prompt, seed=traj.seed, trajectory=traj)


def settings_for(instance):
    if instance.kind == "classifier":
        return [(SETTING_CLASSIFIER, None)]
    if instance.kind == "autoregressive":
        t = len(instance.generation)
        return [(SETTING_LOCAL, t), (SETTING_PROMPT_COND, t),
                (SETTING_SPAN, None)]
    T = instance.trajectory.num_steps
    return [(SETTING_STATE, T), (SETTING_STAGE, None), (SETTING_P2O, None)]


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
        traj = DenoisingTrajectory(num_steps=3, response_len=3,
                                   commit_tokens=(7, 8, 9),
                                   commit_steps=(3, 2, 1), seed=0)
        inst = PromptedInstance(prompt=(4,), seed=0, trajectory=traj)
        c = make_named(SETTING_STATE, inst, 2)
        commits = [r for r in c.eligible if r.kind == STATE_COMMITMENT]
        # only the slot committed at stage 3 (> t=2) is visible in z_2
        assert [(r.index, r.slot) for r in commits] == [(3, 0)]

    def test_stage_setting_enumerates_stages(self):
        traj = DenoisingTrajectory(num_steps=3, response_len=3,
                                   commit_tokens=(7, 8, 9),
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
        assert any("outside prompt" in p for p in validate(bad, inst))

    def test_process_instance_mismatch(self):
        ar_inst = PromptedInstance(prompt=(4,), seed=0, generation=(6,))
        cls_inst = PromptedInstance(prompt=(4,), seed=0, class_target=0)
        c = make_named(SETTING_LOCAL, ar_inst, 1)
        assert validate(c, cls_inst) != []

    def test_stage_features_only_under_stage_score(self):
        traj = DenoisingTrajectory(num_steps=2, response_len=2,
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
