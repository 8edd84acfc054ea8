"""Contract-matched faithfulness evaluation: perturbation operators,
deletion/insertion curves, AOPC, and random-ordering baselines."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attribution import (
    AttributionMap, BaselinePolicy, PAD_BASELINE, grad_times_input,
    integrated_gradients, occlusion, score, stage_attribution,
)
from .contract import (
    OUTPUT_LOG_PROB, PREFIX_TOKEN, PROMPT_TOKEN, STAGE, STAGE_DELTA,
    STATE_COMMITMENT, STATE_LOG_PROB,
    AttributionContract, ContractError, FeatureRef, canonical_id,
)
from .models import ModelParams, PromptedInstance
from .models.diffusion import DenoisingTrajectory, run_chain, masked_log_probs

DELETE = "delete_to_baseline"
INSERT = "insert_from_baseline"
RESCORE = "rescore_fixed_output"
REGENERATE = "regenerate_chain"


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class PerturbationPolicy:
    replacement: BaselinePolicy = PAD_BASELINE
    rescoring: str = RESCORE

    def __post_init__(self):
        if self.rescoring not in (RESCORE, REGENERATE):
            raise ValueError(f"unknown rescoring {self.rescoring!r}")
        if self.replacement.kind == "zero_embedding":
            raise ValueError("perturbation replacement must be token-valued")

    def check_contract(self, contract: AttributionContract) -> None:
        if self.rescoring == REGENERATE and contract.score_kind != OUTPUT_LOG_PROB:
            raise EvaluationError(
                "regenerate_chain applies only to diffusion prompt-to-output contracts")


@dataclass(frozen=True)
class PerturbedContext:
    """A perturbed copy of the instance, ready to be scored under the
    contract; C-members are never touched."""
    contract: AttributionContract
    instance: PromptedInstance              # token-perturbed where applicable
    # diffusion only: the chain whose states the score is conditioned on
    # (state-level: replayed down to z_t; prompt-to-output: after the policy)
    conditioning: DenoisingTrajectory | None = None


def perturb(params: ModelParams, instance: PromptedInstance,
            contract: AttributionContract, features,
            policy: PerturbationPolicy) -> PerturbedContext:
    features = list(features)
    eligible = set(contract.eligible)
    for ref in features:
        if ref not in eligible:
            raise EvaluationError(f"feature outside eligible set: {ref.label()}")
    policy.check_contract(contract)
    if any(ref.kind == STAGE for ref in features):
        raise EvaluationError("stage features are perturbed via stage_attribution")

    rep_tok = policy.replacement.token_id(params)
    prompt = list(instance.prompt)
    for ref in features:
        if ref.kind == PROMPT_TOKEN:
            prompt[ref.index] = rep_tok

    kind = contract.score_kind
    if kind in (STATE_LOG_PROB, OUTPUT_LOG_PROB):
        traj = instance.trajectory
        if kind == STATE_LOG_PROB:
            subs = {(ref.index, ref.slot): rep_tok for ref in features
                    if ref.kind == STATE_COMMITMENT}
            conditioning = _replay_to_state(params, prompt, traj,
                                            contract.target[1], subs)
        elif policy.rescoring == REGENERATE:
            conditioning = run_chain(params, prompt, traj.response_len,
                                     traj.commit_plan(), traj.seed)
        else:
            conditioning = traj
        inst = replace(instance, prompt=tuple(prompt))
        return PerturbedContext(contract=contract, instance=inst,
                                conditioning=conditioning)

    # token-level autoregressive and classifier scores
    gen = list(instance.generation) if instance.generation is not None else None
    for ref in features:
        if ref.kind == PREFIX_TOKEN:
            gen[ref.index] = rep_tok
    inst = replace(instance, prompt=tuple(prompt),
                   generation=tuple(gen) if gen is not None else None)
    return PerturbedContext(contract=contract, instance=inst)


def _replay_to_state(params: ModelParams, prompt, traj: DenoisingTrajectory,
                     t: int, substitutions: dict[tuple[int, int], int]
                     ) -> DenoisingTrajectory:
    """Re-run the chain from z_T down to z_t with the original slot schedule;
    substituted commitments are forced, the rest re-predicted greedily. The
    result's state z_t is the replayed one; its later commits are the
    original chain's."""
    n = len(prompt)
    mask_id = params.vocab.mask
    slots = [mask_id] * traj.response_len
    for u in range(traj.num_steps, t, -1):
        stage_slots = [s for s in range(traj.response_len)
                       if traj.commit_steps[s] == u]
        if not stage_slots:
            continue
        rows = masked_log_probs(params, list(prompt) + slots)
        for s in stage_slots:
            forced = substitutions.get((u, s))
            slots[s] = forced if forced is not None else int(np.argmax(rows[n + s]))
    return replace(traj, commit_tokens=tuple(
        slot if u > t else tok
        for slot, tok, u in zip(slots, traj.commit_tokens, traj.commit_steps)))


def context_score(params: ModelParams, ctx: PerturbedContext) -> float:
    return score(ctx.contract, params, ctx.instance, ctx.conditioning)


# -- curves ---------------------------------------------------------------


@dataclass(frozen=True)
class FaithfulnessCurve:
    k_values: tuple[int, ...]
    scores: tuple[float, ...]
    ordering: str      # "map" or "random:<seed>"
    mode: str          # deletion curves: DELETE; insertion curves: INSERT


def ranked_features(attr_map: AttributionMap) -> list[FeatureRef]:
    """Top-k ordering: |score| descending, ties by FeatureRef ascending."""
    finite = [(ref, s) for ref, s in attr_map.entries if s is not None]
    return [ref for ref, s in sorted(finite, key=lambda e: (-abs(e[1]), e[0]))]


def _check_map(attr_map: AttributionMap, contract: AttributionContract) -> None:
    if attr_map.contract_id != canonical_id(contract).digest:
        raise EvaluationError("attribution map does not match the contract")


def _curve(attr_map: AttributionMap, params: ModelParams,
           instance: PromptedInstance, contract: AttributionContract,
           K: int, policy: PerturbationPolicy, order: list[FeatureRef] | None,
           ordering_label: str, mode: str) -> FaithfulnessCurve:
    """Score the instance with the top-k features at baseline (deletion),
    or with every eligible feature but the top k at baseline (insertion)."""
    _check_map(attr_map, contract)
    order = ranked_features(attr_map) if order is None else order
    if K > len(contract.eligible):
        raise EvaluationError("K exceeds the eligible set")
    scores = []
    for k in range(K + 1):
        removed = order[:k]
        if mode == INSERT:
            restored = set(removed)
            removed = [ref for ref in contract.eligible if ref not in restored]
        ctx = perturb(params, instance, contract, removed, policy)
        scores.append(context_score(params, ctx))
    return FaithfulnessCurve(k_values=tuple(range(K + 1)), scores=tuple(scores),
                             ordering=ordering_label, mode=mode)


def deletion_curve(attr_map: AttributionMap, params: ModelParams,
                   instance: PromptedInstance, contract: AttributionContract,
                   K: int, policy: PerturbationPolicy,
                   order: list[FeatureRef] | None = None,
                   ordering_label: str = "map") -> FaithfulnessCurve:
    return _curve(attr_map, params, instance, contract, K, policy, order,
                  ordering_label, DELETE)


def insertion_curve(attr_map: AttributionMap, params: ModelParams,
                    instance: PromptedInstance, contract: AttributionContract,
                    K: int, policy: PerturbationPolicy,
                    order: list[FeatureRef] | None = None,
                    ordering_label: str = "map") -> FaithfulnessCurve:
    """Dual of deletion: start all-eligible-at-baseline, restore top-k."""
    return _curve(attr_map, params, instance, contract, K, policy, order,
                  ordering_label, INSERT)


def aopc(curve: FaithfulnessCurve) -> float:
    """Mean score drop (deletion) or gain (insertion) over k = 1..K."""
    if len(curve.scores) < 2:
        raise ValueError("curve needs at least two points")
    s0 = curve.scores[0]
    deltas = [s0 - s for s in curve.scores[1:]]
    if curve.mode == INSERT:
        deltas = [-d for d in deltas]
    return float(np.mean(deltas))


# -- report ---------------------------------------------------------------


@dataclass(frozen=True)
class FaithfulnessReport:
    contract_id: str
    method: tuple[tuple[str, object], ...]
    K: int
    policy_mode_pair: tuple[str, str]   # (replacement kind, rescoring)
    deletion: FaithfulnessCurve | None
    insertion: FaithfulnessCurve | None
    random_deletions: tuple[FaithfulnessCurve, ...]
    random_insertions: tuple[FaithfulnessCurve, ...]
    deletion_aopc: float | None
    insertion_aopc: float | None
    random_deletion_aopcs: tuple[float, ...]
    stage_entries: tuple[tuple[FeatureRef, float | None], ...] = ()
    seed: int = 0


def compute_map(params: ModelParams, instance: PromptedInstance,
                contract: AttributionContract, method: dict) -> AttributionMap:
    name = method.get("name")
    baseline = BaselinePolicy(method.get("baseline", "pad_token"))
    if name == "ig":
        return integrated_gradients(params, instance, contract,
                                    baseline=baseline,
                                    steps=int(method.get("steps", 64)))
    if name == "grad_x_input":
        return grad_times_input(params, instance, contract)
    if name == "occlusion":
        return occlusion(params, instance, contract, baseline=baseline)
    if name == "stage":
        return stage_attribution(params, instance, contract,
                                 pert_kind=method.get("kind", "ablate"),
                                 commit_count=method.get("commit_count"),
                                 temperature=float(method.get("temperature", 1.0)))
    raise ValueError(f"unknown method {name!r}")


def faithfulness_report(params: ModelParams, instance: PromptedInstance,
                        contract: AttributionContract, method: dict,
                        K: int | None, policy: PerturbationPolicy,
                        n_random: int = 10, seed: int = 0) -> FaithfulnessReport:
    attr_map = compute_map(params, instance, contract, method)
    cid = canonical_id(contract).digest

    if contract.score_kind == STAGE_DELTA:
        return FaithfulnessReport(
            contract_id=cid, method=attr_map.method, K=0,
            policy_mode_pair=(policy.replacement.kind, policy.rescoring),
            deletion=None, insertion=None, random_deletions=(),
            random_insertions=(), deletion_aopc=None, insertion_aopc=None,
            random_deletion_aopcs=(), stage_entries=attr_map.entries, seed=seed)

    if K is None:
        K = min(len(contract.eligible), 10)
    dele = deletion_curve(attr_map, params, instance, contract, K, policy)
    inse = insertion_curve(attr_map, params, instance, contract, K, policy)
    rand_d, rand_i, rand_aopcs = [], [], []
    eligible = list(contract.eligible)
    for i in range(n_random):
        rng = np.random.default_rng(seed * 1000 + i)
        order = [eligible[j] for j in rng.permutation(len(eligible))]
        label = f"random:{seed * 1000 + i}"
        rd = deletion_curve(attr_map, params, instance, contract, K, policy,
                            order=order, ordering_label=label)
        ri = insertion_curve(attr_map, params, instance, contract, K, policy,
                             order=order, ordering_label=label)
        rand_d.append(rd)
        rand_i.append(ri)
        rand_aopcs.append(aopc(rd))
    return FaithfulnessReport(
        contract_id=cid, method=attr_map.method, K=K,
        policy_mode_pair=(policy.replacement.kind, policy.rescoring),
        deletion=dele, insertion=inse,
        random_deletions=tuple(rand_d), random_insertions=tuple(rand_i),
        deletion_aopc=aopc(dele), insertion_aopc=aopc(inse),
        random_deletion_aopcs=tuple(rand_aopcs), seed=seed)
