"""Contract-matched faithfulness evaluation: perturbation operators, and
the faithfulness report, the one place deletion/insertion curves are drawn
and scored with AOPC against random-ordering baselines."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attribution import (
    AttributionMap, BaselinePolicy, PAD_BASELINE, grad_times_input,
    integrated_gradients, occlusion, scores, stage_attribution, with_tokens,
)
from .contract import (
    OUTPUT_LOG_PROB, STAGE, STAGE_DELTA,
    STATE_COMMITMENT, STATE_LOG_PROB,
    AttributionContract, FeatureRef, canonical_id,
)
from .models import ModelParams, PromptedInstance
from .models.diffusion import ChainSpec, DenoisingTrajectory, run_chains
from .models.transformer import op

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
    instance: PromptedInstance              # token-perturbed where applicable
    # diffusion only: the chain whose states the score is conditioned on
    # (state-level: replayed down to z_t; prompt-to-output: after the policy)
    conditioning: DenoisingTrajectory | None = None


def perturb_sets(params: ModelParams, instance: PromptedInstance,
                 contract: AttributionContract, feature_sets,
                 policy: PerturbationPolicy) -> list[PerturbedContext]:
    """One perturbed context per set of features; the chains that
    state-level and regenerated contexts need run in lockstep."""
    feature_sets = [list(features) for features in feature_sets]
    eligible = set(contract.eligible)
    for features in feature_sets:
        for ref in features:
            if ref not in eligible:
                raise EvaluationError(f"feature outside eligible set: {ref.label()}")
    policy.check_contract(contract)
    if any(ref.kind == STAGE for features in feature_sets for ref in features):
        raise EvaluationError("stage features are perturbed via stage_attribution")

    rep_tok = policy.replacement.token_id(params)
    contexts = [PerturbedContext(instance=with_tokens(instance, features, rep_tok))
                for features in feature_sets]

    kind = contract.score_kind
    if kind not in (STATE_LOG_PROB, OUTPUT_LOG_PROB):
        return contexts
    # diffusion scores read the states of a conditioning chain
    traj = instance.trajectory
    plan = traj.commit_plan()
    if kind == STATE_LOG_PROB:
        # the slot schedule is the original one; substituted commitments and
        # every commitment at a stage <= t are forced, so z_t is replayed
        # and the later commits are the original chain's
        t = contract.target[1]
        original = {(u, s): tok for s, (tok, u) in enumerate(
            zip(traj.commit_tokens, traj.commit_steps)) if u <= t}
        chains = [ChainSpec(ctx.instance.prompt, plan, traj.commit_steps,
                            {(ref.index, ref.slot): rep_tok for ref in features
                             if ref.kind == STATE_COMMITMENT} | original)
                  for ctx, features in zip(contexts, feature_sets)]
    elif policy.rescoring == REGENERATE:
        chains = [ChainSpec(ctx.instance.prompt, plan) for ctx in contexts]
    else:
        return [replace(ctx, conditioning=traj) for ctx in contexts]
    conditionings = run_chains(params, chains, traj.response_len, traj.seed)
    return [replace(ctx, conditioning=conditioning)
            for ctx, conditioning in zip(contexts, conditionings)]


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


def _points(order: list[FeatureRef], eligible, K: int,
            mode: str) -> list[list[FeatureRef]]:
    """The perturbed features at k = 0..K: the top k of ``order`` (deletion),
    or every eligible feature but the top k (insertion)."""
    points = []
    for k in range(K + 1):
        removed = order[:k]
        if mode == INSERT:
            restored = set(removed)
            removed = [ref for ref in eligible if ref not in restored]
        points.append(removed)
    return points


def _curves(params: ModelParams, instance: PromptedInstance,
            contract: AttributionContract, K: int, policy: PerturbationPolicy,
            orderings: list[tuple[list[FeatureRef], str]]
            ) -> list[FaithfulnessCurve]:
    """The deletion and the insertion curve of each (order, label)
    ordering, ordering by ordering. Each distinct set of perturbed features
    is perturbed and scored once, and every curve point reads its score
    from that table."""
    if K > len(contract.eligible):
        raise EvaluationError("K exceeds the eligible set")
    curves = [(label, mode, _points(order, contract.eligible, K, mode))
              for order, label in orderings for mode in (DELETE, INSERT)]
    distinct: dict[frozenset, list[FeatureRef]] = {}
    for _, _, points in curves:
        for features in points:
            distinct.setdefault(frozenset(features), features)
    contexts = perturb_sets(params, instance, contract, distinct.values(), policy)
    table = dict(zip(distinct, scores(params, [
        (contract, ctx.instance, ctx.conditioning) for ctx in contexts])))
    return [FaithfulnessCurve(
        k_values=tuple(range(K + 1)),
        scores=tuple(table[frozenset(features)] for features in points),
        ordering=label, mode=mode) for label, mode, points in curves]


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


@op()
def compute_map(params: ModelParams, instance: PromptedInstance,
                contract: AttributionContract, method: dict) -> AttributionMap:
    """The map ``method`` names (its "name" and settings) of the instance
    under the contract, in one op (see ``transformer.op``)."""
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


@op()
def faithfulness_report(params: ModelParams, instance: PromptedInstance,
                        contract: AttributionContract, method: dict,
                        K: int | None, policy: PerturbationPolicy,
                        n_random: int = 10, seed: int = 0) -> FaithfulnessReport:
    """The map's deletion and insertion curves, with AOPC, beside those of
    ``n_random`` random orderings; a stage map's entries alone. The map and
    the curves run in one op (see ``transformer.op``)."""
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
    eligible = list(contract.eligible)
    orderings = [(ranked_features(attr_map), "map")]
    for i in range(n_random):
        rng = np.random.default_rng(seed * 1000 + i)
        orderings.append(([eligible[j] for j in rng.permutation(len(eligible))],
                          f"random:{seed * 1000 + i}"))
    dele, inse, *randoms = _curves(params, instance, contract, K, policy,
                                   orderings)
    rand_d, rand_i = randoms[0::2], randoms[1::2]
    return FaithfulnessReport(
        contract_id=cid, method=attr_map.method, K=K,
        policy_mode_pair=(policy.replacement.kind, policy.rescoring),
        deletion=dele, insertion=inse,
        random_deletions=tuple(rand_d), random_insertions=tuple(rand_i),
        deletion_aopc=aopc(dele), insertion_aopc=aopc(inse),
        random_deletion_aopcs=tuple(aopc(rd) for rd in rand_d), seed=seed)
