"""Contract-dispatched attribution: Integrated Gradients with held-fixed
path semantics, gradient-times-input, occlusion, and stage perturbation."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .contract import (
    CLASS_LOG_PROB, KIND_PROCESS, OUTPUT_LOG_PROB, SPAN_LOG_PROB, STAGE,
    STAGE_DELTA, STATE_COMMITMENT, STATE_LOG_PROB, TOKEN_LOG_PROB,
    PREFIX_TOKEN, PROMPT_TOKEN, AttributionContract, ContractError,
    FeatureRef, canonical_id, features, instance_shape, validate,
)
from .models import (
    InfeasiblePerturbationError, ModelParams, PromptedInstance,
    StagePerturbation, instance_digest, trajectory_score,
)
from .models.autoregressive import span_term, token_term
from .models.classifier import class_term
from .models.diffusion import (
    SUBSTITUTE_STEP, ChainSpec, DenoisingTrajectory, perturbed_plan,
    run_chains, stage_term, stage_terms,
)
from .models.transformer import (
    ScoreTerm, pass_points, run_groups, score_sums,
)


class StageScoreError(ContractError):
    """stage_delta is not a single differentiable scalar; use stage_attribution."""


@dataclass(frozen=True)
class BaselinePolicy:
    kind: str  # pad_token | mask_token | zero_embedding

    def __post_init__(self):
        if self.kind not in ("pad_token", "mask_token", "zero_embedding"):
            raise ValueError(f"unknown baseline policy {self.kind!r}")

    def token_id(self, params: ModelParams) -> int:
        if self.kind == "pad_token":
            return params.vocab.pad
        if self.kind == "mask_token":
            return params.vocab.mask
        raise ValueError("zero_embedding has no token form")

    def embedding(self, params: ModelParams) -> np.ndarray:
        if self.kind == "zero_embedding":
            return np.zeros(params.hyper.width)
        return params.weights["emb"][self.token_id(params)].copy()


PAD_BASELINE = BaselinePolicy("pad_token")


@dataclass(frozen=True)
class AttributionMap:
    entries: tuple[tuple[FeatureRef, float | None], ...]  # None = infeasible
    contract_id: str
    method: tuple[tuple[str, object], ...]  # sorted (key, value) pairs
    model_id: str
    instance_digest: str
    seed: int

    def __post_init__(self):
        for ref, score in self.entries:
            if score is not None and not np.isfinite(score):
                raise ValueError(f"non-finite attribution for {ref.label()}")


def _map(params: ModelParams, instance: PromptedInstance,
         contract: AttributionContract, entries, **method) -> AttributionMap:
    """The map of ``entries`` for the instance under the contract, made by
    the method ``method`` describes (stored as sorted (key, value) pairs)."""
    return AttributionMap(
        entries=tuple(entries), contract_id=canonical_id(contract).digest,
        method=tuple(sorted(method.items())), model_id=params.model_id,
        instance_digest=instance_digest(instance), seed=instance.seed)


def map_mismatch(attr_map: AttributionMap, params: ModelParams,
                 instance: PromptedInstance,
                 contract: AttributionContract) -> str | None:
    """What names the map's contract, model or instance differently from
    the ones it is read under, or None when all three ids match."""
    for name, want in (("contract_id", canonical_id(contract).digest),
                       ("model_id", params.model_id),
                       ("instance_digest", instance_digest(instance))):
        have = getattr(attr_map, name)
        if have != want:
            return (f"its {name} {have[:12]} is not {want[:12]}, the one"
                    " it is read under")
    return None


# -- differentiable score binding ----------------------------------------


@dataclass
class BoundScore:
    """A contract's score as one pass group per term (see
    ``transformer.run_groups``), plus the feature geometry.

    ``feature_rows`` maps every token-kind FeatureRef of the instance (not
    just the eligible ones) to the (term, embedding row) pairs it occupies,
    so callers can move any subset of features along a path while
    everything else stays at its actual value.
    """
    params: ModelParams
    terms: list[ScoreTerm]
    feature_rows: dict[FeatureRef, tuple[tuple[int, int], ...]]

    def with_rows(self, rows) -> list[tuple[ScoreTerm, dict[int, np.ndarray]]]:
        """The terms' pass groups with each given ref's embedding rows
        replaced by one row (d,), or B rows (B, d) for B points; every other
        row keeps its actual value."""
        overrides: list[dict[int, np.ndarray]] = [{} for _ in self.terms]
        for ref, vec in rows.items():
            for term, row in self.feature_rows[ref]:
                overrides[term][row] = vec
        return list(zip(self.terms, overrides))

    def values(self, rows_list) -> list[float]:
        """The score with each {ref: (d,) vector} set of replaced rows (see
        with_rows), in batched passes."""
        return score_sums(self.params, [self.with_rows(r) for r in rows_list])

    def grad(self, refs, rows=None) -> dict[FeatureRef, np.ndarray]:
        """d(score)/d(embedding) of each ref, summed over the terms it is
        in, with ``rows`` replaced as in with_rows; of shape (B, d) for
        (B, d) rows, one row per point."""
        emb_grads = run_groups(self.params, self.with_rows(rows or {}), "emb_grad")
        out = {}
        for ref in refs:
            gsum = None
            for term, row in self.feature_rows[ref]:
                grow = emb_grads[term][..., row, :]
                gsum = grow.copy() if gsum is None else gsum + grow
            out[ref] = gsum
        return out

    def embedding(self, ref: FeatureRef) -> np.ndarray:
        term, row = self.feature_rows[ref][0]
        return self.params.weights["emb"][self.terms[term].tokens[row]]


def bind_score(params: ModelParams, instance: PromptedInstance,
               contract: AttributionContract,
               conditioning: DenoisingTrajectory | None = None) -> BoundScore:
    """The contract's score as terms over the instance's embeddings.

    ``conditioning`` is the chain whose states a diffusion score reads; by
    default the instance's own trajectory."""
    parts = _score_parts(params, instance, contract, conditioning)
    rows: dict[FeatureRef, tuple[tuple[int, int], ...]] = {}
    for row, ref in enumerate(features(instance)):
        held = tuple((i, row) for i, (_, holds) in enumerate(parts)
                     if holds(ref, row))
        if held:
            rows[ref] = held
    return BoundScore(params=params, terms=[term for term, _ in parts],
                      feature_rows=rows)


def _score_parts(params: ModelParams, instance: PromptedInstance,
                 contract: AttributionContract,
                 conditioning: DenoisingTrajectory | None) -> list:
    """The contract's score as (term, holds) pairs, one per term, as in
    bind_score; ``holds(ref, row)`` says whether the term's input holds the
    token feature ``ref`` at row ``row``."""
    kind = contract.score_kind
    if kind == STAGE_DELTA:
        raise StageScoreError("stage_delta has no single differentiable scalar")
    prompt = instance.prompt
    # each term, with which token features its input holds, by feature and row
    if kind in (TOKEN_LOG_PROB, SPAN_LOG_PROB, CLASS_LOG_PROB):
        gen = instance.generation
        if kind == TOKEN_LOG_PROB:
            t = contract.target[1]
            term = token_term(prompt, gen[:t - 1], gen[t - 1])
        elif kind == SPAN_LOG_PROB:
            term = span_term(prompt, gen)
        else:
            term = class_term(prompt, contract.target[1])
        parts = [(term, lambda ref, row: row < len(term.tokens))]
    elif kind in (STATE_LOG_PROB, OUTPUT_LOG_PROB):
        traj = instance.trajectory
        if conditioning is None:
            conditioning = traj
        mask_id = params.vocab.mask
        if kind == STATE_LOG_PROB:
            t = contract.target[1]
            terms = {t: stage_term(prompt, traj, conditioning, t, mask_id)}
        else:
            terms = stage_terms(prompt, traj, conditioning, mask_id)
        # stage t's pass holds the prompt and the slots committed before
        # stage t ran
        parts = [(term, lambda ref, row, t=t: ref.kind == PROMPT_TOKEN or (
                      ref.kind == STATE_COMMITMENT and ref.index > t))
                 for t, term in terms.items()]
    else:
        raise ContractError(f"cannot bind score kind {kind!r}")
    return parts


# -- score dispatch -------------------------------------------------------


def _check(contract: AttributionContract, params: ModelParams,
           instance: PromptedInstance) -> None:
    violations = validate(contract, instance)
    if violations:
        raise ContractError("; ".join(violations))
    if KIND_PROCESS[params.kind] != contract.process:
        raise ContractError(
            f"model kind {params.kind} does not match contract process {contract.process}")


def score(contract: AttributionContract, params: ModelParams,
          instance: PromptedInstance) -> float:
    """Evaluate the contract's score S on the (possibly perturbed) instance."""
    return scores(params, [(contract, instance, None)])[0]


def scores(params: ModelParams, cases) -> list[float]:
    """The score of each (contract, instance, conditioning) case, with
    ``conditioning`` as in bind_score; the passes of all cases are scored
    together in batched passes. Each contract is checked once per instance
    shape (see contract.instance_shape): a perturbed context is its
    instance with tokens replaced."""
    group_lists = []
    checked = {}  # key -> contract, held so that no id is reused
    for contract, instance, conditioning in cases:
        key = (id(contract), instance_shape(instance))
        if key not in checked:
            _check(contract, params, instance)
            checked[key] = contract
        group_lists.append([(term, {}) for term, _ in _score_parts(
            params, instance, contract, conditioning)])
    return score_sums(params, group_lists)


# -- methods --------------------------------------------------------------

def integrated_gradients(params: ModelParams, instance: PromptedInstance,
                         contract: AttributionContract,
                         baseline: BaselinePolicy = PAD_BASELINE,
                         steps: int = 64) -> AttributionMap:
    """Midpoint-Riemann IG along the straight embedding path; features in
    the held-fixed set and all non-eligible context stay at their actual
    values at every path point."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check(contract, params, instance)
    bs = bind_score(params, instance, contract)
    base_vec = baseline.embedding(params)
    eligible = contract.eligible

    accum = {ref: None for ref in eligible}
    size = pass_points(params.hyper, bs.terms)  # one pass at a time
    for first in range(1, steps + 1, size):
        # the points' alphas (k - 0.5) / steps, one row per point
        alphas = (np.arange(first, min(first + size, steps + 1))
                  - 0.5)[:, None] / steps
        rows = {ref: base_vec + alphas * (bs.embedding(ref) - base_vec)
                for ref in eligible}
        grads = bs.grad(eligible, rows)
        for ref in eligible:
            # in k order, as a sequential loop adds them: accumulate adds
            # one point at a time, never pairwise
            stack = grads[ref] if accum[ref] is None else np.concatenate(
                [accum[ref][None], grads[ref]])
            accum[ref] = np.add.accumulate(stack)[-1]

    entries = [(ref, float(np.dot(bs.embedding(ref) - base_vec,
                                  accum[ref] / steps)))
               for ref in eligible]
    return _map(params, instance, contract, entries,
                name="ig", steps=steps, baseline=baseline.kind)


def baseline_endpoint_score(params: ModelParams, instance: PromptedInstance,
                            contract: AttributionContract,
                            baseline: BaselinePolicy) -> float:
    """S with every eligible feature at the baseline embedding (held-fixed
    and context at actual values): the completeness reference point."""
    bs = bind_score(params, instance, contract)
    base_vec = baseline.embedding(params)
    rows = {ref: base_vec for ref in contract.eligible}
    return bs.values([rows])[0]


def grad_times_input(params: ModelParams, instance: PromptedInstance,
                     contract: AttributionContract) -> AttributionMap:
    _check(contract, params, instance)
    bs = bind_score(params, instance, contract)
    grads = bs.grad(contract.eligible)
    entries = [(ref, float(np.dot(bs.embedding(ref), grads[ref])))
               for ref in contract.eligible]
    return _map(params, instance, contract, entries, name="grad_x_input")


def with_tokens(instance: PromptedInstance, refs,
                token: int) -> PromptedInstance:
    """The instance with the prompt and generated tokens among ``refs``
    replaced by ``token``; refs of other kinds are left to the caller."""
    prompt = list(instance.prompt)
    gen = list(instance.generation) if instance.generation is not None else None
    for ref in refs:
        if ref.kind == PROMPT_TOKEN:
            prompt[ref.index] = token
        elif ref.kind == PREFIX_TOKEN:
            gen[ref.index] = token
    return replace(instance, prompt=tuple(prompt),
                   generation=tuple(gen) if gen is not None else None)


def _occluded(instance: PromptedInstance, ref: FeatureRef, token: int):
    """The (instance, conditioning) that hold ``token`` in place of the
    feature ``ref``: a prompt or generated token in the instance, a state
    commitment in a copy of the instance's chain, whose states then hold
    ``token`` at its slot while the score's targets stay the chain's own."""
    if ref.kind != STATE_COMMITMENT:
        return with_tokens(instance, [ref], token), None
    traj = instance.trajectory
    return instance, replace(traj, commit_tokens=tuple(
        token if s == ref.slot else tok
        for s, tok in enumerate(traj.commit_tokens)))


def occlusion(params: ModelParams, instance: PromptedInstance,
              contract: AttributionContract,
              baseline: BaselinePolicy = PAD_BASELINE) -> AttributionMap:
    """S(actual) - S(feature's token replaced by the baseline token), over
    token inputs (see _occluded), so a deletion's passes have table keys,
    as a curve point's do."""
    if baseline.kind == "zero_embedding":
        raise ValueError("occlusion works in token space; use pad or mask baseline")
    _check(contract, params, instance)
    token = baseline.token_id(params)
    s_actual, *s_occ = scores(params, [(contract, instance, None)] + [
        (contract, *_occluded(instance, ref, token))
        for ref in contract.eligible])
    entries = [(ref, s_actual - s) for ref, s in zip(contract.eligible, s_occ)]
    return _map(params, instance, contract, entries,
                name="occlusion", baseline=baseline.kind)


def stage_attribution(params: ModelParams, instance: PromptedInstance,
                      contract: AttributionContract,
                      pert_kind: str, commit_count: int | None = None,
                      temperature: float = 1.0) -> AttributionMap:
    """Per-stage score deltas from one-stage perturbed chain re-runs, run in
    lockstep and teacher-forced scored together.

    Infeasible stages get a None entry rather than a number."""
    _check(contract, params, instance)
    if contract.score_kind != STAGE_DELTA:
        raise ContractError("stage_attribution needs a stage_delta contract")
    prompt, traj = instance.prompt, instance.trajectory
    base = trajectory_score(params, prompt, traj)
    plan = traj.commit_plan()
    chains = {}  # feasible stage ref -> its perturbed chain
    for ref in contract.eligible:
        t = ref.index
        count = plan[t] if (pert_kind == "noise_schedule" and commit_count is None) \
            else commit_count
        pert = StagePerturbation(stage=t, kind=pert_kind, commit_count=count,
                                 temperature=temperature)
        try:
            new_plan = perturbed_plan(plan, pert, traj.response_len)
        except InfeasiblePerturbationError:
            continue
        chains[ref] = ChainSpec(
            prompt, new_plan,
            substitute=pert if pert_kind == SUBSTITUTE_STEP else None)
    reruns = run_chains(params, chains.values(), traj.response_len, traj.seed)
    # the original output's teacher-forced score under each re-run's states
    perturbed = dict(zip(chains, score_sums(params, [
        [(term, {}) for term in
         stage_terms(prompt, traj, new, params.vocab.mask).values()]
        for new in reruns])))
    entries = [(ref, base - perturbed[ref] if ref in perturbed else None)
               for ref in contract.eligible]
    return _map(params, instance, contract, entries, name="stage",
                kind=pert_kind, commit_count=commit_count,
                temperature=temperature)


def prefix_mass(attr_map: AttributionMap) -> float:
    """Fraction of absolute attribution mass on generated-prefix features."""
    kinds = {ref.kind for ref, _ in attr_map.entries}
    if STAGE in kinds:
        raise ValueError("prefix_mass is undefined for stage maps")
    total = 0.0
    prefix = 0.0
    for ref, s in attr_map.entries:
        if s is None:
            continue
        total += abs(s)
        if ref.kind == PREFIX_TOKEN:
            prefix += abs(s)
    if total == 0.0:
        return 0.0
    return prefix / total
