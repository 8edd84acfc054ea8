"""Masked-diffusion generation: confidence-ordered unmasking, state scores,
and the commit plans of stage-perturbed chain re-runs.

Step indexing: stage t in {1..T} maps state z_t to z_{t-1}; higher t runs
earlier. A slot with commit step u is present (committed) in every state
z_t with t < u.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams, DIFFUSION
from .transformer import (
    ScoreTerm, check_context, run_groups, table_key, terms_score,
)

ABLATE = "ablate"
NOISE_SCHEDULE = "noise_schedule"
SUBSTITUTE_STEP = "substitute_step"
PERT_KINDS = (ABLATE, NOISE_SCHEDULE, SUBSTITUTE_STEP)


class InfeasiblePerturbationError(Exception):
    """The requested stage perturbation cannot keep the chain completable."""


@dataclass(frozen=True)
class StagePerturbation:
    stage: int
    kind: str
    commit_count: int | None = None   # noise_schedule replacement k
    temperature: float = 1.0          # substitute_step decode temperature

    def __post_init__(self):
        if self.kind not in PERT_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == NOISE_SCHEDULE and self.commit_count is None:
            raise ValueError("noise_schedule perturbation needs commit_count")


@dataclass(frozen=True)
class DenoisingTrajectory:
    """A chain's commitments. ``tables`` holds the log-prob table of every
    pass the chain that made it ran, under the ``transformer.table_key`` of
    that pass's term (model, bidirectional graph over the response rows,
    input tokens), for the stage terms conditioned on it to read; it takes
    no part in equality or in ``instance_digest``."""
    num_steps: int
    response_len: int
    commit_tokens: tuple[int, ...]  # final token per slot
    commit_steps: tuple[int, ...]   # stage (1..T) at which each slot committed
    seed: int
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if len(self.commit_tokens) != self.response_len:
            raise ValueError("commit_tokens length mismatch")
        if len(self.commit_steps) != self.response_len:
            raise ValueError("commit_steps length mismatch")
        for u in self.commit_steps:
            if not (1 <= u <= self.num_steps):
                raise ValueError(f"commit step {u} outside 1..{self.num_steps}")

    def state_tokens(self, t: int, mask_id: int) -> list[int]:
        """Slot tokens of state z_t; uncommitted slots carry the MASK id."""
        if not (0 <= t <= self.num_steps):
            raise ValueError(f"state index {t} outside 0..{self.num_steps}")
        return [tok if step > t else mask_id
                for tok, step in zip(self.commit_tokens, self.commit_steps)]

    def commit_plan(self) -> dict[int, int]:
        plan = {t: 0 for t in range(self.num_steps, 0, -1)}
        for u in self.commit_steps:
            plan[u] += 1
        return plan


def _require_diffusion(params: ModelParams) -> None:
    if params.kind != DIFFUSION:
        raise ValueError(f"operation requires a masked-diffusion model, got {params.kind}")


def masked_log_probs(params: ModelParams, sequences,
                     positions) -> np.ndarray:
    """Bidirectional log-probabilities of equal-length token sequences at
    the sorted ``positions``, in batched passes that compute only those
    rows; shape (N, len(positions), vocab)."""
    _require_diffusion(params)
    sequences = [tuple(tokens) for tokens in sequences]
    if len({len(tokens) for tokens in sequences}) != 1:
        raise ValueError("need one or more sequences of equal length")
    rows = tuple(positions)
    if not rows or list(rows) != sorted(set(rows)):
        raise ValueError("positions must be sorted, distinct and at least one")
    return np.stack(run_groups(
        params, [(ScoreTerm(tokens=tokens, causal=False, targets=(), rows=rows),
                  {}) for tokens in sequences], "log_probs"))


def default_commit_plan(response_len: int, num_steps: int) -> dict[int, int]:
    """k_t = ceil(remaining / stages_left), walking t = T..1."""
    if not (1 <= num_steps <= response_len):
        raise ValueError("need 1 <= num_steps <= response_len")
    plan = {}
    remaining = response_len
    for t in range(num_steps, 0, -1):
        k = -(-remaining // t)
        plan[t] = k
        remaining -= k
    return plan


@dataclass(frozen=True)
class ChainSpec:
    """One chain for run_chains: its prompt and per-stage commit plan; an
    optional fixed slot schedule (the stage each slot commits at) in place
    of confidence ranking; tokens forced at (stage, slot); and an optional
    substitute_step perturbation that samples its stage's tokens."""
    prompt: tuple[int, ...]
    plan: dict[int, int]
    schedule: tuple[int, ...] | None = None
    forced: dict[tuple[int, int], int] = field(default_factory=dict)
    substitute: StagePerturbation | None = None


def run_chain(params: ModelParams, prompt, response_len: int,
              plan: dict[int, int], seed: int) -> DenoisingTrajectory:
    """Execute the unmasking chain under an explicit per-stage commit plan."""
    return run_chains(params, [ChainSpec(tuple(prompt), plan)],
                      response_len, seed)[0]


def run_chains(params: ModelParams, chains, response_len: int,
               seed: int) -> list[DenoisingTrajectory]:
    """Run the unmasking chains of equal-length prompts in lockstep, each
    drawing from its own generator seeded with ``seed``. Each stage makes
    one batched masked_log_probs pass over the chains that predict a token
    there; a forced token needs no prediction. Each result has
    ``max(chain.plan)`` stages, and keeps the log-prob table of each pass
    its chain ran."""
    chains = list(chains)
    mask_id = params.vocab.mask
    for chain in chains:
        if sum(chain.plan.values()) != response_len:
            raise ValueError("commit plan does not cover the response")
        check_context(params.hyper, len(chain.prompt) + response_len)
    # per chain: slot tokens, the stage each slot committed at (0: open),
    # rng, and the log-prob table of each pass, by its table_key
    runs = [([mask_id] * response_len, [0] * response_len,
             np.random.default_rng(seed), {}) for _ in chains]

    for t in range(max((max(chain.plan) for chain in chains), default=0), 0, -1):
        # per chain: the slots its schedule commits at t, or None when the
        # pass ranks its open slots by confidence
        fixed = [None if chain.schedule is None
                 else [s for s, u in enumerate(chain.schedule) if u == t]
                 for chain in chains]
        predict = [i for i, (chain, slots) in enumerate(zip(chains, fixed))
                   if (chain.plan.get(t, 0) if slots is None
                       else any((t, s) not in chain.forced for s in slots))]
        rows = {}  # per predicting chain, the log-probs of each response slot
        if predict:
            # every response slot, not just a chain's open ones, so that a
            # chain's pass never depends on the chains it runs beside, and
            # a stage term over the same state reads the same table
            n = len(chains[0].prompt)
            response = tuple(range(n, n + response_len))
            inputs = [tuple(chains[i].prompt) + tuple(runs[i][0]) for i in predict]
            tables = masked_log_probs(params, inputs, response)
            tables.flags.writeable = False  # kept, and read by later scores
            for i, tokens, table in zip(predict, inputs, tables):
                key = table_key(params, ScoreTerm(tokens, False, (), response))
                rows[i] = runs[i][3][key] = table
        for i, (chain, slots_at_t) in enumerate(zip(chains, fixed)):
            slots, steps, rng, _ = runs[i]
            if slots_at_t is None:
                k = chain.plan.get(t, 0)
                open_slots = [s for s in range(response_len) if steps[s] == 0]
                if k > len(open_slots):
                    raise ValueError(f"stage {t} commits {k} but only"
                                     f" {len(open_slots)} open")
                if k == 0:
                    continue  # the chain made no pass at t
                # confidence = model's max log-prob at the open slot
                ranked = sorted(open_slots,
                                key=lambda s: (-float(rows[i][s].max()), s))
                slots_at_t = sorted(ranked[:k])
            for s in slots_at_t:
                if (t, s) in chain.forced:
                    tok = chain.forced[(t, s)]
                elif chain.substitute is not None and chain.substitute.stage == t:
                    logp = rows[i][s] / chain.substitute.temperature
                    p = np.exp(logp - logp.max())
                    p /= p.sum()
                    tok = int(rng.choice(len(p), p=p))
                else:
                    tok = int(np.argmax(rows[i][s]))
                slots[s] = tok
                steps[s] = t

    return [DenoisingTrajectory(num_steps=max(chain.plan),
                                response_len=response_len,
                                commit_tokens=tuple(slots),
                                commit_steps=tuple(steps), seed=seed,
                                tables=tables)
            for chain, (slots, steps, _, tables) in zip(chains, runs)]


def diffusion_generate(params: ModelParams, prompt, response_len: int,
                       num_steps: int, seed: int) -> DenoisingTrajectory:
    _require_diffusion(params)
    plan = default_commit_plan(response_len, num_steps)
    return run_chain(params, prompt, response_len, plan, seed)


def stage_term(prompt, schedule: DenoisingTrajectory,
               conditioning: DenoisingTrajectory, t: int,
               mask_id: int) -> ScoreTerm:
    """The tokens ``schedule`` commits at stage t, scored by one
    bidirectional pass over ``conditioning``'s state z_t. The pass reads
    every response slot, as a chain step over z_t does, so it runs on that
    step's graph and reads the log-prob table ``conditioning`` kept of it,
    when the chain made that step under the scoring model."""
    if not (1 <= t <= schedule.num_steps):
        raise ValueError(f"step {t} outside 1..{schedule.num_steps}")
    if conditioning.num_steps != schedule.num_steps:
        raise ValueError("conditioning chain has a different stage count")
    n = len(prompt)
    return ScoreTerm(
        tokens=tuple(prompt) + tuple(conditioning.state_tokens(t, mask_id)),
        causal=False,
        targets=tuple((n + s, tok) for s, (tok, u) in enumerate(
            zip(schedule.commit_tokens, schedule.commit_steps)) if u == t),
        rows=tuple(range(n, n + conditioning.response_len)),
        tables=conditioning.tables)


def stage_terms(prompt, schedule: DenoisingTrajectory,
                conditioning: DenoisingTrajectory,
                mask_id: int) -> dict[int, ScoreTerm]:
    """Teacher-forced scoring: one stage_term per stage with commits, T..1."""
    return {t: stage_term(prompt, schedule, conditioning, t, mask_id)
            for t in range(schedule.num_steps, 0, -1)
            if t in schedule.commit_steps}


def teacher_forced_score(params: ModelParams, prompt,
                         schedule: DenoisingTrajectory,
                         conditioning: DenoisingTrajectory) -> float:
    """Score ``schedule``'s tokens at their commit stages under another
    chain's conditioning states."""
    _require_diffusion(params)
    terms = stage_terms(prompt, schedule, conditioning, params.vocab.mask)
    return terms_score(params, terms.values())


def trajectory_score(params: ModelParams, prompt,
                     trajectory: DenoisingTrajectory) -> float:
    """Realized-trajectory surrogate for log p(y | x)."""
    return teacher_forced_score(params, prompt, trajectory, trajectory)


def perturbed_plan(plan: dict[int, int], pert: StagePerturbation,
                   response_len: int) -> dict[int, int]:
    """Rebalanced commit plan; raises when the chain cannot stay completable."""
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
    delta = plan[t] - target  # commits the later stages must absorb
    later = range(1, t)  # the stages that run after t
    if delta != 0 and not later:
        raise InfeasiblePerturbationError(
            f"stage {t} is the last stage; no later stage can absorb {delta} commits")
    new[t] = target
    if delta > 0:
        base, rem = divmod(delta, len(later))
        for u in later:
            new[u] += base
        # remainder goes to the latest-running stages (lowest indices)
        for u in later[:rem]:
            new[u] += 1
    elif delta < 0:
        to_remove = -delta
        # round-robin removal starting from the latest-running stage; each
        # round removes at least one commit or raises
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
