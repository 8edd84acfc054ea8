"""The attribution contract: score, held-fixed set, target, process, and
eligible features as one validated, hashable value object."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .models.instance import PromptedInstance

# score kinds
CLASS_LOG_PROB = "class_log_prob"
TOKEN_LOG_PROB = "token_log_prob"
SPAN_LOG_PROB = "span_log_prob"
STATE_LOG_PROB = "state_log_prob"
STAGE_DELTA = "stage_delta"
OUTPUT_LOG_PROB = "output_log_prob"
SCORE_KINDS = (CLASS_LOG_PROB, TOKEN_LOG_PROB, SPAN_LOG_PROB, STATE_LOG_PROB,
               STAGE_DELTA, OUTPUT_LOG_PROB)

# process kinds
P_CLASSIFIER = "classifier"
P_AUTOREGRESSIVE = "autoregressive"
P_DIFFUSION = "diffusion"
PROCESS_KINDS = (P_CLASSIFIER, P_AUTOREGRESSIVE, P_DIFFUSION)
# model and instance kind -> the process it runs
KIND_PROCESS = {"autoregressive": P_AUTOREGRESSIVE,
                "masked_diffusion": P_DIFFUSION,
                "classifier": P_CLASSIFIER}

# feature kinds
PROMPT_TOKEN = "prompt_token"
PREFIX_TOKEN = "prefix_token"
STATE_COMMITMENT = "state_commitment"
STAGE = "stage"

# the seven named settings
SETTING_CLASSIFIER = "classifier"
SETTING_LOCAL = "local-next-token"
SETTING_PROMPT_COND = "prompt-conditioned"
SETTING_SPAN = "span-level-prompt"
SETTING_STATE = "state-level"
SETTING_STAGE = "denoising-stage"
SETTING_P2O = "prompt-to-output"
SETTINGS = (SETTING_CLASSIFIER, SETTING_LOCAL, SETTING_PROMPT_COND,
            SETTING_SPAN, SETTING_STATE, SETTING_STAGE, SETTING_P2O)


class ContractError(Exception):
    pass


@dataclass(frozen=True, order=True)
class FeatureRef:
    """A single attributable (or held-fixed) feature.

    prompt_token / prefix_token: ``index`` is the token position (prefix
    positions are 0-based within the generation). state_commitment:
    ``index`` is the commit stage and ``slot`` the response slot. stage:
    ``index`` is the stage number.
    """
    kind: str
    index: int
    slot: int = -1

    def __post_init__(self):
        if self.kind not in (PROMPT_TOKEN, PREFIX_TOKEN, STATE_COMMITMENT, STAGE):
            raise ContractError(f"unknown feature kind {self.kind!r}")
        if self.kind == STATE_COMMITMENT and self.slot < 0:
            raise ContractError("state_commitment needs a slot")

    def label(self) -> str:
        if self.kind == STATE_COMMITMENT:
            return f"{self.kind}[step={self.index},slot={self.slot}]"
        return f"{self.kind}[{self.index}]"


# target: (kind, value) where kind in {class, token, span, state, output}
TargetKind = str


@dataclass(frozen=True)
class AttributionContract:
    score_kind: str
    held_fixed: frozenset[FeatureRef]
    target: tuple[str, int]          # ("span", T) / ("output", 0) etc.
    process: str
    eligible: tuple[FeatureRef, ...]  # canonical sorted order

    def __post_init__(self):
        object.__setattr__(self, "eligible", tuple(sorted(set(self.eligible))))

    def canonical_text(self) -> str:
        fixed = ", ".join(r.label() for r in sorted(self.held_fixed))
        elig = ", ".join(r.label() for r in self.eligible)
        tk, tv = self.target
        return "\n".join([
            f"score: {self.score_kind}",
            f"fixed: [{fixed}]",
            f"output: {tk}:{tv}",
            f"process: {self.process}",
            f"eligible: [{elig}]",
        ])


@dataclass(frozen=True)
class ContractID:
    text: str
    digest: str

    def __str__(self) -> str:
        return self.digest


def canonical_id(contract: AttributionContract) -> ContractID:
    text = contract.canonical_text()
    return ContractID(text=text, digest=hashlib.sha256(text.encode()).hexdigest())


SCORE_TARGET = {
    CLASS_LOG_PROB: "class",
    TOKEN_LOG_PROB: "token",
    SPAN_LOG_PROB: "span",
    STATE_LOG_PROB: "state",
    STAGE_DELTA: "output",
    OUTPUT_LOG_PROB: "output",
}

SCORE_PROCESS = {
    CLASS_LOG_PROB: P_CLASSIFIER,
    TOKEN_LOG_PROB: P_AUTOREGRESSIVE,
    SPAN_LOG_PROB: P_AUTOREGRESSIVE,
    STATE_LOG_PROB: P_DIFFUSION,
    STAGE_DELTA: P_DIFFUSION,
    OUTPUT_LOG_PROB: P_DIFFUSION,
}


def validate(contract: AttributionContract,
             instance: PromptedInstance) -> list[str]:
    """Empty list means ok; otherwise each entry names a failed invariant."""
    v: list[str] = []
    if contract.score_kind not in SCORE_KINDS:
        v.append(f"unknown score kind {contract.score_kind!r}")
        return v
    if contract.process not in PROCESS_KINDS:
        v.append(f"unknown process {contract.process!r}")
        return v

    overlap = contract.held_fixed.intersection(contract.eligible)
    if overlap:
        v.append("eligible/fixed overlap: "
                 + ", ".join(r.label() for r in sorted(overlap)))

    tk, tv = contract.target
    if SCORE_TARGET[contract.score_kind] != tk:
        v.append(f"score/target mismatch: {contract.score_kind} vs target {tk}")
    if SCORE_PROCESS[contract.score_kind] != contract.process:
        v.append(f"score/process mismatch: {contract.score_kind} under {contract.process}")

    if KIND_PROCESS[instance.kind] != contract.process:
        v.append(f"process/instance mismatch: {contract.process} vs {instance.kind} instance")
        return v

    n = len(instance.prompt)
    gen_len = len(instance.generation) if instance.generation is not None else 0
    traj = instance.trajectory

    def ref_ok(ref: FeatureRef) -> str | None:
        if ref.kind == PROMPT_TOKEN:
            if not (0 <= ref.index < n):
                return f"{ref.label()} outside prompt"
        elif ref.kind == PREFIX_TOKEN:
            if instance.generation is None:
                return f"{ref.label()} on a non-autoregressive instance"
            if not (0 <= ref.index < gen_len):
                return f"{ref.label()} outside generation"
        elif ref.kind == STATE_COMMITMENT:
            if traj is None:
                return f"{ref.label()} on a non-diffusion instance"
            if not (0 <= ref.slot < traj.response_len):
                return f"{ref.label()} slot out of range"
            if traj.commit_steps[ref.slot] != ref.index:
                return f"{ref.label()} does not match the trajectory's commit step"
        elif ref.kind == STAGE:
            if traj is None:
                return f"{ref.label()} on a non-diffusion instance"
            if not (1 <= ref.index <= traj.num_steps):
                return f"{ref.label()} outside 1..{traj.num_steps}"
            if contract.process != P_DIFFUSION:
                return "stage features require the diffusion process"
        return None

    for ref in list(contract.eligible) + sorted(contract.held_fixed):
        msg = ref_ok(ref)
        if msg:
            v.append(msg)

    if contract.score_kind == STAGE_DELTA:
        if any(r.kind != STAGE for r in contract.eligible):
            v.append("stage_delta contracts may only have stage features eligible")
    else:
        if any(r.kind == STAGE for r in contract.eligible):
            v.append("stage features are only eligible under stage_delta")

    if tk == "token" and not (1 <= tv <= gen_len) and instance.generation is not None:
        v.append(f"target token index {tv} outside 1..{gen_len}")
    if tk == "class" and instance.class_target is not None and tv != instance.class_target:
        v.append("target class disagrees with instance class_target")
    if tk == "state" and traj is not None and not (1 <= tv <= traj.num_steps):
        v.append(f"target state index {tv} outside 1..{traj.num_steps}")
    return v


def make_named(setting: str, instance: PromptedInstance,
               t: int | None = None) -> AttributionContract:
    """Construct one of the seven named settings, bound to the instance."""
    n = len(instance.prompt)
    prompt_refs = tuple(FeatureRef(PROMPT_TOKEN, i) for i in range(n))

    if setting == SETTING_CLASSIFIER:
        if instance.class_target is None:
            raise ContractError("classifier setting needs a classifier instance")
        return AttributionContract(
            score_kind=CLASS_LOG_PROB, held_fixed=frozenset(),
            target=("class", instance.class_target), process=P_CLASSIFIER,
            eligible=prompt_refs)

    if setting in (SETTING_LOCAL, SETTING_PROMPT_COND, SETTING_SPAN):
        if instance.generation is None:
            raise ContractError(f"{setting} needs an autoregressive instance")
        gen_len = len(instance.generation)
        if setting == SETTING_SPAN:
            span_refs = frozenset(FeatureRef(PREFIX_TOKEN, i) for i in range(gen_len))
            return AttributionContract(
                score_kind=SPAN_LOG_PROB, held_fixed=span_refs,
                target=("span", gen_len), process=P_AUTOREGRESSIVE,
                eligible=prompt_refs)
        if t is None:
            raise ContractError(f"{setting} needs a target token index t")
        if not (1 <= t <= gen_len):
            raise ContractError(f"t={t} outside 1..{gen_len}")
        prefix_refs = tuple(FeatureRef(PREFIX_TOKEN, i) for i in range(t - 1))
        if setting == SETTING_LOCAL:
            return AttributionContract(
                score_kind=TOKEN_LOG_PROB, held_fixed=frozenset(),
                target=("token", t), process=P_AUTOREGRESSIVE,
                eligible=prompt_refs + prefix_refs)
        return AttributionContract(
            score_kind=TOKEN_LOG_PROB, held_fixed=frozenset(prefix_refs),
            target=("token", t), process=P_AUTOREGRESSIVE,
            eligible=prompt_refs)

    if setting in (SETTING_STATE, SETTING_STAGE, SETTING_P2O):
        traj = instance.trajectory
        if traj is None:
            raise ContractError(f"{setting} needs a diffusion instance")
        if setting == SETTING_STATE:
            if t is None:
                raise ContractError("state-level setting needs a step index t")
            if not (1 <= t <= traj.num_steps):
                raise ContractError(f"t={t} outside 1..{traj.num_steps}")
            commit_refs = tuple(
                FeatureRef(STATE_COMMITMENT, traj.commit_steps[s], slot=s)
                for s in range(traj.response_len) if traj.commit_steps[s] > t)
            return AttributionContract(
                score_kind=STATE_LOG_PROB, held_fixed=frozenset(),
                target=("state", t), process=P_DIFFUSION,
                eligible=prompt_refs + commit_refs)
        if setting == SETTING_STAGE:
            stage_refs = tuple(FeatureRef(STAGE, u)
                               for u in range(1, traj.num_steps + 1))
            return AttributionContract(
                score_kind=STAGE_DELTA, held_fixed=frozenset(),
                target=("output", 0), process=P_DIFFUSION, eligible=stage_refs)
        return AttributionContract(
            score_kind=OUTPUT_LOG_PROB, held_fixed=frozenset(),
            target=("output", 0), process=P_DIFFUSION, eligible=prompt_refs)

    raise ContractError(f"unknown setting {setting!r}")
