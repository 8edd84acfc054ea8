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
# setting -> (score kind, held-fixed name, eligible name): the only
# definition of a setting. Contract files use the same names; a name joins
# feature groups with "+" (see _refs).
SETTING_SCHEMA = {
    SETTING_CLASSIFIER: (CLASS_LOG_PROB, "none", "input"),
    SETTING_LOCAL: (TOKEN_LOG_PROB, "none", "prompt+prefix"),
    SETTING_PROMPT_COND: (TOKEN_LOG_PROB, "prefix", "prompt"),
    SETTING_SPAN: (SPAN_LOG_PROB, "span", "prompt"),
    SETTING_STATE: (STATE_LOG_PROB, "none", "prompt+states"),
    SETTING_STAGE: (STAGE_DELTA, "none", "stages"),
    SETTING_P2O: (OUTPUT_LOG_PROB, "none", "prompt"),
}
SETTINGS = tuple(SETTING_SCHEMA)


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
    digest: str  # sha256 of the contract's canonical text


def canonical_id(contract: AttributionContract) -> ContractID:
    text = contract.canonical_text()
    return ContractID(digest=hashlib.sha256(text.encode()).hexdigest())


SCORE_TARGET = {
    CLASS_LOG_PROB: "class",
    TOKEN_LOG_PROB: "token",
    SPAN_LOG_PROB: "span",
    STATE_LOG_PROB: "state",
    STAGE_DELTA: "output",
    OUTPUT_LOG_PROB: "output",
}
# target kinds whose index a named setting takes from the caller's t
INDEXED_TARGETS = ("token", "state")

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


def _target_index(setting: str, kind: str, instance: PromptedInstance,
                  t: int | None) -> int:
    if kind == "class":
        return instance.class_target
    if kind == "span":
        return len(instance.generation)
    if kind == "output":
        return 0
    # INDEXED_TARGETS: t names a generated token or a denoising stage
    if t is None:
        raise ContractError(f"{setting} needs a target {kind} index t")
    bound = (len(instance.generation) if kind == "token"
             else instance.trajectory.num_steps)
    if not (1 <= t <= bound):
        raise ContractError(f"t={t} outside 1..{bound}")
    return t


def _refs(name: str, instance: PromptedInstance,
          t: int | None) -> tuple[FeatureRef, ...]:
    """The features a held-fixed or eligible name denotes on the instance:
    "+" joins groups; prefix is the generation before token t, span all of
    it, and states the commitments visible in state z_t."""
    refs: list[FeatureRef] = []
    traj = instance.trajectory
    for part in name.split("+"):
        if part in ("input", "prompt"):
            refs += [FeatureRef(PROMPT_TOKEN, i) for i in range(len(instance.prompt))]
        elif part in ("prefix", "span"):
            end = t - 1 if part == "prefix" else len(instance.generation)
            refs += [FeatureRef(PREFIX_TOKEN, i) for i in range(end)]
        elif part == "states":
            refs += [FeatureRef(STATE_COMMITMENT, u, slot=s)
                     for s, u in enumerate(traj.commit_steps) if u > t]
        elif part == "stages":
            refs += [FeatureRef(STAGE, u) for u in range(1, traj.num_steps + 1)]
    return tuple(refs)


def make_named(setting: str, instance: PromptedInstance,
               t: int | None = None) -> AttributionContract:
    """Construct one of the seven named settings, bound to the instance."""
    if setting not in SETTING_SCHEMA:
        raise ContractError(f"unknown setting {setting!r}")
    score_kind, fixed, eligible = SETTING_SCHEMA[setting]
    process = SCORE_PROCESS[score_kind]
    if KIND_PROCESS[instance.kind] != process:
        article = "an" if process[0] in "aeiou" else "a"
        raise ContractError(f"{setting} needs {article} {process} instance")
    target_kind = SCORE_TARGET[score_kind]
    target = (target_kind, _target_index(setting, target_kind, instance, t))
    return AttributionContract(
        score_kind=score_kind, held_fixed=frozenset(_refs(fixed, instance, t)),
        target=target, process=process, eligible=_refs(eligible, instance, t))
