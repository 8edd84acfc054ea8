"""The attribution contract: score, held-fixed set, target, process, and
eligible features as one validated, hashable value object."""
from __future__ import annotations

import functools
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
        if self.kind == STATE_COMMITMENT:
            if self.slot < 0:
                raise ContractError("state_commitment needs a slot")
        elif self.slot != -1:
            raise ContractError(f"{self.kind} takes no slot, got {self.slot}")

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

    known = set(features(instance))
    for ref in list(contract.eligible) + sorted(contract.held_fixed):
        if ref not in known:
            v.append(f"{ref.label()} is not a feature of this {instance.kind}"
                     " instance")

    if contract.score_kind == STAGE_DELTA:
        if any(r.kind != STAGE for r in contract.eligible):
            v.append("stage_delta contracts may only have stage features eligible")
    else:
        if any(r.kind == STAGE for r in contract.eligible):
            v.append("stage features are only eligible under stage_delta")

    gen, traj = instance.generation, instance.trajectory
    if tk == "token" and gen is not None and not (1 <= tv <= len(gen)):
        v.append(f"target token index {tv} outside 1..{len(gen)}")
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


def instance_shape(instance: PromptedInstance) -> tuple:
    """All that validate reads of an instance: its kind, the shape its
    features are keyed on, its generation length, class target and stage
    count. Instances of equal shape pass or fail validate alike."""
    gen, traj = instance.generation, instance.trajectory
    return (instance.kind, len(instance.prompt),
            None if gen is None else len(gen),
            None if traj is None else (traj.commit_steps, traj.num_steps),
            instance.class_target)


def features(instance: PromptedInstance) -> tuple[FeatureRef, ...]:
    """Every feature of the instance. The token features come first, in
    sequence order, so the i-th sits at row i of a pass over the instance:
    the prompt tokens, then the generated tokens (autoregressive) or one
    state commitment per response slot (diffusion). A diffusion instance's
    stages 1..T follow."""
    traj = instance.trajectory
    return _features(len(instance.prompt), len(instance.generation or ()),
                     traj.commit_steps if traj else (),
                     traj.num_steps if traj else 0)


@functools.lru_cache(maxsize=64)
def _features(prompt_len: int, gen_len: int, commit_steps: tuple[int, ...],
              num_steps: int) -> tuple[FeatureRef, ...]:
    # keyed on the shape alone: every perturbed copy of an instance shares it
    return tuple(
        [FeatureRef(PROMPT_TOKEN, i) for i in range(prompt_len)]
        + [FeatureRef(PREFIX_TOKEN, i) for i in range(gen_len)]
        + [FeatureRef(STATE_COMMITMENT, u, slot=s)
           for s, u in enumerate(commit_steps)]
        + [FeatureRef(STAGE, u) for u in range(1, num_steps + 1)])


# feature group name -> whether a feature is in the group at target t: the
# prefix is the generation before token t, the span all of it, and the
# states the commitments visible in state z_t
_GROUPS = {
    "none": lambda ref, t: False,
    "input": lambda ref, t: ref.kind == PROMPT_TOKEN,
    "prompt": lambda ref, t: ref.kind == PROMPT_TOKEN,
    "prefix": lambda ref, t: ref.kind == PREFIX_TOKEN and ref.index < t - 1,
    "span": lambda ref, t: ref.kind == PREFIX_TOKEN,
    "states": lambda ref, t: ref.kind == STATE_COMMITMENT and ref.index > t,
    "stages": lambda ref, t: ref.kind == STAGE,
}


def _refs(name: str, instance: PromptedInstance,
          t: int | None) -> tuple[FeatureRef, ...]:
    """The features a held-fixed or eligible name denotes on the instance;
    "+" joins groups."""
    groups = [_GROUPS[part] for part in name.split("+")]
    return tuple(ref for ref in features(instance)
                 if any(group(ref, t) for group in groups))


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
