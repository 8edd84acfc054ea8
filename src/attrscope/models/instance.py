"""A prompt bound to exactly one generation artifact."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .diffusion import DenoisingTrajectory
from .params import AR, CLASSIFIER, DIFFUSION


@dataclass(frozen=True)
class PromptedInstance:
    prompt: tuple[int, ...]
    seed: int
    generation: tuple[int, ...] | None = None        # autoregressive
    trajectory: DenoisingTrajectory | None = None    # diffusion
    class_target: int | None = None                  # classifier

    def __post_init__(self):
        populated = sum(x is not None
                        for x in (self.generation, self.trajectory, self.class_target))
        if populated != 1:
            raise ValueError(
                "exactly one of generation/trajectory/class_target must be set")
        if len(self.prompt) < 1:
            raise ValueError("prompt must be non-empty")

    @property
    def kind(self) -> str:
        if self.generation is not None:
            return AR
        if self.trajectory is not None:
            return DIFFUSION
        return CLASSIFIER


def instance_digest(instance: PromptedInstance) -> str:
    payload = {"prompt": list(instance.prompt), "seed": instance.seed,
               "kind": instance.kind}
    if instance.generation is not None:
        payload["generation"] = list(instance.generation)
    if instance.trajectory is not None:
        tr = instance.trajectory
        payload["trajectory"] = {
            "num_steps": tr.num_steps, "response_len": tr.response_len,
            "commit_tokens": list(tr.commit_tokens),
            "commit_steps": list(tr.commit_steps), "seed": tr.seed,
        }
    if instance.class_target is not None:
        payload["class_target"] = instance.class_target
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
