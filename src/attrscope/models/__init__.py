from .vocab import Vocab
from .params import (
    Hyperparams, ModelIOError, ModelParams, init_params, save_model, load_model,
)
from .autoregressive import (
    ar_next_log_probs,
    span_log_prob,
    ar_generate,
    GreedyPolicy,
    SamplePolicy,
)
from .diffusion import (
    DenoisingTrajectory,
    StagePerturbation,
    InfeasiblePerturbationError,
    default_commit_plan,
    diffusion_generate,
    masked_log_probs,
    trajectory_score,
    teacher_forced_score,
)
from .instance import PromptedInstance, instance_digest
from .training import train, TrainingDiverged

__all__ = [
    "Vocab", "Hyperparams", "ModelIOError", "ModelParams", "init_params",
    "save_model", "load_model",
    "ar_next_log_probs", "span_log_prob", "ar_generate",
    "GreedyPolicy", "SamplePolicy",
    "DenoisingTrajectory", "StagePerturbation", "InfeasiblePerturbationError",
    "default_commit_plan", "diffusion_generate", "masked_log_probs",
    "trajectory_score", "teacher_forced_score",
    "PromptedInstance", "instance_digest",
    "train", "TrainingDiverged",
]
