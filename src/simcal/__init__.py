"""simcal: likelihood-free posterior estimation over black-box simulator
parameters, with domain-randomization sampling from the result."""

from .features import KernelConfig, NeuralFeatureMap, RFFMap, apply_nn, apply_rff, build_rff
from .mdn import GaussianMixture, MixtureHeadWeights, TrainerConfig, head_forward, log_density_batch, train
from .posterior import PosteriorEstimate, divide_by_gaussian, log_prob_target, recover_posterior, sample, truncate
from .priors import UniformBox
from .simulators import Rollouts, builtin_controller, get_model, rollout
from .trajstats import StatsSchema, compute_stats, fit_standardizer, real_observation

__version__ = "0.1.0"
