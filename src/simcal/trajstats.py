"""Sufficient statistics of state-action trajectories.

The statistic vector is [state-difference/action cross terms, mean of
state differences, variance of state differences]; downstream consumers
(model input, ABC distances, real observations) always see it
standardized by the training set's per-dimension mean/std.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .simulators import Rollouts

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class StatsSchema:
    """Statistic layout plus the fitted standardization.

    Output length is D_s * D_a + 2 * D_s: cross block (state-major),
    then per-dimension mean and population variance of the state
    differences.
    """

    state_dim: int
    action_dim: int
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.mean.shape == self.std.shape == (self.stat_dim,)
                and np.all(self.std > 0)):
            raise ContractError(
                f"the standardizer of {self.stat_dim} statistics needs as many means "
                f"and positive stds, got {self.mean.shape} and {self.std.shape}")

    @property
    def stat_dim(self) -> int:
        return self.state_dim * self.action_dim + 2 * self.state_dim

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if raw.shape[-1] != self.stat_dim:
            raise ContractError(
                f"statistic length {raw.shape[-1]} != schema {self.stat_dim}"
            )
        return (raw - self.mean) / self.std


def compute_stats(rollouts: Rollouts) -> np.ndarray:
    """Raw (unstandardized) (N, stat_dim) statistics of a batch of
    rollouts, in one pass.

    Each row uses only its own ``lengths[i]`` steps. Cross terms are
    divided by T so early-terminated episodes encode dynamics, not
    length; the variance is the population (1/T) variance.
    """
    states = np.asarray(rollouts.states, dtype=float)
    actions = np.asarray(rollouts.actions, dtype=float)
    lengths = np.asarray(rollouts.lengths)
    if lengths.size and lengths.min() < 2:
        raise ContractError(
            f"trajectory too short for statistics (T={lengths.min()})")
    steps = np.arange(actions.shape[1])[None, :, None] < lengths[:, None, None]
    t = lengths.astype(float)[:, None]
    tau = np.where(steps, np.diff(states, axis=1), 0.0)    # (N, T, D_s)
    actions = np.where(steps, actions, 0.0)
    cross = np.swapaxes(tau, 1, 2) @ actions / t[:, None]  # (N, D_s, D_a)
    mean = tau.sum(axis=1) / t
    dev = np.where(steps, tau - mean[:, None, :], 0.0)
    var = (dev * dev).sum(axis=1) / t      # population variance
    cross = cross.reshape(len(lengths), cross.shape[1] * cross.shape[2])  # -1 fails on 0 rows
    return np.concatenate([cross, mean, var], axis=1)


def fit_standardizer(raw_stats, state_dim: int, action_dim: int) -> StatsSchema:
    """Per-dimension mean/std over the training statistics; std floored
    so constant dimensions standardize to zero."""
    raw = np.atleast_2d(np.asarray(raw_stats, dtype=float))
    if raw.shape[0] < 2:
        raise ContractError("need at least 2 vectors to fit the standardizer")
    return StatsSchema(state_dim=state_dim, action_dim=action_dim,
                       mean=raw.mean(axis=0),
                       std=np.maximum(raw.std(axis=0), STD_FLOOR))


def real_observation(rollouts: Rollouts, schema: StatsSchema) -> np.ndarray:
    """Average the raw statistics of a batch of real rollouts, then
    standardize with the training schema."""
    if rollouts.lengths.size == 0:
        raise ContractError("need at least one trajectory")
    return schema.standardize(compute_stats(rollouts).mean(axis=0))
