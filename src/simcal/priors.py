"""Prior / proposal-prior specifications over simulator parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

UNIFORM_BOX = "uniform_box"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PriorSpec:
    """Uniform box or Gaussian prior.

    Uniform boxes carry per-dimension [low, high]; Gaussians carry mean
    and a symmetric positive-definite covariance, and ``chol``, its lower
    Cholesky factor from the positive-definiteness check.
    """

    kind: str
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    chol: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == UNIFORM_BOX:
            low = np.asarray(self.low, dtype=float)
            high = np.asarray(self.high, dtype=float)
            if (low.shape != high.shape or not np.all(np.isfinite(low) & np.isfinite(high))
                    or np.any(low >= high)):
                raise ConfigurationError("uniform box requires finite low < high "
                                         "per dimension")
            object.__setattr__(self, "low", low)
            object.__setattr__(self, "high", high)
        elif self.kind == GAUSSIAN:
            mean = np.asarray(self.mean, dtype=float).reshape(-1)
            cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if cov.shape != (mean.size, mean.size):
                raise ConfigurationError(f"Gaussian prior covariance {cov.shape} does not "
                                         f"match its {mean.size}-dimensional mean")
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
                raise ConfigurationError("Gaussian prior mean and covariance must be finite")
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise ConfigurationError("Gaussian prior covariance must be SPD") from exc
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "cov", cov)
            object.__setattr__(self, "chol", chol)
        else:
            raise ConfigurationError(f"unknown prior kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == UNIFORM_BOX:
            return self.low.shape[0]
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == UNIFORM_BOX:
            return rng.uniform(self.low, self.high, size=(count, self.dim))
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ self.chol.T


def uniform_box(low, high) -> PriorSpec:
    return PriorSpec(kind=UNIFORM_BOX, low=np.asarray(low, float), high=np.asarray(high, float))


def gaussian_prior(mean, cov) -> PriorSpec:
    return PriorSpec(kind=GAUSSIAN, mean=np.asarray(mean, float), cov=np.asarray(cov, float))
