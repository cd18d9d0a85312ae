"""The two distributions over simulator parameters: a uniform box (prior,
posterior support, model limits) and a Gaussian (a proposal)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class UniformBox:
    """The uniform distribution on the closed box [low, high], per dimension."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if (low.ndim != 1 or low.shape != high.shape
                or not np.all(np.isfinite(low) & np.isfinite(high)) or np.any(low >= high)):
            raise ConfigurationError("uniform box requires 1-D low and high with finite "
                                     "low < high per dimension")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=(count, self.dim))

    def contains(self, thetas) -> np.ndarray:
        """Mask of the rows of ``thetas`` (..., d) that lie in the box."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape[-1:] != (self.dim,):
            raise ContractError(f"expected {self.dim} parameters per row, got {thetas.shape}")
        return np.all((thetas >= self.low) & (thetas <= self.high), axis=-1)


@dataclass(frozen=True)
class GaussianPrior:
    """N(mean, cov) with a symmetric positive-definite covariance; ``chol``
    is its lower Cholesky factor from the positive-definiteness check."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
