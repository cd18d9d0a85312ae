"""Posterior recovery from the trained conditional density.

With a uniform proposal equal to the prior the head output at the real
observation already is the (unnormalized) posterior; with a truncated
Gaussian proposal the mixture is divided analytically by its Gaussian.
The result is truncated to the prior box and exposed for density
evaluation and ancestral sampling (domain-randomization draws).
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComponentWiderThanProposalError,
    ConfigurationError,
    ContractError,
    DegeneratePosteriorError,
)
from .mdn import GaussianMixture, log_density_batch
from .priors import UniformBox

NEG_INF = float("-inf")
MASS_FLOOR = 1e-6  # in-box mass below which a truncated posterior is degenerate
CHUNK_ROWS = (256, 65_536)  # the fewest and most draws of one sampling chunk
ROUND_CHUNKS = 2  # the most chunks of one sampling round, drawn at once


@dataclass
class PosteriorEstimate:
    """Gaussian mixture truncated to a box support: a posterior, or a truncated proposal.

    Densities are reported unnormalized: the mixture density inside the
    box and -inf outside it, not divided by the in-box mass that
    :func:`truncate` records in the provenance as ``in_box_mass``.
    :func:`sample` draws exactly from the truncated distribution, by
    rejection against the box.
    """

    mixture: GaussianMixture
    support: UniformBox
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.support, UniformBox):
            raise ConfigurationError("support must be a uniform box")
        if self.support.dim != self.mixture.dim:
            raise ContractError("box dimension does not match mixture")
        if not isinstance(self.provenance, dict):
            raise ContractError("provenance must be a mapping")

    def log_density_batch(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        out = log_density_batch(self.mixture, thetas)
        return np.where(self.support.contains(thetas), out, NEG_INF)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return sample(self, count, seed=int(rng.integers(2 ** 63)))


def divide_by_gaussian(q: GaussianMixture, proposal: GaussianMixture) -> GaussianMixture:
    """Analytic mixture / Gaussian division by a one-component ``proposal``,
    N(means[0], covariances[0]); ContractError for more components.

    Every component must be strictly narrower than the proposal, i.e.
    Sigma_k^-1 - Sigma_0^-1 positive definite; otherwise the ratio has no
    normalizable Gaussian form and we raise naming the component.
    Log-weights are combined in log space to dodge determinant overflow;
    the log-determinants come from the Cholesky factors of Sigma_k,
    Sigma_0 and Sigma_k^-1 - Sigma_0^-1.
    """
    if proposal.num_components != 1:
        raise ContractError(f"need a one-component proposal, got {proposal.num_components}")
    mu0 = proposal.means[0]
    prec0 = np.linalg.inv(proposal.covariances[0])
    # log diag of the factors of Sigma_k and Sigma_0; log det = 2 sum log diag
    log_diag = np.log(np.diagonal(q.chol, axis1=1, axis2=2)) - np.log(np.diag(proposal.chol[0]))
    k = q.num_components
    new_means = np.empty_like(q.means)
    new_covs = np.empty_like(q.covariances)
    log_unnorm = np.empty(k)
    for j, prec_k in enumerate(np.linalg.inv(q.covariances)):
        prec_new = prec_k - prec0
        try:
            chol_new = np.linalg.cholesky(prec_new)
        except np.linalg.LinAlgError:
            raise ComponentWiderThanProposalError(j)
        cov_new = np.linalg.inv(prec_new)
        cov_new = 0.5 * (cov_new + cov_new.T)
        mu_new = cov_new @ (prec_k @ q.means[j] - prec0 @ mu0)
        # log det Sigma_new = -log det (Sigma_k^-1 - Sigma_0^-1)
        lam = (
            2.0 * np.sum(log_diag[j] + np.log(np.diag(chol_new)))
            + q.means[j] @ prec_k @ q.means[j]
            - mu0 @ prec0 @ mu0
            - mu_new @ prec_new @ mu_new
        )
        new_means[j] = mu_new
        new_covs[j] = cov_new
        log_unnorm[j] = np.log(q.weights[j] + 1e-300) - 0.5 * lam
    mx = log_unnorm.max()
    w = np.exp(log_unnorm - mx)
    return GaussianMixture(w / w.sum(), new_means, new_covs)


def box_mass(mixture: GaussianMixture, box: UniformBox) -> float | None:
    """Exact mixture mass inside ``box``: sum_k alpha_k prod_j P_kj, P_kj
    being the mass of the box's interval along axis j under marginal j of
    component k.

    Defined for diagonal covariances; returns None when any covariance
    has a nonzero off-diagonal entry.
    """
    var = np.diagonal(mixture.covariances, axis1=1, axis2=2)
    if not np.array_equal(mixture.covariances, var[:, :, None] * np.eye(mixture.dim)):
        return None
    return math.fsum(w * math.prod(p) for w, p in _marginal_masses(mixture, box))


def box_mass_bound(mixture: GaussianMixture, box: UniformBox) -> float:
    """An upper bound on the mixture mass inside ``box`` for any
    covariance: sum_k alpha_k min_j P_kj, since the box lies inside each
    of its axis slabs."""
    return math.fsum(w * min(p) for w, p in _marginal_masses(mixture, box))


def _marginal_masses(mixture: GaussianMixture, box: UniformBox):
    """(alpha_k, [P_k1 ... P_kd]) per component: P_kj = Phi(b_kj) -
    Phi(a_kj), with a_kj, b_kj the box edges along axis j standardized by
    component k's mean and marginal standard deviation."""
    sd = np.sqrt(np.diagonal(mixture.covariances, axis1=1, axis2=2))
    lows = ((box.low - mixture.means) / sd).tolist()
    highs = ((box.high - mixture.means) / sd).tolist()
    return [(w, list(map(_normal_interval, lo, hi)))
            for w, lo, hi in zip(mixture.weights.tolist(), lows, highs)]


def _normal_interval(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a < b, with Phi(x) = erfc(-x / sqrt 2) / 2. An
    interval above zero is mirrored below it, so that upper tails keep
    their precision."""
    if a > 0:
        a, b = -b, -a
    return 0.5 * (math.erfc(-b / math.sqrt(2)) - math.erfc(-a / math.sqrt(2)))


def truncate(
    mixture: GaussianMixture,
    box: UniformBox,
    provenance: dict | None = None,
) -> PosteriorEstimate:
    """Restrict a mixture to a box support.

    Records the exact in-box mass of :func:`box_mass` (None for full
    covariances) in the provenance as ``in_box_mass``; for full
    covariances it also records :func:`box_mass_bound` as
    ``in_box_mass_bound``. Warns that the posterior is degenerate when the
    mass, or the bound, is below ``MASS_FLOOR``.
    """
    est = PosteriorEstimate(mixture=mixture, support=box,
                            provenance=dict(provenance or {}))
    mass = box_mass(mixture, box)
    est.provenance["in_box_mass"] = mass
    if mass is None:
        mass = est.provenance["in_box_mass_bound"] = box_mass_bound(mixture, box)
    if mass < MASS_FLOOR:
        warnings.warn(
            f"mixture mass inside support box is at most {mass:.1e}; posterior is degenerate",
            RuntimeWarning,
        )
    return est


def recover_posterior(model, x_r: np.ndarray, proposal: UniformBox | PosteriorEstimate,
                      provenance: dict | None = None) -> PosteriorEstimate:
    """The posterior q(theta | x_r) p / p~ on the prior box, p~ being the
    ``proposal`` the training thetas were drawn from: the prior box itself
    (p / p~ is constant there, so q is only truncated to it), or a
    one-component mixture on the prior box, which q is divided by
    (:func:`divide_by_gaussian`) before it is truncated to that support.

    ``model`` must expose ``predict_mixture(x) -> GaussianMixture`` in
    parameter units (see :class:`simcal.harness.FittedModel`).
    """
    mixture = model.predict_mixture(np.asarray(x_r, dtype=float))
    prov = dict(provenance or {})
    prov.setdefault("x_r", np.asarray(x_r, float).tolist())
    box = proposal
    if isinstance(proposal, PosteriorEstimate):
        mixture, box = divide_by_gaussian(mixture, proposal.mixture), proposal.support
    return truncate(mixture, box, provenance=prov)


def sample(p: PosteriorEstimate, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows (count, d) from the posterior, truncated to its
    support box; deterministic for a given seed, whatever the number of
    CPUs.

    Ancestral sampling with rejection, in rounds of numbered chunks of
    d x m draws: one uniform per column picks the component (zero-weight
    components are never picked), the column of standard normals goes
    through that component's mean and Cholesky factor, and the columns
    inside the box are kept. A round holds need / rate * 1.02 columns,
    clamped to [256, ``ROUND_CHUNKS`` full chunks], cut into chunks of at
    most ``CHUNK_ROWS[1]``, with the exact in-box mass of :func:`box_mass`
    as the rate, or for full covariances the acceptance seen so far.
    Chunk 0 draws from ``default_rng(seed)`` and chunk j >= 1 from
    ``SeedSequence(seed, spawn_key=(j,))``, so a call that chunk 0 fills
    draws what the serial sampler drew. With more than one usable CPU,
    one other thread draws a round's second chunk while the calling
    thread draws its first; the calling thread then copies the draws in
    the box straight into the output, in chunk order. A round of one
    chunk starts no thread, and no thread outlives the call. Memory is
    the output plus one slot per chunk of a round, made once per call:
    a chunk's normals, labels and scratch.

    Raises DegeneratePosteriorError before any draw when the in-box mass,
    or for full covariances its bound :func:`box_mass_bound`, is below
    ``MASS_FLOOR``. A full covariance whose bound passes but whose mass
    does not raises after one million consecutive rejected draws, counted
    in chunk order.
    """
    for name, value in (("count", count), ("seed", seed)):
        if value < 0:
            raise ContractError(f"{name} must be >= 0, got {value}")
    mixture, box = p.mixture, p.support
    mass = box_mass(mixture, box)
    upper = box_mass_bound(mixture, box) if mass is None else mass
    if upper < MASS_FLOOR:
        raise DegeneratePosteriorError(
            f"mixture mass inside support box is at most {upper:.1e}, below {MASS_FLOOR:g}")
    stream, draw, copy_out = _chunk_drawer(mixture, box, seed)
    threads = ROUND_CHUNKS if _usable_cpus() > 1 else 1
    try:
        out = np.empty((count, mixture.dim))
    except ValueError as exc:  # more rows than an array dimension can hold
        raise ContractError(f"count {count} is too large: {exc}") from None
    slots = []
    filled = drawn = accepted = rejected_run = first = 0
    while filled < count:
        rate = mass if mass is not None else (accepted / drawn if drawn else 1.0)
        total = ROUND_CHUNKS * CHUNK_ROWS[1]
        if rate:
            total = min(max(math.ceil((count - filled) / rate * 1.02), CHUNK_ROWS[0]), total)
        sizes = [min(CHUNK_ROWS[1], total - s) for s in range(0, total, CHUNK_ROWS[1])]
        if len(slots) < min(len(sizes), threads) or slots[0].rows < sizes[0]:
            slots = []  # the old slots go before the new ones are made
            slots = [_Slot(mixture.dim, sizes[0]) for _ in range(min(len(sizes), threads))]
        chunks = _drawn_chunks(stream, draw, first, sizes, slots)
        try:
            for m, slot in chunks:
                k = copy_out(m, slot, out[filled:])
                filled += min(k, count - filled)
                drawn += m
                accepted += k
                if mass is None:
                    rejected_run = 0 if k else rejected_run + m
                    if rejected_run >= 1_000_000:
                        raise DegeneratePosteriorError(
                            "one million consecutive rejections against the support box")
        finally:
            chunks.close()  # joins the other thread when a chunk raised here
        first += len(sizes)
    return out


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Slot:
    """The arrays that one chunk of up to ``rows`` draws is drawn in. A
    call of :func:`sample` makes its slots once and reuses them for every
    chunk."""

    def __init__(self, d: int, rows: int):
        self.rows = rows
        self.z = np.empty(d * rows)
        self.labels, self.tally = np.empty(rows, np.intp), np.empty(rows, np.uint8)
        self.buf = np.empty(rows)
        self.hit, self.inside = np.empty(rows, bool), np.empty(rows, bool)


def _chunk_drawer(mixture: GaussianMixture, box: UniformBox, seed: int):
    """``(stream, draw, copy_out)`` for numbered chunks of draws.
    ``stream(j)`` is chunk j's own Generator, so chunks may be drawn in
    any order and on any thread. ``draw(rng, m, slot)`` draws a chunk of
    m columns into ``slot``: the uniforms, then the (d, m) normals, each
    column put through its component and marked when it falls in the
    box. It writes only into arrays of the slot. ``copy_out(m, slot,
    dest)`` writes the first marked columns as rows of ``dest`` and
    returns how many were marked."""
    d = mixture.dim
    cum = np.cumsum(mixture.weights)
    cum = cum[:-1] / cum[-1]  # component k holds u in [cum[k-1], cum[k])
    means = mixture.means.T.copy()
    chol = mixture.chol
    scales = chol[:, range(d), range(d)].T.copy()
    factors = [[(i, chol[:, j, i].copy()) for i in range(j) if chol[:, j, i].any()]
               for j in range(d)]

    def stream(chunk: int) -> np.random.Generator:
        return np.random.default_rng(
            seed if chunk == 0 else np.random.SeedSequence(seed, spawn_key=(chunk,)))

    def draw(rng: np.random.Generator, m: int, slot: _Slot) -> None:
        z = slot.z[:d * m].reshape(d, m)
        labels, buf = slot.labels[:m], slot.buf[:m]
        hit, inside = slot.hit[:m], slot.inside[:m]
        u = rng.random(out=buf)  # the uniforms, until the labels exist
        rng.standard_normal(out=z)
        if cum.size < 255:  # count in bytes: bool + intp would buffer a cast
            tally = slot.tally[:m]
            tally.fill(0)
            for c in cum:
                np.add(tally, np.greater_equal(u, c, out=hit).view(np.uint8), out=tally)
            np.copyto(labels, tally)
        else:
            labels.fill(0)
            for c in cum:
                labels += np.greater_equal(u, c, out=hit)
        inside.fill(True)
        for j in range(d - 1, -1, -1):  # row j reads rows i <= j, still raw
            row = z[j]
            row *= np.take(scales[j], labels, out=buf, mode="clip")
            for i, f in factors[j]:
                np.take(f, labels, out=buf, mode="clip")
                buf *= z[i]
                row += buf
            row += np.take(means[j], labels, out=buf, mode="clip")
            inside &= np.greater_equal(row, box.low[j], out=hit)
            inside &= np.less_equal(row, box.high[j], out=hit)

    def copy_out(m: int, slot: _Slot, dest: np.ndarray) -> int:
        z, inside = slot.z[:d * m].reshape(d, m), slot.inside[:m]
        k = int(np.count_nonzero(inside))
        n = min(k, dest.shape[0])
        for j in range(d):
            dest[:n, j] = np.compress(inside, z[j], out=slot.buf[:k])[:n]
        return k

    return stream, draw, copy_out


def _drawn_chunks(stream, draw, first: int, sizes: list, slots: list):
    """Yield ``(m, slot)`` for chunks ``first``, ``first + 1``, ... of
    ``sizes`` draws, in chunk order, each drawn into a slot. With a slot
    per chunk, one other thread draws every chunk but the first while
    the calling thread draws the first and the caller copies it out.
    That thread only writes into arrays made before it starts (below
    256 components), so the heap sees the same allocations whatever the
    timing. It is joined before the second chunk is yielded and before
    this returns or raises, and its error is raised here."""
    if len(sizes) == 1 or len(slots) < len(sizes):
        for j, m in enumerate(sizes):
            draw(stream(first + j), m, slots[0])
            yield m, slots[0]
        return
    later = [(stream(first + j), m, slots[j]) for j, m in enumerate(sizes) if j]
    errors = []

    def draw_later():
        try:
            for rng, m, slot in later:
                draw(rng, m, slot)
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=draw_later)
    try:
        thread.start()
        draw(stream(first), sizes[0], slots[0])
        yield sizes[0], slots[0]
    finally:
        if thread.ident is not None:
            thread.join()
    if errors:
        raise errors[0]
    for _, m, slot in later:
        yield m, slot


def log_prob_target(p: PosteriorEstimate, theta_star: np.ndarray) -> float:
    """Mixture log-density at the target parameter, not divided by the
    in-box mass; -inf with a warning when the target sits outside the
    support box."""
    theta = np.asarray(theta_star, dtype=float).reshape(1, -1)
    lp = float(p.log_density_batch(theta)[0])
    if not p.support.contains(theta)[0]:
        warnings.warn("target parameter lies outside the posterior support",
                      RuntimeWarning)
    return lp
