"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints a single ``[ACCEPTANCE] criterion N ...: PASS`` line on
success (visible with ``pytest -v -s`` or in captured output); a failing
assertion marks the criterion red.
"""

import time

import numpy as np
import pytest

from simcal import cli
from simcal.abc_rejection import rejection_abc
from simcal.features import KernelConfig, apply_rff, build_rff, exact_kernel
from simcal.harness import (
    ExperimentConfig,
    density_grid,
    evaluate,
    generate_dataset,
    infer_posterior,
    synth_real_observation,
    train_model,
)
from simcal.mdn import GaussianMixture
from simcal.posterior import PosteriorEstimate, log_prob_target, sample, truncate
from simcal.priors import UniformBox


class _Budget:
    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"[ACCEPTANCE] criterion {self.number} ({self.name}): "
                  f"PASS ({elapsed:.1f}s)", flush=True)
        else:
            print(f"[ACCEPTANCE] criterion {self.number} ({self.name}): "
                  f"FAIL ({elapsed:.1f}s)", flush=True)
        return False


def _kernel_mae(num_features, pairs, sigma=1.0):
    fmap = build_rff(KernelConfig("rbf", sigma, num_features), pairs.shape[2])
    errs = []
    for a, b in pairs:
        approx = float(apply_rff(fmap, a) @ apply_rff(fmap, b))
        errs.append(abs(approx - exact_kernel(fmap.kernel, a, b)))
    return float(np.mean(errs))


def test_criterion_1_kernel_approximation():
    with _Budget(1, "kernel approximation", 10):
        rng = np.random.default_rng(0)
        pairs = rng.uniform(0, 1, (100, 2, 5))
        mae_1000 = _kernel_mae(1000, pairs)
        mae_250 = _kernel_mae(250, pairs)
        assert mae_1000 <= 0.05
        assert mae_1000 < mae_250


def test_criterion_2_gradient_oracle():
    from test_mdn import _finite_difference_check

    from simcal.features import init_neural_map

    with _Budget(2, "gradient oracle", 30):
        for trial in range(5):
            rng = np.random.default_rng(trial)
            rff = build_rff(KernelConfig("rbf", 0.5 + 0.3 * trial, 20 + 4 * trial), 3)
            assert _finite_difference_check(rff, rng) < 1e-4, ("rff", trial)
            nn = init_neural_map(3, 5 + trial, 12, rng)
            assert _finite_difference_check(nn, rng) < 1e-4, ("nn", trial)


def test_criterion_3_gaussian_division_oracle():
    from simcal.mdn import log_density_batch
    from simcal.posterior import divide_by_gaussian

    with _Budget(3, "Gaussian-division oracle", 30):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            means = rng.normal(0, 1, (k, d))
            covs = np.stack([np.diag(rng.uniform(0.05, 0.3, d))
                             for _ in range(k)])
            q = GaussianMixture(w, means, covs)
            proposal = GaussianMixture([1.0], [rng.normal(0, 0.5, d)],
                                       [np.eye(d) * rng.uniform(2.0, 5.0)])
            out = divide_by_gaussian(q, proposal)
            # grid over the 3-sigma region of every component
            pts = np.concatenate([
                means[j] + rng.normal(0, 1, (40, d)) * np.sqrt(np.diag(covs[j])) * 3
                for j in range(k)
            ])
            diff = pts - proposal.means[0]
            inv = np.linalg.inv(proposal.covariances[0])
            log_prop = (-0.5 * np.sum(diff @ inv * diff, axis=1)
                        - 0.5 * np.log((2 * np.pi) ** d
                                       * np.linalg.det(proposal.covariances[0])))
            ratio = (log_density_batch(out, pts) + log_prop
                     - log_density_batch(q, pts))
            assert np.ptp(ratio) < 1e-6 * max(1.0, abs(float(ratio.mean())))


@pytest.mark.slow
def test_criterion_4_pendulum_ordering():
    with _Budget(4, "pendulum dt ordering", 600):
        config = ExperimentConfig(
            benchmark="pendulum", num_train=1000, repeats=5, seed=0,
            methods=("mdn_rff", "rejection_abc", "control_shuffled"),
        )
        rows = {r.method: r for r in evaluate(config)}
        assert not any(r.failed for r in rows.values()), rows
        mdn = rows["mdn_rff"].mean
        abc = rows["rejection_abc"].mean
        control = rows["control_shuffled"].mean
        print(f"    mdn_rff {mdn:.3f} > rejection_abc {abc:.3f} "
              f"> control_shuffled {control:.3f}", flush=True)
        assert mdn > abc
        assert abc > control


@pytest.mark.slow
def test_criterion_5_cartpole_joint_posterior():
    with _Budget(5, "cartpole joint posterior", 900):
        config = ExperimentConfig(
            benchmark="cartpole", controller_kind="bang_bang_energy",
            num_train=1000, seed=0,
        )
        theta_star = np.asarray(config.theta_star)
        log_uniform = -np.log(np.prod(np.asarray(config.prior_high)
                                      - np.asarray(config.prior_low)))
        margins, hits = [], 0
        for r in range(5):
            dataset = generate_dataset(config, r)
            x_r = synth_real_observation(config, dataset.schema, r)
            model, _ = train_model(config, dataset, "rff", r)
            post = infer_posterior(config, model, x_r)
            margins.append(log_prob_target(post, theta_star) - log_uniform)
            grid, logdens = density_grid(post)
            top = grid[int(np.argmax(logdens))]
            dist = float(np.linalg.norm(top - theta_star))
            hits += dist <= 0.3
            print(f"    repeat {r}: margin {margins[-1]:.3f} nats, "
                  f"top-cell distance {dist:.3f}", flush=True)
        assert np.mean(margins) >= 1.0
        assert hits >= 4


def test_criterion_6_sampling_consistency():
    with _Budget(6, "sampling consistency", 60):
        m = GaussianMixture([0.3, 0.7], [[-5.0, 0.0], [5.0, 1.0]],
                            [[0.25, 0.5], [0.25, 0.5]])
        box = UniformBox([-10.0, -10.0], [10.0, 10.0])
        p = truncate(m, box)
        draws = sample(p, 100000, seed=0)
        assert np.all((draws >= p.support.low) & (draws <= p.support.high))
        labels = draws[:, 0] > 0
        occ = np.mean(labels)
        assert abs(occ - 0.7) < 0.01
        for comp, mask in ((0, ~labels), (1, labels)):
            got = draws[mask].mean(axis=0)
            se = np.sqrt(np.diag(m.covariances[comp]) / mask.sum())
            assert np.all(np.abs(got - m.means[comp]) < 3 * se)


def test_criterion_7_abc_baseline_sanity():
    with _Budget(7, "ABC baseline sanity", 60):
        # a table of 10,000 prior draws whose statistics are the draws
        thetas = UniformBox([0.0], [1.0]).sample(np.random.default_rng(0), 10000)
        res = rejection_abc(thetas, thetas, [0.5], 0.1)
        assert np.all(res.accepted > 0.4 - 1e-12)
        assert np.all(res.accepted < 0.6 + 1e-12)
        assert abs(len(res.accepted) / len(res.thetas) - 0.2) < 0.02


CFG_YAML = """\
benchmark: pendulum
num_train: 200
num_features: 80
num_components: 3
epochs: 60
cv_epochs: 20
repeats: 1
real_rollouts: 5
seed: 17
"""


def test_criterion_8_pipeline_determinism(tmp_path):
    with _Budget(8, "pipeline determinism", 300):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(CFG_YAML)
        outs = (tmp_path / "run1", tmp_path / "run2")
        for out in outs:
            assert cli.main(["generate", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            assert cli.main(["train", "--config", str(cfg_path),
                             "--dataset", str(out / "dataset.csv"),
                             "--out", str(out)]) == 0
            assert cli.main(["infer", "--config", str(cfg_path),
                             "--model", str(out / "model.json"),
                             "--out", str(out)]) == 0
            assert cli.main(["sample", "--posterior",
                             str(out / "posterior.json"),
                             "--count", "1000", "--seed", "5",
                             "--out", str(out)]) == 0
        for name in ("dataset.csv", "model.json", "posterior.json",
                     "samples.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name
