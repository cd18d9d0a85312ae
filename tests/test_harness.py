import csv
import dataclasses
import functools
import importlib.util
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from simcal import cli, features, harness
from simcal.abc_rejection import abc_log_prob
from simcal.errors import ConfigurationError, ContractError, TrainingDivergenceError
from simcal.harness import (
    ExperimentConfig,
    config_from_dict,
    config_hash,
    density_grid,
    evaluate,
    generate_dataset,
    infer_posterior,
    load_config,
    load_dataset,
    load_model,
    load_posterior,
    save_dataset,
    save_model,
    save_posterior,
    save_samples,
    synth_real_observation,
    train_model,
)
from simcal.mdn import GaussianMixture
from simcal.posterior import (
    PosteriorEstimate,
    divide_by_gaussian,
    log_prob_target,
    sample,
    truncate,
)
from simcal.priors import UniformBox
from simcal.simulators import builtin_controller, get_model, rollout


def small_config(**over):
    base = dict(
        benchmark="pendulum", num_train=100, num_features=40,
        num_components=3, epochs=40, cv_epochs=20, lengthscale_candidates=(1.0,),
        repeats=1, real_rollouts=3, seed=11,
    )
    base.update(over)
    return ExperimentConfig(**base)


# -- configs ---------------------------------------------------------------

def test_config_defaults_fill_prior_and_theta_star():
    """Each benchmark model's prior box and true parameters, as literals."""
    for benchmark, low, high, theta_star in (
            ("cartpole", (0.1, 0.1), (2.0, 2.0), (1.2, 0.6)),
            ("pendulum", (0.01,), (0.3,), (0.12,)),
            ("lotka_volterra", (0.01,) * 4, (1.0,) * 4, (0.6, 0.25, 0.5, 0.3))):
        cfg = ExperimentConfig(benchmark=benchmark)
        assert (cfg.prior_low, cfg.prior_high, cfg.theta_star) == (low, high, theta_star)
        assert cfg.proposal is cfg.prior
        np.testing.assert_array_equal(cfg.prior.low, low)
        np.testing.assert_array_equal(cfg.prior.high, high)


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(benchmark="double_pendulum")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(benchmark="pendulum", theta_star=(0.1, 0.1))
    with pytest.raises(ConfigurationError):
        config_from_dict({"benchmark": "pendulum", "unknown_key": 1})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(benchmark="pendulum", methods=("gibbs",))
    # a fixed lengthscale is a one-element lengthscale_candidates
    with pytest.raises(ConfigurationError, match="lengthscale"):
        config_from_dict({"benchmark": "pendulum", "lengthscale": 1.0})
    # each value must have the type of its field's default
    for key, value in (("seed", True), ("seed", None), ("learning_rate", "fast"),
                       ("prior_low", 0.1), ("proposal_cov", [0.01]),
                       ("methods", "mdn_rff"), ("methods", [1]), ("benchmark", 3),
                       # seeds and counts out of range
                       ("seed", -1), ("num_train", 0),
                       ("num_features", 0), ("num_components", 0),
                       ("epochs", 0), ("cv_epochs", 0), ("batch_size", 0),
                       ("repeats", 0), ("real_rollouts", 0),
                       # rates and patience out of range, NaN included
                       ("learning_rate", -1.0), ("learning_rate", 0.0),
                       ("learning_rate", float("nan")), ("patience", -1),
                       ("proposal_cov", [[0.01, 0.0], [0.0]]),
                       # values used only by some stages, checked at load
                       *REFUSED_AT_LOAD.values()):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({"benchmark": "pendulum", key: value})
    # cart-pole has 2 parameters, so 3 values are refused, also all together
    three = {"prior_low": [0.1] * 3, "prior_high": [2.0] * 3, "theta_star": [0.5] * 3}
    with pytest.raises(ConfigurationError, match="theta_star"):
        config_from_dict({"benchmark": "cartpole", **three})
    for key, value in (*three.items(), ("proposal_mean", [1.0, 0.6, 0.1])):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({"benchmark": "cartpole", key: value,
                              "proposal_cov": np.eye(3).tolist()})


# Values that only a later stage would trip on; each exits 2 at load.
REFUSED_AT_LOAD = {
    "kernel_family": ("kernel_family", "matern"),
    "lengthscale_negative": ("lengthscale_candidates", [-1.0]),
    "lengthscale_nan": ("lengthscale_candidates", [float("nan")]),
    "lengthscale_candidates_negative": ("lengthscale_candidates", [-1.0, 1.0]),
    "proposal": ("proposal", "gaussian"),
    "methods_empty": ("methods", []),
    "horizon_500": ("horizon", 500),
    "horizon_0": ("horizon", 0),
    "controller_kind": ("controller_kind", "nope"),
    "prior_low_count": ("prior_low", [0.01, 0.01]),
    "prior_high_below_low": ("prior_high", [0.005]),
    "proposal_cov_alone": ("proposal_cov", [[0.01]]),
    "theta_star_outside_prior": ("theta_star", [0.4]),
    "prior_low_below_limit": ("prior_low", [0.0001]),
    "num_features_odd": ("num_features", 7),
}


@pytest.mark.parametrize("case", sorted(REFUSED_AT_LOAD))
def test_cli_evaluate_refuses_at_load_exit_2(tmp_path, capsys, case):
    key, value = REFUSED_AT_LOAD[case]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"benchmark": "pendulum", key: value}))
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("key", ["abc_epsilon", "abc_accept_rate", "abc_max_simulations",
                                 "controller_seed", "hidden_units"])
def test_removed_config_keys_exit_2(tmp_path, capsys, key):
    """Rejection ABC's budget and rate, the controller seed and the hidden
    width are constants: a config that sets one is refused, with no
    traceback, and nothing is written."""
    value = {"abc_epsilon": 0.5, "abc_accept_rate": 0.02}.get(key, 7)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"benchmark": "pendulum", key: value}))
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown config keys") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "dataset.csv").exists()


def test_num_train_below_ten_rows_per_component_exit_2(tmp_path, capsys):
    """num_train needs ten rows per mixture component: 9 with one component
    exits 2, 10 loads."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("benchmark: pendulum\nnum_train: 9\nnum_components: 1\n")
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "'num_train'" in err
    assert "Traceback" not in err and not (tmp_path / "dataset.csv").exists()
    assert config_from_dict({"benchmark": "pendulum", "num_train": 10,
                             "num_components": 1}).num_train == 10


def test_odd_num_features_is_refused_only_where_an_rff_map_is_built(tmp_path, capsys):
    """An odd num_features exits 2 at load when the config can build an RFF
    map (feature_type rff, or an mdn_rff or control_shuffled method), and
    writes nothing; neural features alone take any count."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("benchmark: pendulum\nnum_features: 7\n")
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "num_features" in err
    assert not list(tmp_path.glob("*.csv"))
    for over in ({"methods": ["mdn_nn", "mdn_rff"]}, {"methods": ["control_shuffled"]}):
        with pytest.raises(ConfigurationError, match="num_features"):
            config_from_dict({"benchmark": "pendulum", "feature_type": "nn",
                              "num_features": 7, **over})
    cfg = config_from_dict({"benchmark": "pendulum", "feature_type": "nn", "num_features": 7,
                            "methods": ["mdn_nn", "rejection_abc"]})
    assert cfg.num_features == 7


def test_malformed_gaussian_proposal_is_refused_at_load(tmp_path, capsys):
    """A non-finite, not positive-definite or mis-shaped proposal exits 2
    and names the four fields that build the proposal."""
    cfg_path = tmp_path / "cfg.yaml"
    for mean, cov, why in (("[0.1]", "[[.nan]]", "finite"), ("[.nan]", "[[0.01]]", "finite"),
                           ("[0.1]", "[[-0.01]]", "positive definite"),
                           ("[0.1]", "[[0.01, 0.0]]", "shapes")):
        cfg_path.write_text(f"benchmark: pendulum\nproposal_mean: {mean}\nproposal_cov: {cov}\n")
        capsys.readouterr()
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and why in err
        assert all(name in err for name in ("prior_low", "prior_high", "proposal_mean",
                                            "proposal_cov"))
        assert "Traceback" not in err and not (tmp_path / "dataset.csv").exists()


def test_shipped_and_benchmark_configs_load():
    root = Path(__file__).resolve().parents[1]
    shipped = sorted((root / "configs").glob("*.yaml"))
    assert shipped
    for path in shipped:
        load_config(path)
    spec = importlib.util.spec_from_file_location(
        "perfbench_configs", root / "perfbench" / "configs.py")
    configs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(configs)
    for workload in configs.WORKLOADS:
        config_from_dict(yaml.safe_load(configs.config_text(workload, 1)))


def test_config_hash_stable_and_sensitive():
    a = small_config()
    b = small_config()
    c = small_config(seed=12)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def test_load_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("benchmark: pendulum\nnum_train: 120\ntheta_star: [0.1]\n"
                    "learning_rate: 1\nproposal_mean: [0.1]\n"
                    "proposal_cov: [[0.01]]\n")
    cfg = load_config(path)
    assert cfg.num_train == 120
    assert cfg.theta_star == (0.1,)
    assert cfg.learning_rate == 1
    assert cfg.proposal_mean == (0.1,) and cfg.proposal_cov == ([0.01],)
    assert isinstance(cfg.proposal, PosteriorEstimate) and cfg.proposal.support is cfg.prior
    path.write_text("- not\n- a\n- mapping\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_config_refuses_a_proposal_with_too_little_mass_in_the_prior_box(tmp_path, capsys):
    """N(0.45, 0.01^2) lies wholly above pendulum's prior box [0.01, 0.3]:
    generate exits 2 and writes nothing. A full covariance is refused by
    its mass bound; a Gaussian half inside the box loads."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("benchmark: pendulum\nnum_train: 100\n"
                        "proposal_mean: [0.45]\nproposal_cov: [[0.0001]]\n")
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "'proposal_mean' and 'proposal_cov'" in err
    assert "below 1e-06" in err and not (tmp_path / "dataset.csv").exists()
    with pytest.raises(ConfigurationError, match="proposal_cov"):
        ExperimentConfig(proposal_mean=(5.0, 5.0), proposal_cov=((0.01, 0.005), (0.005, 0.01)))
    cfg = ExperimentConfig(benchmark="pendulum", proposal_mean=(0.3,), proposal_cov=((0.0001,),))
    assert cfg.proposal.sample(np.random.default_rng(0), 50).max() <= 0.3


# -- dataset ---------------------------------------------------------------

def test_generate_dataset_shapes_and_determinism():
    cfg = small_config()
    d1 = generate_dataset(cfg)
    d2 = generate_dataset(cfg)
    assert d1.thetas.shape == (100, 1)
    assert d1.raw_stats.shape[0] == 100
    np.testing.assert_array_equal(d1.thetas, d2.thetas)
    np.testing.assert_array_equal(d1.raw_stats, d2.raw_stats)
    x = d1.x_standardized
    assert np.max(np.abs(x.mean(axis=0))) < 1e-8


def test_dataset_roundtrip_byte_identical(tmp_path):
    cfg = small_config()
    d = generate_dataset(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(d, p1)
    loaded = load_dataset(p1)
    np.testing.assert_array_equal(loaded.thetas, d.thetas)
    np.testing.assert_array_equal(loaded.raw_stats, d.raw_stats)
    assert loaded.config_hash == d.config_hash
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_dataset_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ConfigurationError):
        load_dataset(path)


# -- model -----------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted():
    cfg = small_config()
    dataset = generate_dataset(cfg)
    model, report = train_model(cfg, dataset, "rff")
    return cfg, dataset, model, report


def test_train_model_predicts_in_parameter_units(fitted):
    cfg, dataset, model, _ = fitted
    m = model.predict_mixture(dataset.x_standardized[0])
    assert m.means.shape == (cfg.num_components, 1)
    # pendulum dt lives in [0.01, 0.3]; predictions should be near that range
    assert np.all(m.means > -0.5) and np.all(m.means < 1.0)


@pytest.mark.parametrize("feature_type", ["rff", "nn"])
def test_model_roundtrip_byte_identical(fitted, tmp_path, feature_type):
    """Each feature map's to_doc / from_doc pair round-trips the model
    file byte for byte and predicts the same mixture."""
    _, dataset, model, _ = fitted
    if feature_type == "nn":
        cfg = small_config(feature_type="nn", epochs=20)
        dataset = generate_dataset(cfg)
        model, _ = train_model(cfg, dataset, "nn")
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["feature"]["type"] == feature_type
    for x in (np.zeros(model.schema.stat_dim), dataset.x_standardized[1]):
        a, b = model.predict_mixture(x), loaded.predict_mixture(x)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)


def test_load_model_rejects_foreign_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ConfigurationError):
        load_model(path)


# -- posterior artifacts ---------------------------------------------------

def test_posterior_roundtrip_and_grid(fitted, tmp_path):
    cfg, dataset, model, _ = fitted
    x_r = synth_real_observation(cfg, dataset.schema)
    post = infer_posterior(cfg, model, x_r)
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    save_posterior(post, p1, model.config_hash)
    loaded = load_posterior(p1)
    save_posterior(loaded, p2, model.config_hash)
    assert p1.read_bytes() == p2.read_bytes()
    grid, logdens = density_grid(post)
    assert grid.shape == (512, 1)
    assert logdens.shape == (512,)
    # outside-the-box entries cannot appear: the grid spans the prior box
    assert grid.min() >= cfg.prior_low[0] - 1e-12
    assert grid.max() <= cfg.prior_high[0] + 1e-12


def test_infer_posterior_divides_out_the_config_proposal(fitted):
    """The posterior is the head's mixture divided by the proposal the
    dataset was drawn from and truncated to its support, bit for bit; a
    uniform proposal only truncates, to the prior box itself."""
    cfg, dataset, model, _ = fitted
    x_r = synth_real_observation(cfg, dataset.schema)
    post = infer_posterior(cfg, model, x_r)
    assert post.support is cfg.prior
    for name in ("weights", "means", "covariances"):
        np.testing.assert_array_equal(getattr(post.mixture, name),
                                      getattr(model.predict_mixture(x_r), name))
    gcfg = dataclasses.replace(cfg, proposal_mean=(0.12,), proposal_cov=((1.0,),))
    post = infer_posterior(gcfg, model, x_r)
    want = truncate(divide_by_gaussian(model.predict_mixture(x_r), gcfg.proposal.mixture),
                    gcfg.proposal.support)
    assert post.support is gcfg.prior
    for name in ("weights", "means", "covariances"):
        np.testing.assert_array_equal(getattr(post.mixture, name), getattr(want.mixture, name))
    assert not np.array_equal(post.mixture.means, model.predict_mixture(x_r).means)


def test_density_grid_dimensions():
    m2 = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    grid, _ = density_grid(PosteriorEstimate(m2, UniformBox([-1, -1], [1, 1])))
    assert grid.shape == (128 * 128, 2)
    m3 = GaussianMixture([1.0], [np.zeros(3)], [np.ones(3)])
    assert density_grid(PosteriorEstimate(m3, UniformBox([-1] * 3, [1] * 3))) is None


def test_save_samples_header(tmp_path):
    path = tmp_path / "s.csv"
    save_samples(np.array([[0.1, 0.2], [0.3, 0.4]]), ["a", "b"], path, "deadbeef")
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("#SIMCAL-SAMPLES ")
    header = json.loads(lines[0].split(" ", 1)[1])
    assert header["param_names"] == ["a", "b"]
    assert header["config_hash"] == "deadbeef"
    assert len(lines) == 3


EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e22, 0.1, 3.0]


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from(EDGE_FLOATS)
              | st.integers(-10 ** 17, 10 ** 17).map(float)))
def test_csv_rows_equal_per_value_repr(a):
    expected = "\n".join(",".join(repr(float(v)) for v in row) for row in a)
    assert harness._csv_rows(a) == expected


# -- evaluate --------------------------------------------------------------

def test_evaluate_single_repeat_rows():
    cfg = small_config(methods=("mdn_rff",), epochs=30)
    rows = evaluate(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.method == "mdn_rff"
    assert row.repeats == 1
    assert row.std == 0.0
    assert np.isfinite(row.mean)
    assert not row.failed


# -- CLI -------------------------------------------------------------------

CFG_YAML = """\
benchmark: pendulum
num_train: 100
num_features: 40
num_components: 3
epochs: 30
cv_epochs: 15
lengthscale_candidates: [1.0]
repeats: 1
real_rollouts: 3
seed: 11
"""


def test_cli_pipeline_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert cli.main(["generate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli.main(["train", "--config", str(cfg_path),
                         "--dataset", str(out / "dataset.csv"),
                         "--out", str(out)]) == 0
        assert cli.main(["infer", "--config", str(cfg_path),
                         "--model", str(out / "model.json"),
                         "--out", str(out)]) == 0
        assert cli.main(["sample", "--posterior", str(out / "posterior.json"),
                         "--count", "50", "--seed", "3",
                         "--out", str(out)]) == 0
    for name in ("dataset.csv", "model.json", "posterior.json",
                 "density_grid.csv", "samples.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    post = load_posterior(out1 / "posterior.json")
    draws = sample(post, 50, seed=3)
    assert np.all((draws >= 0.01) & (draws <= 0.3))


def test_cli_train_records_cv_decisions_and_infer_reports_target(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML.replace("lengthscale_candidates: [1.0]",
                                         "lengthscale_candidates: [0.5, 1.0, 2.0]"))
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--dataset",
                     str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 0
    prov = json.loads((tmp_path / "model.json").read_text())["provenance"]
    rungs = prov["cv_rungs"]
    assert [r["fold"] for r in rungs] == [0, 1, 2]
    assert rungs[0]["lengthscales"] == [0.5, 1.0, 2.0]
    assert len(rungs[1]["lengthscales"]) == len(rungs[2]["lengthscales"]) == 2
    assert all(len(r["totals"]) == len(r["lengthscales"]) for r in rungs)
    assert prov["selected_lengthscale"] in rungs[2]["lengthscales"]
    assert f"(best epoch {prov['best_epoch']})" in capsys.readouterr().out

    assert cli.main(["infer", "--config", str(cfg_path), "--model",
                     str(tmp_path / "model.json"), "--out", str(tmp_path)]) == 0
    post = load_posterior(tmp_path / "posterior.json")
    cfg = load_config(cfg_path)
    out = capsys.readouterr().out
    assert f"log p(theta*) = {log_prob_target(post, np.asarray(cfg.theta_star)):.3f}" in out
    grid, logdens = density_grid(post)
    assert f"density peak at {grid[int(np.argmax(logdens))].tolist()}" in out


def test_cli_config_hash_mismatch_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML)
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    other = tmp_path / "other.yaml"
    other.write_text(CFG_YAML.replace("seed: 11", "seed: 12"))
    assert cli.main(["train", "--config", str(other),
                     "--dataset", str(out / "dataset.csv"),
                     "--out", str(out)]) == 2


def test_cli_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("benchmark: nope\n")
    assert cli.main(["generate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["generate", "--config", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path)]) == 2


UNPARSEABLE = {
    "yaml_syntax": ("--config", b"benchmark: [cartpole\n"),
    "config_not_utf8": ("--config", b"benchmark: cart\xff\xfepole\n"),
    "num_train_text": ("--config", b"num_train: abc\n"),
    "theta_star_scalar": ("--config", b"theta_star: 5\n"),
    "seed_text": ("--config", b"seed: abc\n"),
    "horizon_text": ("--config", b"horizon: abc\n"),
    "prior_low_text": ("--config", b"prior_low: [a, b]\n"),
    "num_train_fraction": ("--config", b"num_train: 60.5\n"),
    "lengthscale_text": ("--config", b"lengthscale_candidates: abc\n"),
    "methods_scalar": ("--config", b"methods: mdn_rff\n"),
    "proposal_cov_ragged": ("--config", b"proposal_mean: [0.1, 0.1]\n"
                            b"proposal_cov: [[0.01, 0.0], [0.0]]\n"),
    "proposal_cov_not_dxd": ("--config", b"proposal_mean: [0.1, 0.1]\n"
                             b"proposal_cov: [[0.01]]\n"),
    "dataset_not_utf8": ("--dataset", b"#SIMCAL-DATASET \xff\xfe\n1.0,2.0\n"),
}


@pytest.mark.parametrize("case", sorted(UNPARSEABLE))
def test_cli_unparseable_input_exit_2(tmp_path, capsys, case):
    flag, data = UNPARSEABLE[case]
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    if flag == "--config":
        argv = ["generate", "--config", str(bad), "--out", str(tmp_path)]
    else:
        good = tmp_path / "cfg.yaml"
        good.write_text(CFG_YAML)
        argv = ["train", "--config", str(good), "--dataset", str(bad),
                "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_cli_chain_with_a_gaussian_proposal(tmp_path, capsys):
    """A config with proposal_mean and proposal_cov runs the whole chain.
    A component forced wider than the proposal fails infer with exit 3."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML.replace("benchmark: pendulum", "benchmark: cartpole")
                        .replace("num_train: 100", "num_train: 60")
                        + "proposal_mean: [1.0, 0.6]\n"
                        + "proposal_cov: [[0.0001, 0.0], [0.0, 0.0001]]\n")
    assert isinstance(load_config(cfg_path).proposal, PosteriorEstimate)
    for cmd, extra in (("generate", []),
                       ("train", ["--dataset", str(tmp_path / "dataset.csv")]),
                       ("infer", ["--model", str(tmp_path / "model.json")])):
        assert cli.main([cmd, "--config", str(cfg_path), "--out", str(tmp_path)]
                        + extra) == 0
    assert load_dataset(tmp_path / "dataset.csv").thetas.shape == (60, 2)
    assert cli.main(["sample", "--posterior", str(tmp_path / "posterior.json"),
                     "--count", "20", "--out", str(tmp_path)]) == 0

    (tmp_path / "posterior.json").unlink()
    doc = json.loads((tmp_path / "model.json").read_text())
    k, d = doc["head"]["num_components"], 2
    last = k + k * d + (k - 1) * d    # the variance rows of the last component
    doc["head"]["bias"][last:last + d] = [1e6] * d
    (tmp_path / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["infer", "--config", str(cfg_path), "--model",
                     str(tmp_path / "model.json"), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and f"component {k - 1} " in err
    assert "Traceback" not in err
    assert not (tmp_path / "posterior.json").exists()


def _cli_round(root, cfg: dict, *seed) -> float:
    """generate -> train -> infer of ``cfg`` through cli.main, each stage
    exiting 0; returns log p(theta*) under the posterior."""
    root.mkdir()
    path = root / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    common = ["--config", str(path), "--out", str(root), *seed]
    for argv in (["generate"], ["train", "--dataset", str(root / "dataset.csv")],
                 ["infer", "--model", str(root / "model.json")]):
        assert cli.main(argv + common) == 0, argv[0]
    return log_prob_target(load_posterior(root / "posterior.json"),
                           np.asarray(load_config(path).theta_star))


def test_adaptive_round_through_the_cli(tmp_path):
    """BayesSim's second round: the Gaussian moments of round 1's sample
    draws are round 2's proposal_mean and proposal_cov. Unwidened, theta*
    scores at least as high as in round 1 (it did on each of seeds 0-7 at
    this size, 2.0 -> 8.7 nats at seed 2). With the covariance x4, every
    stage exits 0: untruncated, that proposal put more than 1% of its
    --seed 0 draws below cart-pole's 0.01 pole-length limit."""
    base = dict(benchmark="cartpole", controller_kind="bang_bang_energy",
                num_train=400, epochs=300, seed=2)
    round1 = _cli_round(tmp_path / "round1", base)
    assert cli.main(["sample", "--posterior", str(tmp_path / "round1" / "posterior.json"),
                     "--count", "4000", "--seed", "0", "--out", str(tmp_path)]) == 0
    draws = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
    mean, cov = draws.mean(axis=0).tolist(), np.cov(draws, rowvar=False)
    round2 = _cli_round(tmp_path / "unwidened",
                        dict(base, proposal_mean=mean, proposal_cov=cov.tolist()))
    assert round2 >= round1
    _cli_round(tmp_path / "widened",
               dict(base, proposal_mean=mean, proposal_cov=(4 * cov).tolist()), "--seed", "0")


# -- failure accounting ----------------------------------------------------

def _gaussian_cartpole(**over):
    # N(1, 0.35^2) per parameter puts about 1.4% of its mass outside the
    # prior box [0.1, 2]^2 and a few untruncated draws below cart-pole's
    # 0.01 limit: 3 of 200 at seed 14
    base = dict(benchmark="cartpole", controller_kind="bang_bang_energy",
                num_train=200, num_components=3, proposal_mean=(1.0, 1.0),
                proposal_cov=((0.35 ** 2, 0.0), (0.0, 0.35 ** 2)))
    base.update(over)
    return ExperimentConfig(**base)


def test_generate_dataset_draws_a_gaussian_proposal_inside_the_prior_box():
    """The draws are posterior.sample of the one-component mixture on the
    prior box, seeded from the dataset stream, and every row is kept."""
    cfg = _gaussian_cartpole(seed=14)
    d = generate_dataset(cfg)
    truncated = PosteriorEstimate(
        GaussianMixture([1.0], [[1.0, 1.0]], [[0.35 ** 2, 0.35 ** 2]]), cfg.prior)
    seed = int(harness.random_stream(cfg, "dataset").integers(2 ** 63))
    np.testing.assert_array_equal(d.thetas, sample(truncated, cfg.num_train, seed))
    assert d.thetas.shape == (200, 2) and cfg.prior.contains(d.thetas).all()
    assert (cfg.prior.low > 0.01).all()  # so no draw can leave the model's limits


def _diverge_rows(monkeypatch, mask):
    """Mark the ``mask`` rows diverged in every rollout batch of its length,
    and leave the other batches as they are."""
    def fail(*args, **kwargs):
        batch = rollout(*args, **kwargs)
        if len(batch.lengths) != len(mask):
            return batch
        return dataclasses.replace(batch, diverged=batch.diverged | mask)
    monkeypatch.setattr(harness, "rollout", fail)


def test_generate_dataset_aborts_above_one_percent_failed(monkeypatch):
    """Of 200 draws, 2 diverged (1%) are dropped and 3 abort; 1-step
    rollouts are too short."""
    cfg = small_config(num_train=200)
    _diverge_rows(monkeypatch, np.arange(200) < 2)
    assert generate_dataset(cfg).thetas.shape == (198, 1)
    _diverge_rows(monkeypatch, np.arange(200) < 3)
    with pytest.raises(ConfigurationError) as info:
        generate_dataset(cfg)
    assert "3/200 draws failed: 3 diverged, 0 shorter than 2 steps" in str(info.value)
    monkeypatch.undo()
    with pytest.raises(ConfigurationError, match="0 diverged, 200 shorter than 2 steps"):
        generate_dataset(small_config(num_train=200, horizon=1))


@pytest.mark.parametrize("num_train, k", [(150, 10), (1000, 20)])
def test_abc_accepts_the_dataset_rows_nearest_the_observation(monkeypatch, num_train, k):
    """Rejection ABC simulates nothing of its own: each repeat rolls out
    only the dataset and the real observation, and scores the KDE of the
    max(ceil(0.02 N), 10) dataset rows nearest to x_r."""
    cfg = small_config(seed=11, methods=("rejection_abc",), repeats=2, num_train=num_train)
    batches = []

    def counting_rollout(*args, **kwargs):
        batches.append(len(kwargs["seed"]))
        return rollout(*args, **kwargs)

    monkeypatch.setattr(harness, "rollout", counting_rollout)
    (row,) = evaluate(cfg)
    monkeypatch.undo()
    assert batches == [num_train, cfg.real_rollouts] * cfg.repeats
    assert not row.failed and row.repeats == cfg.repeats
    expected = []
    for r in range(cfg.repeats):
        dataset = generate_dataset(cfg, r)
        x_r = synth_real_observation(cfg, dataset.schema, r)
        nearest = np.argsort(np.linalg.norm(dataset.x_standardized - x_r, axis=1))[:k]
        expected.append(abc_log_prob(dataset.thetas[np.sort(nearest)],
                                     np.asarray(cfg.theta_star)))
    assert row.mean == np.mean(expected) and row.std == np.std(expected)


# -- seed plan -------------------------------------------------------------

def test_seed_streams_are_disjoint(monkeypatch):
    """Dataset and real-observation episodes get disjoint seeds (the old
    seed*100003+i and (seed+500)*7919+i shared 8 here), and no two
    streams of 100 repeats share a spawn key."""
    seen = []

    def recording_rollout(*args, seed, **kwargs):
        seen.append(set(np.asarray(seed).tolist()))
        return rollout(*args, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "rollout", recording_rollout)
    cfg = small_config(seed=43, real_rollouts=120)
    synth_real_observation(cfg, generate_dataset(cfg).schema)
    dataset_seeds, real_seeds = seen
    assert len(dataset_seeds) == cfg.num_train and len(real_seeds) == 120
    assert not dataset_seeds & real_seeds
    keys = [harness.random_stream(cfg, name, r).bit_generator.seed_seq.spawn_key
            for name in harness.SEED_STREAMS for r in range(100)]
    assert len(set(keys)) == len(keys) == 600


# -- corrupt dataset files -------------------------------------------------

# Each corruption and the part of the message that names its own fault.
DATASET_CORRUPTIONS = {"header_only": "are not rows of", "ragged": "inhomogeneous",
                       "version_1": "format version 1", "mean_short": "standardizer"}


@pytest.mark.parametrize("keep", sorted(DATASET_CORRUPTIONS))
def test_cli_train_on_corrupt_dataset_exit_2(tmp_path, capsys, keep):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML)
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    if keep == "header_only":
        lines = lines[:1]
    elif keep == "ragged":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif keep == "version_1":
        version = f'"version": {harness.FORMAT_VERSION}'
        assert version in lines[0]
        lines[0] = lines[0].replace(version, '"version": 1')
    else:
        tag, header = lines[0].split(" ", 1)
        header = json.loads(header)
        header["standardizer_mean"].pop()
        lines[0] = f"{tag} {json.dumps(header)}"
    (out / "dataset.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=DATASET_CORRUPTIONS[keep]):
        load_dataset(out / "dataset.csv")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path),
                     "--dataset", str(out / "dataset.csv"),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and DATASET_CORRUPTIONS[keep] in err
    assert "Traceback" not in err


# -- benchmark tracer contract ---------------------------------------------

def test_benchmark_tracer_hooks_run_and_restore():
    import importlib.util
    from pathlib import Path

    from simcal import harness

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    cfg = ExperimentConfig(benchmark="cartpole", num_train=60,
                           num_components=3, horizon=80, seed=4)
    originals = [getattr(importlib.import_module(m), a)
                 for m, a, _, _ in spans.HOOKS]
    tracer = spans.Tracer()
    saved = spans.instrument(tracer)
    try:
        traced = harness.generate_dataset(cfg)
    finally:
        restored = spans.uninstrument(saved)
    assert restored
    assert [getattr(importlib.import_module(m), a)
            for m, a, _, _ in spans.HOOKS] == originals

    plain = generate_dataset(cfg)
    np.testing.assert_array_equal(traced.thetas, plain.thetas)
    np.testing.assert_array_equal(traced.raw_stats, plain.raw_stats)

    rng = harness.random_stream(cfg, "dataset")
    thetas = cfg.proposal.sample(rng, 60)
    batch = rollout(get_model("cartpole"), thetas,
                    builtin_controller(cfg.controller_kind, harness.CONTROLLER_SEED),
                    horizon=80, seed=rng.integers(2 ** 63, size=60))
    assert tracer.counts["rollouts"] == 1
    assert tracer.counts["steps"] == batch.lengths.sum()
    assert tracer.counts["terminated_early"] == batch.terminated.sum()


# -- corrupt model and posterior files -------------------------------------

@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """The CLI chain's artifacts on a 2-D posterior (cart-pole): a
    parameter-space array of the wrong length can broadcast silently in
    one dimension but not in two."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(CFG_YAML.replace("benchmark: pendulum", "benchmark: cartpole"))
    for cmd, extra in (("generate", []),
                       ("train", ["--dataset", str(root / "dataset.csv")]),
                       ("infer", ["--model", str(root / "model.json")])):
        assert cli.main([cmd, "--config", str(cfg_path), "--out", str(root)]
                        + extra) == 0
    return cfg_path, root


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _negate_first_weight(doc):
    """Weight -w on component 0 and w more on component 1: the sum stays 1."""
    w = doc["weights"]
    w[1] += 2 * w[0]
    w[0] = -w[0]


def _negate_heaviest_variance(doc):
    """Variance -1 in the component that sampling is sure to draw from."""
    doc["covariances"][int(np.argmax(doc["weights"]))][0][0] = -1.0


CORRUPTIONS = {
    "model_truncated": ("model.json", lambda p: p.write_bytes(p.read_bytes()[:200])),
    "model_version_1": ("model.json",
                        lambda p: _edit_json(p, lambda d: d.update(version=1))),
    "model_head_rows": ("model.json",
                        lambda p: _edit_json(p, lambda d: d["head"]["bias"].pop())),
    "posterior_without_means": ("posterior.json",
                                lambda p: _edit_json(p, lambda d: d.pop("means"))),
    "posterior_truncated": ("posterior.json",
                            lambda p: p.write_bytes(p.read_bytes()[:100])),
    "model_mean_short": ("model.json", lambda p: _edit_json(
        p, lambda d: d["standardizer"]["mean"].pop())),
    "model_param_scale_short": ("model.json",
                                lambda p: _edit_json(p, lambda d: d["param_scale"].pop())),
    "model_feature_type": ("model.json", lambda p: _edit_json(
        p, lambda d: d["feature"].update(type="xyz"))),
    "model_param_offset_text": ("model.json", lambda p: _edit_json(
        p, lambda d: d.update(param_offset="abc"))),
    "model_num_components_fraction": ("model.json", lambda p: _edit_json(
        p, lambda d: d["head"].update(num_components=1.5))),
    "model_provenance_list": ("model.json",
                              lambda p: _edit_json(p, lambda d: d.update(provenance=[1]))),
    "model_without_provenance": ("model.json",
                                 lambda p: _edit_json(p, lambda d: d.pop("provenance"))),
    "posterior_weights_half": ("posterior.json", lambda p: _edit_json(
        p, lambda d: d.update(weights=[w / 2 for w in d["weights"]]))),
    "posterior_weight_negative": ("posterior.json",
                                  lambda p: _edit_json(p, _negate_first_weight)),
    "posterior_variance_negative": ("posterior.json",
                                    lambda p: _edit_json(p, _negate_heaviest_variance)),
    "posterior_provenance_list": ("posterior.json",
                                  lambda p: _edit_json(p, lambda d: d.update(provenance=[1]))),
    "posterior_support_3d": ("posterior.json", lambda p: _edit_json(
        p, lambda d: [d[k].append(d[k][0]) for k in ("support_low", "support_high")])),
    "posterior_support_null": ("posterior.json", lambda p: _edit_json(
        p, lambda d: d.update(support_low=None, support_high=None))),
    "posterior_version_3": ("posterior.json",
                            lambda p: _edit_json(p, lambda d: d.update(version=3))),
    "posterior_param_names_short": ("posterior.json", lambda p: _edit_json(
        p, lambda d: d["provenance"]["param_names"].pop())),
    "posterior_without_param_names": ("posterior.json", lambda p: _edit_json(
        p, lambda d: d["provenance"].pop("param_names"))),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_cli_on_corrupt_model_or_posterior_exit_2(cli_artifacts, tmp_path, capsys, case):
    cfg_path, root = cli_artifacts
    name, corrupt = CORRUPTIONS[case]
    path = tmp_path / name
    path.write_bytes((root / name).read_bytes())
    corrupt(path)
    capsys.readouterr()
    if name == "model.json":
        argv = ["infer", "--config", str(cfg_path), "--model", str(path)]
    else:
        argv = ["sample", "--posterior", str(path), "--count", "5"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    if "version" in case:
        assert (f"format version {case[-1]};" in err
                and f"reads version {harness.FORMAT_VERSION}" in err)
    if case == "posterior_param_names_short":
        assert "one parameter name per dimension" in err


def test_cli_sample_names_the_columns_after_the_model_parameters(cli_artifacts, tmp_path):
    """The cart-pole posterior carries the model's parameter names, and
    sample writes them as the columns of samples.csv."""
    _, root = cli_artifacts
    post = load_posterior(root / "posterior.json")
    assert post.provenance["param_names"] == ["length", "masspole"]
    assert cli.main(["sample", "--posterior", str(root / "posterior.json"), "--count", "5",
                     "--out", str(tmp_path)]) == 0
    header = (tmp_path / "samples.csv").read_text().split("\n", 1)[0]
    assert json.loads(header.split(" ", 1)[1])["param_names"] == ["length", "masspole"]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_cli_closed_stdout_exits_2_without_a_traceback(tmp_path, unbuffered):
    """stdout is a pipe whose read end is closed, as in `simcal sample ... |
    true`: exit 2 with one line on stderr, buffered or not."""
    save_posterior(truncate(GaussianMixture([1.0], [[0.0]], [[1.0]]), UniformBox([-1.0], [1.0]),
                            {"param_names": ["dt"]}),
                   tmp_path / "posterior.json", "")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simcal.cli", "sample", "--posterior",
             str(tmp_path / "posterior.json"), "--count", "5", "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err == "configuration error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["generate", "sample"])
def test_cli_negative_seed_exit_2(cli_artifacts, tmp_path, capsys, command):
    cfg_path, root = cli_artifacts
    argv = {"generate": ["generate", "--config", str(cfg_path)],
            "sample": ["sample", "--posterior", str(root / "posterior.json"),
                       "--count", "5"]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seed" in err


@pytest.mark.parametrize("count", ["100000000000000", "99999999999999999999999"])
def test_cli_sample_count_beyond_the_address_space_exit_2(cli_artifacts, tmp_path, capsys,
                                                          count):
    """Both counts need more than the 47-bit address space, so the array
    is refused at once: the first by the allocator, the second by numpy's
    shape check."""
    _, root = cli_artifacts
    capsys.readouterr()
    assert cli.main(["sample", "--posterior", str(root / "posterior.json"), "--count", count,
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "samples.csv").exists()


def test_cli_sample_degenerate_posterior_exit_3(tmp_path, capsys):
    m = GaussianMixture([1.0], [[100.0]], [[0.01]])
    save_posterior(PosteriorEstimate(m, UniformBox([-1.0], [1.0]), {"param_names": ["dt"]}),
                   tmp_path / "posterior.json", "")
    capsys.readouterr()
    assert cli.main(["sample", "--posterior", str(tmp_path / "posterior.json"),
                     "--count", "5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "mass" in err
    assert "Traceback" not in err
    assert not (tmp_path / "samples.csv").exists()


def test_cli_sample_full_covariance_below_mass_bound_exit_3(tmp_path, capsys):
    q = GaussianMixture([1.0], [[5.0, 5.0]], [[0.1, 0.1]])
    m = divide_by_gaussian(q, GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.5, 1.0]]]))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        post = truncate(m, UniformBox([-1.0, -1.0], [1.0, 1.0]), {"param_names": ["a", "b"]})
    save_posterior(post, tmp_path / "posterior.json", "")
    capsys.readouterr()
    assert cli.main(["sample", "--posterior", str(tmp_path / "posterior.json"),
                     "--count", "5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "mass" in err
    assert "Traceback" not in err
    assert not (tmp_path / "samples.csv").exists()


def test_cli_sample_after_a_million_rejections_exit_3(tmp_path, capsys):
    """A correlated posterior whose mass bound passes the floor but whose
    box holds almost no mass: sample gives up after one million
    consecutive rejections."""
    m = GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.9999], [0.9999, 1.0]]])
    post = truncate(m, UniformBox([1.0, -2.0], [2.0, -1.0]), {"param_names": ["a", "b"]})
    save_posterior(post, tmp_path / "posterior.json", "")
    capsys.readouterr()
    assert cli.main(["sample", "--posterior", str(tmp_path / "posterior.json"),
                     "--count", "5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "one million consecutive rejections" in err
    assert "Traceback" not in err
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("provenance", [{}, {"param_names": ["a"]}, {"param_names": ["a", 2]},
                                        {"param_names": "ab"}])
def test_save_posterior_refuses_what_load_posterior_refuses(tmp_path, provenance):
    """A posterior without one string name per dimension is refused before
    anything is written."""
    m = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    post = truncate(m, UniformBox([-1.0, -1.0], [1.0, 1.0]), provenance)
    with pytest.raises(ContractError, match="one parameter name per dimension"):
        save_posterior(post, tmp_path / "posterior.json", "")
    assert list(tmp_path.iterdir()) == []


def test_cli_generate_huge_seed_exit_0(cli_artifacts, tmp_path, capsys):
    cfg_path, _ = cli_artifacts
    assert cli.main(["generate", "--config", str(cfg_path), "--seed", "100000000000000000",
                     "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert load_dataset(tmp_path / "dataset.csv").thetas.shape == (100, 2)


def _json_paths(node, path=()):
    """The path of every value nested in a parsed JSON document."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["dataset.csv", "model.json", "posterior.json"]),
       truncate=st.booleans(), where=st.floats(0, 1, exclude_max=True),
       value=JSON_VALUES)
def test_cli_on_fuzzed_artifact_exits_0_2_or_3(cli_artifacts, name, truncate,
                                               where, value):
    """A dataset, model or posterior cut at a random byte, or with one
    JSON value replaced by a random one, is read or refused: the CLI
    returns 0, 2 or 3 and never raises."""
    cfg_path, root = cli_artifacts
    data = (root / name).read_bytes()
    if truncate:
        data = data[:int(where * len(data))]
    else:
        tag, header, rows = "", data.decode(), ""
        if name == "dataset.csv":
            first, rows = header.split("\n", 1)
            tag, header = first.split(" ", 1)
        doc = json.loads(header)
        paths = list(_json_paths(doc))[1:]
        *parents, key = paths[int(where * len(paths))]
        functools.reduce(operator.getitem, parents, doc)[key] = value
        text = json.dumps(doc)
        data = (f"{tag} {text}\n{rows}" if tag else text).encode()
    out = root / "fuzz"
    out.mkdir(exist_ok=True)
    path = out / name
    path.write_bytes(data)
    argv = {"dataset.csv": ["train", "--config", str(cfg_path), "--dataset", str(path)],
            "model.json": ["infer", "--config", str(cfg_path), "--model", str(path)],
            "posterior.json": ["sample", "--posterior", str(path), "--count", "5"]}[name]
    assert cli.main(argv + ["--out", str(out)]) in (0, 2, 3)


# -- evaluate failure handling ---------------------------------------------

def test_evaluate_marks_package_errors_failed_and_raises_bugs(monkeypatch, tmp_path):
    def raise_(exc):
        def fake(*args, **kwargs):
            raise exc
        return fake

    cfg = small_config(methods=("mdn_rff",))
    monkeypatch.setattr(harness, "train_model",
                        raise_(TrainingDivergenceError('non-finite loss, "nan"')))
    (row,) = evaluate(cfg)
    assert row.failed and row.repeats == 0
    reason = 'TrainingDivergenceError: non-finite loss, "nan"'
    assert row.reason == reason
    harness.save_metrics([row], tmp_path / "metrics.csv", tmp_path / "metrics.txt")
    with open(tmp_path / "metrics.csv") as fh:
        (written,) = csv.DictReader(fh)
    assert written["failed"] == "1" and written["reason"] == reason
    assert f"[FAILED] {reason}" in (tmp_path / "metrics.txt").read_text()
    monkeypatch.setattr(harness, "train_model", raise_(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        evaluate(cfg)


@pytest.mark.parametrize("flag", ["--config", "--dataset", "--model", "--posterior", "--out"])
def test_cli_directory_as_path_exit_2(cli_artifacts, tmp_path, capsys, flag):
    """A directory where a file belongs, or a file where the output
    directory belongs."""
    cfg_path, _ = cli_artifacts
    argv = {
        "--config": ["generate", "--config", str(tmp_path)],
        "--dataset": ["train", "--config", str(cfg_path), "--dataset", str(tmp_path)],
        "--model": ["infer", "--config", str(cfg_path), "--model", str(tmp_path)],
        "--posterior": ["sample", "--posterior", str(tmp_path), "--count", "3"],
        "--out": ["generate", "--config", str(cfg_path)],
    }[flag]
    out = tmp_path / "out"
    if flag == "--out":
        out.write_text("")
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_cli_train_with_diverging_candidate_exit_3(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CFG_YAML.replace("lengthscale_candidates: [1.0]",
                                         "lengthscale_candidates: [0.5, 1.0, 2.0]"))
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    def build_rff(kernel, input_dim):
        fmap = features.build_rff(kernel, input_dim)
        if kernel.lengthscale == 2.0:
            fmap.frequencies[0, 0] = np.inf  # NaN features, non-finite head
        return fmap

    monkeypatch.setattr(harness, "build_rff", build_rff)
    with np.errstate(invalid="ignore"):
        assert cli.main(["train", "--config", str(cfg_path), "--dataset",
                         str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "Traceback" not in err
