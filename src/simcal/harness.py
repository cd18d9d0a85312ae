"""End-to-end orchestration: configs, artifact files, and the
generate / train / infer / evaluate / sample pipeline.

Artifacts are deliberately inspectable: datasets and samples are CSV
with a one-line JSON header, models and posteriors are versioned JSON
documents. Every artifact embeds the config hash so mismatched stages
refuse to combine.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import mdn
from .abc_rejection import abc_log_prob, rejection_abc
from .errors import ConfigurationError, ContractError, DegeneratePosteriorError, SimcalError
from .features import FEATURE_MAPS, KERNEL_FAMILIES, KernelConfig, build_rff, init_neural_map
# Not called here: the benchmark's tracer (perfbench/spans.py) wraps
# these names on this module.
from .features import apply_nn, apply_rff  # noqa: F401
from .mdn import GaussianMixture, TrainerConfig, head_forward, train
from .posterior import PosteriorEstimate, log_prob_target, recover_posterior, sample
from .priors import UniformBox
from .simulators import (CONTROLLER_KINDS, MAX_HORIZON, MODELS, Rollouts, builtin_controller,
                         get_model, rollout)
from .trajstats import StatsSchema, compute_stats, fit_standardizer, real_observation

FORMAT_VERSION = 4
# An artifact's tag: a JSON document's "format", or the first word of a
# CSV table's header line.
ARTIFACT_TAGS = {"dataset": "#SIMCAL-DATASET", "samples": "#SIMCAL-SAMPLES",
                 "model": "simcal-model", "posterior": "simcal-posterior"}

METHODS = ("mdn_rff", "mdn_nn", "rejection_abc", "control_shuffled")

# Rejection ABC accepts this share of the dataset's rows, and at least 10.
ABC_ACCEPT_RATE = 0.02
CONTROLLER_SEED = 7   # mixed with each episode's seed by the built-in controllers
HIDDEN_UNITS = 24     # of the neural feature map

# The closed range of each bounded field, checked for every value of a
# list; the least positive value is the least positive float.
_POSITIVE = (math.ulp(0.0), math.inf)
_FIELD_RANGES = dict.fromkeys(
    ("num_train", "num_features", "num_components", "epochs", "cv_epochs", "batch_size",
     "repeats", "real_rollouts"), (1, math.inf))
_FIELD_RANGES.update(dict.fromkeys(("seed", "patience"), (0, math.inf)), learning_rate=_POSITIVE,
                     lengthscale_candidates=_POSITIVE, horizon=(1, MAX_HORIZON))
# The values a field, or each value of a list field, may take.
_FIELD_CHOICES = {"benchmark": tuple(MODELS), "controller_kind": CONTROLLER_KINDS,
                  "feature_type": ("rff", "nn"), "kernel_family": KERNEL_FAMILIES,
                  "methods": METHODS}


def _values(v) -> tuple:
    return v if isinstance(v, tuple) else (v,)


@dataclass(frozen=True)
class ExperimentConfig:
    """An empty ``theta_star``, ``prior_low`` or ``prior_high`` takes the benchmark model's
    value. Loading builds ``prior``, the uniform box, which must lie inside the model's limits
    and hold ``theta_star``, and ``proposal``, which every theta is drawn from and the posterior
    divides out: the prior, or N(proposal_mean, proposal_cov) as a one-component mixture on the
    prior box, refused below ``posterior.MASS_FLOOR`` of mass there."""

    benchmark: str = "cartpole"
    theta_star: tuple = ()
    prior_low: tuple = ()
    prior_high: tuple = ()
    proposal_mean: tuple = ()
    proposal_cov: tuple = ()
    controller_kind: str = "random_uniform"
    num_train: int = 1000
    horizon: int = 200
    feature_type: str = "rff"        # "rff" | "nn"
    kernel_family: str = "rbf"
    num_features: int = 200
    lengthscale_candidates: tuple = ()  # () -> median heuristic x 0.25 ... 4
    num_components: int = 5
    epochs: int = 500
    cv_epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 100
    patience: int = 50
    repeats: int = 5
    real_rollouts: int = 10
    seed: int = 0
    methods: tuple = ("mdn_rff", "mdn_nn", "rejection_abc")

    def __post_init__(self):
        for name, (low, high) in _FIELD_RANGES.items():
            if not all(low <= v <= high for v in _values(getattr(self, name))):  # NaN fails
                raise ConfigurationError(f"config field {name!r} must be in [{low}, {high}], "
                                         f"got {getattr(self, name)!r}")
        for name, choices in _FIELD_CHOICES.items():
            if not set(_values(getattr(self, name))) <= set(choices):
                raise ConfigurationError(f"config field {name!r} must be one of {choices}, "
                                         f"got {getattr(self, name)!r}")
        if not self.methods:
            raise ConfigurationError("config field 'methods' must name at least one method")
        if self.num_train < 10 * self.num_components:
            raise ConfigurationError(f"config field 'num_train' must be at least 10 * "
                                     f"num_components, got {self.num_train}")
        if self.feature_type == "rff" or {"mdn_rff", "control_shuffled"} & set(self.methods):
            KernelConfig(self.kernel_family, 1.0, self.num_features)  # an RFF map's checks
        params = MODELS[self.benchmark].mutable_params
        for name, default in (("theta_star", [p.true for p in params]),
                              ("prior_low", [p.prior[0] for p in params]),
                              ("prior_high", [p.prior[1] for p in params]),
                              ("proposal_mean", [])):
            value = getattr(self, name) or tuple(default)
            if len(value) not in (0, len(params)):
                raise ConfigurationError(f"config field {name!r} must hold one value per "
                                         f"{self.benchmark} parameter, got {value!r}")
            object.__setattr__(self, name, value)
        if bool(self.proposal_mean) != bool(self.proposal_cov):
            raise ConfigurationError("config fields 'proposal_mean' and 'proposal_cov' "
                                     "give a Gaussian proposal together, not alone")
        try:
            prior = proposal = UniformBox(self.prior_low, self.prior_high)
            if self.proposal_mean:
                proposal = PosteriorEstimate(
                    GaussianMixture([1.0], [self.proposal_mean], [self.proposal_cov]), prior)
                sample(proposal, 0, seed=0)  # refuses under MASS_FLOOR of mass in the box
        except (ConfigurationError, ContractError, DegeneratePosteriorError) as exc:
            raise ConfigurationError(f"config fields 'prior_low', 'prior_high', "
                                     f"'proposal_mean' and 'proposal_cov': {exc}") from exc
        limits = get_model(self.benchmark).limits
        if not limits.contains([prior.low, prior.high]).all():
            raise ConfigurationError(
                f"config fields 'prior_low' and 'prior_high' must lie inside the {self.benchmark} "
                f"limits, {limits.low.tolist()} to {limits.high.tolist()}")
        if not prior.contains(self.theta_star):
            raise ConfigurationError(f"config field 'theta_star' must lie inside the prior box, "
                                     f"got {list(self.theta_star)}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "proposal", proposal)

    def trainer(self, repeat: int, epochs: int | None = None) -> TrainerConfig:
        """The trainer of a repeat: its CV folds and head init share the seed."""
        return TrainerConfig(
            num_components=self.num_components,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=epochs if epochs is not None else self.epochs,
            patience=self.patience,
            seed=int(random_stream(self, "train", repeat).integers(2 ** 63)),
        )


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


# What a config value must be, by the type of its field's default. Lists
# become tuples on load.
_VALUE_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _number),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of numbers", _numbers),
}
_FIELD_VALUE_TYPES = {
    "proposal_cov": ("a list of equal-length rows of numbers",
                     lambda v: isinstance(v, list) and all(map(_numbers, v))
                     and len(set(map(len, v))) <= 1),
    "methods": ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v)),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    fields = ExperimentConfig.__dataclass_fields__
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(map(str, unknown))}")
    for name, value in raw.items():
        what, ok = (_FIELD_VALUE_TYPES.get(name)
                    or _VALUE_TYPES[type(fields[name].default)])
        if not ok(value):
            raise ConfigurationError(f"config field {name!r} must be {what}, got {value!r}")
    raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    return ExperimentConfig(**raw)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must be a mapping")
    return config_from_dict(raw)


def config_hash(config: ExperimentConfig) -> str:
    doc = json.dumps(asdict(config), sort_keys=True, default=list)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


# "abc" is not drawn; it keeps its index so the later streams keep their spawn keys.
SEED_STREAMS = ("dataset", "real", "abc", "train", "nn_init", "shuffle")


def random_stream(config, name: str, repeat: int = 0) -> np.random.Generator:
    """Stream ``name`` of evaluation repeat ``repeat``: the spawn key (its
    index in SEED_STREAMS, repeat) under the config's seed, unique to it."""
    return np.random.default_rng(np.random.SeedSequence(
        config.seed, spawn_key=(SEED_STREAMS.index(name), repeat)))


# ---------------------------------------------------------------------------
# Dataset

@dataclass
class Dataset:
    thetas: np.ndarray          # (N, d_theta)
    raw_stats: np.ndarray       # (N, stat_dim)
    schema: StatsSchema
    config_hash: str
    benchmark: str
    param_names: list

    def __post_init__(self):
        n, d, s = self.thetas.shape[0], len(self.param_names), self.schema.stat_dim
        if not n or self.thetas.shape != (n, d) or self.raw_stats.shape != (n, s):
            raise ContractError(f"dataset arrays {self.thetas.shape} and "
                                f"{self.raw_stats.shape} are not rows of {d} + {s} values")

    @property
    def x_standardized(self) -> np.ndarray:
        return self.schema.standardize(self.raw_stats)


def _simulate(config: ExperimentConfig, thetas, seeds) -> Rollouts:
    """One lockstep batch of the config's benchmark under its controller
    and horizon: an episode per row of ``thetas`` and value of ``seeds``."""
    return rollout(get_model(config.benchmark), thetas,
                   builtin_controller(config.controller_kind, CONTROLLER_SEED),
                   horizon=config.horizon, seed=seeds)


def generate_dataset(config: ExperimentConfig, repeat: int = 0) -> Dataset:
    """Sample parameters from the proposal truncated to the prior box, roll all of them
    out in one lockstep batch, compute statistics and fit the standardizer.

    A draw fails (is not ``Rollouts.completed``) when its rollout diverged
    or ran fewer than 2 steps. Aborts when more than 1% of draws fail."""
    rng = random_stream(config, "dataset", repeat)
    thetas = config.proposal.sample(rng, config.num_train)
    batch = _simulate(config, thetas, rng.integers(2 ** 63, size=config.num_train))
    kept = batch.completed
    failed = config.num_train - int(kept.sum())
    if failed > 0.01 * config.num_train:
        raise ConfigurationError(
            f"{failed}/{config.num_train} draws failed: {int(batch.diverged.sum())} diverged, "
            f"{int((~batch.diverged & ~kept).sum())} shorter than 2 steps; "
            f"offending parameters: {thetas[~kept][:20].tolist()}"
        )
    raw = compute_stats(batch.select(kept))
    model = get_model(config.benchmark)
    schema = fit_standardizer(raw, model.state_dim, model.action_dim)
    return Dataset(
        thetas=thetas[kept], raw_stats=raw, schema=schema,
        config_hash=config_hash(config), benchmark=config.benchmark,
        param_names=model.param_names,
    )


def _csv_rows(a: np.ndarray) -> str:
    """Rows of a 2-D array as CSV lines, each value as ``repr(float(v))``
    (the shortest string that reads back to the same float)."""
    return "\n".join(",".join(map(repr, row))
                     for row in np.asarray(a, dtype=float).tolist())


def _write_doc(path, kind: str, doc: dict, rows: np.ndarray | None = None) -> None:
    """Write ``doc`` with its tag and ``version``: as a JSON document, or,
    given ``rows``, as a tag and JSON header line and then one CSV line
    per row."""
    doc = {"version": FORMAT_VERSION, **doc}
    if rows is None:
        text = json.dumps({"format": ARTIFACT_TAGS[kind], **doc},
                          sort_keys=True, indent=1)
    else:
        text = f"{ARTIFACT_TAGS[kind]} {json.dumps(doc, sort_keys=True)}"
        if rows.size:
            text += "\n" + _csv_rows(rows)
    Path(path).write_text(text + "\n")


def _read_doc(path, kind: str, build):
    """Read an artifact of ``kind`` and return ``build(doc, rows)``, rows
    being the CSV lines of a table as one 2-D array (None for a JSON
    document). This is the one place that checks the tag and the
    version; any malformed part, or any object ``build`` refuses, is a
    ConfigurationError naming the path."""
    tag = ARTIFACT_TAGS[kind]
    try:
        text = Path(path).read_text()
        header, _, body = text.partition("\n")
        if tag.startswith("#"):
            if not header.startswith(tag):
                raise ContractError(f"not a {kind} file")
            doc = json.loads(header[len(tag):])
        else:
            doc, body = json.loads(text), None
            if doc["format"] != tag:
                raise ContractError(f"not a {kind} file")
        if doc["version"] != FORMAT_VERSION:
            raise ContractError(f"format version {doc['version']!r}; this "
                                f"simcal reads version {FORMAT_VERSION}")
        rows = None if body is None else np.array(
            [[float(v) for v in line.split(",")] for line in body.splitlines()]
            or np.empty((0, 0)))
        return build(doc, rows)
    except (ValueError, KeyError, TypeError, OverflowError, UnicodeDecodeError,
            ContractError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: not a valid {kind} file: {exc}") from exc


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "config_hash": dataset.config_hash,
        "benchmark": dataset.benchmark,
        "param_names": dataset.param_names,
        "state_dim": dataset.schema.state_dim,
        "action_dim": dataset.schema.action_dim,
        "standardizer_mean": dataset.schema.mean.tolist(),
        "standardizer_std": dataset.schema.std.tolist(),
    }
    _write_doc(path, "dataset", header, np.hstack([dataset.thetas, dataset.raw_stats]))


def _dataset_from(doc: dict, rows: np.ndarray) -> Dataset:
    d = len(doc["param_names"])
    return Dataset(
        thetas=rows[:, :d], raw_stats=rows[:, d:],
        schema=StatsSchema(doc["state_dim"], doc["action_dim"],
                           doc["standardizer_mean"], doc["standardizer_std"]),
        config_hash=doc["config_hash"], benchmark=doc["benchmark"],
        param_names=doc["param_names"],
    )


def load_dataset(path) -> Dataset:
    return _read_doc(path, "dataset", _dataset_from)


# ---------------------------------------------------------------------------
# Fitted model

@dataclass
class FittedModel:
    """Trained conditional density plus everything inference needs:
    feature map, head weights, the parameter-space affine normalization
    and the statistics standardizer. ``provenance`` holds the training
    decisions: the lengthscale CV rungs, the selected lengthscale and the
    final fit's best epoch."""

    feature_map: object  # a map of features.FEATURE_MAPS
    head: mdn.MixtureHeadWeights
    param_offset: np.ndarray
    param_scale: np.ndarray
    schema: StatsSchema
    config_hash: str
    benchmark: str
    param_names: list
    provenance: dict

    def __post_init__(self):
        if not isinstance(self.provenance, dict):
            raise ContractError("provenance must be a mapping")
        self.param_offset = np.asarray(self.param_offset, dtype=float)
        self.param_scale = np.asarray(self.param_scale, dtype=float)
        fmap, head, d = self.feature_map, self.head, self.head.theta_dim
        if not (head.bias.ndim == 1 and len(self.param_names) == d
                and self.param_offset.shape == self.param_scale.shape == (d,)
                and (fmap.input_dim, fmap.num_features)
                == (self.schema.stat_dim, head.feature_dim)):
            raise ContractError(
                f"model parts do not fit: {self.schema.stat_dim} statistics, feature map "
                f"{fmap.input_dim} -> {fmap.num_features}, head {head.weight.shape} for {d} "
                f"parameters, {len(self.param_names)} names, offsets "
                f"{self.param_offset.shape} and scales {self.param_scale.shape}")

    def predict_mixture(self, x_standardized: np.ndarray) -> GaussianMixture:
        """Mixture over parameters, in parameter units, at one
        standardized statistic vector."""
        x = np.asarray(x_standardized, dtype=float).reshape(-1)
        m = head_forward(self.head, self.feature_map.apply(x))
        means = self.param_offset + self.param_scale * m.means
        scale = np.outer(self.param_scale, self.param_scale)
        covs = m.covariances * scale
        return GaussianMixture(m.weights, means, covs)


MEDIAN_HEURISTIC_SEED = 0


def median_heuristic_lengthscale(x: np.ndarray) -> float:
    """Median pairwise distance over (a subsample of) the inputs; the
    center of the default cross-validation grid."""
    x = np.atleast_2d(x)
    rng = np.random.default_rng(MEDIAN_HEURISTIC_SEED)
    idx = rng.choice(x.shape[0], size=min(200, x.shape[0]), replace=False)
    sub = x[idx]
    d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=2)
    tri = d2[np.triu_indices_from(d2, k=1)]
    return float(np.sqrt(np.median(tri)) + 1e-12)


def train_model(
    config: ExperimentConfig,
    dataset: Dataset,
    feature_type: str,
    repeat: int = 0,
    shuffle_pairs: bool = False,
):
    """Lengthscale selection (RFF) followed by full training. Returns
    (FittedModel, TrainingReport); the model's provenance records the CV
    rungs, the selected lengthscale and the best epoch. ``shuffle_pairs``
    trains on broken (theta, x) pairings; the control method in the
    evaluation table."""
    x = dataset.x_standardized
    thetas = dataset.thetas
    if shuffle_pairs:
        x = x[random_stream(config, "shuffle", repeat).permutation(x.shape[0])]

    offset = thetas.mean(axis=0)
    scale = np.maximum(thetas.std(axis=0), 1e-8)
    theta_std = (thetas - offset) / scale

    input_dim = x.shape[1]
    selected, rungs = None, []
    if feature_type == "rff":
        if config.lengthscale_candidates:
            cands = list(config.lengthscale_candidates)
        else:
            med = median_heuristic_lengthscale(x)
            cands = [med * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        fmap, rungs = mdn.select_lengthscale(
            [build_rff(KernelConfig(config.kernel_family, s, config.num_features), input_dim)
             for s in cands],
            x, theta_std, config.trainer(repeat, epochs=config.cv_epochs))
        selected = fmap.kernel.lengthscale
    elif feature_type == "nn":
        fmap = init_neural_map(input_dim, HIDDEN_UNITS, config.num_features,
                               random_stream(config, "nn_init", repeat))
    else:
        raise ConfigurationError(f"unknown feature type {feature_type!r}")

    head, fmap, report = train(config.trainer(repeat), x, theta_std, fmap)
    model = FittedModel(
        feature_map=fmap, head=head, param_offset=offset, param_scale=scale,
        schema=dataset.schema, config_hash=dataset.config_hash,
        benchmark=dataset.benchmark, param_names=dataset.param_names,
        provenance={"cv_rungs": rungs, "selected_lengthscale": selected,
                    "best_epoch": report.best_epoch},
    )
    return model, report


def save_model(model: FittedModel, path) -> None:
    doc = {
        "config_hash": model.config_hash,
        "benchmark": model.benchmark,
        "param_names": model.param_names,
        "provenance": model.provenance,
        "feature": model.feature_map.to_doc(),
        "head": {
            "weight": model.head.weight.tolist(),
            "bias": model.head.bias.tolist(),
            "num_components": model.head.num_components,
        },
        "param_offset": model.param_offset.tolist(),
        "param_scale": model.param_scale.tolist(),
        "standardizer": {
            "state_dim": model.schema.state_dim,
            "action_dim": model.schema.action_dim,
            "mean": model.schema.mean.tolist(),
            "std": model.schema.std.tolist(),
        },
    }
    _write_doc(path, "model", doc)


def _model_from(doc: dict, rows) -> FittedModel:
    fd, hd, sd = doc["feature"], doc["head"], doc["standardizer"]
    return FittedModel(
        feature_map=FEATURE_MAPS[fd["type"]].from_doc(fd),
        head=mdn.MixtureHeadWeights(np.array(hd["weight"], dtype=float),
                                    np.array(hd["bias"], dtype=float),
                                    hd["num_components"]),
        param_offset=doc["param_offset"], param_scale=doc["param_scale"],
        schema=StatsSchema(sd["state_dim"], sd["action_dim"], sd["mean"], sd["std"]),
        config_hash=doc["config_hash"], benchmark=doc["benchmark"],
        param_names=doc["param_names"], provenance=doc["provenance"],
    )


def load_model(path) -> FittedModel:
    return _read_doc(path, "model", _model_from)


# ---------------------------------------------------------------------------
# Inference

def synth_real_observation(config: ExperimentConfig, schema: StatsSchema,
                           repeat: int = 0) -> np.ndarray:
    """Synthesize the real observation by rolling out at the hidden true
    parameters and averaging the statistics."""
    thetas = np.tile(np.asarray(config.theta_star, dtype=float),
                     (config.real_rollouts, 1))
    seeds = random_stream(config, "real", repeat).integers(2 ** 63, size=config.real_rollouts)
    batch = _simulate(config, thetas, seeds)
    batch.check()
    return real_observation(batch, schema)


def infer_posterior(config: ExperimentConfig, model: FittedModel,
                    x_r: np.ndarray, model_ref: str = "") -> PosteriorEstimate:
    return recover_posterior(model, x_r, config.proposal,
                             {"model": model_ref, "config_hash": model.config_hash,
                              "param_names": model.param_names})


def _check_param_names(p: PosteriorEstimate) -> PosteriorEstimate:
    """``p`` if its provenance holds one string name per dimension as
    ``param_names``, the columns ``simcal sample`` writes; ContractError
    otherwise."""
    names = p.provenance.get("param_names")
    if not (isinstance(names, list) and len(names) == p.mixture.dim
            and all(isinstance(n, str) for n in names)):
        raise ContractError(f"need one parameter name per dimension, got {names!r}")
    return p


def save_posterior(p: PosteriorEstimate, path, config_hash_value: str) -> None:
    _check_param_names(p)
    doc = {
        "config_hash": config_hash_value,
        "weights": p.mixture.weights.tolist(),
        "means": p.mixture.means.tolist(),
        "covariances": p.mixture.covariances.tolist(),
        "support_low": p.support.low.tolist(),
        "support_high": p.support.high.tolist(),
        "provenance": p.provenance,
    }
    _write_doc(path, "posterior", doc)


def _posterior_from(doc: dict, rows) -> PosteriorEstimate:
    return _check_param_names(PosteriorEstimate(
        mixture=GaussianMixture(doc["weights"], doc["means"], doc["covariances"]),
        support=UniformBox(doc["support_low"], doc["support_high"]),
        provenance=doc["provenance"]))


def load_posterior(path) -> PosteriorEstimate:
    return _read_doc(path, "posterior", _posterior_from)


GRID_POINTS = (512, 128)  # per axis of a 1-D and of a 2-D posterior


def density_grid(p: PosteriorEstimate):
    """Log density on a grid spanning the posterior's support box, for
    plotting. Returns (grid, logdens) for 1-D/2-D posteriors, None for
    higher dimensions."""
    d, box = p.mixture.dim, p.support
    if d > len(GRID_POINTS):
        return None
    axes = [np.linspace(lo, hi, GRID_POINTS[d - 1]) for lo, hi in zip(box.low, box.high)]
    grid = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    return grid, p.log_density_batch(grid)


def save_grid(grid: np.ndarray, logdens: np.ndarray, path) -> None:
    Path(path).write_text(_csv_rows(np.column_stack([grid, logdens])) + "\n")


def save_samples(samples: np.ndarray, param_names, path,
                 config_hash_value: str) -> None:
    _write_doc(path, "samples", {"config_hash": config_hash_value,
                                 "param_names": list(param_names)},
               np.atleast_2d(samples))


# ---------------------------------------------------------------------------
# Evaluation protocol

@dataclass
class MetricsRow:
    benchmark: str
    parameter: str
    method: str
    mean: float
    std: float
    repeats: int
    failed: bool = False
    reason: str = ""  # "<ExceptionClass>: <message>" of the first failed repeat


def _abc_log_prob_for_repeat(config: ExperimentConfig, dataset: Dataset,
                             x_r: np.ndarray) -> float:
    """Rejection ABC on the dataset: the KDE of the max(ceil(ABC_ACCEPT_RATE * N), 10)
    rows nearest to ``x_r``, scored at theta*."""
    x = dataset.x_standardized
    k = max(math.ceil(ABC_ACCEPT_RATE * len(x)), 10)
    eps = np.partition(np.linalg.norm(x - x_r, axis=1), k - 1)[k - 1]
    result = rejection_abc(dataset.thetas, x, x_r, eps)
    return abc_log_prob(result.accepted, np.asarray(config.theta_star))


def evaluate(config: ExperimentConfig, progress=None) -> list[MetricsRow]:
    """R independent repeats per configured method; mean/std of the
    target log-probability per row. Failed repeats mark the row but the
    table is still emitted in full."""
    theta_star = np.asarray(config.theta_star)
    per_method: dict[str, list] = {m: [] for m in config.methods}
    reasons: dict[str, str] = {m: "" for m in config.methods}

    for r in range(config.repeats):
        dataset = generate_dataset(config, r)
        x_r = synth_real_observation(config, dataset.schema, r)
        for method in config.methods:
            if progress:
                progress(f"repeat {r + 1}/{config.repeats}: {method}")
            try:
                if method == "rejection_abc":
                    lp = _abc_log_prob_for_repeat(config, dataset, x_r)
                else:
                    ftype = "nn" if method == "mdn_nn" else "rff"
                    shuffled = method == "control_shuffled"
                    model, _ = train_model(config, dataset, ftype, r,
                                           shuffle_pairs=shuffled)
                    post = infer_posterior(config, model, x_r)
                    lp = log_prob_target(post, theta_star)
                per_method[method].append(lp)
            except SimcalError as exc:
                reasons[method] = reasons[method] or f"{type(exc).__name__}: {exc}"

    rows = []
    pname = "+".join(get_model(config.benchmark).param_names)
    for method in config.methods:
        vals = np.asarray(per_method[method], dtype=float)
        ok = vals.size > 0 and np.all(np.isfinite(vals))
        rows.append(MetricsRow(
            benchmark=config.benchmark, parameter=pname, method=method,
            mean=float(vals.mean()) if vals.size else float("nan"),
            std=float(vals.std()) if vals.size else float("nan"),
            repeats=int(vals.size),
            failed=bool(reasons[method]) or not ok,
            reason=reasons[method],
        ))
    return rows


def _csv_quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def save_metrics(rows: list[MetricsRow], csv_path, txt_path) -> None:
    header = "benchmark,parameter,method,mean,std,repeats,failed,reason"
    lines = [header] + [
        f"{r.benchmark},{r.parameter},{r.method},{r.mean!r},{r.std!r},"
        f"{r.repeats},{int(r.failed)},{_csv_quoted(r.reason)}"
        for r in rows
    ]
    Path(csv_path).write_text("\n".join(lines) + "\n")
    width = max(len(r.method) for r in rows) + 2
    txt = ["Log predicted probability of the true parameters "
           "(mean +- std over repeats)", ""]
    for r in rows:
        flag = f"  [FAILED] {r.reason}".rstrip() if r.failed else ""
        txt.append(f"{r.benchmark:>14}  {r.method:<{width}} "
                   f"{r.mean: .3f} +- {r.std:.3f}  (R={r.repeats}){flag}")
    Path(txt_path).write_text("\n".join(txt) + "\n")
