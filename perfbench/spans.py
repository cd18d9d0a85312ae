"""Outside-in tracing for the benchmark's traced run.

simcal itself is not changed. While a traced iteration runs, the
public functions of each module are replaced by wrappers at the module
attribute their callers look up (``simcal.harness.rollout``,
``simcal.mdn.train``, ``simcal.mdn.loss_and_gradient``, ...). Each
wrapper records a span (name, parent, start, end) in memory and updates
counters from the call's arguments and result. ``uninstrument`` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import Counter, defaultdict

ROOT = "bench.iteration"


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, parent index, start, end]
        self.stack = []
        self.counts = Counter()

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[sid][0] == name for sid in self.stack)

    def durations(self):
        """(inclusive, self) seconds per span name. Self time is the
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for sid, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[sid]
        return dict(total), dict(own)

    def records(self):
        return [{"id": sid, "name": name, "parent": parent,
                 "start": start, "end": end}
                for sid, (name, parent, start, end) in enumerate(self.spans)]


# --- counters fed from arguments and results ------------------------------

def _rollout(tr, args, kwargs, traj):
    tr.counts["rollouts"] += 1
    tr.counts["steps"] += traj.length
    tr.counts["terminated_early"] += int(traj.terminated_early)


def _train(tr, args, kwargs, result):
    config, x = args[0], args[1]
    epochs = len(result[2].train_loss)
    n = len(x)
    n_tr = n - max(1, int(round(config.validation_fraction * n)))
    tr.counts["fits"] += 1
    tr.counts["cv_fits"] += int(tr.inside("mdn.select_lengthscale"))
    tr.counts["epochs"] += epochs
    tr.counts["minibatches"] += epochs * math.ceil(n_tr / config.batch_size)


def _loss_and_gradient(tr, args, kwargs, result):
    # Multiply-adds of the head's projections, computed from shapes:
    # logits, means and variances forward, the three weight gradients
    # backward and, for a neural feature map, the gradient into the
    # features as well.
    head, fmap = args[0], args[1]
    theta = args[3] if len(args) > 3 else kwargs["theta_batch"]
    k, d, s = head.num_components, head.theta_dim, head.feature_dim
    passes = 3 if result[2] is not None else 2
    tr.counts["head_flops"] += passes * 2 * len(theta) * s * (k + 2 * k * d)


def _build_rff(tr, args, kwargs, result):
    tr.counts["build_rff_calls"] += 1


def _compute_stats(tr, args, kwargs, result):
    tr.counts["compute_stats_calls"] += 1


def _rejection_abc(tr, args, kwargs, result):
    accepted = result.accepted.shape[0]
    tr.counts["abc_simulations"] += result.thetas.shape[0]
    tr.counts["abc_accepted"] += accepted
    # harness falls back to a quantile radius below ten acceptances
    tr.counts["abc_fallbacks"] += int(accepted < 10)


ARTIFACT_IO = ("save_dataset", "load_dataset", "save_model", "load_model",
               "save_posterior", "load_posterior", "save_grid",
               "save_samples", "save_metrics")

# (module, attribute its callers look up, span name, counter hook)
HOOKS = [
    ("simcal.harness", "rollout", "simulators.rollout", _rollout),
    ("simcal.harness", "compute_stats", "trajstats.compute_stats", _compute_stats),
    ("simcal.trajstats", "compute_stats", "trajstats.compute_stats", _compute_stats),
    ("simcal.harness", "build_rff", "features.build_rff", _build_rff),
    ("simcal.harness", "apply_rff", "features.apply", None),
    ("simcal.harness", "apply_nn", "features.apply", None),
    ("simcal.mdn", "apply_rff", "features.apply", None),
    ("simcal.mdn", "apply_nn", "features.apply", None),
    ("simcal.mdn", "select_lengthscale", "mdn.select_lengthscale", None),
    ("simcal.harness", "train", "mdn.train", _train),
    ("simcal.mdn", "train", "mdn.train", _train),
    ("simcal.mdn", "loss_and_gradient", "mdn.loss_and_gradient", _loss_and_gradient),
    ("simcal.harness", "recover_posterior", "posterior.recover", None),
    ("simcal.harness", "density_grid", "posterior.density_grid", None),
    ("simcal.cli", "sample_posterior", "posterior.sample", None),
    ("simcal.harness", "rejection_abc", "abc_rejection.rejection_abc", _rejection_abc),
    ("simcal.harness", "generate_dataset", "harness.generate_dataset", None),
    ("simcal.harness", "train_model", "harness.train_model", None),
    ("simcal.harness", "synth_real_observation", "harness.synth_real_observation", None),
] + [("simcal.harness", fn, "harness.artifact_io", None) for fn in ARTIFACT_IO]


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.counts[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.end(sid)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def instrument(tracer: Tracer):
    """Install the wrappers; returns what ``uninstrument`` needs."""
    saved = []
    for modname, attr, name, hook in HOOKS:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, hook))
    return saved


def uninstrument(saved) -> bool:
    """Restore every original; True when each attribute is back."""
    for module, attr, original in saved:
        setattr(module, attr, original)
    return all(getattr(module, attr) is original for module, attr, original in saved)


# --- per-layer metrics -----------------------------------------------------

MODULES = ("simulators", "trajstats", "features", "mdn", "posterior",
           "abc_rejection", "harness", "cli")

# Counts that must repeat exactly at the same seed.
EXACT_COUNTS = ("simulators.rollouts", "simulators.steps", "simulators.diverged",
                "trajstats.calls", "features.build_rff_calls", "mdn.cv_fits",
                "mdn.fits", "mdn.epochs", "mdn.minibatches",
                "abc_rejection.simulations", "abc_rejection.accepted",
                "abc_rejection.fallbacks", "harness.artifact_bytes")

# name -> unit, for every per-layer metric the traced run reports
UNITS = {
    "simulators.rollouts": "count", "simulators.steps": "count",
    "simulators.rollout_s": "s", "simulators.rollouts_per_s": "1/s",
    "simulators.terminated_early_frac": "ratio", "simulators.diverged": "count",
    "trajstats.compute_stats_s": "s", "trajstats.calls": "count",
    "features.build_rff_s": "s", "features.build_rff_calls": "count",
    "features.apply_s": "s",
    "mdn.select_lengthscale_s": "s", "mdn.cv_fits": "count",
    "mdn.train_s": "s", "mdn.fits": "count", "mdn.epochs": "count",
    "mdn.epoch_ms": "ms", "mdn.minibatches": "count",
    "mdn.loss_and_gradient_us": "us", "mdn.head_gflops": "GFLOP/s",
    "posterior.recover_s": "s", "posterior.density_grid_s": "s",
    "posterior.sample_s": "s",
    "abc_rejection.rejection_abc_s": "s", "abc_rejection.simulations": "count",
    "abc_rejection.accepted": "count", "abc_rejection.accept_ratio": "ratio",
    "abc_rejection.fallbacks": "count",
    "harness.generate_dataset_s": "s", "harness.train_model_s": "s",
    "harness.synth_real_observation_s": "s", "harness.artifact_io_s": "s",
    "harness.artifact_bytes": "count",
    "cli.generate_s": "s", "cli.train_s": "s", "cli.infer_s": "s",
    "cli.sample_s": "s", "cli.evaluate_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.spans": "count", "trace.simulate_frac": "ratio",
    "trace.train_frac": "ratio",
}


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer numbers of one traced iteration."""
    total, own = tracer.durations()
    c = tracer.counts
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    lg_calls = sum(1 for s in tracer.spans if s[0] == "mdn.loss_and_gradient")
    module_self = defaultdict(float)
    for name, seconds in own.items():
        module_self[name.split(".")[0]] += seconds
    wall = t(ROOT)
    return {
        "simulators.rollouts": c["rollouts"],
        "simulators.steps": c["steps"],
        "simulators.rollout_s": t("simulators.rollout"),
        "simulators.rollouts_per_s": ratio(c["rollouts"], t("simulators.rollout")),
        "simulators.terminated_early_frac": ratio(c["terminated_early"], c["rollouts"]),
        "simulators.diverged": c["simulators.rollout:DivergedTrajectoryError"],
        "trajstats.compute_stats_s": t("trajstats.compute_stats"),
        "trajstats.calls": c["compute_stats_calls"],
        "features.build_rff_s": t("features.build_rff"),
        "features.build_rff_calls": c["build_rff_calls"],
        "features.apply_s": t("features.apply"),
        "mdn.select_lengthscale_s": t("mdn.select_lengthscale"),
        "mdn.cv_fits": c["cv_fits"],
        "mdn.train_s": t("mdn.train"),
        "mdn.fits": c["fits"],
        "mdn.epochs": c["epochs"],
        "mdn.epoch_ms": 1e3 * ratio(t("mdn.train"), c["epochs"]),
        "mdn.minibatches": c["minibatches"],
        "mdn.loss_and_gradient_us": 1e6 * ratio(t("mdn.loss_and_gradient"), lg_calls),
        "mdn.head_gflops": 1e-9 * ratio(c["head_flops"], t("mdn.loss_and_gradient")),
        "posterior.recover_s": t("posterior.recover"),
        "posterior.density_grid_s": t("posterior.density_grid"),
        "posterior.sample_s": t("posterior.sample"),
        "abc_rejection.rejection_abc_s": t("abc_rejection.rejection_abc"),
        "abc_rejection.simulations": c["abc_simulations"],
        "abc_rejection.accepted": c["abc_accepted"],
        "abc_rejection.accept_ratio": ratio(c["abc_accepted"], c["abc_simulations"]),
        "abc_rejection.fallbacks": c["abc_fallbacks"],
        "harness.generate_dataset_s": t("harness.generate_dataset"),
        "harness.train_model_s": t("harness.train_model"),
        "harness.synth_real_observation_s": t("harness.synth_real_observation"),
        "harness.artifact_io_s": t("harness.artifact_io"),
        "harness.artifact_bytes": artifact_bytes,
        **{f"cli.{stage}_s": t(f"cli.{stage}")
           for stage in ("generate", "train", "infer", "sample", "evaluate")},
        **{f"{m}.self_s": module_self.get(m, 0.0) for m in MODULES},
        "trace.spans": len(tracer.spans),
        "trace.simulate_frac": ratio(t("simulators.rollout")
                                     + t("trajstats.compute_stats"), wall),
        "trace.train_frac": ratio(t("harness.train_model"), wall),
    }


def summarize(per_iteration: list[dict]) -> tuple[dict, list]:
    """Median of each metric over the traced iterations, and the exact
    counts that did not repeat."""
    out = {name: statistics.median(m[name] for m in per_iteration)
           for name in per_iteration[0]}
    unsteady = [name for name in EXACT_COUNTS
                if len({m[name] for m in per_iteration}) > 1]
    return out, unsteady
