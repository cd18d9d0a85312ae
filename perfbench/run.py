#!/usr/bin/env python3
"""The simcal benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads (see configs.py and BENCHMARK.json): cartpole_calibrate,
pendulum_evaluate, lotka_volterra_nn; ``all`` runs the three in turn.

A run writes the workload's config from the seed, times the set-up in
fresh interpreters, runs one untimed warm-up iteration whose outputs are
the reference, then repeats the workload for ``--seconds``. Each
iteration's outputs are checked and must equal the reference: log
probabilities and the sha256 of every artifact.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, the
tracing overhead (traced minus untraced wall time) and the
simulate/train split; its results must equal the untraced ones. The
last line of standard output is one JSON object; the full record goes
to perfbench/out/ (spans of traced runs as JSONL beside it).

The process runs BLAS single-threaded. It exits 1 when a check fails and
2 when there are no simcal sources to benchmark.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from configs import ALL_METHODS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5
DRAWS = 1_000_000          # posterior.sample count behind dr_draws_per_s
MIN_ITERATIONS = 3         # timed iterations per run, even past --seconds
ROADMAP_SPLIT = "simulate ~57% / train ~42% of a full-size Pendulum repeat"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "dr_draws_per_s": "1/s",
             "peak_rss_mb": "MB"}


def source_facts() -> dict:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "processes": 1,
    }


def time_setup(workload: str, seed: int, config_path: Path) -> list:
    """Seconds of each set-up probe, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(config_path)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().split("\n")[-1]))
    return times


def bench(workload: str, seed: int, seconds: float, trace: bool, facts: dict) -> dict:
    from simcal import harness
    from simcal.posterior import sample

    from workloads import capture_posteriors, in_box, run_iteration

    out = OUT / f"{workload}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    config_path, work = out / "config.yaml", out / "work"

    setup = time_setup(workload, seed, config_path)
    config = harness.load_config(config_path)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "kind": WORKLOADS[workload][0],
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "config_hash": harness.config_hash(config),
        "setup_s_samples": setup,
        "provenance": facts,
    }
    failures = []

    # Warm-up: fills caches, gives the reference outputs and keeps the
    # posterior that the timed draws sample from.
    with capture_posteriors() as kept:
        ref = run_iteration(workload, config_path, work)
    attempted = ref.attempted
    failures += ref.failures
    record["log_probs"], record["artifact_sha256"] = ref.outputs()
    if ref.failures or not kept:
        return finish(record, attempted, failures, {}, trace)
    posterior = kept[0]

    walls, draw_rates, traced_walls, per_layer, tracers = [], [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(walls) < MIN_ITERATIONS
           or (trace and len(traced_walls) < 2)):
        tracer = None
        if trace and len(traced_walls) < len(walls):
            tracer = spans.Tracer()
            saved = spans.instrument(tracer)
            try:
                it = run_iteration(workload, config_path, work, tracer)
            finally:
                if not spans.uninstrument(saved):
                    failures.append("a traced function was not restored")
        else:
            it = run_iteration(workload, config_path, work)
        attempted += it.attempted
        failures += it.failures
        if it.outputs() != ref.outputs():
            failures.append(f"{'traced ' if tracer else ''}iteration "
                            f"{len(walls) + len(traced_walls)} outputs differ "
                            "from the warm-up's")
        if tracer:
            traced_walls.append(it.wall_s)
            per_layer.append(spans.layer_metrics(tracer, it.artifact_bytes))
            tracers.append(tracer)
            continue
        walls.append(it.wall_s)
        if trace:
            continue
        attempted += 1
        t0 = time.perf_counter()
        draws = sample(posterior, DRAWS, seed=seed)
        draw_rates.append(DRAWS / (time.perf_counter() - t0))
        if draws.shape != (DRAWS, len(config.theta_star)) or not in_box(draws, config):
            failures.append("posterior.sample gave draws outside the prior box")

    record["wall_s_samples"] = walls
    record["dr_draws_per_s_samples"] = draw_rates
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "dr_draws_per_s": statistics.median(draw_rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return finish(record, attempted, failures, metrics, trace)

    metrics, unsteady = spans.summarize(per_layer)
    failures += [f"count {name} did not repeat at the same seed" for name in unsteady]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics.update(log_prob_metrics(record["log_probs"], config))
    record["traced_wall_s_samples"] = traced_walls
    record["simulate_train_split"] = {
        "simulate_frac": metrics["trace.simulate_frac"],
        "train_frac": metrics["trace.train_frac"],
        "roadmap_reference": ROADMAP_SPLIT,
    }
    # Inclusive and self seconds per span name, median over traced iterations.
    durations = [t.durations() for t in tracers]
    record["span_seconds"] = {
        name: {"total": statistics.median(d[0][name] for d in durations),
               "self": statistics.median(d[1][name] for d in durations)}
        for name in durations[0][0]}
    spans_path = out / "spans.jsonl"
    with open(spans_path, "w") as fh:
        for trace_id, tracer in enumerate(tracers):
            for rec in tracer.records():
                fh.write(json.dumps({"trace": trace_id, **rec}) + "\n")
    record["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    return finish(record, attempted, failures, metrics, trace)


def log_prob_metrics(log_probs: dict, config) -> dict:
    """log p(theta*) per method, in nats. A method the workload does not
    run reports the prior's log-density at theta*, the score of a
    posterior that learned nothing."""
    import numpy
    prior = -float(numpy.sum(numpy.log(numpy.asarray(config.prior_high)
                                       - numpy.asarray(config.prior_low))))
    return {f"log_prob.{m}": log_probs.get(m, prior) for m in ALL_METHODS}


def finish(record, attempted, failures, metrics, trace) -> dict:
    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  failed_frac=len(failures) / max(attempted, 1), metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{record['workload']}-{record['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def units(trace: bool) -> dict:
    if not trace:
        return E2E_UNITS
    return {**spans.UNITS, "trace.overhead_s": "s",
            **{f"log_prob.{m}": "nats" for m in ALL_METHODS}}


def report(record: dict, trace: bool) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={int(trace)}")
    for name, value in record["metrics"].items():
        print(f"  {name:<36} {value:>16.6g} {units(trace)[name]}")
    print(f"  {'log_prob (this workload)':<36} {json.dumps(record['log_probs'])} nats")
    print(f"  {'failed_frac':<36} {record['failed_frac']:>16.6g} "
          f"({record['failed']}/{record['attempted']})")
    walls = record.get("wall_s_samples")
    if walls:
        print(f"  {'wall_max_s (not gated)':<36} {max(walls):>16.6g} s "
              f"(slowest of {len(walls)} timed iterations)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description="simcal benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "simcal" / "__init__.py").is_file():
        print(f"error: no simcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = {**machine_facts(), **source_facts()}
    print(f"machine: {json.dumps(facts)}")
    records = []
    for name in names:
        record = bench(name, args.seed, args.seconds, trace, facts)
        report(record, trace)
        records.append(record)

    unit = units(trace)
    metrics = {
        (f"{r['workload']}.{k}" if len(records) > 1 else k): {"value": v, "unit": unit[k]}
        for r in records for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0,
              "attempted": sum(r["attempted"] for r in records),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
