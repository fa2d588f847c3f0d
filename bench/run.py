#!/usr/bin/env python3
"""mbpolicy benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload sim-replicate --seed 1 --seconds 8 --trace 0

Each workload is a closed loop with one client: ops run one after another in
this process, with ``threads=1`` and no process pool. Ops come in rounds,
and the loop runs whole rounds until ``--seconds`` have passed. Every op is
checked; an op that raises or fails a check counts as failed and gives no
latency sample.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones. With ``--trace 1`` every op is traced and
the metrics are the per-layer ones: self time and counts per op, recorded by
wrapping the package's functions at the module attributes their callers look
up (see ``tracer.py``). Lines before the JSON give every metric with its
unit, the op counts and the run context.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 7

WORKLOADS = ("sim-replicate", "study-learn", "study-cv")

SIM_SETTINGS = ((1, "linear", "tree", 500), (5, "nonlinear", "nontree", 500))
SIM_TEST_N = 20_000

# The study workloads stand in for analyses of one real study file, so the
# file is the same for every workload seed, and study-learn runs `learn` with
# its default fold seed. The lasso's running time changes by up to a factor
# of two between generated files and by a fifth between fold seeds (see
# README.md), which would swamp any bound if the seed chose them.
STUDY_FILE_SEED = 0
LEARN_COVARIATES = "age,education,re74,re75"
CV_OPS_PER_ROUND = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An op finished but its outputs are wrong."""


@dataclass(frozen=True)
class Op:
    """One call into the package. Ops with equal keys have equal arguments."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, dict]]  # result -> (output digest, quality)


@dataclass
class OpRecord:
    key: str
    seconds: float | None  # None when the op failed
    error: str = ""
    quality: dict = field(default_factory=dict)


def run_op(op: Op, digests: dict[str, str], span=None) -> OpRecord:
    """Time one op, then check it. A failed op gets no latency sample."""
    start = time.perf_counter()
    try:
        with span if span is not None else contextlib.nullcontext():
            result = op.call()
        seconds = time.perf_counter() - start
        digest, quality = op.check(result)
        if digests.setdefault(op.key, digest) != digest:
            raise CheckFailed(f"outputs of {op.key} differ from an earlier op with the same arguments")
    except Exception as exc:  # every failure of an op is recorded, never raised
        return OpRecord(op.key, None, f"{type(exc).__name__}: {exc}")
    return OpRecord(op.key, seconds, quality=quality)


def run_rounds(rounds: Callable[[int], list[Op]], seconds: float, op_span=None) -> list[OpRecord]:
    """Closed loop over whole rounds until `seconds` have passed.

    op_span, when given, maps an op's index to the context its call runs in.
    """
    records: list[OpRecord] = []
    digests: dict[str, str] = {}
    start = time.perf_counter()
    r = 0
    while True:
        for op in rounds(r):
            records.append(run_op(op, digests, op_span(len(records)) if op_span else None))
        r += 1
        if time.perf_counter() - start >= seconds:
            return records


def _check_exit(code: object) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}")


def _quiet(fn: Callable[[], object]) -> Callable[[], object]:
    """Call fn with standard output discarded, so the result line stays last."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()

    return call


class Package:
    """The package modules, imported from this checkout's source tree."""

    def __init__(self) -> None:
        src = ROOT / "src"
        if not (src / "mbpolicy" / "__init__.py").is_file():
            raise FileNotFoundError(f"package source not found under {src}")
        sys.path.insert(0, str(src))
        import mbpolicy
        import mbpolicy.cli
        import numpy

        if Path(mbpolicy.__file__).resolve().parent != (src / "mbpolicy").resolve():
            raise ImportError(f"imported mbpolicy from {mbpolicy.__file__}, not from {src}")
        self.numpy = numpy
        self.cli = mbpolicy.cli
        self.dataset = sys.modules["mbpolicy.dataset"]
        self.evaluation = sys.modules["mbpolicy.evaluation"]
        self.policytree = sys.modules["mbpolicy.policytree"]
        self.simulation = sys.modules["mbpolicy.simulation"]
        # Checks call the unwrapped functions, so they add no spans.
        self.search_tree = self.policytree.search_tree
        self.evaluate_policy = self.policytree.evaluate_policy
        self.tree_from_json = self.policytree.TreePolicy.from_json


# ---------------------------------------------------------------- workloads


def sim_replicate(pkg: Package, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """Round r: every method on both settings, replicate seed derived from (seed, r)."""
    simulation = pkg.simulation
    specs = [simulation.SimulationSpec(*setting) for setting in SIM_SETTINGS]
    methods = sorted(simulation.METHODS)

    def check(rows) -> tuple[str, dict]:
        if len(rows) != 1:
            raise CheckFailed(f"expected one result row, got {len(rows)}")
        row = rows[0]
        if row.error:
            raise CheckFailed(f"replicate failed: {row.error}")
        if not row.regret >= 0.0:
            raise CheckFailed(f"regret {row.regret!r} is negative")
        text = f"{row.value!r} {row.regret!r} {row.tree.to_json()}"
        return hashlib.sha256(text.encode()).hexdigest(), {"regret": row.regret, "value": row.value}

    def rounds(r: int) -> list[Op]:
        experiment_seed = seed * 1000 + r
        ops = []
        for spec in specs:
            for method in methods:
                def call(spec=spec, method=method):
                    return simulation.run_experiment(
                        [spec], [method], 1, experiment_seed,
                        test_n=SIM_TEST_N, depth=2, threads=1,
                    )

                ops.append(Op(f"{spec.key()}/{method}/{experiment_seed}", call, check))
        return ops

    return rounds


def _study_csv(work: Path):
    import nsw_shaped

    path = nsw_shaped.write_csv(work / "nsw_shaped.csv", STUDY_FILE_SEED)
    return path, nsw_shaped.generate_rows(STUDY_FILE_SEED), nsw_shaped.HEADER


def study_learn(pkg: Package, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """One op per round: `learn --correction lasso` on four study covariates.

    The op is the same for every seed (see STUDY_FILE_SEED).
    """
    path, rows, header = _study_csv(work)
    np = pkg.numpy
    columns = LEARN_COVARIATES.split(",")
    x = rows[:, [header.index(c) for c in columns]]
    out = work / "learn"
    argv = [
        "learn", "--data", str(path), "--covariates", LEARN_COVARIATES,
        "--correction", "lasso", "--m", "5", "--depth", "2", "--out", str(out),
    ]

    def check(code) -> tuple[str, dict]:
        _check_exit(code)
        tree = pkg.tree_from_json((out / "policy.json").read_text(encoding="utf-8"))
        with open(out / "gamma.csv", encoding="utf-8") as fh:
            next(fh)
            gamma = np.array([float(line.rsplit(",", 1)[1]) for line in fh])

        def objective(policy) -> float:
            return float(np.sum((2.0 * pkg.evaluate_policy(policy, x) - 1.0) * gamma))

        learned = objective(tree)
        stump = objective(pkg.search_tree(x, gamma, 1, tree.eligible_features))
        total = float(np.sum(gamma))
        slack = 1e-9 * float(np.sum(np.abs(gamma)))
        for name, rival in (("depth-1 optimum", stump), ("treat-all", total), ("treat-none", -total)):
            if learned < rival - slack:
                raise CheckFailed(f"depth-2 objective {learned!r} is below the {name} {rival!r}")
        return (out / "outputs.sha256").read_text(), {"advantage": learned / len(gamma)}

    return lambda r: [Op("learn", _quiet(lambda: pkg.cli.main(argv)), check)]


def study_cv(pkg: Package, seed: int, work: Path) -> Callable[[int], list[Op]]:
    """Ops cycle over CV seeds k: one `evaluate --cv --repeats 1` repeat of mb-lr-m5."""
    path, _, _ = _study_csv(work)

    def op(k: int) -> Op:
        out = work / f"cv-{k}"
        argv = [
            "evaluate", "--data", str(path), "--cv", "--repeats", "1", "--seed", str(k),
            "--method", "mb-lr-m5", "--exclude", "black,hispanic", "--out", str(out),
        ]

        def check(code) -> tuple[str, dict]:
            _check_exit(code)
            report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
            if report["failed_repeats"] != 0:
                raise CheckFailed(f"{report['failed_repeats']} CV repeats failed")
            if not math.isfinite(report["cv_mean"]):
                raise CheckFailed(f"CV value {report['cv_mean']!r} is not finite")
            return (out / "outputs.sha256").read_text(), {"cv_value": report["cv_mean"]}

        return Op(f"cv-{k}", _quiet(lambda: pkg.cli.main(argv)), check)

    ops = [op(seed * CV_OPS_PER_ROUND + j) for j in range(CV_OPS_PER_ROUND)]
    return lambda r: ops


SETUPS = {"sim-replicate": sim_replicate, "study-learn": study_learn, "study-cv": study_cv}


# ------------------------------------------------------------------ tracing


def trace_targets(pkg: Package) -> list:
    """Wrap points: (module callers look the name up in, attribute, span name)."""
    from tracer import Target

    cli, dataset, evaluation = pkg.cli, pkg.dataset, pkg.evaluation
    policytree, simulation = pkg.policytree, pkg.simulation
    np = pkg.numpy

    def search_name(a):
        return f"policytree.search_d{a['depth']}"

    def search_count(a, result):
        roots = 0
        if a["depth"] == 2:
            x = np.atleast_2d(np.asarray(a["x"], dtype=float))
            eligible = a["eligible_features"] or range(x.shape[1])
            roots = sum(len(np.unique(x[:, f])) + 1 for f in eligible)
        return {"policytree.searches": 1, "policytree.root_splits": roots}

    def match_count(a, result):
        n1 = int(np.sum(a["data"].w))
        return {"matching.match_calls": 1, "matching.pairs": 2 * n1 * (a["data"].n - n1)}

    def lasso_count(a, model):
        nonzero = int(np.count_nonzero(model.coef0[1:]) + np.count_nonzero(model.coef1[1:]))
        return {"outcome_models.lasso_fits": 1, "outcome_models.lasso_nonzero": nonzero}

    search = dict(name=search_name, count=search_count, size=lambda a: len(a["gamma"]))
    match = dict(name="matching.match", count=match_count, size=lambda a: a["data"].n)
    ols = dict(name="outcome_models.ols", count=lambda a, r: {"outcome_models.ols_fits": 1})
    evaluate = dict(
        name="policytree.evaluate",
        count=lambda a, r: {"policytree.rows_evaluated": len(r)},
    )
    return [
        Target(cli, "main", "cli.self"),
        Target(cli, "load_csv", "dataset.load_csv", count=lambda a, r: {"dataset.rows_loaded": r.n}),
        Target(cli, "cross_validate", "evaluation.cross_validate_self"),
        Target(cli, "learn_with_method", "simulation.self"),
        Target(cli, "impute_scores", "policytree.self"),
        Target(cli, "learn_policy", "policytree.self"),
        Target(dataset.ObservationalDataset, "subset", "dataset.subset"),
        Target(evaluation, "aipw_value_estimate", "evaluation.value"),
        Target(evaluation, "fit_ols_per_arm", **ols),
        Target(evaluation, "evaluate_policy", **evaluate),
        Target(simulation, "run_experiment", "simulation.self"),
        Target(simulation, "_run_single", "simulation.self"),
        Target(simulation, "learn_with_method", "simulation.self"),
        Target(
            simulation, "generate", "simulation.generate",
            count=lambda a, r: {"simulation.rows_generated": a["spec"].n},
        ),
        Target(simulation, "evaluate_policy", **evaluate),
        Target(simulation, "fit_linear_probability", "evaluation.linprob"),
        Target(simulation, "fit_ols_per_arm", **ols),
        Target(simulation, "aipw_scores", "advantage.aipw_scores"),
        Target(simulation, "search_tree", **search),
        Target(simulation, "learn_policy", "policytree.self"),
        Target(policytree, "impute_scores", "policytree.self"),
        Target(
            policytree, "fit_mahalanobis", "metric.fit",
            count=lambda a, m: {"metric.fits": 1, "metric.ridged_fits": int(m.ridge > 0)},
        ),
        Target(policytree, "match_units", **match),
        Target(policytree, "impute_raw", "matching.impute"),
        Target(policytree, "impute_bias_corrected", "matching.impute"),
        Target(policytree, "fit_ols_per_arm", **ols),
        Target(policytree, "fit_lasso_per_arm", "outcome_models.lasso", count=lasso_count),
        Target(policytree, "search_tree", **search),
    ]


# Self-time buckets (span names) reported as "<name>_s", per op.
SELF_TIME_SPANS = (
    "policytree.search_d2",
    "policytree.evaluate",
    "policytree.self",
    "outcome_models.lasso",
    "outcome_models.ols",
    "matching.match",
    "matching.impute",
    "metric.fit",
    "simulation.generate",
    "simulation.self",
    "advantage.aipw_scores",
    "evaluation.linprob",
    "evaluation.cross_validate_self",
    "evaluation.value",
    "dataset.load_csv",
    "dataset.subset",
    "cli.self",
)
# Counts reported per op.
PER_OP_COUNTS = (
    "policytree.searches",
    "policytree.root_splits",
    "policytree.rows_evaluated",
    "outcome_models.lasso_fits",
    "outcome_models.ols_fits",
    "matching.match_calls",
    "matching.pairs",
    "metric.fits",
    "metric.ridged_fits",
    "simulation.rows_generated",
    "dataset.rows_loaded",
)


def per_layer_metrics(tracer, traced: list[OpRecord]) -> dict[str, tuple[float, str]]:
    ops = len(traced)
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = (selfs.get(name, 0.0) / ops, "s")
    for name in PER_OP_COUNTS:
        metrics[name] = (counts.get(name, 0.0) / ops, "count")

    def rate(count: str, span: str) -> float:
        seconds = selfs.get(span, 0.0)
        return counts.get(count, 0.0) / seconds if seconds > 0 else 0.0

    fits = counts.get("outcome_models.lasso_fits", 0.0)
    metrics["outcome_models.lasso_nonzero"] = (
        counts.get("outcome_models.lasso_nonzero", 0.0) / fits if fits else 0.0, "count")
    metrics["policytree.root_splits_per_s"] = (rate("policytree.root_splits", "policytree.search_d2"), "1/s")
    metrics["matching.pairs_per_s"] = (rate("matching.pairs", "matching.match"), "1/s")
    metrics["policytree.peak_alloc_mb"] = (tracer.peak_alloc_mb("policytree.search_d2"), "MB")
    metrics["matching.peak_alloc_mb"] = (tracer.peak_alloc_mb("matching.match"), "MB")
    traced_s = sum(record.seconds for record in traced)
    named = sum(selfs.get(name, 0.0) for name in SELF_TIME_SPANS)
    metrics["trace.coverage"] = (named / traced_s, "frac")
    # Untraced wall time is the traced one less the wrappers' own measured work.
    metrics["trace.overhead_frac"] = (tracer.overhead / (traced_s - tracer.overhead), "frac")
    return metrics


def traced_run(pkg: Package, rounds, seconds: float, work: Path):
    """Whole rounds with every op traced; spans are written to spans.jsonl at the end."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(trace_targets(pkg)):
        records = run_rounds(rounds, seconds, tracer.op)
    tracer.write(work / "spans.jsonl")
    return tracer, records


# ------------------------------------------------------------------ context


def _blas_threads() -> int | None:
    try:
        import numpy

        libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
        return int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        return None


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(pkg: Package, workload: str, seed: int, ops: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": pkg.numpy.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


# -------------------------------------------------------------------- main


def timed_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--setup-only", "--seconds", "0",
            "--workload", workload, "--seed", str(seed), "--work", str(work / f"setup-{i}"),
        ]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(work / f"setup-{i}")
    return times


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="mbpolicy benchmark")
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="'all' runs each workload in turn, in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdin=subprocess.DEVNULL,
            ).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    work = Path(args.work) if args.work else WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pkg = Package()
        rounds = SETUPS[args.workload](pkg, args.seed, work)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        tracer, records = traced_run(pkg, rounds, args.seconds, work)
        if all(record.seconds is not None for record in records):
            metrics = per_layer_metrics(tracer, records)
    else:
        setup_times = timed_setups(args.workload, args.seed, work)
        records = run_rounds(rounds, args.seconds)
        latencies = [record.seconds for record in records if record.seconds is not None]
        if latencies:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_s": statistics.median(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}

    failed = [record for record in records if record.seconds is None]
    for record in failed[:5]:
        print(f"failed op {record.key}: {record.error}", file=sys.stderr)
    quality: dict[str, list[float]] = {}
    for record in records:
        for name, value in record.quality.items():
            quality.setdefault(name, []).append(value)

    print("context " + json.dumps(run_context(pkg, args.workload, args.seed, len(records))))
    print(f"{args.workload} ops_total = {len(records)} count")
    print(f"{args.workload} ops_failed = {len(failed)} count")
    for name, values in quality.items():
        print(f"{args.workload} mean_{name} = {statistics.fmean(values)!r} (deterministic)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
