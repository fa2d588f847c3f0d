"""Command-line interface: simulation runs, policy learning, evaluation, balance.

Every command resolves its configuration, writes a manifest.json (resolved
parameters plus sha256 of each input file) before any computation, then
writes its result files and an outputs.sha256 covering the deterministic
primary outputs, so rerunning a command with identical inputs reproduces
them byte for byte. simulate and replicate also write their wall-clock
measurements, to a separate timings.csv that the checksums leave out.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .dataset import CsvSchema, _read_text, load_csv, normalized_differences, write_csv
from .evaluation import (
    aipw_value_estimate, arm_proportion_propensity, cross_validate, fit_linear_probability,
)
from .outcome_models import fit_ols_per_arm
from .policytree import (
    CORRECTIONS,
    MAX_DEPTH,
    LearnConfig,
    TreePolicy,
    constant_policy,
    evaluate_policy,
    impute_scores,
    learn_policy,
)
from .simulation import (
    CONTRASTS,
    DEFAULT_TEST_N,
    MAIN_EFFECTS,
    METHODS,
    SCENARIOS,
    SimulationSpec,
    _check_methods,
    learn_with_method,
    run_experiment,
    summarize_results,
    write_results_csv,
    write_summary_csv,
    write_timings_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# evaluate's learner flags, which only --cv reads, and their values when not given
CV_DEFAULTS = {"method": "mb-lasso-m5", "folds": 5, "repeats": 100, "depth": 2}

OUT_DIR_ENV = "MBPOLICY_OUT"

BUDGETS = {
    # the replicate manifest records each budget's entries under these names
    "smoke": dict(
        scenarios=(1,), mains=("linear",), contrasts=("tree",), sizes=(200,),
        methods=("mb-m5", "mb-lasso-m5"), reps=3,
    ),
    "desk": dict(
        scenarios=SCENARIOS, mains=MAIN_EFFECTS, contrasts=CONTRASTS, sizes=(500,),
        methods=("mb-m5", "mb-lasso-m5", "aipw-tree"), reps=20,
    ),
    "full": dict(
        scenarios=SCENARIOS, mains=MAIN_EFFECTS, contrasts=CONTRASTS, sizes=(200, 500, 1000),
        methods=tuple(sorted(METHODS)), reps=200,
    ),
}


def _int_at_least(low: int):
    """argparse type for an integer flag >= low; any other value is a usage error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return value

    return convert


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _start(args: argparse.Namespace, parameters: dict, inputs: dict[str, Path]) -> Path:
    """Make the output dir and write its manifest.json, before any computation."""
    out = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "command": args.command,
        "parameters": parameters,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
    })
    return out


def _write_checksums(out: Path, names: list[str]) -> None:
    lines = [f"{_sha256(out / name)}  {name}" for name in names]
    (out / "outputs.sha256").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _split_csv_flag(flag_value: str) -> list[str]:
    return [item.strip() for item in flag_value.split(",") if item.strip()]


def _load_dataset(args: argparse.Namespace) -> tuple:
    """The data flags' dataset, with the manifest parameters and inputs they resolve to."""
    path = Path(args.data)
    schema = CsvSchema(args.treatment_col, args.outcome_col, _split_csv_flag(args.covariates))
    data = load_csv(path, schema)
    if args.exclude:
        data = data.excluding_from_policy(_split_csv_flag(args.exclude))
    eligible = data.eligible_features or range(data.p)
    parameters = {
        "treatment_col": args.treatment_col,
        "outcome_col": args.outcome_col,
        "covariates": list(data.feature_names),
        "excluded_from_policy": sorted(
            name for j, name in enumerate(data.feature_names) if j not in eligible
        ),
    }
    return data, parameters, {"data": path}


def _resolve_policy(
    spec: str, feature_names: tuple[str, ...]
) -> tuple[TreePolicy, dict[str, Path]]:
    """The policy, and the manifest inputs naming the file it was read from, if any."""
    if spec == "treat-all":
        return constant_policy(1, feature_names), {}
    if spec == "treat-none":
        return constant_policy(0, feature_names), {}
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(
            f"policy {spec!r} is not 'treat-all', 'treat-none', or an existing file"
        )
    text = _read_text(path)
    try:
        tree = TreePolicy.from_json(text) if path.suffix == ".json" else TreePolicy.from_text(text)
    except ValueError as exc:  # bad JSON, a bad key or a bad line
        raise ValueError(f"{path}: {exc}") from None
    for j in sorted(set(tree.features.tolist())):
        if j >= len(feature_names):
            raise ValueError(
                f"{path}: policy splits on feature {j}, "
                f"but the data has {len(feature_names)} covariate(s)"
            )
        if tree.feature_names is not None and tree.feature_names[j] != feature_names[j]:
            raise ValueError(
                f"{path}: policy splits on feature {j} named {tree.feature_names[j]!r}, "
                f"but column {j} of the data is {feature_names[j]!r}"
            )
    return tree, {"policy": path}


def _run_grid(
    args: argparse.Namespace, parameters: dict, settings: list, methods: list[str], reps: int,
    depth: int,
) -> tuple[list, int]:
    """Write the manifest, run the grid and write results, summary and timings.

    The manifest holds the parsed flags, less the output dir, and parameters;
    the checksums skip the timings. Returns the rows and the exit code, a
    runtime failure when every row failed.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "method")}
    out = _start(args, {**flags, **parameters}, {})
    rows = run_experiment(
        settings, methods, reps, seed=args.seed, test_n=args.test_n, depth=depth,
        threads=args.threads,
    )
    write_results_csv(rows, out / "results.csv")
    write_summary_csv(rows, out / "summary.csv")
    write_timings_csv(rows, out / "timings.csv")
    _write_checksums(out, ["results.csv", "summary.csv"])
    return rows, EXIT_RUNTIME if all(row.error for row in rows) else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    methods = _split_csv_flag(args.method)
    try:
        _check_methods(methods)
    except ValueError as exc:
        print(f"error: --method {args.method!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    settings = [SimulationSpec(args.scenario, args.main, args.contrast, args.n)]
    rows, code = _run_grid(args, {"methods": methods}, settings, methods, args.reps, args.depth)
    for summary in summarize_results(rows):
        print(
            f"{summary['method']}: mean value {summary['mean_value']:.4f} "
            f"(sd {summary['sd_value']:.4f}), mean regret {summary['mean_regret']:.4f}, "
            f"failed {summary['failed']}/{summary['replications']}"
        )
    if code != EXIT_OK:
        print("all replicates failed", file=sys.stderr)
    return code


def cmd_replicate(args: argparse.Namespace) -> int:
    budget = BUDGETS[args.budget]
    axes = ("scenarios", "mains", "contrasts", "sizes")  # in SimulationSpec's order
    designs = itertools.product(*(budget[axis] for axis in axes))
    settings = [SimulationSpec(*design) for design in designs]
    rows, code = _run_grid(args, budget, settings, list(budget["methods"]), budget["reps"], depth=2)
    n_failed = sum(1 for row in rows if row.error)
    print(f"{len(rows)} replicate rows written, {n_failed} failed")
    return code


def cmd_learn(args: argparse.Namespace) -> int:
    data, parameters, inputs = _load_dataset(args)
    config = LearnConfig(**{f.name: getattr(args, f.name) for f in fields(LearnConfig)})
    out = _start(args, {**asdict(config), **parameters}, inputs)
    imputed = impute_scores(data, config)
    tree = learn_policy(data, config, imputed=imputed)
    (out / "policy.txt").write_text(tree.to_text(), encoding="utf-8")
    (out / "policy.json").write_text(tree.to_json() + "\n", encoding="utf-8")
    columns = (data.w, data.y, imputed.y0, imputed.y1, imputed.gamma)
    write_csv(
        out / "gamma.csv",
        ("unit", "w", "y", "y0_imputed", "y1_imputed", "gamma"),
        zip(range(data.n), *(column.tolist() for column in columns)),
    )
    _write_checksums(out, ["policy.txt", "policy.json", "gamma.csv"])
    print(tree.to_text(), end="")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    given = [name for name in CV_DEFAULTS if getattr(args, name) is not None]
    if given and not args.cv:  # before any file is written
        print(f"error: argument --{given[0]}: only allowed with argument --cv", file=sys.stderr)
        return EXIT_USAGE
    for name, default in CV_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    data, parameters, inputs = _load_dataset(args)
    parameters.update(propensity=args.propensity, seed=args.seed, cv=args.cv)
    if args.cv:
        parameters.update(method=args.method, folds=args.folds, repeats=args.repeats,
                          depth=args.depth)
    else:  # a missing or bad policy file writes no manifest
        tree, policy_inputs = _resolve_policy(args.policy, data.feature_names)
        parameters.update(policy=args.policy)
        inputs.update(policy_inputs)
    out = _start(args, parameters, inputs)
    e_hat = (
        fit_linear_probability(data)
        if args.propensity == "linear"
        else arm_proportion_propensity(data)
    )
    if args.cv:
        report = cross_validate(
            data,
            lambda train: learn_with_method(train, args.method, args.seed, args.depth),
            folds=args.folds,
            repeats=args.repeats,
            seed=args.seed,
            e_hat=e_hat,
        )
        report.to_csv(out / "cv_values.csv")
        write_csv(out / "cv_failures.csv", ("failure",), ((f,) for f in report.failures))
        mean, std = (v if math.isfinite(v) else None for v in (report.mean, report.std))
        _write_json(out / "evaluation.json", {
            "cv_mean": mean,
            "cv_std": std,
            "folds": report.folds,
            "repeats": report.repeats,
            "failed_repeats": report.n_failed_repeats,
            "method": args.method,
        })
        _write_checksums(out, ["evaluation.json", "cv_values.csv", "cv_failures.csv"])
        mean, std = ("undefined" if v is None else f"{v:.1f}" for v in (mean, std))
        print(f"cross-validated value: mean {mean} (sd {std})")
        if report.n_failed_repeats:
            print(
                f"{report.n_failed_repeats} repeats failed; reasons in {out / 'cv_failures.csv'}",
                file=sys.stderr,
            )
            if report.n_failed_repeats == report.repeats:
                return EXIT_RUNTIME
        return EXIT_OK
    assignments = evaluate_policy(tree, data.x)
    value = aipw_value_estimate(data, assignments, e_hat, fit_ols_per_arm(data, "quadratic"))
    # a file policy by its content, so the result does not depend on how its path is spelt
    policy = f"sha256:{_sha256(inputs['policy'])}" if "policy" in inputs else args.policy
    _write_json(out / "evaluation.json", {
        "policy": policy, "value": value, "n_treated_by_policy": int(assignments.sum())
    })
    _write_checksums(out, ["evaluation.json"])
    print(f"estimated value under policy {args.policy!r}: {value:.1f}")
    return EXIT_OK


def cmd_balance(args: argparse.Namespace) -> int:
    data, parameters, inputs = _load_dataset(args)
    out = _start(args, parameters, inputs)
    report = normalized_differences(data)
    report.to_csv(out / "balance.csv")
    _write_checksums(out, ["balance.csv"])
    width = max(len(name) for name in report.feature_names)
    print(f"{'covariate':<{width}}  normalized difference")
    for name, diff in zip(report.feature_names, report.normalized_diffs):
        print(f"{name:<{width}}  {diff:+.3f}")
    print(f"(control n={report.n_control}, treated n={report.n_treated})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbpolicy",
        description="Matching-based policy learning: simulate, learn, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    depths = range(1, MAX_DEPTH + 1)
    learn_defaults = LearnConfig()
    non_negative, positive, at_least_two = _int_at_least(0), _int_at_least(1), _int_at_least(2)

    # the flags shared between commands, as parents of their parsers
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="", help=f"output dir (or ${OUT_DIR_ENV})")
    grid = argparse.ArgumentParser(add_help=False, parents=[common])
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--test-n", type=positive, default=DEFAULT_TEST_N)
    grid.add_argument("--threads", type=positive, default=1)
    data = argparse.ArgumentParser(add_help=False, parents=[common])
    data.add_argument("--data", required=True, help="input CSV file")
    data.add_argument(
        "--treatment-col", default="treat", help="binary treatment column (default: treat)"
    )
    data.add_argument(
        "--outcome-col", default="re78", help="outcome column (default: re78)"
    )
    data.add_argument(
        "--covariates",
        default="",
        help="comma-separated covariate columns (default: all other columns)",
    )
    data.add_argument(
        "--exclude",
        default="",
        help="comma-separated covariates barred from policy splits "
        "(still used for matching and evaluation)",
    )

    sim = sub.add_parser(
        "simulate", parents=[grid], help="replicated simulation runs on one setting"
    )
    sim.add_argument("--scenario", type=int, choices=SCENARIOS, required=True)
    sim.add_argument("--main", choices=MAIN_EFFECTS, required=True)
    sim.add_argument("--contrast", choices=CONTRASTS, required=True)
    sim.add_argument("--n", type=positive, required=True, help="training size")
    sim.add_argument(
        "--method",
        default="mb-lasso-m5",
        help=f"comma-separated methods from {sorted(METHODS)}",
    )
    sim.add_argument("--reps", type=positive, default=50)
    sim.add_argument("--depth", type=int, choices=depths, default=2)
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("replicate", parents=[grid], help="bundled simulation grids")
    rep.add_argument("--budget", choices=sorted(BUDGETS), default="desk")
    rep.set_defaults(func=cmd_replicate)

    learn = sub.add_parser("learn", parents=[data], help="learn a tree policy from a CSV")
    learn.add_argument("--m", type=positive, default=learn_defaults.m, help="matches per unit")
    learn.add_argument("--correction", choices=CORRECTIONS, default=learn_defaults.correction)
    learn.add_argument("--depth", type=int, choices=depths, default=learn_defaults.depth)
    learn.add_argument("--lasso-folds", type=at_least_two, default=learn_defaults.lasso_folds)
    learn.add_argument("--seed", type=non_negative, default=learn_defaults.seed)
    learn.set_defaults(func=cmd_learn)

    ev = sub.add_parser("evaluate", parents=[data], help="value a policy on a CSV, single or CV")
    policy_or_cv = ev.add_mutually_exclusive_group()
    policy_or_cv.add_argument(
        "--policy",
        default="treat-all",
        help="'treat-all', 'treat-none', or a policy file (.json or text form)",
    )
    policy_or_cv.add_argument("--cv", action="store_true", help="cross-validated learner value")
    # read by --cv only; None when not given, so that one given without --cv is refused
    cv_only = {name: f"with --cv (default: {value})" for name, value in CV_DEFAULTS.items()}
    ev.add_argument("--method", choices=sorted(METHODS), help=cv_only["method"])
    ev.add_argument("--folds", type=at_least_two, help=cv_only["folds"])
    ev.add_argument("--repeats", type=positive, help=cv_only["repeats"])
    ev.add_argument("--depth", type=int, choices=depths, help=cv_only["depth"])
    ev.add_argument(
        "--propensity",
        choices=("proportions", "linear"),
        default="proportions",
        help="plug-in propensity: arm proportions (randomized) or linear probability",
    )
    ev.add_argument("--seed", type=non_negative, default=0)
    ev.set_defaults(func=cmd_evaluate)

    bal = sub.add_parser("balance", parents=[data], help="normalized covariate differences")
    bal.set_defaults(func=cmd_balance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
