#!/usr/bin/env python3
"""Measure a change against its parent and write the evidence as one BENCH_<label>.json.

Both sides are checkouts of the repository (git clones, so the benchmark's
context lines carry their SHAs):

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --label abc1234 --summary "what the change does" --out BENCH_abc1234.json

It runs, in this order, alternating which side goes first:

- end to end: `bench/run.py --workload W --seed S --seconds T --trace 0` for
  every workload W of BENCHMARK.json and seed S in SEEDS, T being its
  run_seconds, in PAIRS parent/change pairs; each pair runs every seed and
  workload, so a slow phase of the machine lands on both seeds; each record
  keeps the run's final JSON line, its context line and its deterministic
  output lines, which are compared between sides at equal op counts only;
- stages: STAGE_RUNS processes per side, each running STAGE_CODE, which
  times, peaks and digests every row of its STAGES table (the fixture of each
  row is written there and copied into the report); the digest rows hold the
  outputs a change keeps byte-identical, and output_digest hashes their
  digests into one SHA-256 per side;
- fresh processes: FRESH_RUNS rounds of the processes that fresh_table names,
  each timed from outside, interpreter start included;
- the tier-1 test run on each side, with its wall time.

BLAS runs on one thread throughout. Medians, quartiles (inclusive method)
and the pairs won by the change are computed for every end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BETTER = {"setup_s": "lower", "ops_per_s": "higher", "op_p50_s": "lower", "peak_rss_mb": "lower"}
PAIRS = 10
SEEDS = (1, 2)
STAGE_RUNS = 5
FRESH_RUNS = 12
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]

# Runs inside each checkout and prints one JSON record per (row, size) of STAGES: its key,
# fixture, timed calls, median seconds, tracemalloc peak in MB and the SHA-256 of its result.
STAGE_CODE = r'''
import contextlib, functools, hashlib, io, itertools, json, os, pathlib, statistics, sys
import tempfile, time, tracemalloc
import numpy as np
from mbpolicy import (
    CsvSchema, LearnConfig, ObservationalDataset, advantage_linear_form, aipw_scores,
    decompose_advantage, estimate_conditional_bias, fit_lasso_per_arm, fit_linear_probability,
    fit_mahalanobis, fit_ols_per_arm, impute_bias_corrected, impute_scores, load_csv,
    match_units, predict_matrix, search_tree,
)
from mbpolicy import cli, policytree, simulation
from mbpolicy.simulation import SimulationSpec, generate

SIM = "on generate(SimulationSpec(1, 'linear', 'tree', n, seed=1010)), p=4"
FOLD = ("on the 356 rows of bench/nsw_shaped.py's seed-0 file whose index is not a multiple "
        "of 5, eight covariates")

@functools.cache
def nsw_shaped():
    sys.path.insert(0, "bench")
    import nsw_shaped
    return nsw_shaped

@functools.cache
def sim(n):
    return generate(SimulationSpec(1, "linear", "tree", n, seed=1010))[0]

@functools.cache
def study(fold):
    """bench/nsw_shaped.py's seed-0 file, all of it or the fold of rows not a multiple of 5."""
    rows = nsw_shaped().generate_rows(0)
    rows = rows[np.arange(len(rows)) % 5 != 0] if fold else rows
    return ObservationalDataset(
        x=rows[:, 1:9], w=rows[:, 0].astype(np.int64), y=rows[:, 9],
        feature_names=nsw_shaped().HEADER[1:9],
    )

def matched(data):
    metric = fit_mahalanobis(data.x)
    return (lambda: match_units(data, metric, 5),
            lambda m: m.matched_sets.tobytes() + m.distances.tobytes())

def searched(data, correction, *eligible):
    gamma = impute_scores(data, LearnConfig(m=5, correction=correction)).gamma
    return lambda: search_tree(data.x, gamma, 2, *eligible), lambda tree: tree.to_json().encode()

def study_searched(_):
    fold = study(True).excluding_from_policy(["black", "hispanic"])
    return searched(fold, "ols", fold.eligible_features)

def lassoed(data):
    return (lambda: fit_lasso_per_arm(data), lambda model: model.coef0.tobytes()
            + model.coef1.tobytes() + repr((model.lambda0, model.lambda1)).encode())

def loaded(_):
    tmp = tempfile.TemporaryDirectory()
    path = nsw_shaped().write_csv(pathlib.Path(tmp.name) / "s.csv", 0)
    schema = CsvSchema("treat", "re78", ())
    # the default argument keeps the directory, and so the file, as long as the call
    return (lambda tmp=tmp: load_csv(path, schema),
            lambda data: data.x.tobytes() + data.w.tobytes() + data.y.tobytes())

def job(_):
    specs = [SimulationSpec(1, "linear", "tree", 500)]
    return (lambda: simulation.run_experiment(specs, ["mb-m5"], 1, seed=1000),
            lambda rows: repr([(row.value, row.regret, row.error) for row in rows]).encode())

def chunk_tables(n):
    rng = np.random.default_rng(n)
    x, gamma = rng.normal(size=(n, 2)), rng.normal(size=n)
    cands = policytree._split_candidates(x[:, 1])
    a_g = np.searchsorted(cands, x[:, 1], side="left")
    c_g = np.cumsum(np.bincount(a_g, weights=gamma, minlength=len(cands)))
    order = np.argsort(x[:, 0], kind="stable")
    return (lambda: policytree._chunk_tables(order, a_g, c_g, gamma),
            lambda parts: b"".join(part.tobytes() for part in parts))

DESIGNS = list(itertools.product(simulation.SCENARIOS, simulation.MAIN_EFFECTS,
                                 simulation.CONTRASTS))

def item(name, payload):
    return name.encode() + b"\0" + payload + b"\0"

def experiment(seed):
    specs = [SimulationSpec(1, "linear", "tree", 500), SimulationSpec(5, "nonlinear", "nontree", 500)]

    def items(rows):
        for row in rows:
            if row.error:
                raise RuntimeError(f"{row.method} at seed {seed} failed: {row.error}")
        return b"".join(
            item(f"{row.propensity_scenario}/{row.main_effect}/{row.contrast}/{row.method}/{seed}",
                 f"{row.value!r} {row.regret!r} {row.tree.to_json()}".encode())
            for row in rows
        )
    return (lambda: simulation.run_experiment(specs, sorted(simulation.METHODS), 1, seed,
                                              test_n=20_000, depth=2), items)

def design(index):
    spec = DESIGNS[index]

    def call():
        data, oracle = generate(SimulationSpec(*spec, 100, 7))
        x, rule = data.x, oracle.optimal_rule(data.x)
        arrays = (x, data.w, data.y, oracle.y0, oracle.y1, oracle.mu(x, 0), oracle.mu(x, 1),
                  oracle.propensity(x), oracle.contrast(x), rule)
        items = [item("design/{}/{}/{}".format(*spec), b"".join(a.tobytes() for a in arrays))]
        model = fit_ols_per_arm(data, "quadratic")
        scores = aipw_scores(data, fit_linear_probability(data),
                             functools.partial(predict_matrix, model))
        for m in (1, 5):
            matches = match_units(data, fit_mahalanobis(x), m)
            imputed = impute_bias_corrected(data, matches, model)
            parts = decompose_advantage(data, matches, rule, oracle.mu)
            floats = (
                advantage_linear_form(data, matches, rule), parts.a_bar, parts.e_m, parts.b_m,
                estimate_conditional_bias(data, matches, rule, model), scores.n_clipped,
            )
            arrays = (matches.matched_sets, matches.distances, imputed.y0, imputed.y1,
                      scores.gamma, scores.e_hat)
            items.append(item("estimators/{}/{}/{}/m{}".format(*spec, m),
                              repr(floats).encode() + b"".join(a.tobytes() for a in arrays)))
        return b"".join(items)
    return call, lambda digested: digested

def command_outputs(_):
    def call():
        with tempfile.TemporaryDirectory() as tmp:
            work = pathlib.Path(tmp)

            def outputs(name, *argv):
                out = work / name.replace("/", "-")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*argv, "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")
                return item(name, (out / "outputs.sha256").read_bytes())

            data = ["--data", str(nsw_shaped().write_csv(work / "nsw_shaped.csv", 0))]
            items = [outputs(f"cv/{seed}", "evaluate", *data, "--cv", "--repeats", "1", "--seed",
                             str(seed), "--method", "mb-lr-m5", "--exclude", "black,hispanic")
                     for seed in range(8, 16)]
            data += ["--covariates", "age,education,re74,re75"]
            items.append(outputs("learn", "learn", *data, "--correction", "lasso", "--m", "5",
                                 "--depth", "2"))
            here = os.getcwd()
            os.chdir(work)  # evaluation.json names a policy file as typed: keep that name fixed
            try:
                for propensity, policy in itertools.product(("proportions", "linear"),
                                                            ("treat-all", "learn/policy.txt")):
                    items.append(outputs(f"evaluate/{propensity}/{policy}", "evaluate", *data,
                                         "--policy", policy, "--propensity", propensity))
            finally:
                os.chdir(here)
            items.append(outputs("balance", "balance", *data))
        return b"".join(items)
    return call, lambda digested: digested

# name, fixture, sizes n (None: one fixture), timed calls after one warm-up call (the median
# is kept), whether the tracemalloc peak of one more call is taken, and a function mapping n
# to (the call, a map from its result to the bytes digested).
STAGES = [
    ("match", f"match_units(data, fit_mahalanobis(data.x), 5) {SIM}",
     (200, 500, 1000, 2000), 3, True, lambda n: matched(sim(n))),
    ("search", f"search_tree(data.x, gamma, 2) {SIM}, gamma from impute_scores(data, "
     "LearnConfig(m=5, correction='none'))",
     (200, 500, 1000, 2000), 3, False, lambda n: searched(sim(n), "none")),
    ("lasso", f"fit_lasso_per_arm(data) {SIM}",
     (200, 500, 1000, 2000), 3, False, lambda n: lassoed(sim(n))),
    ("study_match", f"match_units(fold, fit_mahalanobis(fold.x), 5) {FOLD}",
     None, 3, True, lambda _: matched(study(True))),
    ("study_search", f"search_tree(fold.x, gamma, 2, eligible) {FOLD}, black and hispanic "
     "barred from splits, gamma from impute_scores(fold, LearnConfig(m=5, correction='ols'))",
     None, 101, False, study_searched),
    ("lasso_study8", "fit_lasso_per_arm(data) on all 445 rows of bench/nsw_shaped.py's seed-0 "
     "file, eight covariates", None, 3, False, lambda _: lassoed(study(False))),
    ("study_load", "load_csv(path, CsvSchema('treat', 're78', ())) on "
     "nsw_shaped.write_csv(path, 0), 445 rows", None, 101, False, loaded),
    ("job_peak", "run_experiment([SimulationSpec(1, 'linear', 'tree', 500)], ['mb-m5'], 1, "
     "seed=1000)", None, 0, True, job),
    ("chunk_tables", "policytree._chunk_tables(order, a_g, c_g, gamma) on x, gamma = N(0, 1) "
     "draws of default_rng(n), x of two columns: roots on the first, chunks on the second",
     (8000, 32000), 0, True, chunk_tables),
    # The digest rows: the outputs a change keeps byte-identical, as items name\0bytes\0.
    ("digest_simulation", "the run_experiment rows (value, regret, tree JSON) of all seven methods "
     "on the sim-replicate settings (1, linear, tree, 500) and (5, nonlinear, nontree, 500), one "
     "replicate at experiment seed n, test_n 20000", (1000, 1001, 1002), 1, False, experiment),
    ("digest_design", "design n of the 20 (scenario, main effect, contrast): its seed-7 n = 100 "
     "draw with its oracle's values, then at M = 1 and 5 the matches, imputation, advantage, its "
     "decomposition, conditional bias and AIPW scores",
     tuple(range(len(DESIGNS))), 1, False, design),
    ("digest_cli", "outputs.sha256, on bench/nsw_shaped.py's seed-0 file, of `evaluate --cv "
     "--method mb-lr-m5` at seeds 8-15 and `learn --correction lasso` (the study-cv and study-learn "
     "ops), `evaluate --policy` (treat-all, learned) under each --propensity, and `balance`",
     None, 1, False, command_outputs),
]

def sample():
    records = []
    for name, fixture, sizes, calls, peak, build in STAGES:
        for n in sizes or (None,):
            call, digested = build(n)
            result, times, peak_mb = call(), [], None
            for _ in range(calls):
                start = time.perf_counter()
                result = call()
                times.append(time.perf_counter() - start)
            if peak:
                tracemalloc.start()
                call()
                peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            records.append({
                "stage": name if n is None else f"{name}_{n}", "fixture": fixture,
                "calls": calls, "s": statistics.median(times) if times else None,
                "peak_mb": peak_mb, "digest": hashlib.sha256(digested(result)).hexdigest(),
            })
    return records

if __name__ == "__main__":
    print(json.dumps(sample()))
'''

# Runs in a fresh process: imports the command-line module and prints its ru_maxrss (KiB).
IMPORT_CODE = "import resource, mbpolicy.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


def fresh_table(workloads: list[str], work: Path) -> dict:
    """name: (fixture, argv) of each process timed from outside, interpreter start included;
    a process that prints a number prints its ru_maxrss in KiB."""
    setup = f"bench/run.py --setup-only --seconds 0 --seed {SEEDS[0]} --workload"
    cli = ("`import mbpolicy.cli`, and its ru_maxrss", [sys.executable, "-c", IMPORT_CODE])
    return {"import_cli": cli} | {
        f"setup_{w}": (f"`{setup} {w}`: the import and inputs that setup_s times",
                       [sys.executable, *setup.split(), w, "--work", str(work / w)])
        for w in workloads
    }


def env_for(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(argv: list[str], checkout: Path) -> str:
    done = subprocess.run(
        argv, cwd=checkout, env=env_for(checkout), capture_output=True, text=True,
        stdin=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def alternating(sides: dict, k: int) -> list[str]:
    return list(sides) if k % 2 == 0 else list(sides)[::-1]


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    lines = run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        checkout,
    ).splitlines()
    context = next(line for line in lines if line.startswith("context "))
    return {
        "result": json.loads(lines[-1]),
        "context": json.loads(context[len("context "):]),
        "deterministic": [line for line in lines if line.endswith("(deterministic)")],
    }


def summarize(sides: dict, records: dict) -> dict:
    """Per workload: spread of each metric per side, pairs won, failures, output lines.

    A run's deterministic lines are means over the ops it completed, so they are
    grouped by op count and the sides compared at each op count both reached.
    """
    summary = {}
    for workload, runs in records.items():
        by_side = {side: [r for r in runs if r["side"] == side] for side in sides}
        entry = {"pairs": PAIRS}
        for metric, better in BETTER.items():
            values = {s: [r["result"]["metrics"][metric]["value"] for r in by_side[s]] for s in sides}
            won = sum(
                (c < p) if better == "lower" else (c > p)
                for p, c in zip(values["parent"], values["change"])
            )
            entry[metric] = {s: spread(values[s]) for s in sides} | {"pairs_won_by_change": won}
        entry["ops_failed"] = {s: sum(r["result"]["failed"] for r in by_side[s]) for s in sides}
        lines = {s: {} for s in sides}
        for r in runs:
            lines[r["side"]].setdefault(r["context"]["ops"], set()).update(r["deterministic"])
        common = sorted(lines["parent"].keys() & lines["change"].keys())
        entry["deterministic_lines"] = {
            s: {ops: sorted(v) for ops, v in sorted(lines[s].items())} for s in sides
        }
        entry["deterministic_agree"] = {
            "op_counts": common,
            "agree": all(lines["parent"][k] == lines["change"][k] for k in common) if common else None,
        }
        summary[workload] = entry
    return summary


def end_to_end(sides: dict, workloads: list[str], seconds: float) -> dict:
    """Runs and summaries keyed by seed; each pair runs both seeds."""
    records = {seed: {workload: [] for workload in workloads} for seed in SEEDS}
    for pair in range(PAIRS):
        for seed in SEEDS:
            for workload in workloads:
                for side in alternating(sides, pair):
                    record = bench_run(sides[side], workload, seed, seconds)
                    records[seed][workload].append({"pair": pair + 1, "side": side, **record})
                    print(f"seed {seed} pair {pair + 1} {workload} {side}: "
                          f"{json.dumps(record['result'])}", flush=True)
    return {
        str(seed): {
            "command": f"python3 bench/run.py --workload W --seed {seed} --seconds {seconds:g} --trace 0",
            "summary": summarize(sides, records[seed]),
            "pairs": records[seed],
        }
        for seed in SEEDS
    }


def stage_sample(checkout: Path) -> list[dict]:
    """One process on the checkout that times, peaks and digests every row of STAGES."""
    return json.loads(run([sys.executable, "-c", STAGE_CODE], checkout))


def differing_rows(samples: list[list[dict]]) -> list[str]:
    """Keys of the stage rows whose digest is not the same in every sample."""
    return [rows[0]["stage"] for rows in zip(*samples) if len({row["digest"] for row in rows}) > 1]


def output_digest(sample: list[dict]) -> str:
    """One SHA-256 over the digests of a sample's digest rows, in table order."""
    digests = "".join(row["digest"] for row in sample if row["stage"].startswith("digest_"))
    return hashlib.sha256(digests.encode()).hexdigest()


def stages(samples: dict) -> dict:
    differing = differing_rows([sample for runs in samples.values() for sample in runs])
    out = {"runs_per_side": STAGE_RUNS}
    for i, row in enumerate(samples["change"][0]):
        entry = {key: row[key] for key in ("fixture", "calls")}
        for side, runs in samples.items():
            records = [sample[i] for sample in runs]
            entry[side] = {
                metric: spread([record[metric] for record in records])
                for metric in ("s", "peak_mb") if row[metric] is not None
            }
        entry["same_outputs"] = row["stage"] not in differing
        out[row["stage"]] = entry
    return out


def fresh_processes(sides: dict, workloads: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as work:
        table = fresh_table(workloads, Path(work))
        runs = {name: {side: {"wall_s": [], "maxrss_mb": []} for side in sides} for name in table}
        for k in range(FRESH_RUNS):
            for name, (_, argv) in table.items():
                for side in alternating(sides, k):
                    start = time.perf_counter()
                    printed = run(argv, sides[side]).strip()
                    runs[name][side]["wall_s"].append(time.perf_counter() - start)
                    if printed:
                        runs[name][side]["maxrss_mb"].append(int(printed) / 1024)
    return {"runs_per_side": FRESH_RUNS} | {
        name: {"fixture": fixture} | {
            side: {key: spread(values) for key, values in runs[name][side].items() if values}
            for side in sides
        }
        for name, (fixture, _) in table.items()
    }


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        TIER1, cwd=checkout, env=env_for(checkout), capture_output=True, text=True,
        stdin=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - start
    result = re.findall(r"^=*\s*(\d+ (?:passed|failed).*?) in [\d.]+s", done.stdout, re.M)
    durations = re.findall(r"^([\d.]+)s call\s+(\S+)$", done.stdout, re.M)
    return {
        "result": result[-1] if result else f"exit {done.returncode}",
        "wall_s": round(wall, 2),
        "slowest_calls_s": {name: float(seconds) for seconds, name in durations[:5]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="usually the change's short SHA")
    parser.add_argument("--summary", required=True, help="one sentence on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    git = {s: run(["git", "rev-parse", "--short", "HEAD"], d).strip() for s, d in sides.items()}
    report = {
        "label": args.label,
        "parent": git["parent"],
        "change": git["change"],
        "summary": args.summary,
    }
    report["end_to_end"] = end_to_end(sides, workloads, benchmark["run_seconds"])
    context = next(iter(report["end_to_end"].values()))["pairs"][workloads[0]][0]["context"]
    report["machine"] = {k: context[k] for k in ("nproc", "cpu", "python", "numpy", "blas_threads")}
    samples = {side: [] for side in sides}
    for k in range(STAGE_RUNS):
        for side in alternating(sides, k):
            samples[side].append(stage_sample(sides[side]))
    report["stages"] = stages(samples)
    report["fresh_processes"] = fresh_processes(sides, workloads)
    report["output_digest"] = {side: output_digest(runs[0]) for side, runs in samples.items()}
    report["tier1"] = {"command": " ".join(["PYTHONPATH=src python"] + TIER1[1:])}
    report["tier1"] |= {s: tier1(d) for s, d in sides.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
