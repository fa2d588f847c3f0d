#!/usr/bin/env python3
"""Measure a change against its parent and write the evidence as one BENCH_<label>.json.

Both sides are checkouts of the repository (git clones, so the benchmark's
context lines carry their SHAs):

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --label abc1234 --summary "what the change does" --out BENCH_abc1234.json

It runs, in this order:

- end to end, for every workload W of BENCHMARK.json and each workload
  seed S in SEEDS: `bench/run.py --workload W --seed S --seconds T --trace 0`,
  T being BENCHMARK.json's run_seconds, in PAIRS parent/change pairs; each
  pair runs every seed and workload, so a slow phase of the machine lands on
  both seeds, and the side that runs first alternates between pairs; each
  record keeps the run's final JSON line, its context line and its
  deterministic output lines;
- per stage: `match_units` (m=5), depth-2 `search_tree` on raw m=5
  matching gamma and `fit_lasso_per_arm` with its defaults, on
  `generate(SimulationSpec(1, "linear", "tree", n, seed=1010))` for n in
  200, 500, 1000, 2000; on a study-shaped fold, the 356 rows (every row but
  each fifth) of bench/nsw_shaped.py's seed-0 file with all eight
  covariates, `match_units` (m=5) and depth-2 `search_tree` with black and
  hispanic barred from splits and gamma from `impute_scores(fold,
  LearnConfig(m=5, correction="ols"))`; `fit_lasso_per_arm` on all 445 rows
  of that file with all eight covariates; and `load_csv` of the whole file
  with every other column a covariate; one process per run, alternating
  sides, each timing one warm-up and three calls per stage and n (101 for
  the study search and `load_csv`, which take milliseconds) and keeping
  their median; the digests of the outputs (matched sets and distances,
  tree JSON, lasso coefficients and penalties, loaded x, w and y) must agree
  between sides; each run also records the tracemalloc peak of one
  `match_units` call (after the warm-up) per n and on the study fold, of
  one simulation job, `run_experiment([SimulationSpec(1, "linear", "tree",
  500)], ["mb-m5"], 1, seed=1000)`, after a warm-up run, and of one
  `_chunk_tables` call on two continuous N(0, 1) features at n in
  CHUNK_NS, whose outputs must also agree between sides;
- start-up: after each stage run, a fresh process on the same side runs
  `import mbpolicy.cli` and reports its `ru_maxrss`, and its wall time,
  interpreter start included, is taken around it;
- `scripts/output_digest.py --root` on each side;
- the tier-1 test run on each side, with its wall time.

BLAS runs on one thread throughout. Medians, quartiles (inclusive method)
and the pairs won by the change are computed for every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BETTER = {"setup_s": "lower", "ops_per_s": "higher", "op_p50_s": "lower", "peak_rss_mb": "lower"}
PAIRS = 10
SEEDS = (1, 2)
STAGE_NS = (200, 500, 1000, 2000)
STAGE_RUNS = 5
STAGES = ("match", "search", "lasso")
CHUNK_NS = (8000, 32000)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]

# Runs inside each checkout: prints {stage: {n: s} for each of STAGES, "study_match": s,
# "study_search": s, "lasso_study8": s, "study_load": s, "match_peak_mb": {n: MB,
# "study_match": MB}, "job_peak_mb": MB, "chunk_tables_peak_mb": {n: MB}, "digest": {n: sha,
# a sha for each study stage, and "chunk_tables_<n>": sha}}; argv is STAGE_NS then CHUNK_NS.
STAGE_CODE = """
import hashlib, json, pathlib, statistics, sys, tempfile, time, tracemalloc
import numpy as np
from mbpolicy import (
    CsvSchema, LearnConfig, ObservationalDataset, fit_lasso_per_arm, fit_mahalanobis,
    impute_scores, load_csv, match_units, search_tree,
)
from mbpolicy import policytree, simulation
from mbpolicy.simulation import SimulationSpec, generate

def timed(fn, calls=3):
    fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result

def peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

out = {"match": {}, "search": {}, "lasso": {}, "match_peak_mb": {}, "digest": {}}
stage_ns, chunk_ns = (list(map(int, arg.split(","))) for arg in sys.argv[1:])
for n in stage_ns:
    data = generate(SimulationSpec(1, "linear", "tree", n, seed=1010))[0]
    metric = fit_mahalanobis(data.x)
    out["match"][n], matches = timed(lambda: match_units(data, metric, 5))
    out["match_peak_mb"][n] = peak_mb(lambda: match_units(data, metric, 5))
    gamma = impute_scores(data, LearnConfig(m=5, correction="none")).gamma
    out["search"][n], tree = timed(lambda: search_tree(data.x, gamma, 2))
    out["lasso"][n], model = timed(lambda: fit_lasso_per_arm(data))
    digest = hashlib.sha256(matches.matched_sets.tobytes() + matches.distances.tobytes())
    digest.update(tree.to_json().encode())
    digest.update(model.coef0.tobytes() + model.coef1.tobytes())
    digest.update(repr((model.lambda0, model.lambda1)).encode())
    out["digest"][n] = digest.hexdigest()

sys.path.insert(0, "bench")
import nsw_shaped
rows = nsw_shaped.generate_rows(0)
rows = rows[np.arange(len(rows)) % 5 != 0]
fold = ObservationalDataset(
    x=rows[:, 1:9], w=rows[:, 0].astype(np.int64), y=rows[:, 9],
    feature_names=nsw_shaped.HEADER[1:9],
)
metric = fit_mahalanobis(fold.x)
out["study_match"], matches = timed(lambda: match_units(fold, metric, 5))
out["match_peak_mb"]["study_match"] = peak_mb(lambda: match_units(fold, metric, 5))
digest = hashlib.sha256(matches.matched_sets.tobytes() + matches.distances.tobytes())
out["digest"]["study_match"] = digest.hexdigest()

study = fold.excluding_from_policy(["black", "hispanic"])
gamma = impute_scores(study, LearnConfig(m=5, correction="ols")).gamma
out["study_search"], tree = timed(
    lambda: search_tree(study.x, gamma, 2, study.eligible_features), calls=101
)
out["digest"]["study_search"] = hashlib.sha256(tree.to_json().encode()).hexdigest()

all_rows = nsw_shaped.generate_rows(0)
study8 = ObservationalDataset(
    x=all_rows[:, 1:9], w=all_rows[:, 0].astype(np.int64), y=all_rows[:, 9],
    feature_names=nsw_shaped.HEADER[1:9],
)
out["lasso_study8"], model = timed(lambda: fit_lasso_per_arm(study8))
digest = hashlib.sha256(model.coef0.tobytes() + model.coef1.tobytes())
digest.update(repr((model.lambda0, model.lambda1)).encode())
out["digest"]["lasso_study8"] = digest.hexdigest()

with tempfile.TemporaryDirectory() as tmp:
    path = nsw_shaped.write_csv(pathlib.Path(tmp) / "s.csv", 0)
    schema = CsvSchema("treat", "re78", ())
    out["study_load"], data = timed(lambda: load_csv(path, schema), calls=101)
digest = hashlib.sha256(data.x.tobytes() + data.w.tobytes() + data.y.tobytes())
out["digest"]["study_load"] = digest.hexdigest()

job = lambda: simulation.run_experiment(
    [SimulationSpec(1, "linear", "tree", 500)], ["mb-m5"], 1, seed=1000
)
job()
out["job_peak_mb"] = peak_mb(job)

out["chunk_tables_peak_mb"] = {}
for n in chunk_ns:
    rng = np.random.default_rng(n)
    x, gamma = rng.normal(size=(n, 2)), rng.normal(size=n)
    cands = policytree._split_candidates(x[:, 1])
    a_g = np.searchsorted(cands, x[:, 1], side="left")
    c_g = np.cumsum(np.bincount(a_g, weights=gamma, minlength=len(cands)))
    order = np.argsort(x[:, 0], kind="stable")
    tables = lambda: policytree._chunk_tables(order, a_g, c_g, gamma)
    out["chunk_tables_peak_mb"][n] = peak_mb(tables)
    digest = hashlib.sha256(b"".join(part.tobytes() for part in tables()))
    out["digest"][f"chunk_tables_{n}"] = digest.hexdigest()
print(json.dumps(out))
"""

# Runs in a fresh process: imports the command-line module and prints its ru_maxrss (KiB).
IMPORT_CODE = "import resource, mbpolicy.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


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
    """Per workload: spread of each metric per side, pairs won, failures, output lines."""
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
        entry["deterministic_lines"] = {
            s: sorted({line for r in by_side[s] for line in r["deterministic"]}) for s in sides
        }
        summary[workload] = entry
    return summary


def end_to_end(sides: dict, workloads: list[str], seconds: float) -> dict:
    """Runs and summaries keyed by seed; each pair runs both seeds."""
    records = {seed: {workload: [] for workload in workloads} for seed in SEEDS}
    for pair in range(PAIRS):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for seed in SEEDS:
            for workload in workloads:
                for side in order:
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


def stages(sides: dict) -> dict:
    samples = {side: [] for side in sides}
    imports = {side: {"wall_s": [], "maxrss_mb": []} for side in sides}
    for k in range(STAGE_RUNS):
        for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
            ns = (",".join(map(str, STAGE_NS)), ",".join(map(str, CHUNK_NS)))
            code = [sys.executable, "-c", STAGE_CODE, *ns]
            samples[side].append(json.loads(run(code, sides[side])))
            start = time.perf_counter()
            maxrss_kib = int(run([sys.executable, "-c", IMPORT_CODE], sides[side]))
            imports[side]["wall_s"].append(time.perf_counter() - start)
            imports[side]["maxrss_mb"].append(maxrss_kib / 1024)
    out = {
        "fixture": "generate(SimulationSpec(1, 'linear', 'tree', n, seed=1010)), p=4; "
        "match_units(data, fit_mahalanobis(data.x), 5); search_tree(data.x, gamma, 2) with gamma "
        "from impute_scores(data, LearnConfig(m=5, correction='none')); fit_lasso_per_arm(data)",
        "runs_per_side": STAGE_RUNS,
        "by_n": {},
    }
    for n in map(str, STAGE_NS):
        entry = {}
        for stage in STAGES:
            for side in sides:
                times = [sample[stage][n] for sample in samples[side]]
                entry[f"{stage}_{side}_median_s"] = statistics.median(times)
                entry[f"{stage}_{side}_runs_s"] = times
        for side in sides:
            peaks = [sample["match_peak_mb"][n] for sample in samples[side]]
            entry[f"match_peak_{side}_median_mb"] = statistics.median(peaks)
        digests = {sample["digest"][n] for side in sides for sample in samples[side]}
        entry["same_outputs"] = len(digests) == 1
        out["by_n"][n] = entry
    fixtures = {
        "study_match": "match_units(fold, fit_mahalanobis(fold.x), 5) on the 356 rows of "
        "bench/nsw_shaped.py's seed-0 file whose index is not a multiple of 5, eight covariates",
        "study_search": "search_tree(fold.x, gamma, 2, eligible) on that fold with black and "
        "hispanic barred from splits, gamma from impute_scores(fold, LearnConfig(m=5, "
        "correction='ols')); median of 101 calls",
        "lasso_study8": "fit_lasso_per_arm(data) on all 445 rows of that file, eight covariates",
        "study_load": "load_csv(path, CsvSchema('treat', 're78', ())) on "
        "nsw_shaped.write_csv(path, 0), 445 rows; median of 101 calls",
    }
    for stage, fixture in fixtures.items():
        study = {"fixture": fixture}
        for side in sides:
            times = [sample[stage] for sample in samples[side]]
            study[f"{side}_median_s"] = statistics.median(times)
            study[f"{side}_runs_s"] = times
            if stage == "study_match":
                peaks = [sample["match_peak_mb"][stage] for sample in samples[side]]
                study[f"{side}_peak_median_mb"] = statistics.median(peaks)
        digests = {sample["digest"][stage] for side in sides for sample in samples[side]}
        study["same_outputs"] = len(digests) == 1
        out[stage] = study
    out["job_peak"] = {
        "fixture": "tracemalloc peak of run_experiment([SimulationSpec(1, 'linear', 'tree', "
        "500)], ['mb-m5'], 1, seed=1000) after one untraced run",
        **{side: spread([sample["job_peak_mb"] for sample in samples[side]]) for side in sides},
    }
    out["chunk_tables"] = {
        "fixture": "tracemalloc peak of policytree._chunk_tables(order, a_g, c_g, gamma) on x, "
        "gamma = N(0, 1) draws of default_rng(n), x of two columns: roots on the first, chunks "
        "on the second",
    }
    for n in map(str, CHUNK_NS):
        entry = {}
        for side in sides:
            peaks = [sample["chunk_tables_peak_mb"][n] for sample in samples[side]]
            entry[f"{side}_peak_median_mb"] = statistics.median(peaks)
        key = f"chunk_tables_{n}"
        digests = {sample["digest"][key] for side in sides for sample in samples[side]}
        entry["same_outputs"] = len(digests) == 1
        out["chunk_tables"][n] = entry
    out["import_cli"] = {
        "fixture": "a fresh process running `import mbpolicy.cli`: wall time around it, "
        "interpreter start included, and its own ru_maxrss",
        **{side: {k: spread(v) for k, v in imports[side].items()} for side in sides},
    }
    return out


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
    report["stages"] = stages(sides)
    digest = ROOT / "scripts" / "output_digest.py"
    report["output_digest"] = {
        s: run([sys.executable, str(digest), "--root", str(d)], ROOT).split()[-1]
        for s, d in sides.items()
    }
    report["tier1"] = {"command": " ".join(["PYTHONPATH=src python"] + TIER1[1:])}
    report["tier1"] |= {s: tier1(d) for s, d in sides.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
