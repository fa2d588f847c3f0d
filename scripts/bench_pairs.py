#!/usr/bin/env python3
"""Measure a change against its parent and write the evidence as one BENCH_<label>.json.

Both sides are checkouts of the repository (git clones, so the benchmark's
context lines carry their SHAs):

    PYTHONPATH=src python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --label abc1234 --summary "what the change does" --out BENCH_abc1234.json

It runs, in this order, alternating which side goes first:

- end to end: `bench/run.py --workload W --seed S --seconds T --trace 0` for
  every workload W of the BENCHMARK.json beside scripts/ and seed S in SEEDS,
  T being its run_seconds, in PAIRS parent/change pairs; each pair runs every
  seed and workload, so a slow phase of the machine lands on both seeds; each
  record keeps the run's final JSON line, its context line and its
  deterministic output lines, compared between sides at equal op counts only;
- stages: STAGE_RUNS processes per side, each running scripts/stages.py (see there);
- fresh processes: FRESH_RUNS rounds of the processes that fresh_table names,
  each timed from outside, interpreter start included;
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
import tempfile
import time
from pathlib import Path

from stages import differing_rows, output_digest

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_bytes())
PAIRS = 10
SEEDS = (1, 2)
STAGE_RUNS = 5
FRESH_RUNS = 12
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]

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
        for metric, better in ((m["name"], m["better"]) for m in BENCHMARK["end_to_end"]):
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
    """One process in the checkout, on its library, running the stages.py beside this script."""
    return json.loads(run([sys.executable, str(Path(__file__).with_name("stages.py"))], checkout))


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
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    git = {s: run(["git", "rev-parse", "--short", "HEAD"], d).strip() for s, d in sides.items()}
    report = {
        "label": args.label,
        "parent": git["parent"],
        "change": git["change"],
        "summary": args.summary,
    }
    report["end_to_end"] = end_to_end(sides, workloads, BENCHMARK["run_seconds"])
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
