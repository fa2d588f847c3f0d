#!/usr/bin/env python3
"""Print one SHA-256 over a fixed set of pipeline outputs.

The package is imported from the checkout's src/:

    python3 scripts/output_digest.py [--verbose] [--root CHECKOUT]

Two commits that print the same digest give byte-identical outputs on:

- the `run_experiment` rows (value, regret, tree JSON) of all seven methods on
  the two settings of the benchmark's sim-replicate workload, experiment
  seeds 1000-1002 (its `--seed 1`, rounds 0-2), test_n 20000, depth 2;
- for each of the 20 (scenario, main effect, contrast) designs, one seed-7
  training draw of n = 100 (x, w, y, y0, y1) and its oracle's mu at both
  arms, propensity, contrast and optimal rule on those covariates;
- the `outputs.sha256` of `evaluate --cv --repeats 1 --method mb-lr-m5
  --exclude black,hispanic` on bench/nsw_shaped.py's seed-0 file, CV seeds
  8-15 (the study-cv workload's `--seed 1` ops);
- the `outputs.sha256` (policy and gamma.csv) of the study-learn workload's op,
  `learn --correction lasso --m 5 --depth 2 --covariates
  age,education,re74,re75` on the same file.

Unlike the benchmark's "(deterministic)" lines, the digest does not depend
on how many ops a timed run completes. --verbose also prints each item's
own digest, to find the one that moved. --root digests another checkout's
package and study file (default: this one), for commits without this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEARN_COVARIATES = "age,education,re74,re75"
SIM_SETTINGS = ((1, "linear", "tree", 500), (5, "nonlinear", "nontree", 500))
EXPERIMENT_SEEDS = (1000, 1001, 1002)
CV_SEEDS = range(8, 16)
DESIGN_N, DESIGN_SEED = 100, 7


def items(root: Path):
    """(name, bytes) of every output the digest covers, in a fixed order."""
    sys.path.insert(0, str(root / "src"))
    from mbpolicy import cli
    from mbpolicy.simulation import (
        CONTRASTS, MAIN_EFFECTS, METHODS, SCENARIOS, SimulationSpec, generate, run_experiment,
    )

    specs = [SimulationSpec(*setting) for setting in SIM_SETTINGS]
    for seed in EXPERIMENT_SEEDS:
        for row in run_experiment(specs, sorted(METHODS), 1, seed, test_n=20_000, depth=2):
            if row.error:
                raise RuntimeError(f"{row.method} at seed {seed} failed: {row.error}")
            name = f"{row.propensity_scenario}/{row.main_effect}/{row.contrast}/{row.method}/{seed}"
            yield name, f"{row.value!r} {row.regret!r} {row.tree.to_json()}".encode()

    for design in itertools.product(SCENARIOS, MAIN_EFFECTS, CONTRASTS):
        data, oracle = generate(SimulationSpec(*design, DESIGN_N, DESIGN_SEED))
        x = data.x
        arrays = (
            x, data.w, data.y, oracle.y0, oracle.y1, oracle.mu(x, 0), oracle.mu(x, 1),
            oracle.propensity(x), oracle.contrast(x), oracle.optimal_rule(x),
        )
        yield "design/{}/{}/{}".format(*design), b"".join(a.tobytes() for a in arrays)

    spec = importlib.util.spec_from_file_location("nsw_shaped", root / "bench" / "nsw_shaped.py")
    nsw_shaped = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(nsw_shaped)

    def checksums(argv: list[str], out: Path) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return (out / "outputs.sha256").read_bytes()

    with tempfile.TemporaryDirectory() as work:
        path = nsw_shaped.write_csv(Path(work) / "nsw_shaped.csv", 0)
        for seed in CV_SEEDS:
            argv = [
                "evaluate", "--data", str(path), "--cv", "--repeats", "1", "--seed", str(seed),
                "--method", "mb-lr-m5", "--exclude", "black,hispanic",
            ]
            yield f"cv/{seed}", checksums(argv, Path(work) / f"cv-{seed}")
        argv = [
            "learn", "--data", str(path), "--covariates", LEARN_COVARIATES,
            "--correction", "lasso", "--m", "5", "--depth", "2",
        ]
        yield "learn", checksums(argv, Path(work) / "learn")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print each item's digest")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to digest")
    args = parser.parse_args()
    total = hashlib.sha256()
    for name, payload in items(args.root.resolve()):
        if args.verbose:
            print(f"{hashlib.sha256(payload).hexdigest()}  {name}")
        total.update(name.encode() + b"\0" + payload + b"\0")
    print(f"output digest {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
