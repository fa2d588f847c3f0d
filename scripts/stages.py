"""The stage table STAGES that scripts/bench_pairs.py and CI run, one JSON record per (row, size).

A record: key, fixture, timed calls, median seconds, tracemalloc peak in MB and result SHA-256.
"""

import contextlib, functools, hashlib, io, itertools, json, os, pathlib, statistics, sys
import tempfile, time, tracemalloc, warnings
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

def study4_matched(_):
    data, names = study(False), ("age", "education", "re74", "re75")
    columns = [data.feature_names.index(name) for name in names]
    return matched(ObservationalDataset(x=data.x[:, columns], w=data.w, y=data.y,
                                        feature_names=names))

def searched(data, correction, *eligible):
    gamma = impute_scores(data, LearnConfig(m=5, correction=correction)).gamma
    return lambda: search_tree(data.x, gamma, 2, *eligible), lambda tree: tree.to_json().encode()

def study_searched(_):
    fold = study(True).excluding_from_policy(["black", "hispanic"])
    return searched(fold, "ols", fold.eligible_features)

def lassoed(data):
    return (lambda: fit_lasso_per_arm(data), lambda model: model.coef0.tobytes()
            + model.coef1.tobytes() + repr((model.lambda0, model.lambda1)).encode())

def unconverged(_):
    """lassoed on design 12's seed-7 n = 200 draw, whose fold path runs out of CD cycles,
    with the warnings the fit issues."""
    fit, digested = lassoed(generate(SimulationSpec(*DESIGNS[12], 200, 7))[0])

    def call():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit()
        return model, [str(warning.message) for warning in caught]
    return call, lambda result: digested(result[0]) + "\n".join(result[1]).encode()

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
     (200, 500, 1000, 2000, 8000), 3, True, lambda n: matched(sim(n))),
    ("search", f"search_tree(data.x, gamma, 2) {SIM}, gamma from impute_scores(data, "
     "LearnConfig(m=5, correction='none'))",
     (200, 500, 1000, 2000), 3, False, lambda n: searched(sim(n), "none")),
    ("lasso", f"fit_lasso_per_arm(data) {SIM}",
     (200, 500, 1000, 2000), 3, False, lambda n: lassoed(sim(n))),
    ("lasso_design", "fit_lasso_per_arm(data) on the seed-7 n = 500 draw of design n of the 20 "
     "(scenario, main effect, contrast)", tuple(range(len(DESIGNS))), 1, False,
     lambda n: lassoed(generate(SimulationSpec(*DESIGNS[n], 500, 7))[0])),
    ("lasso_unconverged", "fit_lasso_per_arm(data) on the seed-7 n = 200 draw of design 12, "
     "whose steps 84-88 run out of CD_MAX_CYCLES on one fold path, with its warning messages",
     None, 1, False, unconverged),
    ("study_match", f"match_units(fold, fit_mahalanobis(fold.x), 5) {FOLD}",
     None, 3, True, lambda _: matched(study(True))),
    ("study4_match", "match_units(data, fit_mahalanobis(data.x), 5) on all 445 rows of "
     "bench/nsw_shaped.py's seed-0 file, covariates age, education, re74 and re75 (those of "
     "study-learn): 61 of its 185 treated rows have a tied 5th-nearest distance",
     None, 3, True, study4_matched),
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

def differing_rows(samples: list[list[dict]]) -> list[str]:
    """Keys of the stage rows whose digest is not the same in every sample."""
    return [rows[0]["stage"] for rows in zip(*samples) if len({row["digest"] for row in rows}) > 1]

def output_digest(sample: list[dict]) -> str:
    """One SHA-256 over the digests of a sample's digest rows, in table order."""
    digests = "".join(row["digest"] for row in sample if row["stage"].startswith("digest_"))
    return hashlib.sha256(digests.encode()).hexdigest()

if __name__ == "__main__":
    print(json.dumps(sample()))
