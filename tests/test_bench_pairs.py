"""The measurement harness scripts/bench_pairs.py and the stage table scripts/stages.py it runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))


@pytest.fixture(scope="module")
def bench_pairs():
    import bench_pairs
    return bench_pairs


@pytest.fixture(scope="module")
def stage_table():
    from stages import STAGES
    return STAGES


def test_stage_names_are_unique(stage_table):
    names = [row[0] for row in stage_table]
    assert len(names) == len(set(names))
    keys = [name if sizes is None else f"{name}_{n}" for name, _, sizes, *_ in stage_table
            for n in sizes or (None,)]
    assert len(keys) == len(set(keys))


def test_every_stage_has_fixture_text(stage_table):
    for name, fixture, sizes, calls, peak, build in stage_table:
        assert isinstance(fixture, str) and fixture.strip(), name
        assert calls > 0 or peak, f"{name} measures nothing"
        assert callable(build), name


def test_digest_rows_keep_the_item_order(stage_table):
    keys = [name if sizes is None else f"{name}_{n}" for name, _, sizes, *_ in stage_table
            for n in sizes or (None,) if name.startswith("digest_")]
    assert keys == [
        *(f"digest_simulation_{seed}" for seed in (1000, 1001, 1002)),
        *(f"digest_design_{index}" for index in range(20)),
        "digest_cli",
    ]
    # each design row: the draw, then its estimators at M = 1 and M = 5
    build = next(row[-1] for row in stage_table if row[0] == "digest_design")
    call, digested = build(0)
    payload = digested(call())
    assert payload.startswith(b"design/1/linear/tree\0")
    m1 = payload.index(b"\0estimators/1/linear/tree/m1\0")
    assert 0 < m1 < payload.index(b"\0estimators/1/linear/tree/m5\0")


def test_differing_rows_flags_one_differing_digest(bench_pairs):
    sample = [{"stage": "search_200", "digest": "a"}, {"stage": "digest_cli", "digest": "b"}]
    changed = [sample[0], {"stage": "digest_cli", "digest": "c"}]
    assert bench_pairs.differing_rows([sample, sample, sample]) == []
    assert bench_pairs.differing_rows([sample, changed, sample]) == ["digest_cli"]
    # the combined output digest moves with a digest row only
    timed = [{"stage": "search_200", "digest": "z"}, sample[1]]
    assert bench_pairs.output_digest(timed) == bench_pairs.output_digest(sample)
    assert bench_pairs.output_digest(changed) != bench_pairs.output_digest(sample)


def test_ci_and_the_harness_run_the_same_stage_file(bench_pairs, monkeypatch, tmp_path):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: Stage samples")[1].split("- name:")[0]
    assert "scripts/stages.py" in step.splitlines()[0] and "bench_pairs" not in step
    assert step.count("python scripts/stages.py >") == 3
    calls = []
    monkeypatch.setattr(bench_pairs, "run", lambda *call: calls.append(call) or "[]")
    assert bench_pairs.stage_sample(tmp_path) == []
    assert calls == [([sys.executable, str(ROOT / "scripts" / "stages.py")], tmp_path)]


def test_fresh_processes_cover_import_and_every_setup(bench_pairs, tmp_path):
    table = bench_pairs.fresh_table(["sim-replicate", "study-cv"], tmp_path)
    assert list(table) == ["import_cli", "setup_sim-replicate", "setup_study-cv"]
    argv = table["setup_study-cv"][1]
    assert argv[1:] == [
        "bench/run.py", "--setup-only", "--seconds", "0", "--seed", "1",
        "--workload", "study-cv", "--work", str(tmp_path / "study-cv"),
    ]


def record(side, ops, regret):
    metrics = {name: {"value": 1.0} for name in ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")}
    return {
        "side": side,
        "result": {"metrics": metrics, "failed": 0},
        "context": {"ops": ops},
        "deterministic": [f"w mean_regret = {regret!r} (deterministic)"],
    }


def test_summarize_groups_deterministic_lines_by_op_count(bench_pairs):
    sides = {"parent": None, "change": None}
    runs = [
        record("parent", 56, 0.15443), record("change", 56, 0.15443),
        record("parent", 70, 0.16004), record("change", 70, 0.16004),
        record("parent", 70, 0.16004), record("change", 63, 0.158),
    ]
    entry = bench_pairs.summarize(sides, {"w": runs})["w"]
    assert entry["deterministic_lines"]["parent"] == {
        56: ["w mean_regret = 0.15443 (deterministic)"],
        70: ["w mean_regret = 0.16004 (deterministic)"],
    }
    assert sorted(entry["deterministic_lines"]["change"]) == [56, 63, 70]
    # different means at different op counts are not a difference between the sides
    assert entry["deterministic_agree"] == {"op_counts": [56, 70], "agree": True}


def test_summarize_reports_sides_that_differ_at_one_op_count(bench_pairs):
    sides = {"parent": None, "change": None}
    runs = [
        record("parent", 56, 0.15443), record("change", 56, 0.15443),
        record("parent", 70, 0.16004), record("change", 70, 0.16005),
    ]
    entry = bench_pairs.summarize(sides, {"w": runs})["w"]
    assert entry["deterministic_agree"] == {"op_counts": [56, 70], "agree": False}
    no_common = [record("parent", 56, 0.15443), record("change", 70, 0.16004)] * 2
    entry = bench_pairs.summarize(sides, {"w": no_common})["w"]
    assert entry["deterministic_agree"] == {"op_counts": [], "agree": None}
