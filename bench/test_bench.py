"""Self-tests for the benchmark harness: python3 -m pytest bench"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nsw_shaped
import run
from tracer import Target, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_module(clock):
    ns = SimpleNamespace()

    def inner(steps):
        clock.now += steps

    def outer():
        clock.now += 1
        ns.inner(5)
        clock.now += 2
        ns.inner(4)
        clock.now += 3

    ns.inner, ns.outer = inner, outer
    return ns


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    ns = _nested_module(clock)
    tracer = Tracer(clock)
    with tracer.installed([Target(ns, "outer", "outer"), Target(ns, "inner", "inner")]):
        with tracer.op(0):
            ns.outer()
    assert tracer.self_times() == {"op": 0.0, "outer": 6.0, "inner": 9.0}
    op, outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (0, 1, 1)
    assert (outer.start, outer.end) == (0.0, 15.0)


def test_spans_outside_ops_are_not_counted():
    clock = FakeClock()
    ns = _nested_module(clock)
    tracer = Tracer(clock)
    with tracer.installed([Target(ns, "inner", "inner")]):
        ns.inner(7)
    assert tracer.self_times() == {}


def test_wrapped_attributes_restored_when_an_op_raises():
    ns = SimpleNamespace(boom=lambda: 1 / 0)
    original = ns.boom
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([Target(ns, "boom", "boom")]):
            with tracer.op(0):
                ns.boom()
    assert ns.boom is original
    assert [span.name for span in tracer.spans] == ["op", "boom"]


def test_counts_and_names_come_from_bound_arguments():
    ns = SimpleNamespace(f=lambda x, depth=2: len(x))
    tracer = Tracer()
    target = Target(
        ns, "f", lambda a: f"f_d{a['depth']}",
        count=lambda a, result: {"rows": result},
    )
    with tracer.installed([target]), tracer.op(0):
        ns.f([1, 2, 3])
        ns.f([1], depth=1)
    assert tracer.counts == {"rows": 4}
    assert [span.name for span in tracer.spans] == ["op", "f_d2", "f_d1"]


def test_peak_alloc_replays_the_largest_call():
    ns = SimpleNamespace(alloc=lambda n: len(bytearray(n)))
    tracer = Tracer()
    with tracer.installed([Target(ns, "alloc", "alloc", size=lambda a: a["n"])]):
        ns.alloc(1 << 20)
        ns.alloc(8 << 20)
        ns.alloc(2 << 20)
    assert 8.0 <= tracer.peak_alloc_mb("alloc") < 9.0
    assert tracer.peak_alloc_mb("never called") == 0.0


def _ok(result):
    return "same", {}


def _bad_check(result):
    raise run.CheckFailed("wrong output")


def test_failed_ops_are_counted_and_not_timed():
    def boom():
        raise RuntimeError("op raised")

    ops = [
        run.Op("fine", lambda: 1, _ok),
        run.Op("raises", boom, _ok),
        run.Op("wrong", lambda: 1, _bad_check),
    ]
    records = run.run_rounds(lambda r: ops, 0.0)
    assert [r.seconds is None for r in records] == [False, True, True]
    assert "op raised" in records[1].error
    assert "wrong output" in records[2].error


def test_outputs_must_repeat_for_equal_arguments():
    digests = {}
    first = run.run_op(run.Op("k", lambda: 1, lambda r: ("a", {})), digests)
    second = run.run_op(run.Op("k", lambda: 1, lambda r: ("b", {})), digests)
    assert first.seconds is not None
    assert second.seconds is None and "differ" in second.error


def test_study_generator_is_deterministic(tmp_path):
    first = nsw_shaped.write_csv(tmp_path / "a.csv", 7).read_bytes()
    again = nsw_shaped.write_csv(tmp_path / "b.csv", 7).read_bytes()
    other = nsw_shaped.write_csv(tmp_path / "c.csv", 8).read_bytes()
    assert first == again
    assert first != other


def test_study_generator_shape():
    rows = nsw_shaped.generate_rows(3)
    col = {name: rows[:, j] for j, name in enumerate(nsw_shaped.HEADER)}
    assert rows.shape == (nsw_shaped.N_TREATED + nsw_shaped.N_CONTROL, len(nsw_shaped.HEADER))
    assert list(col["treat"]) == [1.0] * 185 + [0.0] * 260
    for name in ("age", "education"):
        assert np.array_equal(col[name], np.round(col[name]))
    for name in ("black", "hispanic", "married", "nodegree"):
        assert set(np.unique(col[name])) <= {0.0, 1.0}
    assert not np.any((col["black"] == 1) & (col["hispanic"] == 1))
    for name in ("re74", "re75", "re78"):
        assert np.all(col[name] >= 0)
        assert 0.2 < np.mean(col[name] == 0) < 0.85


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert list(run.END_TO_END_UNITS.items()) == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    metrics = run.per_layer_metrics(Tracer(), [run.OpRecord("op", 1.0)])
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
