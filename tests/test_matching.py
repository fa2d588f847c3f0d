import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mbpolicy import (
    ImputedPotentialOutcomes,
    MahalanobisMetric,
    MatchResult,
    ObservationalDataset,
    fit_mahalanobis,
    impute_raw,
    k_pi_counts,
    match_units,
    search_tree,
)

from mbpolicy import matching

from _oracles import random_dataset, slow_matched_sets


def four_unit_example(y=(5.0, 1.0, 4.0, 2.0)):
    """One covariate at 0,1,2,3 with arms interleaved; all pairwise gaps distinct or tied by 1."""
    return ObservationalDataset(
        x=np.array([[0.0], [1.0], [2.0], [3.0]]),
        w=np.array([1, 0, 1, 0]),
        y=np.array(y, dtype=float),
        feature_names=("x",),
    )


class TestDerivedFields:
    def test_match_result_derives_m_and_k_counts(self):
        matches = MatchResult(matched_sets=[[2, 1], [2, 0], [0, 2]], distances=np.ones((3, 2)))
        assert matches.m == 2
        np.testing.assert_array_equal(matches.k_counts, [2, 1, 3])
        with pytest.raises(TypeError):
            MatchResult(matched_sets=[[1], [0]], distances=[[1.0], [1.0]], k_counts=[0, 0])

    @pytest.mark.parametrize("sets", [[[1], [2]], [[1], [-1]], np.empty((2, 0), dtype=int)],
                             ids=["past-n", "negative", "no-columns"])
    def test_match_result_rejects_bad_sets(self, sets):
        with pytest.raises(ValueError, match="matched_sets"):
            MatchResult(matched_sets=sets, distances=np.ones(np.shape(sets)))

    def test_imputation_derives_gamma(self):
        imputed = ImputedPotentialOutcomes(y0=[1.0, 2.5, -0.0], y1=[4.0, -1.0, 0.0])
        np.testing.assert_array_equal(imputed.gamma, [3.0, -3.5, 0.0])
        with pytest.raises(TypeError):
            ImputedPotentialOutcomes(y0=[0.0], y1=[1.0], gamma=[5.0])


class TestMatchUnits:
    def test_hand_enumerated_sets_m1(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        np.testing.assert_array_equal(matches.matched_sets[:, 0], [1, 0, 1, 2])
        np.testing.assert_array_equal(matches.k_counts, [1, 2, 1, 0])

    def test_m2_uses_full_opposite_arm(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        np.testing.assert_array_equal(np.sort(matches.matched_sets[0]), [1, 3])
        np.testing.assert_array_equal(np.sort(matches.matched_sets[1]), [0, 2])
        np.testing.assert_array_equal(matches.k_counts, [2, 2, 2, 2])

    def test_exact_ties_break_to_smaller_index(self):
        # units 1 and 2 sit at the same covariate value, both opposite to unit 0
        data = ObservationalDataset(
            x=np.array([[0.0], [1.0], [1.0], [4.0]]),
            w=np.array([1, 0, 0, 1]),
            y=np.zeros(4),
            feature_names=("x",),
        )
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        assert matches.matched_sets[0, 0] == 1

    def test_matched_sets_always_opposite_arm(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 40, 3, min_arm=5)
        matches = match_units(data, fit_mahalanobis(data.x), m=5)
        assert np.all(data.w[matches.matched_sets] == (1 - data.w)[:, None])
        assert matches.matched_sets.shape == (40, 5)

    def test_usage_counts_sum_to_n_times_m(self):
        rng = np.random.default_rng(22)
        for m in (1, 2, 3):
            data = random_dataset(rng, 30, 2, min_arm=4)
            matches = match_units(data, fit_mahalanobis(data.x), m=m)
            assert matches.k_counts.sum() == data.n * m
            recount = np.bincount(matches.matched_sets.ravel(), minlength=data.n)
            np.testing.assert_array_equal(matches.k_counts, recount)

    def test_distances_nondecreasing_within_set(self):
        rng = np.random.default_rng(23)
        data = random_dataset(rng, 30, 3, min_arm=5)
        matches = match_units(data, fit_mahalanobis(data.x), m=5)
        assert np.all(np.diff(matches.distances, axis=1) >= -1e-12)

    def test_agrees_with_full_sort_reference(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(8, 31))
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            data = random_dataset(rng, n, p, min_arm=max(m, 2))
            metric = fit_mahalanobis(data.x)
            matches = match_units(data, metric, m=m)
            expected = slow_matched_sets(data.x, data.w, metric.v, m)
            assert matches.matched_sets.tolist() == expected

    def test_one_row_blocks_are_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(31)
        data = random_dataset(rng, 300, 3, min_arm=20)
        # rounded covariates give many exactly tied candidates
        data = ObservationalDataset(
            x=np.round(data.x), w=data.w, y=data.y, feature_names=data.feature_names
        )
        metric = fit_mahalanobis(data.x)
        whole = match_units(data, metric, m=4)
        monkeypatch.setattr(matching, "_BLOCK_BYTES", 1)
        one_row = match_units(data, metric, m=4)
        for name in ("matched_sets", "distances", "k_counts"):
            assert getattr(one_row, name).tobytes() == getattr(whole, name).tobytes()

    def test_removing_an_unused_unit_leaves_sets_alone(self):
        rng = np.random.default_rng(25)
        data = random_dataset(rng, 20, 2, min_arm=4)
        metric = fit_mahalanobis(data.x)
        matches = match_units(data, metric, m=2)
        drop = 7
        keep = [i for i in range(data.n) if i != drop]
        reduced = ObservationalDataset(
            x=data.x[keep], w=data.w[keep], y=data.y[keep], feature_names=data.feature_names
        )
        reduced_matches = match_units(reduced, metric, m=2)
        relabel = {old: new for new, old in enumerate(keep)}
        for old in keep:
            if drop in matches.matched_sets[old]:
                continue
            expected = [relabel[j] for j in matches.matched_sets[old]]
            assert reduced_matches.matched_sets[relabel[old]].tolist() == expected

    def test_arm_smaller_than_m_rejected(self):
        data = four_unit_example()
        with pytest.raises(ValueError, match="each arm needs >= m=3"):
            match_units(data, fit_mahalanobis(data.x), m=3)

    def test_metric_dimension_mismatch(self):
        data = four_unit_example()
        wrong = MahalanobisMetric(v=np.eye(2), ridge=0.0)
        with pytest.raises(ValueError, match="metric is 2-d"):
            match_units(data, wrong, m=1)

    def test_csv_dump(self, tmp_path):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        out = tmp_path / "matches.csv"
        matches.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "unit,rank,matched_index,distance"
        assert len(lines) == 1 + data.n * matches.m


class TestArmSwap:
    """Relabelling w -> 1 - w mirrors matching, the raw score and the tree search."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 79),
        p=st.integers(1, 4),
        m=st.integers(1, 3),
        rounded=st.booleans(),
    )
    @example(seed=29, n=6, p=1, m=1, rounded=True)  # every x rounds to 0: no metric
    def test_swap_keeps_matches_and_splits_and_negates_gamma(self, seed, n, p, m, rounded):
        data = random_dataset(np.random.default_rng(seed), n, p, min_arm=m)
        if rounded:  # exactly tied distances and outcomes
            data = replace(data, x=np.round(data.x), y=np.round(data.y))
        swapped = replace(data, w=1 - data.w)
        try:
            metric = fit_mahalanobis(data.x)
        except ValueError as exc:  # the swap keeps x, so it fails the same way
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                fit_mahalanobis(swapped.x)
            return
        matches, mirrored = match_units(data, metric, m), match_units(swapped, metric, m)
        for name in ("matched_sets", "distances", "k_counts"):
            assert getattr(mirrored, name).tobytes() == getattr(matches, name).tobytes(), name
        gamma = impute_raw(data, matches).gamma
        mirrored_gamma = impute_raw(swapped, mirrored).gamma
        np.testing.assert_array_equal(mirrored_gamma, -gamma)
        tree, mirrored_tree = search_tree(data.x, gamma, 2), search_tree(data.x, mirrored_gamma, 2)
        assert mirrored_tree.features.tobytes() == tree.features.tobytes()
        assert mirrored_tree.thresholds.tobytes() == tree.thresholds.tobytes()


class TestNearest:
    @pytest.mark.parametrize("kind", ["normal", "rounded", "constant"])
    def test_equals_the_stable_full_sort_prefix(self, kind):
        rng = np.random.default_rng(32)
        for _ in range(20):
            rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            d2 = rng.normal(size=(rows, width)) ** 2
            if kind == "rounded":
                d2 = np.round(d2 * 2.0)  # many exactly tied distances
            elif kind == "constant":
                d2 = np.full((rows, width), 2.5)
            full = np.argsort(d2, axis=1, kind="stable")
            for m in range(1, width + 1):
                np.testing.assert_array_equal(matching._nearest(d2, m), full[:, :m])

    def test_untied_rows_are_never_sorted_whole(self, monkeypatch):
        rng = np.random.default_rng(33)
        d2 = rng.normal(size=(40, 200)) ** 2
        widths = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            widths.append(np.shape(a)[-1])
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        order = matching._nearest(d2, 5)
        monkeypatch.undo()
        np.testing.assert_array_equal(order, np.argsort(d2, axis=1, kind="stable")[:, :5])
        assert widths and max(widths) == 5


class TestImputeRaw:
    def test_single_match_pair(self):
        data = four_unit_example(y=(5.0, 3.0, 50.0, 60.0))
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        imputed = impute_raw(data, matches)
        # unit 0 is treated with outcome 5 and matches unit 1 with outcome 3
        assert (imputed.y0[0], imputed.y1[0]) == (3.0, 5.0)
        assert imputed.gamma[0] == 2.0

    def test_observed_arm_copied_verbatim(self):
        rng = np.random.default_rng(26)
        data = random_dataset(rng, 25, 2, min_arm=3)
        imputed = impute_raw(data, match_units(data, fit_mahalanobis(data.x), m=2))
        observed = np.where(data.w == 1, imputed.y1, imputed.y0)
        np.testing.assert_array_equal(observed, data.y)
        np.testing.assert_array_equal(imputed.gamma, imputed.y1 - imputed.y0)

    def test_constant_outcomes_zero_gamma(self):
        data = four_unit_example(y=(7.0, 7.0, 7.0, 7.0))
        imputed = impute_raw(data, match_units(data, fit_mahalanobis(data.x), m=2))
        np.testing.assert_array_equal(imputed.gamma, np.zeros(4))

    def test_two_matches_average(self):
        # unit 3 (control, x=3) matches treated units 2 and 0 with outcomes 1 and 3
        data = four_unit_example(y=(3.0, 9.0, 1.0, 5.0))
        matches = match_units(data, fit_mahalanobis(data.x), m=2)
        imputed = impute_raw(data, matches)
        assert imputed.y1[3] == 2.0

    def test_stale_matches_rejected(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        # units 0 and 1 now share an arm, so their matched sets cross nothing
        same_arm = ObservationalDataset(
            x=data.x, w=np.array([1, 1, 0, 0]), y=data.y, feature_names=("x",)
        )
        with pytest.raises(ValueError, match="stale"):
            impute_raw(same_arm, matches)
        shorter = data.subset(np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="stale"):
            impute_raw(shorter, matches)


class TestKPiCounts:
    def test_rejects_values_other_than_zero_and_one(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        with pytest.raises(ValueError, match="only 0 and 1"):
            k_pi_counts(matches, np.full(4, 2))

    def test_all_ones_recovers_usage_counts(self):
        rng = np.random.default_rng(27)
        data = random_dataset(rng, 30, 2, min_arm=4)
        matches = match_units(data, fit_mahalanobis(data.x), m=3)
        np.testing.assert_array_equal(
            k_pi_counts(matches, np.ones(30, dtype=int)), matches.k_counts
        )
        np.testing.assert_array_equal(
            k_pi_counts(matches, np.zeros(30, dtype=int)), -matches.k_counts
        )

    def test_hand_example(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        np.testing.assert_array_equal(
            k_pi_counts(matches, np.array([1, 0, 1, 0])), [-1, 2, -1, 0]
        )

    def test_bounded_by_unsigned_counts(self):
        rng = np.random.default_rng(28)
        data = random_dataset(rng, 40, 3, min_arm=5)
        matches = match_units(data, fit_mahalanobis(data.x), m=4)
        assignments = rng.integers(0, 2, size=40)
        counts = k_pi_counts(matches, assignments)
        assert np.all(np.abs(counts) <= matches.k_counts)

    def test_length_mismatch(self):
        data = four_unit_example()
        matches = match_units(data, fit_mahalanobis(data.x), m=1)
        with pytest.raises(ValueError, match="expected"):
            k_pi_counts(matches, np.array([1, 0]))
