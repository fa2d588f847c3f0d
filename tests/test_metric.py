import itertools

import numpy as np
import pytest

from mbpolicy import distance, fit_mahalanobis


def test_one_dimensional_inverse_variance():
    # sample variance of (0, 2) with the n-1 denominator is 2
    metric = fit_mahalanobis(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(metric.v, [[0.5]], atol=1e-14)
    assert metric.ridge == 0.0


def test_prewhitened_columns_give_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    white = centered @ np.linalg.inv(np.linalg.cholesky(cov)).T
    metric = fit_mahalanobis(white)
    np.testing.assert_allclose(metric.v, np.eye(3), atol=1e-8)


def test_duplicate_columns_need_ridge():
    rng = np.random.default_rng(4)
    col = rng.normal(size=(20, 1))
    metric = fit_mahalanobis(np.hstack([col, col]))
    assert metric.ridge > 0.0
    assert np.all(np.isfinite(metric.v))


def test_constant_data_has_no_usable_metric():
    with pytest.raises(ValueError, match="identically zero"):
        fit_mahalanobis(np.ones((5, 2)))


def test_single_row_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        fit_mahalanobis(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected(bad):
    x = np.array([[1.0, 0.0], [2.0, bad], [0.5, 3.0]])
    with pytest.raises(ValueError, match="x must be finite; row 1, column 1"):
        fit_mahalanobis(x)


def test_no_columns_rejected():
    with pytest.raises(ValueError, match="x has no columns"):
        fit_mahalanobis(np.zeros((3, 0)))


class TestDistance:
    def test_zero_for_identical_points(self):
        metric = fit_mahalanobis(np.random.default_rng(0).normal(size=(10, 2)))
        assert distance(metric, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed_value(self):
        metric = fit_mahalanobis(np.array([[0.0], [2.0]]))
        assert distance(metric, [0.0], [2.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        metric = fit_mahalanobis(rng.normal(size=(15, 3)))
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert distance(metric, a, b) == distance(metric, b, a)

    def test_dimension_mismatch(self):
        metric = fit_mahalanobis(np.array([[0.0], [2.0]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance(metric, [0.0, 1.0], [2.0, 3.0])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        metric = fit_mahalanobis(rng.normal(size=(30, 3)))
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 3))
            assert distance(metric, a, c) <= (
                distance(metric, a, b) + distance(metric, b, c) + 1e-12
            )


def test_pairwise_ordering_invariant_under_invertible_maps():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=(5, 3))
        while True:
            lin = rng.normal(size=(3, 3))
            if abs(np.linalg.det(lin)) > 0.1:
                break
        metric_a = fit_mahalanobis(x)
        metric_b = fit_mahalanobis(x @ lin)
        pairs = list(itertools.combinations(range(5), 2))
        da = [distance(metric_a, x[i], x[j]) for i, j in pairs]
        db = [distance(metric_b, (x @ lin)[i], (x @ lin)[j]) for i, j in pairs]
        assert np.array_equal(np.argsort(da), np.argsort(db))
