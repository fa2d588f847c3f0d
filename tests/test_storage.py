"""Every value type stores its arrays C-contiguous, read-only and in the documented dtype."""

import dataclasses

import numpy as np
import pytest

from mbpolicy import (
    AipwScores,
    CrossValReport,
    CsvSchema,
    ImputedPotentialOutcomes,
    MahalanobisMetric,
    MatchResult,
    ObservationalDataset,
    OutcomeModel,
    SimulationOracle,
    TreePolicy,
)


def _zero(points, *_):
    return np.zeros(len(np.atleast_2d(points)))


# (type, array inputs with their documented dtype and a valid value, other inputs)
VALUE_TYPES = [
    (
        ObservationalDataset,
        {
            "x": np.array([[0.0, 1.5], [1.0, -2.0], [2.0, 0.5], [3.0, 4.0]]),
            "w": np.array([0, 1, 0, 1], dtype=np.int64),
            "y": np.array([1.0, 2.0, 3.0, 5.0]),
        },
        {"feature_names": ("a", "b")},
    ),
    (CsvSchema, {}, {"treatment": "w", "outcome": "y", "covariates": ("a", "b")}),
    (MahalanobisMetric, {"v": np.array([[2.0, 0.5], [0.5, 1.0]])}, {"ridge": 0.0}),
    (
        OutcomeModel,
        {"coef0": np.array([1.0, 2.0, 3.0]), "coef1": np.array([-1.0, 0.5, 0.0])},
        {"expansion": "linear"},
    ),
    (
        MatchResult,
        {
            "matched_sets": np.array([[1, 3], [0, 2], [3, 1], [2, 0]], dtype=np.int64),
            "distances": np.array([[1.0, 3.0], [1.0, 1.0], [1.0, 1.0], [1.0, 3.0]]),
        },
        {},
    ),
    (
        ImputedPotentialOutcomes,
        {"y0": np.array([0.0, 1.0, 2.0, 3.0]), "y1": np.array([1.0, 1.0, 4.0, 2.0])},
        {},
    ),
    (
        AipwScores,
        {"gamma": np.array([1.0, -2.0, 0.5]), "e_hat": np.array([0.2, 0.5, 0.99])},
        {"n_clipped": 1},
    ),
    (
        TreePolicy,
        {
            "features": np.array([0, 1, 0], dtype=np.int64),
            "thresholds": np.array([0.5, -1.0, np.inf]),
            "leaf_actions": np.array([0, 1, 1, 0], dtype=np.int64),
        },
        {"depth": 2, "eligible_features": (0, 1)},
    ),
    (
        SimulationOracle,
        {"y0": np.array([0.0, 1.0, 2.0]), "y1": np.array([1.0, 1.0, 0.0])},
        {"mu": _zero, "propensity": _zero, "contrast": _zero},
    ),
    (
        CrossValReport,
        {"values": np.array([1.0, np.nan, 3.0])},
        {"folds": 5},
    ),
]

# Array fields a type derives from its inputs, with their documented dtype and the
# value the inputs above give.
DERIVED_ARRAYS = {
    MatchResult: {"k_counts": np.array([2, 2, 2, 2], dtype=np.int64)},
    ImputedPotentialOutcomes: {"gamma": np.array([1.0, 0.0, 2.0, -1.0])},
}


def _layout(array, kind):
    """The same values C-ordered, Fortran-ordered or as a strided view."""
    if kind == "c":
        return array.copy()
    if kind == "fortran":
        return np.asfortranarray(array)
    return np.repeat(array, 2, axis=-1)[..., ::2]


@pytest.mark.parametrize("kind", ["c", "fortran", "strided"])
@pytest.mark.parametrize(
    "cls,arrays,others", VALUE_TYPES, ids=[case[0].__name__ for case in VALUE_TYPES]
)
def test_arrays_are_read_only_c_contiguous_and_typed(cls, arrays, others, kind):
    inputs = {name: _layout(array, kind) for name, array in arrays.items()}
    if kind == "strided":
        assert not any(a.flags.c_contiguous for a in inputs.values())
    value = cls(**inputs, **others)

    expected_arrays = {**arrays, **DERIVED_ARRAYS.get(cls, {})}
    names = {field.name for field in dataclasses.fields(cls)}
    assert set(expected_arrays) <= names
    for name in names - set(expected_arrays):
        assert not isinstance(getattr(value, name), np.ndarray), name
    for name, expected in expected_arrays.items():
        stored = getattr(value, name)
        assert stored.dtype == expected.dtype, name
        assert stored.flags.c_contiguous, name
        assert not stored.flags.writeable, name
        np.testing.assert_array_equal(stored, expected)
        with pytest.raises(ValueError, match="read-only"):
            stored[(0,) * stored.ndim] = 0
        if kind == "c" and name in arrays and not (cls is ObservationalDataset and name == "w"):
            # an input numpy can use as-is is stored as a read-only view, not a copy
            assert np.shares_memory(stored, inputs[name]), name
            assert inputs[name].flags.writeable, name


def test_non_array_fields_are_stored_as_normalized():
    schema = CsvSchema(treatment="w", outcome="y", covariates=["a", "b"])
    assert schema.covariates == ("a", "b")
