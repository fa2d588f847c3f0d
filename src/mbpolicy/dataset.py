"""Data model for observational studies: CSV ingestion and covariate-balance diagnostics.

The central type is :class:`ObservationalDataset`, an immutable (covariates,
treatment, outcome) triple that every estimator in this package consumes.
Balance between the two treatment arms is summarised by normalized
differences, the studentized mean difference per covariate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ObservationalDataset",
    "BalanceReport",
    "CsvSchema",
    "load_csv",
    "normalized_differences",
]


def _freeze(obj: object, **fields: object) -> None:
    """Set fields on a frozen dataclass; arrays are stored C-contiguous and read-only.

    An array numpy can use as-is is stored as a read-only view of the caller's
    memory, so the caller's own array stays writable.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value).view()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _check_int(name: str, value: object, low: int | None, high: int | None = None) -> int:
    """value as a plain int, checked to be an integer (not a bool) in low..high (None: no bound)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _check_choice(name: str, value: object, choices: tuple) -> int | str:
    """value, checked to be one of choices: all ints (value as in _check_int) or all strs."""
    if isinstance(choices[0], int):
        value = _check_int(name, value, min(choices))
    if not isinstance(value, type(choices[0])) or value not in choices:
        listed = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
        raise ValueError(f"{name} must be {listed}, got {value!r}")
    return value


def _check_features(name: str, indices: Iterable, p: int | None = None) -> tuple[int, ...]:
    """Feature indices as sorted distinct ints, checked nonempty and in 0..p-1 (>= 0 if no p)."""
    high = None if p is None else p - 1
    if not isinstance(indices, Iterable):
        raise ValueError(f"{name} must be a collection of feature indices, got {indices!r}")
    checked = tuple(sorted({_check_int(name, j, 0, high) for j in indices}))
    if not checked:
        raise ValueError(f"{name} must be nonempty")
    return checked


def _check_names(name: str, names: object) -> tuple[str, ...]:
    """names as a tuple, checked to be a tuple or list of str (repeats allowed)."""
    if not isinstance(names, (tuple, list)) or not all(isinstance(s, str) for s in names):
        raise ValueError(f"{name} must be a tuple or list of str, got {names!r}")
    return tuple(names)


def _check_assignments(assignments: np.ndarray, n: int) -> np.ndarray:
    """Return assignments as an array, checked to be a length-n vector of 0s and 1s."""
    assignments = np.asarray(assignments)
    if assignments.shape != (n,):
        raise ValueError(f"assignments has shape {assignments.shape}, expected ({n},)")
    if not np.all((assignments == 0) | (assignments == 1)):
        raise ValueError("assignments must contain only 0 and 1")
    return assignments


def _check_propensities(e_hat: np.ndarray, n: int) -> np.ndarray:
    """Return e_hat as a float array, checked to be a length-n vector in [0, 1]."""
    e_hat = np.asarray(e_hat, dtype=float)
    if e_hat.shape != (n,):
        raise ValueError(f"propensities have shape {e_hat.shape}, expected ({n},)")
    if np.any(~np.isfinite(e_hat)) or np.any(e_hat < 0.0) or np.any(e_hat > 1.0):
        raise ValueError("propensities must lie in [0, 1]")
    return e_hat


@dataclass(frozen=True)
class ObservationalDataset:
    """Immutable observational study: n units with p covariates, binary treatment, outcome.

    ``eligible_features`` lists the indices of the covariates a learned policy
    may split on (None: all); estimation always uses every covariate.
    """

    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    eligible_features: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.w)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {x.shape}")
        n, p = x.shape
        if n < 2:
            raise ValueError(f"need at least 2 units, got {n}")
        if w.shape != (n,) or y.shape != (n,):
            raise ValueError(
                f"length mismatch: x has {n} rows, w has {w.shape}, y has {y.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains missing or non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains missing or non-finite entries")
        wf = w.astype(float)
        if not np.all((wf == 0.0) | (wf == 1.0)):
            bad = int(np.flatnonzero((wf != 0.0) & (wf != 1.0))[0])
            raise ValueError(f"treatment must be 0 or 1 exactly; unit {bad} has w={w[bad]!r}")
        names = _check_names("feature_names", self.feature_names)
        if len(names) != p:
            raise ValueError(f"{p} covariate columns but {len(names)} feature names")
        if len(set(names)) != p:
            raise ValueError("feature names must be unique")
        eligible = self.eligible_features
        if eligible is not None:
            eligible = _check_features("eligible_features", eligible, p)
        _freeze(
            self, x=x, w=wf.astype(np.int64), y=y, feature_names=names, eligible_features=eligible
        )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_treated(self) -> int:
        return int(np.sum(self.w == 1))

    @property
    def n_control(self) -> int:
        return int(np.sum(self.w == 0))

    def arm_indices(self, w: int) -> np.ndarray:
        return np.flatnonzero(self.w == w)

    def excluding_from_policy(self, names: Sequence[str]) -> "ObservationalDataset":
        """Copy with the given covariates marked ineligible for policy splits."""
        unknown = [nm for nm in names if nm not in self.feature_names]
        if unknown:
            raise ValueError(f"unknown feature names: {unknown}")
        eligible = self.eligible_features or range(self.p)
        kept = tuple(j for j in eligible if self.feature_names[j] not in names)
        if not kept:
            raise ValueError(f"excluding {list(names)} leaves no policy-eligible features")
        return replace(self, eligible_features=kept)

    def subset(self, indices: np.ndarray) -> "ObservationalDataset":
        """Row subset (e.g. one cross-validation fold), preserving metadata."""
        indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self, x=self.x[indices], w=self.w[indices], y=self.y[indices]
        )


@dataclass(frozen=True)
class BalanceReport:
    """Per-covariate normalized differences between the two arms."""

    feature_names: tuple[str, ...]
    normalized_diffs: tuple[float, ...]
    n_control: int
    n_treated: int

    def to_csv(self, path: str | Path) -> None:
        rows = zip(self.feature_names, self.normalized_diffs)
        write_csv(path, ("feature", "normalized_difference"), rows)


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for CSV ingestion: roles are assigned by header name."""

    treatment: str
    outcome: str
    covariates: tuple[str, ...]

    def __post_init__(self) -> None:
        cov = _check_names("covariates", self.covariates)
        if not cov:
            raise ValueError("schema needs at least one covariate column")
        roles = [self.treatment, self.outcome, *cov]
        if len(set(roles)) != len(roles):
            raise ValueError("schema assigns one column to multiple roles")
        _freeze(self, covariates=cov)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV: the header, then the rows.

    The one writer behind every CSV this package outputs. The csv module
    renders each value with str(), so floats (numpy scalars included) appear
    as their shortest round-trip repr and reruns give identical bytes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_header(reader: Iterator[list[str]], path: Path) -> list[str]:
    """The first CSV row, names stripped of surrounding whitespace and unique."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = [name.strip() for name in header]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ValueError(f"{path}: header repeats column(s) {repeated}")
    return header


def load_csv(path: str | Path, schema: CsvSchema) -> ObservationalDataset:
    """Load a UTF-8 (optionally BOM-prefixed), comma-delimited, headered CSV into a dataset.

    Rows keep file order. Any unparsable cell is an error naming the data row
    (1-based, header excluded) and the column; nothing is silently dropped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        col_of = {name: idx for idx, name in enumerate(header)}
        needed = [schema.treatment, schema.outcome, *schema.covariates]
        missing = [name for name in needed if name not in col_of]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}; header is {header}")

        w_col = col_of[schema.treatment]
        y_col = col_of[schema.outcome]
        x_cols = [col_of[name] for name in schema.covariates]

        x_rows: list[list[float]] = []
        w_vals: list[int] = []
        y_vals: list[float] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}"
                )

            def parse(col: int, colname: str) -> float:
                cell = row[col].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_num}, column {colname!r}: "
                        f"could not parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {row_num}, column {colname!r}: non-finite value {cell!r}"
                    )
                return value

            w_raw = parse(w_col, schema.treatment)
            if w_raw not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: row {row_num}, column {schema.treatment!r}: "
                    f"treatment must be 0 or 1, got {row[w_col].strip()!r}"
                )
            w_vals.append(int(w_raw))
            y_vals.append(parse(y_col, schema.outcome))
            x_rows.append([parse(c, name) for c, name in zip(x_cols, schema.covariates)])

    if len(x_rows) < 2:
        raise ValueError(f"{path}: found {len(x_rows)} data rows, need at least 2")
    return ObservationalDataset(
        x=np.array(x_rows, dtype=float),
        w=np.array(w_vals, dtype=np.int64),
        y=np.array(y_vals, dtype=float),
        feature_names=schema.covariates,
    )


def normalized_differences(data: ObservationalDataset) -> BalanceReport:
    """Normalized difference per covariate: (mean1 - mean0) / sqrt((s1^2 + s0^2)/2).

    Sample variances use the (n_w - 1) denominator. Requires both arms to have
    at least 2 units and a positive pooled variance term for every feature.
    """
    idx0 = data.arm_indices(0)
    idx1 = data.arm_indices(1)
    if len(idx0) < 2 or len(idx1) < 2:
        raise ValueError(
            f"each arm needs >= 2 units for sample variances; "
            f"got n0={len(idx0)}, n1={len(idx1)}"
        )
    x0, x1 = data.x[idx0], data.x[idx1]
    mean0, mean1 = x0.mean(axis=0), x1.mean(axis=0)
    var0 = x0.var(axis=0, ddof=1)
    var1 = x1.var(axis=0, ddof=1)
    pooled = (var0 + var1) / 2.0
    dead = np.flatnonzero(pooled <= 0.0)
    if dead.size:
        names = [data.feature_names[j] for j in dead]
        raise ValueError(f"zero pooled variance for feature(s) {names}")
    diffs = (mean1 - mean0) / np.sqrt(pooled)
    return BalanceReport(
        feature_names=data.feature_names,
        normalized_diffs=tuple(float(d) for d in diffs),
        n_control=len(idx0),
        n_treated=len(idx1),
    )

