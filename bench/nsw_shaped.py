"""Seeded generator for a CSV shaped like the job-training study sample.

The file has the columns and value types of ``nsw_dw.csv``: a randomized
experiment with 185 treated rows followed by 260 control rows, integer age
and years of education, 0/1 indicators, and zero-inflated non-negative
earnings (1974, 1975 and the 1978 outcome). Marginals follow the published
sample summaries (mean age about 25, education about 10 years, most
participants black, about three quarters with no 1974 earnings). Outcome
earnings depend on the covariates, and the treatment effect varies with
age and education, so a policy tree has something to find.

The same seed gives a byte-identical file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HEADER = (
    "treat", "age", "education", "black", "hispanic",
    "married", "nodegree", "re74", "re75", "re78",
)
N_TREATED = 185
N_CONTROL = 260


def _earnings(rng: np.random.Generator, employed: np.ndarray, log_mean: np.ndarray) -> np.ndarray:
    """Zero where not employed, else log-normal with mean exp(log_mean), rounded to cents."""
    amount = np.exp(log_mean + 0.8 * rng.standard_normal(employed.shape) - 0.32)
    return np.round(np.where(employed, amount, 0.0), 2)


def generate_rows(seed: int) -> np.ndarray:
    """Rows in HEADER order: treated units first, then controls."""
    rng = np.random.default_rng([0x4E5357, seed])
    n = N_TREATED + N_CONTROL
    treat = np.repeat([1.0, 0.0], [N_TREATED, N_CONTROL])
    age = np.minimum(17 + np.floor(rng.gamma(2.0, 4.2, n)), 55)
    education = np.clip(np.round(rng.normal(10.2, 1.8, n)), 3, 16)
    race = rng.random(n)
    black = (race < 0.83).astype(float)
    hispanic = ((race >= 0.83) & (race < 0.93)).astype(float)
    married = (rng.random(n) < 0.17).astype(float)
    nodegree = (education < 12).astype(float)

    skill = 0.08 * (education - 10) + 0.03 * (age - 25) + 0.25 * married
    worked74 = rng.random(n) < 0.27 + 0.1 * np.tanh(skill)
    re74 = _earnings(rng, worked74, 8.9 + skill)
    worked75 = rng.random(n) < np.where(worked74, 0.7, 0.22)
    re75 = _earnings(rng, worked75, 8.1 + skill + 0.3 * worked74)

    # The programme raises the chance of work, most for participants under 24,
    # and raises earnings for the young and less schooled but lowers them for
    # older, better-schooled participants.
    young = age < 24
    p_work = 1.0 / (1.0 + np.exp(-(0.2 + 0.6 * worked75 + skill + treat * (0.5 + 0.7 * young))))
    lift = treat * (0.25 - 0.12 * (education - 10) - 0.015 * (age - 25))
    worked78 = rng.random(n) < p_work
    re78 = _earnings(rng, worked78, 8.6 + skill + 0.2 * worked75 + lift)

    return np.column_stack(
        [treat, age, education, black, hispanic, married, nodegree, re74, re75, re78]
    )


def write_csv(path: str | Path, seed: int) -> Path:
    """Write the study-shaped CSV for this seed and return its path."""
    path = Path(path)
    lines = [",".join(HEADER)]
    for row in generate_rows(seed):
        lines.append(",".join([str(int(row[0]))] + [repr(float(v)) for v in row[1:]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
