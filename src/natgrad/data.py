"""Datasets of unit-sphere inputs with scalar targets, and the artifact format.

The convergence theory this library verifies assumes two geometric facts
about the training inputs: every input lies on the unit sphere, and no two
inputs are parallel.  ``validate`` checks both and reports the margins; the
training loop refuses data that has not passed.  Construction and loading
deliberately do not enforce the checks, so that bad data can be loaded,
inspected, and reported on.

Every table natgrad writes spells its values by one rule, ``cells``, and
``jsonable`` readies every JSON document; only the Gram matrix export,
``gram.csv_text``, keeps NaN as ``nan`` so that ``np.loadtxt`` reads it.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, FormatError

# Assumption tolerances: row norms within NORM_TOL of one, and
# |cos(angle)| between distinct rows below 1 - PARALLEL_TOL.
NORM_TOL = 1e-9
PARALLEL_TOL = 1e-12

TARGET_MODELS = ("signed_linear", "random_pm1")


@dataclass(frozen=True)
class Dataset:
    """n inputs of dimension d (rows of X) with scalar targets y."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got ndim={X.ndim}")
        n, d = X.shape
        if n < 2 or d < 2:
            raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
        if y.shape != (n,):
            raise ValueError(f"y has length {y.size}, expected {n}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class DataValidationReport:
    max_norm_deviation: float
    min_pairwise_angle_gap: float
    max_abs_target: float
    passed: bool


def validate(ds: Dataset) -> DataValidationReport:
    """Check the unit-norm and non-parallel requirements.

    Reports the largest deviation of a row norm from 1, the smallest gap
    1 - |cos(angle)| over row pairs, and the largest |target|.  ``passed``
    is true iff all norms are within 1e-9 of one and every pairwise gap
    exceeds 1e-12.  Targets beyond |y| = 10 draw a warning, not a failure:
    the theory only asks that targets stay of order one, without a
    constant.
    """
    norms = np.linalg.norm(ds.X, axis=1)
    max_norm_deviation = float(np.abs(norms - 1.0).max())
    safe = np.where(norms > 0, norms, 1.0)
    cos = np.abs((ds.X / safe[:, None]) @ (ds.X / safe[:, None]).T)
    np.fill_diagonal(cos, 0.0)
    min_gap = float(1.0 - cos.max())
    max_abs_target = float(np.abs(ds.y).max())
    if max_abs_target > 10.0:
        warnings.warn(
            f"targets reach |y| = {max_abs_target:.3g}; expected order one",
            stacklevel=2,
        )
    passed = max_norm_deviation <= NORM_TOL and min_gap > PARALLEL_TOL
    return DataValidationReport(max_norm_deviation, min_gap, max_abs_target, passed)


def require_valid(ds: Dataset) -> None:
    """Raise ValueError, naming both margins, unless ds passes validate()."""
    report = validate(ds)
    if not report.passed:
        raise ValueError(
            "dataset failed validation: "
            f"max norm deviation {report.max_norm_deviation:.3e}, "
            f"min pairwise angle gap {report.min_pairwise_angle_gap:.3e}"
        )


def synth_sphere(n: int, d: int, seed: int, target_model: str = "random_pm1") -> Dataset:
    """Draw n inputs i.i.d. uniform on the unit sphere in R^d.

    Gaussian draw, then row normalization.  ``random_pm1`` assigns
    independent uniform +-1 targets; ``signed_linear`` labels each input by
    the sign of its projection onto one random unit direction drawn from
    the same seed (a zero sign maps to +1).  Deterministic given the seed.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if target_model not in TARGET_MODELS:
        raise ValueError(f"unknown target_model {target_model!r}; choose from {TARGET_MODELS}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    if target_model == "random_pm1":
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        s = np.sign(X @ v)
        y = np.where(s == 0.0, 1.0, s)
    return Dataset(X, y)


def load_csv(path, label_column: int | str = -1, normalize: bool = False) -> Dataset:
    """Read a numeric CSV into a Dataset.

    The label column is selected by header name or zero-based index
    (negative indices count from the right).  A header row is detected by
    trying to parse the first row as numbers.  A data cell that is not a
    finite number raises FormatError naming its row and column.  With
    ``normalize=True`` every input row is scaled to unit norm; a zero row
    cannot be normalized and raises DegenerateInputError.  Validation is NOT performed here; run
    ``validate`` on the result.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise FormatError(f"{path}: file is empty")

    header: list[str] | None = None
    if not _all_numeric(rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if len(rows) < 2:
        raise FormatError(f"{path}: need at least 2 data rows, found {len(rows)}")

    ncols = len(rows[0])
    if ncols < 3:
        raise FormatError(f"{path}: need at least 3 columns (2 features plus label), found {ncols}")

    if isinstance(label_column, str):
        if header is None:
            raise FormatError(f"{path}: label column {label_column!r} named but file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise FormatError(f"{path}: no column named {label_column!r} in header {header}") from None
    else:
        label_idx = label_column if label_column >= 0 else ncols + label_column
        if not 0 <= label_idx < ncols:
            raise FormatError(f"{path}: label column {label_column} out of range for {ncols} columns")

    first_data_row = 2 if header is not None else 1  # 1-based file coordinates
    values = np.empty((len(rows), ncols))
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise FormatError(f"{path}: row {i + first_data_row} has {len(row)} cells, expected {ncols}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise FormatError(
                    f"{path}: row {i + first_data_row}, column {j + 1}: "
                    f"could not parse {cell.strip()!r} as a finite number"
                )
            values[i, j] = value

    y = values[:, label_idx]
    X = np.delete(values, label_idx, axis=1)
    if normalize:
        norms = np.linalg.norm(X, axis=1)
        dead = np.flatnonzero(norms == 0.0)
        if dead.size:
            raise DegenerateInputError(
                f"{path}: row {dead[0] + first_data_row} has zero norm and cannot be normalized"
            )
        X = X / norms[:, None]
    return Dataset(X, y)


def save_csv(ds: Dataset, path, header: bool = True) -> None:
    """Write a Dataset as CSV, features first and the label last.

    Mirrors the load format: ``load_csv(path)`` with the default label
    column reproduces the Dataset exactly (cells are written by ``cells``).
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"x{j}" for j in range(ds.d)] + ["y"])
        writer.writerows(cells(row) for row in np.column_stack([ds.X, ds.y]).tolist())


def cells(values) -> list[str]:
    """Each value as an artifact cell: "" for None or NaN, "1"/"0" for a
    bool, an int or string as written, any other number as the repr of
    its float."""
    out = []
    for v in values:
        if isinstance(v, float):  # np.float64 too; the common case goes first
            out.append("" if math.isnan(v) else repr(float(v)))
        elif isinstance(v, bool):
            out.append("1" if v else "0")
        elif isinstance(v, (int, np.integer, str)):
            out.append(str(v))
        else:
            out.append("" if v is None or math.isnan(v) else repr(float(v)))
    return out


def csv_table(header, rows) -> str:
    """A header line, then one line of ``cells`` per row, each ended by a newline."""
    lines = [",".join(header)] + [",".join(cells(row)) for row in rows]
    return "\n".join(lines) + "\n"


def jsonable(obj):
    """obj made JSON-safe: numpy values to native ones, non-finite floats
    to None, through dicts (keys as strings), lists and tuples."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _all_numeric(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True
