"""Loading, validation and EDA for the BRFSS-2015 health-indicators table.

The supported file is the 22-column derived extract (target ``Diabetes_012``
plus 21 features), comma separated with a header line. Cells are integer
codes that may carry a trailing ``.0``.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    DataError,
    DimensionMismatch,
    EmptyData,
    InsufficientRows,
    MissingColumn,
    NonBinary,
    NonNumericCell,
    OutOfRange,
)

TARGET = "Diabetes_012"

# name -> (low, high) of the valid integer codes; high=None means unbounded
_RANGES = {
    TARGET: (0, 2),
    "HighBP": (0, 1),
    "HighChol": (0, 1),
    "CholCheck": (0, 1),
    "BMI": (1, None),
    "Smoker": (0, 1),
    "Stroke": (0, 1),
    "HeartDiseaseorAttack": (0, 1),
    "PhysActivity": (0, 1),
    "Fruits": (0, 1),
    "Veggies": (0, 1),
    "HvyAlcoholConsump": (0, 1),
    "AnyHealthcare": (0, 1),
    "NoDocbcCost": (0, 1),
    "GenHlth": (1, 5),
    "MentHlth": (0, 30),
    "PhysHlth": (0, 30),
    "DiffWalk": (0, 1),
    "Sex": (0, 1),
    "Age": (1, 13),
    "Education": (1, 6),
    "Income": (1, 8),
}

CANONICAL_COLUMNS = list(_RANGES)
FEATURE_COLUMNS = CANONICAL_COLUMNS[1:]
INCOME_CODES = tuple(range(_RANGES["Income"][0], _RANGES["Income"][1] + 1))

HEALTH_MODEL_FEATURES = [
    "HighBP", "HighChol", "CholCheck", "Smoker", "HvyAlcoholConsump", "BMI",
]


def as_labels(y, name: str = "y", n_rows: int | None = None) -> np.ndarray:
    """A label argument as a 1-D int array; every value must be 0 or 1, and
    with ``n_rows`` given there must be one label per row."""
    labels = np.asarray(y)
    if labels.ndim != 1 or not np.all((labels == 0) | (labels == 1)):
        raise NonBinary(f"{name} must be a 1-D vector of 0/1 labels")
    if n_rows is not None and labels.shape[0] != n_rows:
        raise DimensionMismatch(
            f"{name} has {labels.shape[0]} entries for {n_rows} rows")
    return labels.astype(np.int64)


def as_counts(counts, n_rows: int) -> np.ndarray:
    """A row-count argument as a 1-D int64 array: one integer >= 1 per row.
    A zero count would still make its row's value a candidate cut."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.shape[0] != n_rows:
        raise DimensionMismatch("counts must be a 1-D vector with one count per row")
    if not np.issubdtype(counts.dtype, np.integer):
        raise BadParams("counts must be integers")
    if counts.size and counts.min() < 1:
        raise BadParams("every count must be at least 1")
    return counts.astype(np.int64)


def as_matrix(X, n_features: int | None = None, name: str = "X") -> np.ndarray:
    """A matrix argument as ``np.asarray(X, dtype=float)``: 2-D, with
    ``n_features`` columns when given, and finite. It is neither copied nor
    reordered, since BLAS sums a Fortran-ordered copy in another order.

    ``DataError`` names the row and column of the first NaN or infinity: a
    tree would cut on a NaN and leave an empty node, and SMOTE gives a row
    with many copies no neighbour search that could reject it."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got {X.ndim}-D")
    if n_features is not None and X.shape[1] != n_features:
        raise DimensionMismatch(
            f"{name} has {X.shape[1]} columns, expected {n_features}")
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(
            f"{name} holds a non-finite value at row {row}, column {col}")
    return X


def as_names(names, n_features: int):
    """A feature-name argument as a tuple with one name per column, or None."""
    if names is None:
        return None
    names = tuple(names)
    if len(names) != n_features:
        raise DimensionMismatch(
            f"{len(names)} feature names for {n_features} columns")
    return names


@dataclass(frozen=True)
class DataTable:
    """Immutable numeric matrix with one name per column."""

    names: tuple
    rows: np.ndarray  # shape (n_rows, len(names)), float64, finite

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        rows = as_matrix(self.rows, len(self.names), "the table")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingColumn(name) from None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.index(name)]


def _parse_cell(text: str, row: int, col: str):
    # float() also reads "3_0" and full-width digits; a code is plain ASCII
    if "_" in text or not text.isascii():
        raise NonNumericCell(row, col, text)
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(row, col, text) from None
    if not math.isfinite(value):
        raise NonNumericCell(row, col, text)
    return value


def _check_range(value: float, row: int, col: str):
    lo, hi = _RANGES[col]
    desc = f"integers in [{lo}, {'inf' if hi is None else hi}]"
    if value != int(value):
        raise OutOfRange(row, col, value, desc)
    if value < lo or (hi is not None and value > hi):
        raise OutOfRange(row, col, value, desc)


def _undecodable_row(data: bytes) -> int:
    """Number of the first line that is not UTF-8 (0 = header); lines split
    exactly on bytes because a newline byte never occurs inside a UTF-8
    sequence."""
    for lineno, line in enumerate(data.split(b"\n")):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return 0


def load_csv(path) -> DataTable:
    """Load and strictly validate the 22-column indicators CSV.

    Row numbers in errors are 1-based data rows (header excluded).
    """
    # opened once and read whole: a pipe cannot be read from its start twice
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return DataTable(CANONICAL_COLUMNS, _load_csv(data))
    except UnicodeDecodeError:
        row = _undecodable_row(data)
        where = f"row {row}" if row else "the header"
        raise DataError(f"{where} is not valid UTF-8 text") from None


def _text(data: bytes):
    """The file's bytes as a text stream, decoded as ``open`` decodes it."""
    return io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8")


def _load_csv(data: bytes) -> np.ndarray:
    fh = _text(data)
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData("file is empty") from None
    except csv.Error as exc:
        raise DataError(f"the header: {exc}") from None
    header = [h.strip() for h in header]
    for name in CANONICAL_COLUMNS:
        if name not in header:
            raise MissingColumn(name)
    order = [header.index(name) for name in CANONICAL_COLUMNS]
    width = len(header)
    rows = _parse_whole(fh, width, order)
    if rows is not None:
        return rows
    reader = csv.reader(_text(data))
    next(reader)  # the header, read above
    return _parse_rows(reader, width, order)


def _parse_whole(fh, width: int, order: list):
    """The data rows after the header, parsed by numpy in one call and
    checked as whole columns, or None when anything is off. Then
    ``_parse_rows`` decides: it locates the first bad cell, and it also
    reads the layouts numpy does not (quoted cells, text in a column
    outside the 22)."""
    try:
        with warnings.catch_warnings():
            # a header-only file; _parse_rows reports it as EmptyData
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: "#" is a bad cell, not a comment. No usecols:
            # with it, loadtxt accepts a row longer than the header.
            body = np.loadtxt(fh, delimiter=",", dtype=float, comments=None,
                              ndmin=2)
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    if body.shape[0] == 0 or body.shape[1] != width:
        return None
    # C-contiguous like the loop's np.array(data); body[:, order] would be
    # Fortran-ordered, and BLAS sums in another order on it
    rows = body.take(order, axis=1)
    low, high = zip(*_RANGES.values())
    # no upper bound is read as the largest float, so nan and inf fail too
    high = [np.finfo(float).max if h is None else h for h in high]
    if ((rows == np.trunc(rows)).all() and (rows >= low).all()
            and (rows <= high).all()):
        return rows
    return None


def _parse_rows(reader, width: int, order: list) -> np.ndarray:
    """Parse and check the data rows cell by cell; the first bad cell
    raises with its 1-based data row and column."""
    data = []
    i = 0
    try:
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != width:
                raise DataError(f"row {i} has {len(raw)} cells, expected {width}")
            parsed = []
            for j, col in zip(order, CANONICAL_COLUMNS):
                value = _parse_cell(raw[j].strip(), i, col)
                _check_range(value, i, col)
                parsed.append(value)
            data.append(parsed)
    except csv.Error as exc:  # raised while reading the row after row i
        raise DataError(f"row {i + 1}: {exc}") from None
    if not data:
        raise EmptyData("no data rows")
    return np.array(data, dtype=float)


def write_csv(table: DataTable, path) -> None:
    """Write a table back out; integer-valued cells are printed as integers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for row in table.rows:
            writer.writerow(
                [int(v) if v == int(v) else repr(float(v)) for v in row]
            )


def binarize_target(table: DataTable):
    """Split off ``Diabetes_012``: codes {1,2} -> label 1, code 0 -> label 0."""
    target = table.column(TARGET)
    labels = (target > 0).astype(int)
    features = select_columns(table, [n for n in table.names if n != TARGET])
    return features, labels


def select_columns(table: DataTable, names) -> DataTable:
    idx = [table.index(n) for n in names]
    return DataTable(names, table.rows[:, idx])


def train_test_split(n: int, test_fraction: float, seed: int):
    """Plain (non-stratified) shuffled split, deterministic under seed:
    the (train, test) index arrays."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return perm[n_test:], perm[:n_test]


def pearson_correlation(table: DataTable):
    """(values, undefined_mask): the symmetric matrix of pairwise Pearson
    coefficients over ``table.names``, and True where a zero-variance column
    is involved (flagged, not fatal; its coefficients read 0)."""
    if table.n_rows < 2:
        raise InsufficientRows("need at least 2 rows for correlation")
    x = table.rows
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    degenerate = std == 0.0
    safe_std = np.where(degenerate, 1.0, std)
    z = centered / safe_std
    values = (z.T @ z) / x.shape[0]
    np.clip(values, -1.0, 1.0, out=values)
    mask = degenerate[:, None] | degenerate[None, :]
    values[mask] = 0.0
    defined_diag = ~degenerate
    values[np.diag_indices_from(values)] = np.where(defined_diag, 1.0, 0.0)
    # symmetrize against float noise
    values = (values + values.T) / 2.0
    return values, mask


def income_histogram(table: DataTable) -> tuple:
    """Respondents per code of ``INCOME_CODES``, as Python ints."""
    income = table.column("Income").astype(int)
    return tuple(int(np.sum(income == c)) for c in INCOME_CODES)
