"""Loading, validation and EDA for the BRFSS-2015 health-indicators table.

The supported file is the 22-column derived extract (target ``Diabetes_012``
plus 21 features), comma separated with a header line. Cells are integer
codes that may carry a trailing ``.0``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptyData,
    InsufficientRows,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
)

TARGET = "Diabetes_012"

# name -> (kind, low, high); high=None means unbounded above
_COLUMN_SPECS = [
    (TARGET, "ordinal", 0, 2),
    ("HighBP", "binary", 0, 1),
    ("HighChol", "binary", 0, 1),
    ("CholCheck", "binary", 0, 1),
    ("BMI", "count", 1, None),
    ("Smoker", "binary", 0, 1),
    ("Stroke", "binary", 0, 1),
    ("HeartDiseaseorAttack", "binary", 0, 1),
    ("PhysActivity", "binary", 0, 1),
    ("Fruits", "binary", 0, 1),
    ("Veggies", "binary", 0, 1),
    ("HvyAlcoholConsump", "binary", 0, 1),
    ("AnyHealthcare", "binary", 0, 1),
    ("NoDocbcCost", "binary", 0, 1),
    ("GenHlth", "ordinal", 1, 5),
    ("MentHlth", "count", 0, 30),
    ("PhysHlth", "count", 0, 30),
    ("DiffWalk", "binary", 0, 1),
    ("Sex", "binary", 0, 1),
    ("Age", "ordinal", 1, 13),
    ("Education", "ordinal", 1, 6),
    ("Income", "ordinal", 1, 8),
]

CANONICAL_COLUMNS = [name for name, _, _, _ in _COLUMN_SPECS]
FEATURE_COLUMNS = CANONICAL_COLUMNS[1:]

HEALTH_MODEL_FEATURES = [
    "HighBP", "HighChol", "CholCheck", "Smoker", "HvyAlcoholConsump", "BMI",
]


@dataclass(frozen=True)
class ColumnSchema:
    """Ordered column names with per-column kind and valid integer range."""

    names: tuple
    kinds: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)

    @classmethod
    def canonical(cls) -> "ColumnSchema":
        return cls.for_names(CANONICAL_COLUMNS)

    @classmethod
    def for_names(cls, names) -> "ColumnSchema":
        kinds = {n: k for n, k, _, _ in _COLUMN_SPECS}
        ranges = {n: (lo, hi) for n, _, lo, hi in _COLUMN_SPECS}
        for n in names:
            if n not in kinds:
                raise MissingColumn(n)
        return cls(
            names=tuple(names),
            kinds={n: kinds[n] for n in names},
            ranges={n: ranges[n] for n in names},
        )

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingColumn(name) from None


@dataclass(frozen=True)
class DataTable:
    """Immutable named-column numeric matrix."""

    schema: ColumnSchema
    rows: np.ndarray  # shape (n_rows, len(schema)), float64, finite

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise ValueError("row matrix shape does not match schema")
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite cell in table")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.index(name)]

    def take_rows(self, indices) -> "DataTable":
        return DataTable(self.schema, self.rows[np.asarray(indices, dtype=int)])


@dataclass(frozen=True)
class LabelVector:
    """Binary labels with cached class counts."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=int)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or not np.all((vals == 0) | (vals == 1)):
            raise ValueError("labels must be a 1-D 0/1 vector")

    @property
    def positive_count(self) -> int:
        return int(self.values.sum())

    @property
    def negative_count(self) -> int:
        return len(self.values) - self.positive_count

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class SplitResult:
    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple
    values: np.ndarray       # symmetric, p x p
    undefined_mask: np.ndarray  # True where a zero-variance column is involved


@dataclass(frozen=True)
class HistogramTable:
    categories: tuple
    counts: tuple


def _parse_cell(text: str, row: int, col: str):
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(row, col, text) from None
    if not math.isfinite(value):
        raise NonNumericCell(row, col, text)
    return value


def _check_range(value: float, row: int, col: str, schema: ColumnSchema):
    lo, hi = schema.ranges[col]
    desc = f"integers in [{lo}, {'inf' if hi is None else hi}]"
    if value != int(value):
        raise OutOfRange(row, col, value, desc)
    if value < lo or (hi is not None and value > hi):
        raise OutOfRange(row, col, value, desc)


def _undecodable_row(path) -> int:
    """Number of the first line that is not UTF-8 (0 = header); lines split
    exactly on bytes because a newline byte never occurs inside a UTF-8
    sequence."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def load_csv(path) -> DataTable:
    """Load and strictly validate the 22-column indicators CSV.

    Row numbers in errors are 1-based data rows (header excluded).
    """
    try:
        return _load_csv(path)
    except UnicodeDecodeError:
        row = _undecodable_row(path)
        where = f"row {row}" if row else "the header"
        raise DataError(f"{where} is not valid UTF-8 text") from None


def _load_csv(path) -> DataTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData("file is empty") from None
        header = [h.strip() for h in header]
        for name in CANONICAL_COLUMNS:
            if name not in header:
                raise MissingColumn(name)
        schema = ColumnSchema.canonical()
        order = [header.index(name) for name in CANONICAL_COLUMNS]
        width = len(header)
        data = []
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) < width:
                raise DataError(f"row {i} has {len(raw)} cells, expected {width}")
            parsed = []
            for j, col in zip(order, CANONICAL_COLUMNS):
                value = _parse_cell(raw[j].strip(), i, col)
                _check_range(value, i, col, schema)
                parsed.append(value)
            data.append(parsed)
    if not data:
        raise EmptyData("no data rows")
    return DataTable(schema, np.array(data, dtype=float))


def write_csv(table: DataTable, path) -> None:
    """Write a table back out; integer-valued cells are printed as integers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for row in table.rows:
            writer.writerow(
                [int(v) if v == int(v) else repr(float(v)) for v in row]
            )


def binarize_target(table: DataTable):
    """Split off ``Diabetes_012``: codes {1,2} -> label 1, code 0 -> label 0."""
    target = table.column(TARGET)
    labels = LabelVector((target > 0).astype(int))
    features = select_columns(
        table, [n for n in table.schema.names if n != TARGET]
    )
    return features, labels


def select_columns(table: DataTable, names) -> DataTable:
    idx = [table.schema.index(n) for n in names]
    return DataTable(ColumnSchema.for_names(list(names)), table.rows[:, idx])


def train_test_split(n: int, test_fraction: float, seed: int) -> SplitResult:
    """Plain (non-stratified) shuffled split, deterministic under seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return SplitResult(
        train_indices=perm[n_test:], test_indices=perm[:n_test], seed=seed
    )


def pearson_correlation(table: DataTable) -> CorrelationMatrix:
    """Pairwise Pearson coefficients; zero-variance columns flagged, not fatal."""
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
    return CorrelationMatrix(tuple(table.schema.names), values, mask)


def income_histogram(table: DataTable) -> HistogramTable:
    income = table.column("Income").astype(int)
    categories = tuple(range(1, 9))
    counts = tuple(int(np.sum(income == c)) for c in categories)
    return HistogramTable(categories, counts)
