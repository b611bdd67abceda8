"""Loading, validation and EDA for the BRFSS-2015 health-indicators table.

The supported file is the 22-column derived extract (target ``Diabetes_012``
plus 21 features), comma separated with a header line. Cells are integer
codes that may carry a trailing ``.0``.
"""
from __future__ import annotations

import csv
import io
import math
import os
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

# each column's bounds, in column order; no upper bound is read as the
# largest float, so NaN and inf fail a check against them
_LOW = np.array([lo for lo, _ in _RANGES.values()], dtype=float)
_HIGH = np.array([np.finfo(float).max if hi is None else hi
                  for _, hi in _RANGES.values()], dtype=float)

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
    """A row-count argument as a 1-D int64 array: one integer >= 1 per row,
    and a count of 1 for every row when ``counts`` is None. A zero count
    would still make its row's value a candidate cut."""
    if counts is None:
        return np.ones(n_rows, dtype=np.int64)
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.shape[0] != n_rows:
        raise DimensionMismatch("counts must be a 1-D vector with one count per row")
    if not np.issubdtype(counts.dtype, np.integer):
        raise BadParams("counts must be integers")
    if counts.size and counts.min() < 1:
        raise BadParams("every count must be at least 1")
    return counts.astype(np.int64)


def distinct_rows(X):
    """``np.unique(X, axis=0, return_inverse=True)`` by one ``np.lexsort``:
    the distinct rows of a 2-D array in lexicographic order, first column
    first, and each row's index among them. Rows compare as numbers, so
    -0.0 equals 0.0. ``np.unique`` sorts the rows as a structured dtype,
    field by field: on 427,406 rows of 6 columns, on one core of a 2-vCPU
    VM, it took 1.9 s against 0.2 s."""
    X = np.asarray(X)
    order = np.lexsort(X.T[::-1])  # the last key sorts first
    ordered = X[order]
    first = np.ones(X.shape[0], dtype=bool)  # starts a run of equal rows
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(X.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def ranges(starts, lengths):
    """``starts[i] + arange(lengths[i])`` for every i, concatenated."""
    first = lengths.cumsum() - lengths
    return np.arange(int(lengths.sum())) + (starts - first).repeat(lengths)


def count_tables(X, y):
    """A function from row indices to the count table of those rows of
    ``(X, y)``: ``(distinct rows, labels, counts)``, one entry per distinct
    (row, label) pair, ordered by row, then label. Called with no indices it
    counts every row. A tree fitted on a table equals the tree of its rows,
    a logistic fit minimizes the same objective as the fit on its rows (see
    ``tree`` and ``logistic``), and ``roc_curve`` scores it by its counts."""
    distinct, inverse = distinct_rows(X)
    # one bin per (distinct row, label)
    key = 2 * inverse + as_labels(y, n_rows=inverse.shape[0])

    def table(idx=slice(None)):
        counts = np.bincount(key[idx], minlength=2 * distinct.shape[0])
        held = np.flatnonzero(counts)
        return distinct[held // 2], held % 2, counts[held]

    return table


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


def _code(text: str, row: int, col: str) -> float:
    """The integer code a cell's text holds. Text that is not a finite
    plain-ASCII number raises ``NonNumericCell``; a number that is not an
    integer in the column's ``_RANGES`` raises ``OutOfRange``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # float() also reads "3_0" and full-width digits; a code is plain ASCII
    if "_" in text or not text.isascii() or not math.isfinite(value):
        raise NonNumericCell(row, col, text)
    lo, hi = _RANGES[col]
    if not value.is_integer() or value < lo or (hi is not None and value > hi):
        raise OutOfRange(row, col, value,
                         f"integers in [{lo}, {'inf' if hi is None else hi}]")
    return value


def load_csv(path) -> DataTable:
    """Load and strictly validate the 22-column indicators CSV.

    Row numbers in errors are 1-based data rows (header excluded). A file
    that is not UTF-8 text names the row of its first invalid byte, before
    any parse: the number of newline bytes before it, since a newline byte
    never occurs inside a UTF-8 sequence. The table parsed last is kept in
    the cache directory (``_cached``); a later load of the same bytes reads
    it from there if it passes the check that ends a parse, ``_valid``, and
    parses again if not.
    """
    # opened once and read whole: a pipe cannot be read from its start twice
    with open(path, "rb") as fh:
        data = fh.read()
    return DataTable(CANONICAL_COLUMNS, _cached(data))


def _valid(rows) -> bool:
    """Whether ``rows`` is a table: a C-ordered float64 array of at least
    one row and 22 columns, with no cell flagged by ``_bad_cells``. A parse
    and a cache hit both end with it."""
    return bool(isinstance(rows, np.ndarray) and rows.dtype == np.float64
                and rows.ndim == 2 and rows.shape[0] > 0
                and rows.shape[1] == _LOW.size and rows.flags.c_contiguous
                and not _bad_cells(rows).any())


def _bad_cells(rows) -> np.ndarray:
    """True where a cell is not an integer code in ``_RANGES``, NaN and
    infinities included. ``argmax()`` gives the first, on the first bad row."""
    return (rows != np.trunc(rows)) | (rows < _LOW) | (rows > _HIGH)


def _cached(data: bytes) -> np.ndarray:
    """``_load_csv(data)``, or the table that the last parse stored in the
    cache directory when it was parsed from the same bytes and passes
    ``_valid``. Reading or writing the cache never raises: any failure is a
    miss, or leaves the entry unwritten."""
    entry = _cache_entry(data)
    if entry is not None:
        try:
            with open(entry, "rb") as fh:
                rows = np.load(fh, allow_pickle=False)
            if _valid(rows):
                return rows
        except (OSError, ValueError, EOFError):  # EOFError: an empty file
            pass
    rows = _load_csv(data)  # only a parse that succeeded is stored
    if entry is not None:
        try:
            _store(entry, rows)
        except (OSError, ValueError):
            pass
    return rows


def _cache_entry(data: bytes):
    """The cache file of a table read from ``data``, or None when the cache
    directory is not an absolute path (no ``HOME`` leaves ``~`` as it is).
    The key covers numpy's version, this module's source and the bytes."""
    from hashlib import sha256

    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    if not os.path.isabs(base):
        return None
    try:
        with open(__file__, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    key = sha256()
    for part in (np.__version__.encode(), source, data):
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return os.path.join(base, "diabrisk", key.hexdigest()[:40] + ".npy")


def _store(entry: str, rows: np.ndarray):
    """Write ``rows`` whole to ``entry`` (a 0600 file in a 0700 directory),
    then delete every other entry and temporary file there: the cache holds
    one table, the one parsed last."""
    import tempfile

    directory = os.path.dirname(entry)
    os.makedirs(directory, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, rows, allow_pickle=False)
        os.replace(tmp, entry)
    finally:
        if os.path.exists(tmp):  # not replaced
            os.unlink(tmp)
    for e in os.scandir(directory):
        if (e.name.endswith((".npy", ".tmp")) and e.path != entry
                and e.is_file()):
            os.unlink(e.path)


def _text(data: bytes):
    """The file's bytes as a text stream, decoded as ``open`` decodes it; a
    leading byte-order mark is dropped, as spreadsheet exports write one."""
    return io.TextIOWrapper(io.BytesIO(data), newline="", encoding="utf-8-sig")


def _load_csv(data: bytes) -> np.ndarray:
    try:
        if not data.isascii():  # ASCII is UTF-8; a decode allocates a copy
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start)
        raise DataError(f"{f'row {row}' if row else 'the header'} "
                        "is not valid UTF-8 text") from None
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
        if header.count(name) > 1:
            raise DataError(f"repeated column: {name}")
    order = [header.index(name) for name in CANONICAL_COLUMNS]
    width = len(header)
    rows = _parse_whole(fh, width, order)
    valid = rows is not None and _valid(rows)
    # a code (it holds no comma) over the csv module's field limit spans an
    # aligned block of half that many bytes with no comma: then the loop
    # reads the file with the csv module, which names the cell
    step = csv.field_size_limit() // 2
    if valid and all(data.find(b",", i, i + step) >= 0
                     for i in range(0, len(data) - step + 1, step)):
        return rows
    reader = csv.reader(_text(data))
    next(reader)  # the header, read above
    first = 0 if rows is None else _bad_cells(rows).argmax() // _LOW.size
    _parse_rows(reader, width, order, first)
    if not valid:
        raise DataError("numpy rejected the rows, but no row has a defect")
    return rows


def _parse_whole(fh, width: int, order: list):
    """The data rows after the header, parsed by numpy in one call, or None
    when it cannot (a text code, a line of blanks, a row of another width)
    or a cell the table does not use is over the csv module's limit."""
    try:
        with warnings.catch_warnings():
            # a header-only file; _parse_rows reports it as EmptyData
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: "#" is a bad cell, not a comment. No usecols:
            # with it, loadtxt accepts a row longer than the header. A column
            # the table does not use may hold any text: read as its length.
            unused = sorted(set(range(width)) - set(order))
            body = np.loadtxt(fh, delimiter=",", dtype=float, comments=None,
                              quotechar='"', ndmin=2,
                              converters=dict.fromkeys(unused, len))
    except ValueError:
        return None
    if (body.shape[1] != width
            or (body[:, unused] > csv.field_size_limit()).any()):
        return None
    # C-contiguous: BLAS sums a Fortran-ordered body[:, order] in another order
    return body.take(order, axis=1)


def _parse_rows(reader, width: int, order: list, first: int):
    """Raise the first defect of the data rows, if any: a row of another
    width, or from array row ``first`` on, a cell ``_code`` rejects, with
    its 1-based data row and column. Array row k is the k-th non-empty CSV
    record when ``loadtxt`` succeeds: both skip empty lines, LF or CRLF, a
    quoted line break stays in its record, and it fails on a whitespace-only
    line."""
    n_rows = 0  # non-empty records read
    i = 0
    try:
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != width:
                raise DataError(f"row {i} has {len(raw)} cells, expected {width}")
            if n_rows >= first:
                for j, col in zip(order, CANONICAL_COLUMNS):
                    _code(raw[j].strip(), i, col)
            n_rows += 1
    except csv.Error as exc:  # raised while reading the row after row i
        raise DataError(f"row {i + 1}: {exc}") from None
    if not n_rows:
        raise EmptyData("no data rows")


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
        raise BadParams("n must be >= 1")
    if not 0.0 <= test_fraction <= 1.0:
        raise BadParams("test_fraction must be in [0, 1]")
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
