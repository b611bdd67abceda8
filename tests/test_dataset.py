import contextlib
import csv
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diabrisk import dataset
from diabrisk.cli import main
from diabrisk.dataset import (
    CANONICAL_COLUMNS,
    HEALTH_MODEL_FEATURES,
    INCOME_CODES,
    DataTable,
    binarize_target,
    count_tables,
    distinct_rows,
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
)
from diabrisk.errors import (
    DataError,
    EmptyData,
    InsufficientRows,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
)

from conftest import REPO_ROOT, synthetic_rows, write_rows


def small_rows():
    # Diabetes_012, HighBP, HighChol, CholCheck, BMI, Smoker, Stroke, HDoA,
    # PhysActivity, Fruits, Veggies, HvyAlc, AnyHC, NoDoc, GenHlth, MentHlth,
    # PhysHlth, DiffWalk, Sex, Age, Education, Income
    return [
        [0, 1, 0, 1, 28, 0, 0, 0, 1, 1, 1, 0, 1, 0, 2, 0, 3, 0, 1, 9, 5, 7],
        [1, 0, 1, 1, 33, 1, 0, 0, 0, 1, 0, 0, 1, 0, 4, 5, 0, 1, 0, 11, 4, 3],
        [2, 1, 1, 1, 41, 1, 1, 1, 0, 0, 0, 0, 1, 1, 5, 30, 30, 1, 1, 13, 3, 1],
        [0, 0, 0, 1, 22, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 2, 6, 8],
    ]


class TestLoadCsv:
    def test_loads_and_preserves_row_order(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", small_rows())
        table = load_csv(path)
        assert table.n_rows == 4
        assert table.names == tuple(CANONICAL_COLUMNS)
        assert table.column("BMI").tolist() == [28, 33, 41, 22]

    def test_trailing_point_zero_accepted(self, tmp_path):
        rows = [[f"{v}.0" for v in row] for row in small_rows()]
        path = write_rows(tmp_path / "t.csv", rows)
        table = load_csv(path)
        assert table.column("Income").tolist() == [7, 3, 1, 8]

    def test_header_only_is_empty_data(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", [])
        with pytest.raises(EmptyData):
            load_csv(path)

    def test_header_cell_over_csv_field_limit_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ",".join(CANONICAL_COLUMNS) + ',"' + "x" * 200_000 + '"'
        path.write_text(header + "\n" + ",".join(map(str, small_rows()[0])) + "\n")
        with pytest.raises(DataError, match="^the header: field larger"):
            load_csv(path)

    def test_non_numeric_cell_is_located(self, tmp_path):
        rows = small_rows()
        rows[2][CANONICAL_COLUMNS.index("BMI")] = "abc"
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert exc.value.col == "BMI"

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e999"])
    def test_non_finite_in_unbounded_column_is_located(self, tmp_path, cell):
        rows = small_rows()
        rows[3][CANONICAL_COLUMNS.index("BMI")] = cell
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (4, "BMI")

    @pytest.mark.parametrize("cell", ["3_0", "\uff13\uff10"],
                             ids=["underscore", "full_width"])
    def test_python_only_number_forms_rejected(self, tmp_path, cell):
        # float() reads both as 30; neither is a numeric CSV code
        rows = small_rows()
        rows[1][CANONICAL_COLUMNS.index("BMI")] = cell
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col, exc.value.value) == (2, "BMI", cell)

    def test_byte_order_mark_is_read(self, tmp_path):
        path = tmp_path / "t.csv"
        plain = load_csv(write_rows(path, small_rows()))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        table = load_csv(path)
        assert table.names == plain.names
        assert table.rows.tobytes() == plain.rows.tobytes()

    def test_missing_column_rejected(self, tmp_path):
        header = [c for c in CANONICAL_COLUMNS if c != "Income"]
        rows = [row[:-1] for row in small_rows()]
        path = write_rows(tmp_path / "t.csv", rows, header=header)
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_out_of_range_rejected(self, tmp_path):
        rows = small_rows()
        rows[0][CANONICAL_COLUMNS.index("Income")] = 9
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(OutOfRange):
            load_csv(path)

    def test_fractional_code_rejected(self, tmp_path):
        rows = small_rows()
        rows[1][CANONICAL_COLUMNS.index("GenHlth")] = 2.5
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(OutOfRange):
            load_csv(path)

    def test_short_row_is_located(self, tmp_path):
        rows = small_rows()
        rows[2] = rows[2][:20]
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(DataError, match="row 3 has 20 cells, expected 22"):
            load_csv(path)

    def test_long_row_is_located(self, tmp_path):
        # an extra cell would shift every later column of the row
        rows = small_rows()
        rows[2].insert(CANONICAL_COLUMNS.index("Age"), 1)
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(DataError, match="row 3 has 23 cells, expected 22"):
            load_csv(path)

    def test_non_utf8_byte_is_located(self, tmp_path):
        # far enough in that the bad byte is not in the first decoded chunk
        path = write_rows(tmp_path / "t.csv", synthetic_rows(400, seed=1))
        lines = (tmp_path / "t.csv").read_bytes().split(b"\n")
        lines[300] = b"\xff" + lines[300]
        (tmp_path / "t.csv").write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="row 300 is not valid UTF-8"):
            load_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    @pytest.mark.parametrize("bad_line", [None, 300], ids=["clean", "bad_byte"])
    def test_pipe_read_once(self, tmp_path, bad_line):
        # over 8 KiB, so a second open of the pipe would start after the
        # first chunk; a pipe cannot be read from its start again
        path = write_rows(tmp_path / "t.csv", synthetic_rows(400, seed=1))
        data = (tmp_path / "t.csv").read_bytes()
        if bad_line is not None:
            lines = data.split(b"\n")
            lines[bad_line] = b"\xff" + lines[bad_line]
            data = b"\n".join(lines)
            (tmp_path / "t.csv").write_bytes(data)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        outcomes = []

        def read():
            try:
                outcomes.append(load_csv(str(fifo)).rows)
            except DataError as exc:
                outcomes.append(str(exc))

        def write():
            with open(fifo, "wb") as fh:
                fh.write(data)

        # daemon threads: a reader blocked on a second open cannot hang the run
        threads = [threading.Thread(target=f, daemon=True) for f in (read, write)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(data) > 8192 and len(outcomes) == 1
        if bad_line is None:
            assert np.array_equal(outcomes[0], load_csv(path).rows)
        else:
            assert outcomes[0] == "row 300 is not valid UTF-8 text"

    def test_shuffled_header_accepted(self, tmp_path):
        header = list(reversed(CANONICAL_COLUMNS))
        rows = [list(reversed(row)) for row in small_rows()]
        path = write_rows(tmp_path / "t.csv", rows, header=header)
        table = load_csv(path)
        assert table.names == tuple(CANONICAL_COLUMNS)
        assert table.column("BMI").tolist() == [28, 33, 41, 22]


def undecodable_row(data: bytes):
    """The reference for the row ``load_csv`` names in a file that is not
    UTF-8: the number of the first line that does not decode on its own
    (0 = header), or None when every line decodes. Lines split exactly on
    bytes, because a newline byte never occurs inside a UTF-8 sequence."""
    for lineno, line in enumerate(data.split(b"\n")):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


@functools.cache
def csv_lines(n_rows: int) -> tuple:
    """The lines of a valid ``n_rows``-row CSV, header first."""
    rows = synthetic_rows(n_rows, seed=1)
    return tuple(",".join(map(str, line))
                 for line in [CANONICAL_COLUMNS] + rows)


def truncated(char: str) -> bytes:
    """A character's UTF-8 sequence without its last byte."""
    return char.encode()[:-1]


# each draws one byte sequence that is not UTF-8
INVALID_SEQUENCES = st.one_of(
    st.integers(0x80, 0xBF).map(lambda b: bytes([b])),  # a lone continuation
    # bytes that never occur in UTF-8
    st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)]).map(lambda b: bytes([b])),
    st.characters(min_codepoint=0x80).map(truncated),
    st.sampled_from([b"\xc0\xaf", b"\xe0\x80\xaf", b"\xf0\x80\x80\xaf"]),  # overlong
    # a surrogate, and a code point past U+10FFFF
    st.integers(0xD800, 0xDFFF).map(
        lambda c: chr(c).encode("utf-8", "surrogatepass")),
    st.just(b"\xf4\x90\x80\x80"),
)


@st.composite
def undecodable_csvs(draw):
    """A valid 400-row CSV with one invalid sequence put into a drawn line
    (the header included) at a drawn offset; with or without a BOM, in LF or
    CRLF lines."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    lines = (bom + "".join(line + end for line in csv_lines(400)).encode()
             ).split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    offset = draw(st.integers(0, len(line)))
    lines[at] = line[:offset] + draw(INVALID_SEQUENCES) + line[offset:]
    return b"\n".join(lines)


# 0.5-0.8 s of tier-1 on a 2-vCPU VM
@given(undecodable_csvs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_undecodable_row_is_the_reference_row(data):
    row = undecodable_row(data)
    assert row is not None
    where = f"row {row}" if row else "the header"
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "t.csv")
        path.write_bytes(data)
        with pytest.raises(DataError) as exc:
            load_csv(path)
    assert str(exc.value) == f"{where} is not valid UTF-8 text"


def eda_outcome(data: bytes):
    """``cli.main(["eda", ...])`` on a file of ``data``, in process: the
    exit code and what it wrote to stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stderr(err):
        path = Path(work, "t.csv")
        path.write_bytes(data)
        code = main(["eda", "--data", str(path), "--out", str(Path(work, "out"))])
    return code, err.getvalue()


def full_width(text: str) -> str:
    return "".join(chr(ord(ch) + 0xFEE0) for ch in text)


# one mutation of a valid 40-row CSV -> the data error it ends in, or None
# for a layout that eda reads
CSV_MUTATIONS = {
    "bom": None, "crlf": None, "quoted_cell": None,
    "short_row": "row {row} has 21 cells, expected 22",
    "long_row": "row {row} has 23 cells, expected 22",
    "bad_byte": "row {row} is not valid UTF-8 text",
    "nan": "non-numeric cell 'nan' at row {row}, column {col}",
    "inf": "non-numeric cell 'inf' at row {row}, column {col}",
    "1e309": "non-numeric cell '1e309' at row {row}, column {col}",
    "negative_code": ("value {value!r} at row {row}, column {col} outside "
                      "integers in [{lo}, {hi}]"),
    "3_0": "non-numeric cell '3_0' at row {row}, column {col}",
    "full_width_digit": "non-numeric cell {text!r} at row {row}, column {col}",
    "repeated_column": "repeated column: {col}",
    "missing_column": "missing column: {col}",
    "empty_file": "file is empty",
    "header_only": "no data rows",
}


@st.composite
def mutated_csvs(draw, mutation):
    """``(bytes, expected data error or None)``: a valid 40-row CSV with one
    mutation of ``CSV_MUTATIONS`` at a drawn row (1-based) and column."""
    lines = [line.split(",") for line in csv_lines(40)]
    row = draw(st.integers(1, 40))
    j = draw(st.integers(0, len(CANONICAL_COLUMNS) - 1))
    col = CANONICAL_COLUMNS[j]
    lo, hi = dataset._RANGES[col]
    negative = -draw(st.integers(1, 99))
    fields = {"row": row, "col": col, "value": float(negative), "lo": lo,
              "hi": "inf" if hi is None else hi}
    cells = {
        "quoted_cell": f'"{lines[row][j]}"', "nan": "nan", "inf": "inf",
        "1e309": "1e309", "3_0": "3_0", "negative_code": str(negative),
        "full_width_digit": full_width(lines[row][j]),
    }
    if mutation in cells:
        fields["text"] = lines[row][j] = cells[mutation]
    elif mutation == "short_row":
        del lines[row][j]
    elif mutation == "long_row":
        lines[row].insert(j, "1")
    elif mutation == "repeated_column":
        at = draw(st.integers(0, len(CANONICAL_COLUMNS)))
        for line in lines:
            line.insert(at, line[j])
    elif mutation == "missing_column":
        for line in lines:
            del line[j]
    elif mutation == "header_only":
        del lines[1:]
    end = "\r\n" if mutation == "crlf" else "\n"
    data = "".join(",".join(line) + end for line in lines).encode()
    if mutation == "bom":
        data = b"\xef\xbb\xbf" + data
    elif mutation == "bad_byte":
        split = data.split(b"\n")
        split[row] = b"\xff" + split[row]
        data = b"\n".join(split)
    elif mutation == "empty_file":
        data = b""
    expected = CSV_MUTATIONS[mutation]
    return data, None if expected is None else expected.format(**fields)


class TestCsvContract:
    """What ``diabrisk eda`` does with a CSV that differs from a valid one in
    one place: it reads the layouts a CSV may take, and every other defect
    ends in exit 2 and one ``data error:`` line naming the row, the column or
    the header."""

    # 10 examples per mutation: 0.6-0.9 s of tier-1 on a 2-vCPU VM
    @pytest.mark.parametrize("mutation", sorted(CSV_MUTATIONS))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_one_mutation_is_read_or_named(self, mutation, data):
        csv_bytes, expected = data.draw(mutated_csvs(mutation))
        code, err = eda_outcome(csv_bytes)
        if expected is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"data error: {expected}\n")

    # the benchmark's two malformed first rows, in a file of its layout
    @pytest.mark.parametrize("row, line", [
        (b"0.0,1.0,1.0,1.0,30.0,0.0,0.0,0.0,1.0,1.0,1.0,0.0,1.0,0.0,3.0,0.0,"
         b"0.0,0.0,1.0,9.0\n",
         "data error: row 1 has 20 cells, expected 22\n"),
        (b"0.0,1.0,1.0,1.0,30.0,0.0,0.0,0.0,1.0,1.0,1.0,0.0,1.0,0.0,3.0,0.0,"
         b"0.0,0.0,1.0,9.0,6.0,\xff7.0\n",
         "data error: row 1 is not valid UTF-8 text\n"),
    ], ids=["short_row", "bad_byte"])
    def test_benchmark_inputs(self, row, line):
        header, *rest = [s.encode() + b"\n" for s in csv_lines(40)]
        assert eda_outcome(header + row + b"".join(rest[1:])) == (2, line)


DEFECTS = [
    "clean", "padded", "short_row", "long_row", "text", "nan", "inf", "hash",
    "fraction", "out_of_range", "underscore", "full_width", "bad_byte",
    "blank_lines", "whitespace_line", "crlf", "quoted", "bom", "shuffled",
    "extra_column", "wide_rows", "multiline_header", "header_only", "empty",
]


def defective_csv(path, rng, defects):
    """Write a small random table with the given defects; return the path."""
    # a bad byte goes into the second half of a file over 8 KiB
    n_rows = int(rng.integers(250, 400) if "bad_byte" in defects
                 else rng.integers(1, 30))
    rows = [[str(v) for v in row]
            for row in synthetic_rows(n_rows, seed=int(rng.integers(1000)))]
    header = list(CANONICAL_COLUMNS)
    if "shuffled" in defects:
        perm = rng.permutation(len(header))
        header = [header[k] for k in perm]
        rows = [[row[k] for k in perm] for row in rows]
    if "extra_column" in defects:
        header.insert(int(rng.integers(len(header) + 1)), "Extra")
        extra = str(rng.choice(["7", "x", "2.5", "nan", ""]))
        for row in rows:
            row.insert(header.index("Extra"), extra)
    if "wide_rows" in defects:  # every row, so loadtxt sees no ragged line
        for row in rows:
            row.append("1")
    if "multiline_header" in defects:  # a quoted name with a line break
        header.append('"Ex\ntra"')
        for row in rows:
            row.append("1")
    row = rows[int(rng.integers(len(rows)))]
    col = int(rng.integers(len(row)))
    edits = {
        "padded": f" {row[col]}.0 ",
        "text": "abc",
        "nan": "nan",
        "inf": "inf",
        "hash": "#",
        "fraction": f"{row[col]}.5",
        "out_of_range": str(rng.choice(["-1", "31", "99"])),
        "underscore": f"0_{row[col]}",
        "full_width": full_width(row[col]),
        "quoted": f'"{row[col]}"',
    }
    for defect in sorted(defects):  # a set iterates in hash order
        if defect in edits:
            row[col] = edits[defect]
    if "short_row" in defects:
        del row[col]
    if "long_row" in defects:
        row.insert(col, "1")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for filler in (("" if "blank_lines" in defects else None),
                   (" \t" if "whitespace_line" in defects else None)):
        if filler is not None:
            lines.insert(int(rng.integers(1, len(lines) + 1)), filler)
    if "header_only" in defects:
        lines = lines[:1]
    end = "\r\n" if "crlf" in defects else "\n"
    data = "".join(line + end for line in lines).encode()
    if "bad_byte" in defects:
        split = data.split(b"\n")
        line = int(rng.integers(len(split) // 2, len(split)))
        split[line] = b"\xff" + split[line]
        data = b"\n".join(split)
    if "bom" in defects:
        data = b"\xef\xbb\xbf" + data
    if "empty" in defects:
        data = b""
    path.write_bytes(data)
    return str(path)


def load_outcome(path):
    """The table bytes load_csv gives, or the type and text of its error."""
    try:
        table = load_csv(path)
    except Exception as exc:
        return type(exc), str(exc)
    return table.rows.shape, table.rows.flags.c_contiguous, table.rows.tobytes()


def reference_rows(data: bytes) -> np.ndarray:
    """The reference for ``load_csv``'s parse of a CSV's bytes: the table
    the csv module's records build row by row, every cell judged by
    ``_code``, or the first defect's error."""
    try:
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start)
        raise DataError(f"{f'row {row}' if row else 'the header'} "
                        "is not valid UTF-8 text") from None
    reader = csv.reader(dataset._text(data))
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
    rows = []
    i = 0
    try:
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"row {i} has {len(raw)} cells, expected {len(header)}")
            rows.append([dataset._code(raw[j].strip(), i, col)
                         for j, col in zip(order, CANONICAL_COLUMNS)])
    except csv.Error as exc:  # raised while reading the row after row i
        raise DataError(f"row {i + 1}: {exc}") from None
    if not rows:
        raise EmptyData("no data rows")
    return np.array(rows, dtype=float)


def reference_outcome(path):
    """``load_outcome`` of the table ``reference_rows`` builds."""
    try:
        table = DataTable(CANONICAL_COLUMNS,
                          reference_rows(Path(path).read_bytes()))
    except Exception as exc:
        return type(exc), str(exc)
    return table.rows.shape, table.rows.flags.c_contiguous, table.rows.tobytes()


# what a drawn cell may be, around a valid code or in place of it
PADDING = st.sampled_from(["", " ", "\t", "  ", " \t"])
FRAGMENTS = st.text(alphabet=list('102",.\t\r\n '), max_size=4)


@st.composite
def quoted_cells(draw, code: str) -> str:
    """A cell around a valid ``code``: padded, with ``.0``, quoted, with a
    line break inside its quotes, or replaced by a fragment of CSV bytes."""
    kind = draw(st.sampled_from(
        ["plain", "padded", "quoted", "quoted_padded", "line_break",
         "fragment"]))
    if kind == "fragment":
        return draw(FRAGMENTS)
    text = code + draw(st.sampled_from(["", ".0"]))
    if kind in ("padded", "quoted_padded"):
        text = draw(PADDING) + text + draw(PADDING)
    if kind == "line_break":
        text = text + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if kind in ("quoted", "quoted_padded", "line_break"):
        text = f'"{text}"'
        if draw(st.booleans()):  # blanks outside the quotes
            text = draw(PADDING) + text + draw(PADDING)
    return text


@st.composite
def quoted_csvs(draw) -> bytes:
    """A CSV of 1-4 valid rows with 0-6 cells drawn by ``quoted_cells``,
    maybe a quoted header, blank or whitespace lines, in LF, CRLF or CR
    lines."""
    lines = [line.split(",") for line in csv_lines(4)]
    lines = lines[:1 + draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(1, len(lines) - 1))
        j = draw(st.integers(0, len(CANONICAL_COLUMNS) - 1))
        lines[row][j] = draw(quoted_cells(lines[row][j]))
    if draw(st.booleans()):
        lines[0] = [f'"{name}"' for name in lines[0]]
    texts = [",".join(line) for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        texts.insert(draw(st.integers(1, len(texts))),
                     draw(st.sampled_from(["", " ", "\t", "\r"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(text + end for text in texts).encode()


class TestWholeFileParse:
    """numpy's parse must give what the per-cell reference gives."""

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_matches_per_cell_loop(self, tmp_path, defect):
        rng = np.random.default_rng(DEFECTS.index(defect))
        for trial in range(12):
            # half the trials add a second, random defect
            defects = {defect, str(rng.choice(DEFECTS))} if trial % 2 else {defect}
            path = defective_csv(tmp_path / f"{trial}.csv", rng, defects)
            fast = load_outcome(path)
            slow = reference_outcome(path)
            assert fast == slow, (defects, slow[:2])

    # 300 examples: about 1.5 s of tier-1 on a 2-vCPU VM
    @given(quoted_csvs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_quoted_layouts_match_per_cell_loop(self, data):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work, "t.csv")
            path.write_bytes(data)
            assert load_outcome(path) == reference_outcome(path)

    @pytest.mark.parametrize("defect,loops", [
        ("clean", 0), ("padded", 0), ("blank_lines", 0), ("crlf", 0),
        ("shuffled", 0), ("multiline_header", 0), ("quoted", 0),
    ])
    def test_only_what_numpy_cannot_read_takes_loop(
        self, tmp_path, monkeypatch, defect, loops
    ):
        calls = []
        parse_rows = dataset._parse_rows
        monkeypatch.setattr(dataset, "_parse_rows",
                            lambda *args: calls.append(1) or parse_rows(*args))
        path = defective_csv(tmp_path / "t.csv", np.random.default_rng(0), {defect})
        assert load_csv(path).n_rows > 0
        assert len(calls) == loops

    def test_valid_quoted_file_judges_no_cell(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(f'"{cell}"' for cell in line.split(","))
                                + "\n" for line in csv_lines(40)))
        expected = reference_outcome(path)
        codes = calls_to(monkeypatch, "_code")
        assert load_outcome(path) == expected
        assert codes == []

    def test_no_defect_after_numpy_failed_is_data_error(self, tmp_path,
                                                        monkeypatch):
        # a guard no input is known to reach: the loop finds no defect in
        # rows that numpy could not read
        path = tmp_path / "t.csv"
        path.write_text("".join(line + "\n" for line in csv_lines(40)))
        monkeypatch.setattr(dataset, "_parse_whole", lambda *args: None)
        assert eda_outcome(path.read_bytes()) == (
            2, "data error: numpy rejected the rows, but no row has a defect\n")

    # csv.field_size_limit() is 131,072 characters; numpy has no limit
    @pytest.mark.parametrize("cells, error", [
        ({(3, 4): '"' + "0" * 200_000 + '30"'}, "row 3: field larger"),
        ({(3, 4): "0" * 200_000 + "30"}, "row 3: field larger"),
        ({(3, 22): '"' + "x," * 100_000 + '"'}, "row 3: field larger"),
        ({(2, 22): '"' + "x," * 100_000 + '"', (3, 4): "abc"},
         "row 2: field larger"),
        # two cells under the limit, with no comma between them
        ({(3, 21): " " * 100_000 + "1", (4, 0): " " * 100_000 + "0"}, None),
    ], ids=["quoted", "unquoted", "unused_column", "before_bad_code",
            "under_limit"])
    def test_field_limit_matches_per_cell_loop(self, tmp_path, cells, error):
        lines = [line.split(",") + ["1"] for line in csv_lines(5)]
        lines[0][22] = "Extra"
        for (row, col), cell in cells.items():
            lines[row][col] = cell
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        outcome = load_outcome(path)
        assert outcome == reference_outcome(path)
        if error is None:
            assert outcome[0] == (5, 22)
        else:
            assert outcome[0] is DataError and outcome[1].startswith(error)


def calls_to(monkeypatch, *names):
    """A list that gains a function's name at each call of one of
    ``dataset``'s functions ``names``."""
    calls = []
    for name in names:
        def call(*args, name=name, function=getattr(dataset, name)):
            calls.append(name)
            return function(*args)
        monkeypatch.setattr(dataset, name, call)
    return calls


def with_bad_income(line: str) -> str:
    """A CSV line of ``csv_lines`` with Income, its last cell, set to 9."""
    return line.rsplit(",", 1)[0] + ",9"


class TestFirstBadRow:
    """A defect is judged once: a bad byte by one decode before any parse,
    and a bad code numpy read by ``_bad_cells``, after which the cell loop
    judges only from that code's row on."""

    def test_late_bad_code_judges_one_row(self, tmp_path, monkeypatch):
        lines = list(csv_lines(2000))
        lines[1999] = with_bad_income(lines[1999])
        path = tmp_path / "t.csv"
        path.write_text("".join(line + "\n" for line in lines))
        codes = calls_to(monkeypatch, "_code")
        with pytest.raises(OutOfRange, match="^value 9.0 at row 1999, column Income"):
            load_csv(path)
        assert 0 < len(codes) <= len(CANONICAL_COLUMNS)

    def test_bad_byte_parses_nothing(self, tmp_path, monkeypatch):
        split = [line.encode() for line in csv_lines(2000)] + [b""]
        split[2000] = b"\xff" + split[2000]
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(split))
        calls = calls_to(monkeypatch, "_parse_whole", "_parse_rows")
        with pytest.raises(DataError, match="^row 2000 is not valid UTF-8 text$"):
            load_csv(path)
        assert calls == []

    @pytest.mark.parametrize("layout", [
        "blank_line", "crlf", "cr_line", "cr_endings", "bom"])
    def test_skipped_rows_keep_the_row_number(self, tmp_path, monkeypatch,
                                              layout):
        # the bad row is row 40 of the file: a blank line, or one that holds
        # only a carriage return, is a row; "cr_endings" ends the header and
        # rows 1-9 in a lone carriage return
        lines = list(csv_lines(60))
        if layout in ("blank_line", "cr_line"):
            lines.insert(10, "" if layout == "blank_line" else "\r")
        lines[40] = with_bad_income(lines[40])
        end = "\r\n" if layout == "crlf" else "\n"
        data = "".join(line + end for line in lines).encode()
        if layout == "cr_endings":
            data = data.replace(b"\n", b"\r", 10)
        if layout == "bom":
            data = b"\xef\xbb\xbf" + data
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with monkeypatch.context() as patch:
            codes = calls_to(patch, "_code")
            fast = load_outcome(path)
        assert len(codes) <= len(CANONICAL_COLUMNS)  # only row 40 was judged
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "_cached", dataset._load_csv)
            patch.setattr(dataset, "_parse_whole", lambda *args: None)
            slow = load_outcome(path)
        assert fast == slow == (OutOfRange, "value 9.0 at row 40, column Income "
                                "outside integers in [1, 8]")


def cache_entries():
    """The entries in the table cache, by file name."""
    directory = os.path.join(os.environ["XDG_CACHE_HOME"], "diabrisk")
    if not os.path.isdir(directory):
        return []
    return sorted(os.listdir(directory))


def count_parses(monkeypatch):
    """A list that gains one item per call of ``_load_csv``."""
    calls = []
    parse = dataset._load_csv
    monkeypatch.setattr(dataset, "_load_csv",
                        lambda data: calls.append(1) or parse(data))
    return calls


@st.composite
def cached_tables(draw):
    """A valid table as CSV text, and one bad value for a cell of its cache
    entry: ``(text, (row, column in CANONICAL_COLUMNS, value))``. The rows
    are a few distinct rows repeated; a cell may end in ``.0`` and a zero
    may be ``-0``; the columns come in any order."""
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        row = {}
        for col, (lo, hi) in dataset._RANGES.items():
            value = draw(st.integers(lo, 99 if hi is None else hi))
            forms = ["{}", "{}.0"] + (["-{}", "-{}.0"] if value == 0 else [])
            row[col] = (value, draw(st.sampled_from(forms)).format(value))
        distinct.append(row)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=1, max_size=12))
    header = draw(st.permutations(CANONICAL_COLUMNS))
    lines = [",".join(header)]
    lines += [",".join(distinct[i][col][1] for col in header) for i in picks]
    at = draw(st.integers(0, len(picks) - 1))
    col = draw(st.integers(0, len(CANONICAL_COLUMNS) - 1))
    lo, hi = dataset._RANGES[CANONICAL_COLUMNS[col]]
    value = distinct[picks[at]][CANONICAL_COLUMNS[col]][0]
    bad = [lo - 1, value + 0.5, math.nan, math.inf]
    bad += [] if hi is None else [hi + 1]
    return "\n".join(lines) + "\n", (at, col, draw(st.sampled_from(bad)))


class TestTableCache:
    """A table parsed once is loaded from ``$XDG_CACHE_HOME/diabrisk``."""

    # 0.6-0.9 s of tier-1 on a 2-vCPU VM
    @given(cached_tables())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_hit_is_the_parse_and_a_damaged_hit_is_a_miss(self, drawn):
        text, (row, col, value) = drawn
        with tempfile.TemporaryDirectory() as work, \
                pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", work)
            calls = count_parses(patch)
            path = Path(work, "t.csv")
            path.write_text(text)
            miss = load_csv(path).rows.tobytes()
            assert load_csv(path).rows.tobytes() == miss
            entry = dataset._cache_entry(path.read_bytes())
            damaged = np.load(entry)
            damaged[row, col] = value
            np.save(entry, damaged)
            assert load_csv(path).rows.tobytes() == miss
            assert calls == [1, 1]

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_hit_equals_miss(self, tmp_path, monkeypatch, negative_zero):
        rows = [[str(v) for v in row] for row in small_rows()]
        if negative_zero:
            rows[1][5] = "-0"
        path = write_rows(tmp_path / "t.csv", rows)
        miss = load_csv(path)
        assert len(cache_entries()) == 1
        assert np.signbit(miss.rows[1, 5]) == negative_zero
        calls = count_parses(monkeypatch)
        hit = load_csv(path)
        assert calls == []
        assert hit.names == miss.names
        assert hit.rows.shape == miss.rows.shape
        assert hit.rows.flags.c_contiguous and not hit.rows.flags.writeable
        assert hit.rows.tobytes() == miss.rows.tobytes()

    def test_one_changed_byte_is_a_miss(self, tmp_path, monkeypatch):
        path = write_rows(tmp_path / "t.csv", small_rows())
        first = load_csv(path)
        data = bytearray((tmp_path / "t.csv").read_bytes())
        at = data.index(b"\n") + 1  # Diabetes_012 of the first row
        data[at:at + 1] = b"2"
        (tmp_path / "t.csv").write_bytes(bytes(data))
        calls = count_parses(monkeypatch)
        second = load_csv(path)
        assert calls == [1]
        assert second.column(dataset.TARGET)[0] == 2
        assert first.column(dataset.TARGET)[0] == 0
        assert len(cache_entries()) == 1

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "int64", "21_columns", "fortran_order",
        "not_npy", "directory", "target_7", "bmi_36.5", "nan", "no_rows",
    ])
    def test_bad_entry_is_parsed_and_rewritten(self, tmp_path, monkeypatch,
                                               damage):
        path = write_rows(tmp_path / "t.csv", small_rows())
        expected = load_csv(path).rows
        entry = dataset._cache_entry((tmp_path / "t.csv").read_bytes())
        good = Path(entry).read_bytes()
        os.unlink(entry)

        def with_cell(row, col, value):
            rows = expected.copy()
            rows[row, CANONICAL_COLUMNS.index(col)] = value
            return rows

        arrays = {
            "int64": expected.astype(np.int64),
            "21_columns": np.ascontiguousarray(expected[:, :21]),
            "fortran_order": np.asfortranarray(expected),
            "target_7": with_cell(0, dataset.TARGET, 7),
            "bmi_36.5": with_cell(1, "BMI", 36.5),
            "nan": with_cell(2, "Fruits", np.nan),
            "no_rows": expected[:0],
        }
        if damage == "directory":
            os.mkdir(entry)
        elif damage in arrays:
            np.save(entry, arrays[damage])
        else:
            bad = {"truncated": good[:-8], "empty": b"",
                   "not_npy": b"not an array\n"}[damage]
            Path(entry).write_bytes(bad)
        calls = count_parses(monkeypatch)
        assert load_csv(path).rows.tobytes() == expected.tobytes()
        assert calls == [1]
        if damage == "directory":  # the entry cannot be written
            assert os.path.isdir(entry)
            assert not [n for n in cache_entries() if n.endswith(".tmp")]
        else:
            assert Path(entry).read_bytes() == good

    @pytest.mark.parametrize("variable,value", [
        ("XDG_CACHE_HOME", "relative"), ("HOME", "~"),
    ])
    def test_relative_location_turns_cache_off(self, tmp_path, monkeypatch,
                                               variable, value):
        # with no HOME and no password entry, expanduser leaves "~" as it is
        path = write_rows(tmp_path / "t.csv", small_rows())
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv(variable, value)
        monkeypatch.chdir(tmp_path)
        calls = count_parses(monkeypatch)
        load_csv(path)
        load_csv(path)
        assert calls == [1, 1]
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_malformed_csv_writes_no_entry(self, tmp_path, monkeypatch):
        rows = small_rows()
        rows[2][4] = "x"
        path = write_rows(tmp_path / "t.csv", rows)
        texts = [load_outcome(path), load_outcome(path)]
        assert cache_entries() == []
        monkeypatch.setattr(dataset, "_cached", dataset._load_csv)
        assert texts == [load_outcome(path)] * 2
        assert texts[0] == (NonNumericCell,
                            "non-numeric cell 'x' at row 3, column BMI")

    def test_keeps_newest_entries(self, tmp_path, monkeypatch):
        # one entry is kept: the table parsed last
        paths = [write_rows(tmp_path / f"{seed}.csv",
                            synthetic_rows(20, seed=seed))
                 for seed in range(3)]
        for path in paths:
            load_csv(path)
        entry = dataset._cache_entry(Path(paths[-1]).read_bytes())
        assert cache_entries() == [os.path.basename(entry)]
        calls = count_parses(monkeypatch)
        load_csv(paths[-1])
        assert calls == []
        load_csv(paths[0])
        assert calls == [1]

    def test_store_removes_stale_temporary_files(self, tmp_path, monkeypatch):
        # a store deletes every other .npy and .tmp file, and nothing else
        path = write_rows(tmp_path / "t.csv", small_rows())
        directory = tmp_path / "cache" / "diabrisk"
        directory.mkdir(parents=True, mode=0o700)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        (directory / "a.tmp").write_bytes(b"left by a process that died")
        (directory / "old.npy").write_bytes(b"an older entry")
        (directory / "notes.txt").write_bytes(b"not the cache's")
        load_csv(path)
        entry = dataset._cache_entry(Path(path).read_bytes())
        assert cache_entries() == sorted([os.path.basename(entry),
                                          "notes.txt"])

    def test_unwritable_cache_keeps_exit_and_artifacts(self, tmp_path,
                                                       monkeypatch, capsys):
        from diabrisk.cli import main

        path = write_rows(tmp_path / "t.csv", synthetic_rows(200, seed=3))
        out = tmp_path / "out"
        # the cache directory would be made under a regular file
        (tmp_path / "file").write_text("a file, not a directory\n")
        outcomes = []
        for cache in (tmp_path / "cache", tmp_path / "file"):
            monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
            code = main(["eda", "--data", path, "--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "manifest.json"}
            outcomes.append((code, files, capsys.readouterr()))
            os.rename(out, tmp_path / f"out_{len(outcomes)}")
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]
        assert os.listdir(tmp_path / "cache" / "diabrisk")


def test_cli_import_loads_no_hashlib():
    # the key is hashed on the first load, not when the program starts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diabrisk.cli; print('hashlib' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestBinarizeTarget:
    def test_codes_map_to_binary(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, labels = binarize_target(table)
        assert labels.tolist() == [0, 1, 1, 0]
        assert "Diabetes_012" not in features.names
        assert len(features.names) == 21

    def test_positive_count_matches_code_count(self, tmp_path):
        rows = synthetic_rows(300, seed=11)
        table = load_csv(write_rows(tmp_path / "t.csv", rows))
        _, labels = binarize_target(table)
        expected = sum(1 for r in rows if r[0] in (1, 2))
        assert int(labels.sum()) == expected
        assert int((labels == 0).sum()) == 300 - expected

    def test_missing_target(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        with pytest.raises(MissingColumn):
            binarize_target(features)


class TestSplit:
    def test_fig6_support_arithmetic(self):
        _, test = train_test_split(427_406, 0.2, seed=42)
        assert abs(len(test) - 85_482) <= 1

    def test_zero_fraction(self):
        train, test = train_test_split(10, 0.0, seed=1)
        assert len(test) == 0
        assert len(train) == 10

    def test_determinism(self):
        a = train_test_split(1000, 0.3, seed=5)
        b = train_test_split(1000, 0.3, seed=5)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], b[0])

    @given(
        n=st.integers(1, 500),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        train, test = train_test_split(n, fraction, seed)
        combined = np.concatenate([train, test])
        assert len(test) == round(n * fraction)
        assert sorted(combined.tolist()) == list(range(n))


class TestPearson:
    def _table(self, matrix, names=None):
        names = names or CANONICAL_COLUMNS[1: 1 + matrix.shape[1]]
        return DataTable(tuple(names), matrix)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        table = self._table(rng.integers(0, 2, size=(50, 3)).astype(float))
        values, _ = pearson_correlation(table)
        assert np.allclose(np.diag(values), 1.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=(80, 4)).astype(float)
        data[:, 1] += data[:, 0]  # induce correlation
        data = np.clip(data, 0, 1)
        values, _ = pearson_correlation(self._table(data))
        assert np.allclose(values, np.corrcoef(data, rowvar=False),
                           atol=1e-12)

    def test_zero_variance_flagged_not_fatal(self):
        data = np.ones((10, 2))
        data[:, 1] = np.arange(10) % 2
        values, undefined = pearson_correlation(
            self._table(data, ["HighBP", "HighChol"]))
        assert undefined[0].all()
        assert values[0, 1] == 0.0
        assert not undefined[1, 1]

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            data = rng.integers(0, 2, size=(30, 5)).astype(float)
            values, _ = pearson_correlation(self._table(data))
            assert np.array_equal(values, values.T)
            assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            pearson_correlation(self._table(np.ones((1, 2))))


class TestIncomeHistogram:
    def test_counts_sum_and_zero_codes(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        counts = income_histogram(table)
        assert INCOME_CODES == tuple(range(1, 9))
        assert len(counts) == len(INCOME_CODES)
        assert all(type(c) is int for c in counts)
        assert sum(counts) == table.n_rows
        assert counts[1] == 0  # code 2 absent from the fixture

    def test_empty_table_all_zero(self):
        table = DataTable(
            ("Income",), np.empty((0, 1))
        )
        assert income_histogram(table) == (0,) * 8

    def test_missing_column(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        sub = select_columns(table, ["BMI"])
        with pytest.raises(MissingColumn):
            income_histogram(sub)

    @given(st.lists(st.integers(1, 8), min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_property(self, incomes):
        table = DataTable(
            ("Income",),
            np.array(incomes, dtype=float).reshape(-1, 1),
        )
        assert sum(income_histogram(table)) == len(incomes)


class TestSelectColumns:
    def test_health_model_subset(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        sub = select_columns(features, HEALTH_MODEL_FEATURES)
        assert sub.names == tuple(HEALTH_MODEL_FEATURES)
        assert sub.n_rows == table.n_rows

    def test_identity_and_single(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        assert np.array_equal(
            select_columns(features, features.names).rows, features.rows
        )
        assert select_columns(features, ["Income"]).rows.shape == (4, 1)

    def test_missing_column(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        with pytest.raises(MissingColumn):
            select_columns(table, ["NotAColumn"])


def _tables():
    rng = np.random.default_rng(21)
    return {
        "integer": rng.integers(0, 4, size=(500, 3)),
        "float": np.round(rng.normal(size=(400, 2)), 1),
        "one_column": rng.integers(1, 9, size=(300, 1)).astype(float),
        "all_equal": np.full((50, 4), 2.5),
        "one_row": np.array([[1.0, -3.0, 7.0]]),
        "distinct": rng.normal(size=(200, 5)),
    }


class TestDistinctRows:
    """``distinct_rows`` is ``np.unique(X, axis=0, return_inverse=True)``."""

    @pytest.mark.parametrize("name", list(_tables()))
    def test_equals_numpy_unique(self, name):
        X = _tables()[name]
        distinct, inverse = distinct_rows(X)
        want, want_inverse = np.unique(X, axis=0, return_inverse=True)
        assert distinct.dtype == want.dtype
        assert distinct.tobytes() == want.tobytes()
        assert distinct.shape == want.shape
        assert np.array_equal(inverse, want_inverse.reshape(-1))

    def test_count_tables_count_each_row_and_label_once(self):
        X = _tables()["integer"].astype(float)
        y = (X[:, 0] + X[:, 2] > 3).astype(int)
        y[::7] = 1 - y[::7]  # some rows carry both labels
        table = count_tables(X, y)
        for idx in (slice(None), np.arange(0, 500, 3)):
            rows, labels, counts = table(idx)
            pairs = np.column_stack([X[idx], y[idx]])
            want, want_counts = np.unique(pairs, axis=0, return_counts=True)
            assert np.array_equal(np.column_stack([rows, labels]), want)
            assert np.array_equal(counts, want_counts)
