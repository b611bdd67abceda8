import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diabrisk.dataset import (
    CANONICAL_COLUMNS,
    HEALTH_MODEL_FEATURES,
    ColumnSchema,
    DataTable,
    binarize_target,
    income_histogram,
    load_csv,
    pearson_correlation,
    select_columns,
    train_test_split,
    write_csv,
)
from diabrisk.errors import (
    DataError,
    EmptyData,
    InsufficientRows,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
)

from conftest import synthetic_rows, write_rows


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
        assert table.schema.names == tuple(CANONICAL_COLUMNS)
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

    def test_non_numeric_cell_is_located(self, tmp_path):
        rows = small_rows()
        rows[2][CANONICAL_COLUMNS.index("BMI")] = "abc"
        path = write_rows(tmp_path / "t.csv", rows)
        with pytest.raises(NonNumericCell) as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert exc.value.col == "BMI"

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

    def test_non_utf8_byte_is_located(self, tmp_path):
        # far enough in that the bad byte is not in the first decoded chunk
        path = write_rows(tmp_path / "t.csv", synthetic_rows(400, seed=1))
        lines = (tmp_path / "t.csv").read_bytes().split(b"\n")
        lines[300] = b"\xff" + lines[300]
        (tmp_path / "t.csv").write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="row 300 is not valid UTF-8"):
            load_csv(path)

    def test_shuffled_header_accepted(self, tmp_path):
        header = list(reversed(CANONICAL_COLUMNS))
        rows = [list(reversed(row)) for row in small_rows()]
        path = write_rows(tmp_path / "t.csv", rows, header=header)
        table = load_csv(path)
        assert table.schema.names == tuple(CANONICAL_COLUMNS)
        assert table.column("BMI").tolist() == [28, 33, 41, 22]

    def test_round_trip(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", synthetic_rows(50, seed=3))
        table = load_csv(path)
        out = tmp_path / "copy.csv"
        write_csv(table, out)
        again = load_csv(out)
        assert again.schema.names == table.schema.names
        assert np.array_equal(again.rows, table.rows)


class TestBinarizeTarget:
    def test_codes_map_to_binary(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, labels = binarize_target(table)
        assert labels.values.tolist() == [0, 1, 1, 0]
        assert "Diabetes_012" not in features.schema.names
        assert len(features.schema) == 21

    def test_positive_count_matches_code_count(self, tmp_path):
        rows = synthetic_rows(300, seed=11)
        table = load_csv(write_rows(tmp_path / "t.csv", rows))
        _, labels = binarize_target(table)
        expected = sum(1 for r in rows if r[0] in (1, 2))
        assert labels.positive_count == expected
        assert labels.negative_count == 300 - expected

    def test_missing_target(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        with pytest.raises(MissingColumn):
            binarize_target(features)


class TestSplit:
    def test_fig6_support_arithmetic(self):
        split = train_test_split(427_406, 0.2, seed=42)
        assert abs(len(split.test_indices) - 85_482) <= 1

    def test_zero_fraction(self):
        split = train_test_split(10, 0.0, seed=1)
        assert len(split.test_indices) == 0
        assert len(split.train_indices) == 10

    def test_determinism(self):
        a = train_test_split(1000, 0.3, seed=5)
        b = train_test_split(1000, 0.3, seed=5)
        assert np.array_equal(a.test_indices, b.test_indices)
        assert np.array_equal(a.train_indices, b.train_indices)

    @given(
        n=st.integers(1, 500),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        split = train_test_split(n, fraction, seed)
        combined = np.concatenate([split.train_indices, split.test_indices])
        assert len(split.test_indices) == round(n * fraction)
        assert sorted(combined.tolist()) == list(range(n))


class TestPearson:
    def _table(self, matrix, names=None):
        names = names or CANONICAL_COLUMNS[1: 1 + matrix.shape[1]]
        return DataTable(ColumnSchema.for_names(names), matrix)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        table = self._table(rng.integers(0, 2, size=(50, 3)).astype(float))
        corr = pearson_correlation(table)
        assert np.allclose(np.diag(corr.values), 1.0)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=(80, 4)).astype(float)
        data[:, 1] += data[:, 0]  # induce correlation
        data = np.clip(data, 0, 1)
        corr = pearson_correlation(self._table(data))
        assert np.allclose(corr.values, np.corrcoef(data, rowvar=False),
                           atol=1e-12)

    def test_zero_variance_flagged_not_fatal(self):
        data = np.ones((10, 2))
        data[:, 1] = np.arange(10) % 2
        corr = pearson_correlation(self._table(data, ["HighBP", "HighChol"]))
        assert corr.undefined_mask[0].all()
        assert corr.values[0, 1] == 0.0
        assert not corr.undefined_mask[1, 1]

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            data = rng.integers(0, 2, size=(30, 5)).astype(float)
            corr = pearson_correlation(self._table(data))
            assert np.array_equal(corr.values, corr.values.T)
            assert np.all(corr.values >= -1.0) and np.all(corr.values <= 1.0)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            pearson_correlation(self._table(np.ones((1, 2))))


class TestIncomeHistogram:
    def test_counts_sum_and_zero_codes(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        hist = income_histogram(table)
        assert hist.categories == tuple(range(1, 9))
        assert sum(hist.counts) == table.n_rows
        assert hist.counts[1] == 0  # code 2 absent from the fixture

    def test_empty_table_all_zero(self):
        table = DataTable(
            ColumnSchema.for_names(["Income"]), np.empty((0, 1))
        )
        hist = income_histogram(table)
        assert sum(hist.counts) == 0

    def test_missing_column(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        sub = select_columns(table, ["BMI"])
        with pytest.raises(MissingColumn):
            income_histogram(sub)

    @given(st.lists(st.integers(1, 8), min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_counts_sum_property(self, incomes):
        table = DataTable(
            ColumnSchema.for_names(["Income"]),
            np.array(incomes, dtype=float).reshape(-1, 1),
        )
        hist = income_histogram(table)
        assert sum(hist.counts) == len(incomes)


class TestSelectColumns:
    def test_health_model_subset(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        sub = select_columns(features, HEALTH_MODEL_FEATURES)
        assert sub.schema.names == tuple(HEALTH_MODEL_FEATURES)
        assert sub.n_rows == table.n_rows

    def test_identity_and_single(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        features, _ = binarize_target(table)
        assert np.array_equal(
            select_columns(features, features.schema.names).rows, features.rows
        )
        assert select_columns(features, ["Income"]).rows.shape == (4, 1)

    def test_missing_column(self, tmp_path):
        table = load_csv(write_rows(tmp_path / "t.csv", small_rows()))
        with pytest.raises(MissingColumn):
            select_columns(table, ["NotAColumn"])
