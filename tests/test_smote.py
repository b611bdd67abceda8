import functools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diabrisk import smote
from diabrisk.errors import DataError, SingleClass, TooFewMinority
from diabrisk.smote import SmoteParams, smote_balance

from conftest import REPO_ROOT, synthetic_rows, write_rows


def _segment_membership(point, a, b, tol=1e-9):
    """Is `point` on the segment [a, b]?"""
    ab = b - a
    ap = point - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.allclose(point, a, atol=tol)
    t = float(ap @ ab) / denom
    if not -tol <= t <= 1.0 + tol:
        return False
    return np.allclose(a + t * ab, point, atol=tol)


def test_already_balanced_returns_input_unchanged():
    X = np.arange(8, dtype=float).reshape(4, 2)
    y = np.array([0, 1, 0, 1])
    X2, y2 = smote_balance(X, y, SmoteParams(seed=0))
    assert np.array_equal(X2, X)
    assert np.array_equal(y2, y)


def test_two_point_minority_synthetics_on_diagonal():
    X = np.array([[0.0, 0.0], [1.0, 1.0]] + [[5.0, -3.0]] * 10)
    y = np.array([1, 1] + [0] * 10)
    X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=1, seed=4))
    synthetic = X2[12:]
    assert len(synthetic) == 8
    for s in synthetic:
        assert s[0] == s[1]  # on the segment (t, t)
        assert 0.0 <= s[0] < 1.0


def test_synthetics_lie_on_minority_pair_segments():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    y = np.array([1] * 12 + [0] * 28)
    X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=3, seed=1))
    minority = X[:12]
    for s in X2[40:]:
        on_some_segment = any(
            _segment_membership(s, minority[i], minority[j])
            for i in range(12)
            for j in range(12)
            if i != j
        )
        assert on_some_segment


@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.8, 1.0])
def test_balance_counts(ratio):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 4))
    y = np.array([1] * 15 + [0] * 85)
    _, y2 = smote_balance(X, y, SmoteParams(seed=0, target_ratio=ratio))
    assert abs(int(y2.sum()) - int((y2 == 0).sum()) * ratio) <= 1


def test_originals_preserved_in_order():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = (rng.random(30) < 0.3).astype(int)
    X2, y2 = smote_balance(X, y, SmoteParams(seed=5))
    assert np.array_equal(X2[:30], X)
    assert np.array_equal(y2[:30], y)
    assert np.all(y2[30:] == 1)  # only minority rows appended


def test_bitwise_determinism():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    y = (rng.random(60) < 0.2).astype(int)
    a = smote_balance(X, y, SmoteParams(seed=11))
    b = smote_balance(X, y, SmoteParams(seed=11))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = smote_balance(X, y, SmoteParams(seed=12))
    assert not np.array_equal(a[0], c[0])


def test_single_class_rejected():
    X = np.ones((5, 2))
    with pytest.raises(SingleClass):
        smote_balance(X, np.zeros(5, dtype=int), SmoteParams())


def test_too_few_minority_rejected():
    X = np.arange(10, dtype=float).reshape(5, 2)
    y = np.array([1, 0, 0, 0, 0])
    with pytest.raises(TooFewMinority):
        smote_balance(X, y, SmoteParams())


def test_k_clamped_with_warning():
    X = np.vstack([np.eye(3), np.full((7, 3), 9.0)])
    y = np.array([1, 1, 1] + [0] * 7)
    with pytest.warns(UserWarning, match="clamped"):
        X2, y2 = smote_balance(X, y, SmoteParams(k_neighbors=10, seed=0))
    assert int(y2.sum()) == int((y2 == 0).sum())


def test_majority_can_be_class_one():
    # minority is class 0 here; it must be the oversampled one
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 2))
    y = np.array([0] * 10 + [1] * 40)
    X2, y2 = smote_balance(X, y, SmoteParams(seed=0))
    assert int((y2 == 0).sum()) == int(y2.sum()) == 40
    assert np.all(y2[50:] == 0)


def test_non_finite_cell_is_data_error_naming_its_place():
    # each cell is checked on entry, before a neighbour search meets it
    X = np.zeros((12, 2))
    X[:4, 1] = np.nan
    X[7, 0] = np.inf
    y = np.array([1] * 4 + [0] * 8)
    with pytest.raises(DataError, match="row 0, column 1"):
        smote_balance(X, y, SmoteParams(k_neighbors=2))
    X[:4, 1] = 0.0
    with pytest.raises(DataError, match="row 7, column 0"):
        smote_balance(X, y, SmoteParams(k_neighbors=2))


def test_squares_beyond_the_float_range_are_a_data_error():
    # searched rows at 1e200 would have infinite squared distances
    X = np.array([[0.0], [1e200], [-1e200], [5.0]] + [[7.0]] * 10)
    y = np.array([1] * 4 + [0] * 10)
    with pytest.raises(DataError, match=r"within \+-.*; got 1e\+200"):
        smote_balance(X, y, SmoteParams(k_neighbors=2))


def _rule_neighbors(minority, k):
    """Reference: each row's k other rows of least (d², index), d² summed in
    column order."""
    rows = minority.tolist()
    neighbors = np.empty((len(rows), k), dtype=int)
    for i, q in enumerate(rows):
        ranked = sorted((sum((a - b) * (a - b) for a, b in zip(q, r)), j)
                        for j, r in enumerate(rows) if j != i)
        neighbors[i] = [j for _, j in ranked[:k]]
    return neighbors


def _copies(rng, values, times):
    """Each row of ``values`` repeated ``times`` times, shuffled."""
    rows = np.repeat(np.asarray(values, dtype=float), times, axis=0)
    return rows[rng.permutation(len(rows))]


def _k_and_k_plus_one_copies(rng):
    # k = 5: one value with exactly 5 copies, one with 6, plus singletons
    minority = np.vstack([_copies(rng, [[1.0, 2.0]], 5),
                          _copies(rng, [[3.0, 1.0]], 6),
                          rng.integers(5, 9, size=(9, 2))])
    return minority, 5


def _clamped_k(rng):
    # 4 minority rows clamp k = 5 to 3; the 3 copies of (0, 0) are queried
    return np.array([[0.0, 0.0], [2.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), 5


def _all_distinct(rng):
    return rng.normal(size=(30, 3)), 4


def _signed_zeros(rng):
    column = rng.choice([0.0, -0.0, 1.0], size=40)
    return np.column_stack([column, rng.integers(0, 2, size=40)]), 3


def _one_column_some_queried(rng):
    return _copies(rng, [[1.0], [2.0], [3.0], [5.0]], [8, 2, 6, 1]), 5


def _one_column_none_queried(rng):
    return _copies(rng, [[v] for v in range(1, 9)], 7), 5


def _underflowing_distances(rng):
    # every squared distance among the first five rows is 0.0, so a query
    # can return two other rows and leave self out
    return np.array([[0.0], [1e-200], [-1e-200], [2e-200], [3e-200], [5.0]]), 1


def _twenty_one_columns(rng):
    patterns = rng.integers(0, 3, size=(4, 21))
    return np.vstack([_copies(rng, patterns, [9, 6, 5, 2]),
                      rng.integers(0, 3, size=(15, 21))]), 5


CASES = [
    _k_and_k_plus_one_copies, _clamped_k, _all_distinct, _signed_zeros,
    _one_column_some_queried, _one_column_none_queried,
    _underflowing_distances, _twenty_one_columns,
]


@pytest.mark.parametrize("case", CASES)
def test_equals_kdtree_only_neighbors_bitwise(case, monkeypatch):
    rng = np.random.default_rng(21)
    minority, k = case(rng)
    n_major = 3 * len(minority)
    majority = np.full((n_major, minority.shape[1]), 7.0)
    X = np.vstack([majority, minority])
    y = np.array([0] * n_major + [1] * len(minority))
    params = SmoteParams(k_neighbors=k, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k clamped
        fast = smote_balance(X, y, params)
        monkeypatch.setattr(smote, "_minority_neighbors", _rule_neighbors)
        reference = smote_balance(X, y, params)
    for got, want in zip(fast, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _tied_codes(rng):
    # 200 rows of 8 binary codes: most k-th distances tie, and at seed 21 the
    # ties of five queries run past the k-d tree's first 4(k + 1) rows
    return rng.integers(0, 2, size=(200, 8)).astype(float), 5


def _near_ties(rng):
    # binary codes moved by up to 3e-8: squared distances that tie but for
    # their last bits, which the k-d tree sums in another order than the rule
    codes = rng.integers(0, 2, size=(120, 8))
    return codes + rng.choice([0.0, 1e-8, 2e-8, 3e-8], size=(120, 8)), 3


def _summation_order(rng):
    # in column order row 1 is at d² 1 from row 0, a tie with row 2 that
    # row 1 wins by index; summed last column first it would be 1 + 2^-52
    return np.array([[0.0, 0, 0], [1, 1e-8, 1e-8], [1, 0, 0], [5, 5, 5]]), 1


@pytest.mark.parametrize("search", ["screen", "tree"])
@pytest.mark.parametrize("case", CASES + [_tied_codes, _near_ties, _summation_order])
def test_both_searches_follow_the_rule(case, search, monkeypatch):
    minority, k = case(np.random.default_rng(21))
    k = min(k, len(minority) - 1)  # as smote_balance clamps it
    monkeypatch.setattr(smote, "_SCREEN_PAIRS", 10 ** 9 if search == "screen" else 0)
    got = smote._minority_neighbors(minority, k)
    assert np.array_equal(got, _rule_neighbors(minority, k))


@pytest.mark.parametrize("leafsize", [1, 16, 64])
def test_tree_search_ignores_the_tree_layout(leafsize, monkeypatch):
    import scipy.spatial

    minority, k = _tied_codes(np.random.default_rng(21))
    monkeypatch.setattr(smote, "_SCREEN_PAIRS", 0)
    monkeypatch.setattr(scipy.spatial, "cKDTree", functools.partial(
        scipy.spatial.cKDTree, leafsize=leafsize))
    got = smote._minority_neighbors(minority, k)
    assert np.array_equal(got, _rule_neighbors(minority, k))


@st.composite
def drawn_minorities(draw):
    """A minority table of 2-60 rows and 1-8 columns with its k: copies of
    up to 60 distinct rows of codes 0-3, some moved by 1e-8 or 2e-8, so
    that copies reach k + 1 and distances tie or nearly tie. The number of
    distinct rows is drawn from 1-8 or from 1-60, so that d <= k + 1 and
    d = 1 occur."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8) | st.integers(1, 60))
    cells = functools.partial(arrays, np.float64, (m, p), fill=st.nothing())
    codes = draw(cells(elements=st.sampled_from([0.0, 1, 2, 3])))
    moves = draw(cells(elements=st.sampled_from([0.0, 1e-8, 2e-8])))
    which = draw(arrays(np.int64, n, elements=st.integers(0, m - 1),
                        fill=st.nothing()))
    k = min(draw(st.integers(1, 6)), n - 1)  # as smote_balance clamps it
    return (codes + moves)[which], k


@given(case=drawn_minorities())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_both_searches_follow_the_rule_on_drawn_tables(case):
    """300 examples: about 4 s of tier-1 on a 2-vCPU VM."""
    minority, k = case
    want = _rule_neighbors(minority, k)
    for pairs in (10 ** 9, 0):  # the screen, then the k-d tree
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smote, "_SCREEN_PAIRS", pairs)
            assert np.array_equal(smote._minority_neighbors(minority, k), want)


def _loads_scipy(code, *argv):
    """Run ``code`` in a fresh interpreter; did it import scipy?"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    script = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1] == "True"


class TestScipyImport:
    """scipy is imported only for a k-d tree search: a search of more than
    5,792 distinct minority rows."""

    def test_cli_import(self):
        assert not _loads_scipy("import diabrisk.cli")

    def test_eda(self, synthetic_csv, tmp_path):
        code = ("import sys\nfrom diabrisk.cli import main\n"
                "assert main(['eda', '--data', sys.argv[1], "
                "'--out', sys.argv[2]]) == 0")
        assert not _loads_scipy(code, synthetic_csv, str(tmp_path / "out"))

    def test_malformed_input_exit(self, tmp_path):
        rows = synthetic_rows(30, seed=1)
        rows[4][3] = "banana"
        data = write_rows(tmp_path / "bad.csv", rows)
        code = ("import sys\nfrom diabrisk.cli import main\n"
                "assert main(['eda', '--data', sys.argv[1], "
                "'--out', sys.argv[2]]) == 2")
        assert not _loads_scipy(code, data, str(tmp_path / "out"))

    SMOTE_ONE_COLUMN = (
        "import numpy as np\n"
        "from diabrisk.smote import SmoteParams, smote_balance\n"
        "X = np.array({values}, dtype=float)[:, None]\n"
        "y = np.array([1] * 12 + [0] * 30)\n"
        "smote_balance(X, y, SmoteParams(k_neighbors=5))")

    def test_smote_on_repeated_values(self):
        values = [1] * 6 + [4] * 6 + [2] * 30
        assert not _loads_scipy(self.SMOTE_ONE_COLUMN.format(values=values))

    def test_smote_with_a_row_of_few_copies(self):
        values = [1] * 6 + [4] * 5 + [3] + [2] * 30
        code = self.SMOTE_ONE_COLUMN.format(values=values)
        assert not _loads_scipy(code)  # a small search
        assert _loads_scipy("import diabrisk.smote\n"
                            "diabrisk.smote._SCREEN_PAIRS = 0\n" + code)

    def test_train_health(self, synthetic_csv, tmp_path):
        code = ("import sys\nfrom diabrisk.cli import main\n"
                "assert main(['train', '--experiment', 'health', '--data', "
                "sys.argv[1], '--out', sys.argv[2]]) == 0")
        assert not _loads_scipy(code, synthetic_csv, str(tmp_path / "out"))
