"""Dataset ingestion, counting, and empirical-entropy behavior."""

import io
import itertools
import math

import mpmath
import numpy as np
import pytest

from bdscore.dataset import (
    DataFormatError,
    Dataset,
    UnknownVariableError,
    counts,
    empirical_cond_entropy,
    load_csv,
    save_csv,
)
from bdscore.scores import Jeffreys, marginal_score


def test_fixture_shapes(xor_and, constant_pair):
    assert xor_and.names == ("X", "Z", "W", "Y")
    assert xor_and.arities == (2, 2, 2, 2)
    assert xor_and.n == 12
    assert constant_pair.names == ("X", "Y")
    assert constant_pair.n == 5


def test_counts_blocks(xor_and):
    table = counts(xor_and, ["Z", "W"])
    assert table.gamma == 4
    for cell in itertools.product(range(2), range(2)):
        assert table.count(cell) == 3


def test_counts_empty_subset(xor_and):
    table = counts(xor_and, [])
    assert table.gamma == 1
    assert dict(table.items()) == {(): 12}


def test_counts_constant_pair(constant_pair):
    table = counts(constant_pair, ["X", "Y"])
    assert table.count((0, 0)) == 5
    assert table.count((0, 1)) == 0
    assert table.count((1, 1)) == 0
    assert table.num_nonzero == 1


def test_counts_marginalization(xor_and):
    # summing the fine table over dropped columns reproduces the coarse one
    fine = counts(xor_and, ["X", "Z", "W"])
    coarse = fine.marginalize(xor_and.subset(["Z", "W"]))
    direct = counts(xor_and, ["Z", "W"])
    assert dict(coarse.items()) == dict(direct.items())


def test_counts_marginalization_random():
    rng = np.random.default_rng(11)
    cols = [("A", 3, rng.integers(0, 3, 60).tolist()),
            ("B", 2, rng.integers(0, 2, 60).tolist()),
            ("C", 4, rng.integers(0, 4, 60).tolist())]
    ds = Dataset.from_columns(cols)
    fine = counts(ds, ["A", "B", "C"])
    for keep in (["A"], ["B"], ["A", "C"], []):
        got = dict(fine.marginalize(ds.subset(keep)).items())
        want = dict(counts(ds, keep).items())
        assert got == want, keep


def test_counts_wide_subset_does_not_wrap():
    # 65 binary columns: the joint code exceeds int64, which once folded
    # the two distinct rows into one cell.
    with mpmath.workdps(50):
        states = mpmath.mpf(2) ** 65
        oracle = float(2 * (mpmath.loggamma(1.5) - mpmath.loggamma(0.5))
                       - (mpmath.loggamma(2 + states / 2) - mpmath.loggamma(states / 2)))
    scores = []
    for differing in (0, 1):
        row = [0] * 65
        row[differing] = 1
        ds = Dataset([(f"V{i}", 2) for i in range(65)], [row, [0] * 65])
        table = counts(ds, range(65))
        assert sorted(table.items()) == [((0,) * 65, 1), (tuple(row), 1)]
        assert list(table.cells) == sorted(table.cells)
        scores.append(marginal_score(ds, range(65), Jeffreys()))
    assert scores[0] == scores[1] == pytest.approx(oracle, rel=1e-14)


def test_entropy_deterministic_child(xor_and):
    assert empirical_cond_entropy(xor_and, "X", ["Z", "W"]) == 0.0
    assert empirical_cond_entropy(xor_and, "X", ["Y", "Z", "W"]) == 0.0


def test_entropy_unconditional_base2(xor_and):
    # six zeros and six ones
    assert math.isclose(empirical_cond_entropy(xor_and, "X", [], base=2), 1.0, abs_tol=1e-12)


def test_entropy_given_copy():
    ds = Dataset.from_columns([("A", 2, [0, 1, 1, 0]), ("B", 2, [0, 1, 1, 0])])
    assert empirical_cond_entropy(ds, "A", ["B"]) == 0.0


def test_entropy_bounds_and_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        ds = Dataset.from_columns([
            ("A", 3, rng.integers(0, 3, n).tolist()),
            ("B", 2, rng.integers(0, 2, n).tolist()),
            ("C", 2, rng.integers(0, 2, n).tolist()),
        ])
        h0 = empirical_cond_entropy(ds, "A", [])
        h1 = empirical_cond_entropy(ds, "A", ["B"])
        h2 = empirical_cond_entropy(ds, "A", ["B", "C"])
        assert 0.0 <= h2 <= h1 + 1e-12 <= h0 + 2e-12
        assert h0 <= math.log(3) + 1e-12


def test_entropy_row_permutation_invariance():
    rng = np.random.default_rng(5)
    n = 30
    a = rng.integers(0, 3, n).tolist()
    b = rng.integers(0, 2, n).tolist()
    ds = Dataset.from_columns([("A", 3, a), ("B", 2, b)])
    perm = rng.permutation(n)
    ds2 = Dataset.from_columns([("A", 3, [a[i] for i in perm]), ("B", 2, [b[i] for i in perm])])
    assert empirical_cond_entropy(ds, "A", ["B"]) == pytest.approx(
        empirical_cond_entropy(ds2, "A", ["B"]), abs=1e-12)


def test_entropy_self_conditioning_rejected(xor_and):
    with pytest.raises(ValueError):
        empirical_cond_entropy(xor_and, "X", ["X", "Z"])


def test_load_minimal():
    ds = load_csv(io.StringIO("V:2\n0\n"))
    assert ds.n == 1
    assert ds.names == ("V",)


def test_load_comments_ignored():
    ds = load_csv(io.StringIO("# generated\nV:2\n# mid comment\n0\n1\n"))
    assert ds.n == 2


def test_load_value_out_of_range():
    with pytest.raises(DataFormatError, match=r"row 2.*'V'.*2"):
        load_csv(io.StringIO("V:2\n0\n2\n"))


def test_load_bad_arity():
    with pytest.raises(DataFormatError, match="arity"):
        load_csv(io.StringIO("V:1\n0\n"))


def test_load_no_rows():
    with pytest.raises(DataFormatError, match="no data rows"):
        load_csv(io.StringIO("V:2\n"))


def test_load_bad_header_token():
    with pytest.raises(DataFormatError, match="name:arity"):
        load_csv(io.StringIO("V\n0\n"))


def test_load_ragged_row():
    with pytest.raises(DataFormatError, match="row 1"):
        load_csv(io.StringIO("A:2,B:2\n0\n"))


def test_duplicate_names_rejected():
    with pytest.raises(DataFormatError, match="duplicate"):
        Dataset.from_columns([("A", 2, [0]), ("A", 2, [0])])


def test_round_trip(tmp_path, xor_and):
    path = tmp_path / "copy.csv"
    save_csv(xor_and, path)
    again = load_csv(path)
    assert again == xor_and
    assert path.read_text() == xor_and.to_csv_text()


def test_subset_forms(xor_and):
    assert xor_and.subset("X").indices == (0,)
    assert xor_and.subset(2).indices == (2,)
    assert xor_and.subset(["W", "Z"]).indices == (1, 2)
    assert xor_and.subset(()).indices == ()
    passthrough = xor_and.subset(xor_and.subset(["X", "Y"]))
    assert passthrough.indices == (0, 3)


def test_subset_unknown(xor_and):
    with pytest.raises(UnknownVariableError):
        xor_and.subset("Q")
    with pytest.raises(UnknownVariableError):
        xor_and.subset(9)


def test_varset_union_and_positions(xor_and):
    zw = xor_and.subset(["Z", "W"])
    x = xor_and.subset("X")
    joint = zw.union(x)
    assert joint.indices == (0, 1, 2)
    assert joint.joint_arity == 8
    assert joint.positions_of(x) == (0,)


def test_data_view_is_read_only(xor_and):
    with pytest.raises(ValueError):
        xor_and.data[0, 0] = 1
