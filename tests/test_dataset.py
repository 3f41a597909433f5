"""Dataset ingestion, counting, and empirical-entropy behavior."""

import io
import itertools
import math
import tempfile
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdscore import dataset
from bdscore.dataset import (
    ContingencyTable,
    DataFormatError,
    Dataset,
    UnknownVariableError,
    counts,
    empirical_cond_entropy,
    load_csv,
    save_csv,
)
from bdscore.scores import BDeu, Jeffreys, marginal_score


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


def test_public_table_constructor_validates(xor_and):
    zw = xor_and.subset(["Z", "W"])
    assert ContingencyTable(zw, {(0, 0): 2, (1, 1): 1}, 3).count((1, 1)) == 1
    for cells, n in [({(0,): 3}, 3),                   # wrong width
                     ({(0, 2): 3}, 3),                 # W is binary
                     ({(0, 0): 3, (1, 1): 0}, 3),      # zero count
                     ({(0, 0): 3}, 4),                 # counts do not sum to n
                     ({(0, 0): 2.5, (1, 1): 0.5}, 3),  # fractional counts
                     ({(0, 0): 2**63}, 2**63)]:        # past int64
        with pytest.raises(ValueError):
            ContingencyTable(zw, cells, n)


def test_counted_tables_skip_validation_and_decode_on_first_read(xor_and, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the validating constructor ran")

    decoded = []
    real_decode = dataset._decode

    def counted_decode(*args, **kwargs):
        decoded.append(args)
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(ContingencyTable, "__init__", refuse)
    monkeypatch.setattr(dataset, "_decode", counted_decode)

    joint = counts(xor_and, ["X", "Z", "W"])
    for prior in (Jeffreys(), BDeu(1.0)):
        marginal_score(xor_and, ["X", "Z", "W"], prior)
    assert joint.num_nonzero == 4 and decoded == []
    assert joint.marginalize(xor_and.subset(["Z", "W"])).count((1, 0)) == 3
    assert len(decoded) == 4


def test_tables_hold_codes_and_frequencies_only(xor_and):
    assert ContingencyTable.__slots__ == ("subset", "n", "codes", "frequencies")
    zw = xor_and.subset(["Z", "W"])
    built = ContingencyTable(zw, {(1, 1): 4, (0, 1): 2, (1, 0): 1}, 7)
    assert built.codes.dtype == np.int64 and built.codes.tolist() == [1, 2, 3]
    assert built.frequencies.dtype == np.int64 and built.frequencies.tolist() == [2, 1, 4]
    assert list(built.cells) == [(0, 1), (1, 0), (1, 1)]
    assert all(type(v) is int for cell, c in built.items() for v in (*cell, c))
    assert built.count((1, 1)) == 4 and built.count((0, 0)) == 0 and built.count((0, 5)) == 0
    joint = counts(xor_and, ["X", "Z", "W", "Y"])
    assert joint.codes.tolist() == sorted(dataset._encode(c, (2,) * 4) for c in joint.cells)
    assert joint == ContingencyTable(joint.subset, dict(joint.items()), joint.n)
    assert repr(built) == ("ContingencyTable(subset=VarSet(indices=(1, 2), arities=(2, 2)), "
                           "cells={(0, 1): 2, (1, 0): 1, (1, 1): 4}, n=7)")


def test_margins_and_statistics_never_decode(xor_and, monkeypatch):
    from bdscore.citest import bdeu_correction, ci_statistics

    def refuse(*args, **kwargs):
        raise AssertionError("a cell was decoded")

    monkeypatch.setattr(dataset, "_decode", refuse)
    joint = counts(xor_and, ["X", "Z", "W", "Y"])
    for keep in (["Z", "W"], ["X", "Y"], ["Y"], []):
        sub = xor_and.subset(keep)
        joint.marginalize(sub)
        joint.aligned_margin(sub)
    for prior in (Jeffreys(), BDeu(1.0)):
        ci_statistics(xor_and, ["X"], ["Y"], ["Z", "W"], prior)
    bdeu_correction(xor_and, "X", "Y", "Z", 1.0)
    empirical_cond_entropy(xor_and, "Y", ["X", "Z"])


def assert_margins_match_lookups(table, sub):
    """marginalize and aligned_margin agree with summing decoded cells."""
    pos = table.subset.positions_of(sub)
    want = Counter()
    for cell, c in table.items():
        want[tuple(cell[p] for p in pos)] += c
    margin = table.marginalize(sub)
    assert list(margin.cells) == sorted(want) and margin.cells == dict(want)
    assert margin.frequencies.dtype == np.int64
    assert margin.frequencies.tolist() == [want[c] for c in sorted(want)]
    assert all(type(c) is int for c in margin.cells.values())
    assert margin.codes.tolist() == sorted(margin.codes.tolist())
    assert table.aligned_margin(sub) == [want[tuple(cell[p] for p in pos)] for cell in table.cells]


def test_margins_match_lookups_on_random_tables():
    rng = np.random.default_rng(17)
    arities = (3, 2, 4, 2)
    for n in (1, 9, 120):
        ds = Dataset.from_columns([(f"V{j}", a, rng.integers(0, a, n)) for j, a in enumerate(arities)])
        for k in range(1, 5):
            for subset in itertools.combinations(range(4), k):
                table = counts(ds, subset)
                for r in range(k + 1):
                    for keep in itertools.combinations(subset, r):
                        assert_margins_match_lookups(table, ds.subset(keep))


def test_wide_subsets_keep_python_int_codes_through_margins():
    rows = [[(r * 7 + j) % 3 % 2 for j in range(65)] for r in range(6)]
    ds = Dataset([(f"V{j}", 2) for j in range(65)], rows)
    wide = counts(ds, range(65))
    assert wide.codes.dtype == object
    assert wide.codes.tolist() == sorted(int("".join(map(str, row)), 2) for row in set(map(tuple, rows)))
    for keep in (range(64), range(1, 65), range(3), (0, 64), ()):
        sub = ds.subset(list(keep))
        assert_margins_match_lookups(wide, sub)
        margin = wide.marginalize(sub)
        assert margin == counts(ds, sub)
        assert margin.codes.dtype == (object if len(sub) > 63 else np.int64)
    assert empirical_cond_entropy(ds, 0, range(1, 65)) == 0.0


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


def test_index_of_takes_names_and_integral_indices_only(xor_and):
    # a float or a bool is no column index, even when int() would make one
    for var in (1.7, 1.0, np.float64(1.0), True, np.bool_(True)):
        with pytest.raises(UnknownVariableError, match="neither a name nor an integer index"):
            xor_and.index_of(var)
        with pytest.raises(UnknownVariableError):
            xor_and.subset([var])
    for var in (1, np.int64(1), np.uint8(1), "Z"):
        assert xor_and.index_of(var) == 1
        assert xor_and.subset([var]).indices == (1,)
    assert xor_and.subset(np.int64(1)).indices == (1,)
    with pytest.raises(UnknownVariableError, match="out of range"):
        xor_and.index_of(np.int64(9))


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


def test_data_is_int64_read_only_and_column_major():
    rows = [[0, 2, 1], [1, 0, 0], [1, 1, 1], [0, 2, 0]]
    built = Dataset([("A", 2), ("B", 3), ("C", 2)], rows)
    stacked = Dataset.from_columns([("A", 2, [r[0] for r in rows]),
                                    ("B", 3, np.array([r[1] for r in rows], dtype=np.int8)),
                                    ("C", 2, tuple(r[2] for r in rows))])
    loaded = load_csv(io.StringIO(built.to_csv_text()))
    for ds in (built, stacked, loaded):
        assert ds == built
        assert ds.data.dtype == np.int64 and ds.data.shape == (4, 3)
        assert ds.data.tolist() == rows
        assert not ds.data.flags.writeable
        assert ds.data.flags.f_contiguous
    source = np.array(rows)
    Dataset([("A", 2), ("B", 3), ("C", 2)], source)
    source[0, 0] = 1  # the dataset owns a copy
    assert built.data[0, 0] == 0


# ------------------------------------------------------ oversized values


@pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999",
                                   "9223372036854775808", "-1"])
def test_load_value_past_int64_is_out_of_range(value):
    text = f"A:2,B:2\n0,1\n{value},0\n"
    message = f"data row 2, column 'A': value {value} outside 0..1"
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        load_csv(io.StringIO(text))
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        Dataset([("A", 2), ("B", 2)], [[0, 1], [int(value), 0]])
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        Dataset.from_columns([("A", 2, [0, int(value)]), ("B", 2, [1, 0])])


@pytest.mark.parametrize("value,shown", [(0.9, "0.9"), (1.7, "1.7"), (-0.5, "-0.5"),
                                         (float("nan"), "nan"), (float("inf"), "inf"),
                                         (float("-inf"), "-inf")])
def test_non_integral_values_are_input_errors(value, shown):
    # such values were once truncated toward zero (0.9 -> 0, 1.7 -> 1)
    message = f"^data row 2, column 'B': value {shown} is not an integer$"
    with pytest.raises(DataFormatError, match=message):
        Dataset([("A", 2), ("B", 2)], [[0, 1], [1, value]])
    with pytest.raises(DataFormatError, match=message):
        Dataset([("A", 2), ("B", 2)], np.array([[0, 1], [1, value]]))
    with pytest.raises(DataFormatError, match=message):
        Dataset.from_columns([("A", 2, [0, 1]), ("B", 2, [1, value])])
    with pytest.raises(DataFormatError, match=message):
        Dataset.from_columns([("A", 2, np.array([0, 1])), ("B", 2, np.array([1.0, value]))])


def test_first_bad_value_wins_whatever_is_wrong_with_it():
    with pytest.raises(DataFormatError, match="^data row 2, column 'A': value 2.0 outside 0..1$"):
        Dataset([("A", 2), ("B", 2)], [[0, 0.5], [2.0, 0], [0.5, 0]])
    with pytest.raises(DataFormatError, match="^data row 1, column 'A': value 0.5 is not an integer$"):
        Dataset([("A", 2), ("B", 2)], [[0.5, 5], [2, 0]])


def test_integral_values_of_any_numeric_dtype_are_kept():
    want = [[1, 0], [0, 2]]
    for rows in ([[1.0, 0.0], [0.0, 2.0]], [[True, 0], [False, 2]],
                 np.array(want, dtype=np.int8), np.array(want, dtype=np.uint16),
                 np.array(want, dtype=np.float32), [[np.int8(1), 0.0], [0, np.float64(2)]]):
        ds = Dataset([("A", 2), ("B", 3)], rows)
        assert ds.data.dtype == np.int64 and ds.data.tolist() == want
    ds = Dataset.from_columns([("A", 2, np.array([True, False])), ("B", 3, np.array([0.0, 2.0]))])
    assert ds.data.tolist() == want


def test_integer_arrays_are_not_checked_value_by_value(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("values were checked one by one")

    monkeypatch.setattr(dataset, "_whole_table", refuse)
    rows = np.array([[1, 0], [0, 2]])
    for table in (rows, rows.astype(np.int8), rows.astype(np.uint32), rows.tolist()):
        Dataset([("A", 2), ("B", 3)], table)
    Dataset.from_columns([("A", 2, rows[:, 0].astype(np.int16)), ("B", 3, [0, 2])])
    with pytest.raises(DataFormatError, match="row 2, column 'B': value 3"):
        Dataset([("A", 2), ("B", 3)], np.array([[1, 0], [0, 3]]))


def test_first_bad_column_wins_over_a_later_oversized_value():
    # values are checked column by column, oversized or not
    with pytest.raises(DataFormatError, match="^data row 3, column 'A': value 2 outside 0..1$"):
        Dataset([("A", 2), ("B", 2)], [[0, 10**30], [1, 0], [2, 0]])


# ------------------------------------------- plain and line-by-line reading


def reference_load(text):
    """The CSV format read line by line: (variables, rows), or an error message."""
    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        return "empty input: no header line found"
    header, *body = content
    variables = []
    for token in header.split(","):
        name, sep, arity_text = token.strip().rpartition(":")
        if not sep or not name:
            return f"header token {token!r} is not of the form name:arity"
        try:
            arity = int(arity_text)
        except ValueError:
            return f"header token {token!r}: arity is not an integer"
        if arity < 2:
            return f"header token {token!r}: declared arity must be at least 2"
        variables.append((name, arity))
    if not body:
        return "dataset has no data rows"
    rows = []
    for r, line in enumerate(body, start=1):
        fields = line.split(",")
        if len(fields) != len(variables):
            return f"data row {r}: expected {len(variables)} values, got {len(fields)}"
        try:
            rows.append([int(f) for f in fields])
        except ValueError:
            return f"data row {r}: non-integer value in {line!r}"
    names = tuple(name for name, _ in variables)
    if len(set(names)) != len(names):
        return f"duplicate variable names in {names}"
    for j, (name, arity) in enumerate(variables):
        for r, row in enumerate(rows, start=1):
            if not 0 <= row[j] < arity:
                return f"data row {r}, column {name!r}: value {row[j]} outside 0..{arity - 1}"
            if row[j] >= 2**63:
                return f"data row {r}, column {name!r}: value {row[j]} does not fit in a 64-bit integer"
    return variables, rows


def assert_loads_like_reference(text):
    """load_csv agrees with the reference for path, text and byte sources."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        cases = [(path, path.read_text(encoding="utf-8")),
                 (io.StringIO(text, newline=""), text),
                 (io.BytesIO(text.encode("utf-8")), text)]
        for source, seen in cases:
            want = reference_load(seen)
            if isinstance(want, str):
                with pytest.raises(DataFormatError) as err:
                    load_csv(source)
                assert str(err.value) == want, (text, source)
            else:
                ds = load_csv(source)
                assert ds.variables == tuple(want[0]), (text, source)
                assert ds.data.dtype == np.int64 and ds.data.tolist() == want[1], (text, source)


PINNED_TEXTS = [
    "A:2,B:3\n0,2\n1,0\n",                 # plain
    "A:2,B:3\n0,2\n1,0",                    # no final newline
    "A:2,B:3\n\n0,2\n\n\n1,0\n\n",           # blank lines
    "A:2\n0\n",                             # one row, one column
    "A:12,B:11\n11,10\n007,0010\n0,0\n",     # multi-digit values and leading zeros
    "A:2,B:3\n",                             # header only
    "A:2,B:3",                               # header only, no newline
    "A:2,B:3\n\n\n",                         # header and blank lines
    "",                                      # empty
    "# made by hand\nA:2,B:3\n0,2\n# middle\n1,0\n#end",  # comments anywhere
    "\nA:2,B:3\n0,2\n",                      # blank first line
    "A:2,B:3\r\n0,2\r\n1,0\r\n",              # CRLF
    "A:2,B:3\r0,2\r1,0\r",                    # bare CR
    "A:2,B:3\n0,2\r\n1,0\n",                  # one CRLF row
    "A:2,B:3\n0, 2\n1,0\n",                   # a space
    "A:2,B:3\n+0,2\n1,0\n",                   # a plus sign
    "A:2,B:3\n0,-1\n",                        # a minus sign
    "A:2,B:3\n0,2\n1\n",                      # ragged row, too short
    "A:2,B:3\n0,2,1\n",                       # ragged row, too long
    "A:2,B:3\n0,2,\n",                        # trailing comma
    "A:2,B:3\n0,,2\n",                        # empty field
    "A:2,B:3\n,1\n0,1\n",                     # first row starts with a comma
    "A:2,B:3\n0,1\n,1\n",                     # later row starts with a comma
    "A:2,B:2\n0\n1,0,1\n",                    # short row, then long row: same total
    "A:12,B:12\n10\n11,0,11\n",               # the same with multi-digit values
    "A:2,B:3\n,\n",                           # empty fields only
    "A:2,B:3\n0,x\n",                         # non-integer
    "A:2,B:3\n0,1.0\n",                       # a decimal point
    "A:2,B:3\n0,\u0662\n",                    # an Arabic-Indic digit two
    "A:2,B:3\n0,\uff11\n",                    # a fullwidth digit one
    "A:2,B:3\n2,0\n",                         # out of range
    "A:2,B:3\n0,0\n0,3\n5,0\n",               # out of range in two columns
    "A:2,B:3\n99999999999999999999,0\n",      # past int64
    "A:2,B:3\n9223372036854775807,0\n",       # the int64 maximum
    "A:10000000000000000000\n9999999999999999999\n",  # in range, past int64
    "A:10000000000000000000\n9223372036854775807\n",  # in range, the int64 maximum
    "A:2,B:3\n000000000000000001,2\n",        # 18 digits, zero-padded
    "A:2,B:3\n0000000000000000001,2\n",       # 19 digits, zero-padded
    "A:1000000000000000000\n999999999999999999\n0\n",  # the largest 18-digit value
    "A:12,B:11\n3,10\n11,10",                 # multi-digit last field, no final newline
    "A:12,B:11\n11,10\n\n\n10,07\n\n",        # blank lines between multi-digit rows
    "A:2,A:3\n0,0\n",                         # duplicate names
    "A:1,B:3\n0,0\n",                         # arity below 2
    "A,B:3\n0,0\n",                           # header token without arity
    "A:x,B:3\n0,0\n",                         # non-integer arity
    " A:2 , B:3 \n0,2\n",                     # spaces in the header
    "\u00c4:2,\u00df:3\n1,2\n",                # non-ASCII names, plain body
    "\ufeffA:2\n1\n",                         # byte-order mark
]


@pytest.mark.parametrize("text", PINNED_TEXTS)
def test_load_matches_line_reference_on_pinned_texts(text):
    assert_loads_like_reference(text)


@pytest.mark.parametrize("text,plain", [
    ("A:2,B:3\n0,2\n1,0\n", True),
    ("A:12,B:11\n11,10\n\n007,0010", True),
    ("\u00c4:2\n1\n", True),
    ("A:2,B:3\n2,0\n", True),       # read in one pass, then rejected by the range check
    ("A:2,B:3\n", False),
    ("A:2,B:3\n\n", False),
    ("# c\nA:2\n1\n", False),
    ("\nA:2\n1\n", False),
    ("A:2\r\n1\n", True),
    ("A:2\n1\r\n", True),
    ("A:2,B:3\r\n0,2\r\n\r\n1,0", True),
    ("A:2\r\r\n1\n", False),   # a carriage return not right before a newline
    ("A:2\n1\r\r\n", False),
    ("A:2\n1\r0\n", False),
    ("\r\nA:2\n1\n", False),
    ("A:2\n 1\n", False),
    ("A:2\n+1\n", False),
    ("A:2\n\u0661\n", False),
    ("A:2,B:3\n0\n", False),
    ("A:2,B:3\n0,1,\n", False),
    ("A:2,B:2\n0\n1,0,1\n", False),  # the right field count, but ragged rows
    ("A:12,B:12\n10\n11,0,11\n", False),
    ("A:2,B:3\n,1\n0,1\n", False),
    ("A:2,B:3\n0,1\n,1\n", False),
    ("A:2,B:3\n000000000000000001,2\n", True),
    ("A:2,B:3\n0000000000000000001,2\n", False),  # 19 digits: the line reader's value
    ("A:1000000000000000000\n999999999999999999\n", True),
    ("A:12,B:11\n3,10\n11,10", True),
    ("A:12,B:11\n11,10\n\n\n10,07\n\n", True),
    ("A:2\n99999999999999999999\n", False),
    ("A,B\n0,1\n", False),
])
def test_plain_bodies_take_the_one_pass_reader(text, plain):
    try:
        got = dataset._load_plain(text)
    except DataFormatError:
        got = "rejected"
    assert (got is not None) == plain


_FIELDS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 3).map(lambda v: "0" + str(v)),
    st.sampled_from(["", " 1", "+1", "-1", "x", "1.5", "\u0661", "99999999999999999999"]),
)

_PADDING = st.sampled_from([0, 0, 0, 2, 18, 19, 20])


@st.composite
def csv_texts(draw):
    plain = draw(st.booleans())
    # plain rows reach 18-digit values, zero-padded to as many as 20 digits
    arity = st.one_of(st.integers(2, 12), st.integers(2, 10**18)) if plain else st.integers(2, 12)
    arities = draw(st.lists(arity, min_size=1, max_size=3))
    lines = [",".join(f"V{j}:{a}" for j, a in enumerate(arities))]
    for _ in range(draw(st.integers(0, 6))):
        if plain:
            lines.append(",".join(str(draw(st.integers(0, a - 1))).zfill(draw(_PADDING))
                                  for a in arities))
            continue
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append("# note")
        elif kind == "blank":
            lines.append("")
        else:
            width = len(arities) + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            lines.append(",".join(draw(_FIELDS) for _ in range(max(width, 1))))
    newline = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


@settings(max_examples=150, deadline=None)
@given(csv_texts())
def test_property_load_matches_line_reference(text):
    assert_loads_like_reference(text)


# ---------------------------------------------------------- counting paths


def assert_counts_match_rows(ds, subset):
    table = counts(ds, subset)
    idx = ds.subset(subset).indices
    want = Counter(tuple(row[i] for i in idx) for row in ds.data.tolist())
    cells = sorted(want)
    assert list(table.cells) == cells
    assert list(table.cells.values()) == [want[c] for c in cells]
    assert table.frequencies.dtype == np.int64
    assert table.frequencies.tolist() == [want[c] for c in cells]
    assert all(type(c) is int for c in table.cells.values())
    assert table.n == ds.n and table.num_nonzero == len(cells)


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("past_cutoff", [0, 1])
def test_counts_match_counter_on_both_sides_of_the_dense_cutoff(n, past_cutoff):
    # V0 alone has exactly the most cells still counted densely, or one more
    cutoff = dataset._DENSE_CELLS_PER_ROW * n
    arities = (cutoff + past_cutoff, 2, 3)
    rng = np.random.default_rng(n)
    values = [rng.integers(0, a, n).tolist() for a in arities]
    values[0][0] = arities[0] - 1  # the highest code occurs
    ds = Dataset.from_columns([(f"V{j}", a, v) for j, (a, v) in enumerate(zip(arities, values))])
    for k in range(len(arities) + 1):
        for subset in itertools.combinations(range(len(arities)), k):
            assert_counts_match_rows(ds, subset)


def test_counts_match_counter_on_the_wide_subset():
    rows = [[(r * 7 + j) % 3 % 2 for j in range(65)] for r in range(6)]
    ds = Dataset([(f"V{j}", 2) for j in range(65)], rows)
    assert_counts_match_rows(ds, range(65))
    assert_counts_match_rows(ds, range(40))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4).flatmap(
    lambda arities: st.tuples(st.just(arities), st.lists(
        st.tuples(*(st.integers(0, a - 1) for a in arities)), min_size=1, max_size=30))))
def test_property_counts_match_counter(case):
    arities, rows = case
    ds = Dataset([(f"V{j}", a) for j, a in enumerate(arities)], rows)
    for k in range(len(arities) + 1):
        for subset in itertools.combinations(range(len(arities)), k):
            assert_counts_match_rows(ds, subset)
