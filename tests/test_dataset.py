"""Dataset ingestion, counting, and empirical-entropy behavior."""

import io
import itertools
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdscore import dataset
from bdscore.citest import bdeu_correction, ci_statistics
from bdscore.cli import main
from bdscore.dataset import (
    ContingencyTable,
    DataFormatError,
    Dataset,
    UnknownVariableError,
    VarSet,
    _digits,
    _project,
    counts,
    empirical_cond_entropy,
    load_csv,
    save_csv,
)
from bdscore.regularity import audit
from bdscore.scores import (BDeu, Jeffreys, conditional_score_local, conditional_score_ratio,
                            marginal_score)
from bdscore.search import _marginals, learn_exact
from oracles import margin


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
        assert table.cells.get(cell, 0) == 3


def test_counts_empty_subset(xor_and):
    table = counts(xor_and, [])
    assert table.gamma == 1
    assert table.cells == {(): 12}


def test_counts_constant_pair(constant_pair):
    table = counts(constant_pair, ["X", "Y"])
    assert table.cells.get((0, 0), 0) == 5
    assert table.cells.get((0, 1), 0) == 0
    assert table.cells.get((1, 1), 0) == 0
    assert table.num_nonzero == 1


def test_counts_marginalization(xor_and):
    # summing the fine table over dropped columns reproduces the coarse one
    fine = counts(xor_and, ["X", "Z", "W"])
    coarse, _ = margin(fine, xor_and.subset(["Z", "W"]))
    direct = counts(xor_and, ["Z", "W"])
    assert coarse.cells == direct.cells


def test_counts_marginalization_random():
    rng = np.random.default_rng(11)
    cols = [("A", 3, rng.integers(0, 3, 60).tolist()),
            ("B", 2, rng.integers(0, 2, 60).tolist()),
            ("C", 4, rng.integers(0, 4, 60).tolist())]
    ds = Dataset.from_columns(cols)
    fine = counts(ds, ["A", "B", "C"])
    for keep in (["A"], ["B"], ["A", "C"], []):
        got = margin(fine, ds.subset(keep))[0].cells
        want = counts(ds, keep).cells
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
        assert sorted(table.cells.items()) == [((0,) * 65, 1), (tuple(row), 1)]
        assert list(table.cells) == sorted(table.cells)
        scores.append(marginal_score(ds, range(65), Jeffreys()))
    assert scores[0] == scores[1] == pytest.approx(oracle, rel=1e-14)


def test_counted_tables_decode_on_first_read(xor_and, monkeypatch):
    decoded = []
    real_decode = dataset._decode

    def counted_decode(*args, **kwargs):
        decoded.append(args)
        return real_decode(*args, **kwargs)

    monkeypatch.setattr(dataset, "_decode", counted_decode)

    joint = counts(xor_and, ["X", "Z", "W"])
    for prior in (Jeffreys(), BDeu(1.0)):
        marginal_score(xor_and, ["X", "Z", "W"], prior)
    assert joint.num_nonzero == 4 and decoded == []
    assert margin(joint, xor_and.subset(["Z", "W"]))[0].cells.get((1, 0), 0) == 3
    assert len(decoded) == 4


def test_tables_hold_codes_and_frequencies_only(xor_and):
    assert ContingencyTable.__slots__ == ("subset", "n", "codes", "frequencies")
    rows = [[0, 0, 1]] * 2 + [[0, 1, 0]] + [[1, 1, 1]] * 4
    built = counts(Dataset([("A", 2), ("Z", 2), ("W", 2)], rows), ["Z", "W"])
    assert built.codes.dtype == np.int64 and built.codes.tolist() == [1, 2, 3]
    assert built.frequencies.dtype == np.int64 and built.frequencies.tolist() == [2, 1, 4]
    assert list(built.cells) == [(0, 1), (1, 0), (1, 1)]
    assert all(type(v) is int for cell, c in built.cells.items() for v in (*cell, c))
    assert built.cells.get((1, 1), 0) == 4 and built.cells.get((0, 0), 0) == 0
    assert built.cells.get((0, 5), 0) == 0
    joint = counts(xor_and, ["X", "Z", "W", "Y"])
    assert joint.codes.tolist() == sorted(int("".join(map(str, c)), 2) for c in joint.cells)
    assert joint == counts(xor_and, ["X", "Z", "W", "Y"]) and joint != built
    assert repr(built) == ("ContingencyTable(subset=VarSet(indices=(1, 2), arities=(2, 2)), "
                           "cells={(0, 1): 2, (1, 0): 1, (1, 1): 4}, n=7)")


def test_margins_and_statistics_never_decode(xor_and, data_dir, monkeypatch, capsys):
    """Every query path, from projections through audit, search, the
    conditional forms and the CI statistics to the CLI, runs on codes
    alone: decoding a cell fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was decoded")

    monkeypatch.setattr(dataset, "_decode", refuse)
    joint = counts(xor_and, ["X", "Z", "W", "Y"])
    _project(_digits(joint, 4), joint.frequencies, xor_and.arities, [0b0110, 0b1001, 0b1000, 0],
             aligned=True)
    for criterion in ("bd", "aic", "bic"):
        audit(xor_and, "X", BDeu(1.0), ["Z", "W", "Y"], criterion=criterion)
    for prior in (Jeffreys(), BDeu(1.0)):
        learn_exact(xor_and, prior)
        _marginals(xor_and, prior, 2)
        conditional_score_ratio(xor_and, "X", ["Z", "W"], prior)
        for form in ("coupled", "independent"):
            conditional_score_local(xor_and, "X", ["Z", "W"], prior, parent_weight=form)
        ci_statistics(xor_and, ["X"], ["Y"], ["Z", "W"], prior)
    bdeu_correction(xor_and, "X", "Y", "Z", 1.0)
    empirical_cond_entropy(xor_and, "Y", ["X", "Z"])
    path = str(data_dir / "xor_and_12.csv")
    for argv in (["score", path, "X|Z,W"], ["score", path, "X,Y", "--prior", "bdeu"],
                 ["learn", path], ["learn", path, "--prior", "bdeu"]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


def assert_margins_match_lookups(table, sub):
    """A margin and each cell's count on it agree with summing decoded cells."""
    pos = [table.subset.indices.index(i) for i in sub.indices]
    want = Counter()
    for cell, c in table.cells.items():
        want[tuple(cell[p] for p in pos)] += c
    projected, aligned = margin(table, sub)
    assert list(projected.cells) == sorted(want) and projected.cells == dict(want)
    assert projected.frequencies.dtype == np.int64
    assert projected.frequencies.tolist() == [want[c] for c in sorted(want)]
    assert all(type(c) is int for c in projected.cells.values())
    assert projected.codes.tolist() == sorted(projected.codes.tolist())
    assert aligned == [want[tuple(cell[p] for p in pos)] for cell in table.cells]


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
        projected, _ = margin(wide, sub)
        assert projected == counts(ds, sub)
        assert projected.codes.dtype == (object if len(sub) > 63 else np.int64)
    assert empirical_cond_entropy(ds, 0, range(1, 65)) == 0.0


def test_identity_projection_of_a_joint_arity_of_2_to_the_63():
    """63 binary columns: the codes fit in int64, the joint arity 2**63
    does not, and the all-ones row takes the largest int64 code."""
    rows = [[(r * 7 + j) % 3 % 2 for j in range(63)] for r in range(6)] + [[1] * 63]
    ds = Dataset([(f"V{j}", 2) for j in range(63)], rows)
    table = counts(ds, range(63))
    assert table.codes.dtype == np.int64 and table.codes[-1] == 2**63 - 1
    projected, aligned = margin(table, ds.subset(range(63)))
    assert projected == table
    assert projected.codes.tolist() == table.codes.tolist() and projected.codes.dtype == np.int64
    assert aligned == table.frequencies.tolist()


def test_projected_margins_that_fit_int64_keep_int64_codes():
    """Nine margins of joint arity 2**60 sum past 2**63, so they are tallied
    in two chunks and keep int64 codes, with the tallies of nine one-margin
    calls; a margin of joint arity 2**80 among them still gets Python ints."""
    rng = np.random.default_rng(60)
    ds = Dataset.from_columns([(f"V{j}", 2**20, rng.integers(0, 2**20, 40)) for j in range(12)])
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(12), 3)][:9]
    alone = [_project(ds.data, None, ds.arities, [mask])[:2] for mask in masks]
    for extra, dtype in (([], np.int64), ([0b1111], object)):
        codes, sums, bounds, _ = _project(ds.data, None, ds.arities, masks + extra)
        assert codes.dtype == dtype
        b = bounds.tolist()
        for k, (want_codes, want_sums) in enumerate(alone):
            assert want_codes.dtype == np.int64
            assert codes[b[k]:b[k + 1]].tolist() == want_codes.tolist()
            assert sums[b[k]:b[k + 1]].tolist() == want_sums.tolist()
        if extra:
            want = counts(ds, range(4))
            assert codes[b[9]:].tolist() == want.codes.tolist() and want.codes.dtype == object


# Column arities whose tables hold int64 codes, Python-int codes, and a
# joint arity of exactly 2**63 whose largest code is the largest int64
_DROP_CASES = {"int64": (3, 2, 4, 2), "python ints": (2**31 - 1,) * 3 + (2,),
               "2**63": (2**21,) * 3}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DROP_CASES)), st.data())
def test_property_drop_columns_with_shared_place_values(case, data):
    """Dropping column i from tables that all hold columns i..N-1, with the
    place values shared as Python ints, gives what the per-table call with
    the same values gives, and each margin equals ``margin`` of a fresh
    count, cell by cell."""
    arities = _DROP_CASES[case]
    n_vars = len(arities)
    value = [st.one_of(st.sampled_from([0, a - 1]), st.integers(0, a - 1)) for a in arities]
    rows = data.draw(st.lists(st.tuples(*value), min_size=1, max_size=12))
    ds = Dataset([(f"V{j}", a) for j, a in enumerate(arities)], rows)
    i = data.draw(st.integers(0, n_vars - 1))
    tail = (1 << n_vars) - (1 << i)
    masks = [tail | low for low in data.draw(
        st.lists(st.integers(0, (1 << i) - 1), min_size=1, max_size=4, unique=True))]
    codes, frequencies, bounds, _ = _project(ds.data, None, ds.arities, masks)
    high, low = math.prod(arities[i:]), math.prod(arities[i + 1:])
    shared = dataset._drop_columns(codes, frequencies, bounds, high, low, aligned=True)
    per_table = dataset._drop_columns(codes, frequencies, bounds, [high] * len(masks),
                                      [low] * len(masks), aligned=True)
    assert shared[0].dtype == per_table[0].dtype
    for got, want in zip(shared, per_table):
        assert got.tolist() == want.tolist()
    out_codes, sums, out_bounds, aligned = shared
    b, ob = bounds.tolist(), out_bounds.tolist()
    for k, mask in enumerate(masks):
        columns = [j for j in range(n_vars) if mask >> j & 1]
        want, want_aligned = margin(counts(ds, columns), ds.subset([j for j in columns if j != i]))
        assert out_codes[ob[k]:ob[k + 1]].tolist() == want.codes.tolist()
        assert sums[ob[k]:ob[k + 1]].tolist() == want.frequencies.tolist()
        assert aligned[b[k]:b[k + 1]].tolist() == want_aligned


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
        # a lone spec is one variable, not a collection
        with pytest.raises(UnknownVariableError, match="neither a name nor an integer index"):
            xor_and.subset(var)
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
    assert all(i in joint for i in x) and 3 not in joint


@pytest.mark.parametrize("indices, arities, message", [
    ((0,), (2, 3), "indices and arities must have equal length"),
    ((-1,), (2,), r"negative column index in \(-1,\)"),
    ((1, 1), (2, 2), r"indices must be strictly increasing, got \(1, 1\)"),
    ((0,), (1,), r"every arity must be at least 2, got \(1,\)"),
])
def test_varset_refuses_a_bad_schema(indices, arities, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        VarSet(indices, arities)


def test_varset_union_refuses_conflicting_arities():
    with pytest.raises(ValueError, match="^conflicting arities for column 0$"):
        VarSet((0,), (2,)).union(VarSet((0, 1), (3, 2)))


def test_datasets_refuse_empty_and_ragged_input(xor_and):
    for build in (lambda: Dataset([], []), lambda: Dataset.from_columns([])):
        with pytest.raises(DataFormatError, match="^a dataset needs at least one variable$"):
            build()
    with pytest.raises(DataFormatError, match=r"^columns have unequal lengths \[1, 2\]$"):
        Dataset.from_columns([("A", 2, [0, 1]), ("B", 2, [0])])
    with pytest.raises(DataFormatError, match="^dataset has no data rows$"):
        Dataset([("X", 2)], np.empty((0, 1), np.int64))
    with pytest.raises(ValueError, match="does not match this dataset's schema$"):
        xor_and.subset(VarSet((0,), (3,)))


def test_save_csv_writes_to_a_text_stream():
    ds = Dataset.from_columns([("A", 2, [0, 1, 1]), ("B", 2, [1, 0, 1])])
    stream = io.StringIO()
    save_csv(ds, stream)
    assert stream.getvalue() == "A:2,B:2\n0,1\n1,0\n1,1\n" == ds.to_csv_text()


@pytest.mark.parametrize("columns", [
    [("A", 2, [0, 1, 1, 0]), ("B", 3, [2, 0, 1, 2]), ("Zé", 2, [1, 1, 0, 0])],
    [("A", 2, [0, 1, 1, 0]), ("B", 12, [9, 0, 3, 7])],
    [("A", 2, [0, 1, 1, 0]), ("B", 12, [11, 0, 3, 7])],
], ids=["one digit", "arity past 10, one-digit values", "a two-digit value"])
def test_csv_text_is_the_row_by_row_text_and_reads_back(columns):
    ds = Dataset.from_columns(columns)
    header = ",".join(f"{name}:{arity}" for name, arity, _ in columns)
    rows = [",".join(map(str, row)) for row in zip(*(values for _, _, values in columns))]
    text = ds.to_csv_text()
    assert text == "\n".join([header, *rows]) + "\n"
    assert load_csv(io.StringIO(text)) == ds
    assert load_csv(io.BytesIO(text.encode("utf-8"))) == ds


def test_csv_text_of_one_digit_values_is_one_buffer_decoded_once():
    """10**5 rows of 4 one-digit columns are 0.8 MB of text: its bytes and
    the decoded string peak under 2.5 times that, where a string per row
    peaked near 8 MB."""
    data = np.random.default_rng(0).integers(0, 5, (10**5, 4))
    ds = Dataset.from_columns([(f"V{i}", 5, data[:, i]) for i in range(4)])
    tracemalloc.start()
    try:
        text = ds.to_csv_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == len("V0:5,V1:5,V2:5,V3:5\n") + 8 * 10**5
    assert peak < 2.5 * len(text)
    assert np.array_equal(load_csv(io.StringIO(text)).data, data)


def test_a_str_with_no_utf8_bytes_is_read_line_by_line(monkeypatch):
    """A lone surrogate cannot be encoded, so the fixed-width view is not
    tried: the line reader skips a comment holding one and refuses a value
    holding one."""
    def refuse(*args):
        raise AssertionError("the fixed-width view was tried")

    monkeypatch.setattr(dataset, "_fixed_width", refuse)
    got = load_csv(io.StringIO("X:2,Y:2\n# \ud800\n0,1\n1,0\n"))
    assert got == Dataset([("X", 2), ("Y", 2)], [[0, 1], [1, 0]])
    with pytest.raises(DataFormatError,
                       match=re.escape("data row 2: non-integer value in '\\ud800,0'")):
        load_csv(io.StringIO("X:2,Y:2\n0,1\n\ud800,0\n"))


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


def test_ragged_rows_and_nested_columns_are_input_errors():
    with pytest.raises(DataFormatError, match=r"^rows must form an \(n, 2\) table, got shape \(2,\)$"):
        Dataset([("A", 2), ("B", 2)], [[0, 1], [0]])
    with pytest.raises(DataFormatError, match=r"^data row 2, column 'B': value \[1\] is not an integer$"):
        Dataset([("A", 2), ("B", 2)], [[0, 1], [0, [1]]])
    for nested in ([[0, 1], [1, 0]], np.zeros((2, 1), dtype=np.int64)):
        message = f"column 'A' must be one-dimensional, got shape {np.shape(nested)}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Dataset.from_columns([("A", 2, nested), ("B", 2, [0, 1])])
    with pytest.raises(DataFormatError, match=r"^data row 1, column 'A': value \[0, 1\] is not an integer$"):
        Dataset.from_columns([("A", 2, [[0, 1], [1]]), ("B", 2, [0, 1])])


@pytest.mark.parametrize("arity", [2.5, float("nan"), float("inf"), np.float64(2.5), "3"])
def test_declared_arity_must_be_a_whole_number(arity):
    message = f"^variable 'B': declared arity must be a whole number, got {re.escape(repr(arity))}$"
    with pytest.raises(DataFormatError, match=message):
        Dataset([("A", 2), ("B", arity)], [[0, 0]])
    with pytest.raises(DataFormatError, match=message):
        Dataset.from_columns([("A", 2, [0]), ("B", arity, [0])])


def test_whole_number_arities_are_kept():
    for arity in (3, 3.0, np.int8(3), np.float32(3.0)):
        ds = Dataset([("A", arity)], [[2]])
        assert ds.arities == (3,) and type(ds.arities[0]) is int
    with pytest.raises(DataFormatError, match="^variable 'A': declared arity must be at least 2, got 1$"):
        Dataset([("A", 1.0)], [[0]])


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


@pytest.mark.parametrize("text,view", [
    ("A:2,B:3\n0,2\n1,0\n", True),
    ("A:2,B:3\n0,2\n1,0", True),            # no final newline
    ("A:2,B:3\n\n0,2\n1,0\n", True),        # a blank line after the header
    ("A:2,B:3\n\n0,2\n\n\n1,0\n\n", True),  # blank lines anywhere
    ("A:2,B:3\r\n0,2\r\n1,0\r\n", True),     # CRLF
    ("A:2,B:3\r\n0,2\r\n\r\n1,0", True),     # CRLF, a blank line, no final newline
    ("A:2\r\n1\n", True),
    ("A:2\n1\r\n", True),
    ("\u00c4:2\n1\n", True),
    ("A:2,B:3\n2,0\n", True),       # read by the view, then rejected by the range check
    ("A:12,B:11\n11,10\n\n007,0010", False),  # multi-digit values
    ("A:12,B:11\n3,10\n11,10", False),
    ("A:12,B:11\n11,10\n\n\n10,07\n\n", False),
    ("A:12,B:12\n10\n11,0,11\n", False),
    ("A:2,B:3\n000000000000000001,2\n", False),  # 18 digits
    ("A:2,B:3\n0000000000000000001,2\n", False),
    ("A:1000000000000000000\n999999999999999999\n", False),
    ("A:2\n99999999999999999999\n", False),
    ("# c\nA:2\n1\n", False),        # comments
    ("A:2\n1\n# c\n0\n", False),
    ("A:2,B:3\r0,2\r1,0\r", False),   # bare carriage returns
    ("A:2\n1\r0\n", False),
    ("A:2\r\r\n1\n", False),
    ("A:2\n1\r\r\n", False),
    ("\r\nA:2\n1\n", False),
    ("\nA:2\n1\n", False),
    ("A:2,B:3\n", False),
    ("A:2,B:3\n\n", False),
    ("A:2\n 1\n", False),
    ("A:2\n+1\n", False),
    ("A:2\n\u0661\n", False),
    ("A:2,B:3\n0\n", False),
    ("A:2,B:3\n0,1,\n", False),
    ("A:2,B:2\n0\n1,0,1\n", False),  # the right field count, but ragged rows
    ("A:2,B:3\n,1\n0,1\n", False),
    ("A:2,B:3\n0,1\n,1\n", False),
    ("A,B\n0,1\n", False),
])
def test_which_bodies_take_the_fixed_width_view(text, view):
    try:
        got = dataset._load_plain(text)
    except DataFormatError:
        got = "rejected"
    assert (got is not None) == view


def test_multi_digit_round_trip_through_the_line_reader(tmp_path):
    rng = np.random.default_rng(25)
    arities = [2, 12, 300]
    ds = Dataset([(f"V{j}", a) for j, a in enumerate(arities)],
                 np.column_stack([rng.integers(0, a, 20_000) for a in arities]))
    path = tmp_path / "wide.csv"
    save_csv(ds, path)
    text = path.read_text(encoding="utf-8")
    assert dataset._load_plain(text) is None
    for source in (path, io.StringIO(text), io.BytesIO(text.encode())):
        assert load_csv(source) == ds


_MUTATION_BASE = "A:2,B:3,C:10\n0,2,9\n1,0,5\n"


@pytest.mark.parametrize("at", range(_MUTATION_BASE.index("\n") + 1, len(_MUTATION_BASE)))
def test_load_matches_line_reference_on_every_one_byte_mutation(at):
    """Each byte of a one-digit body replaced by a digit, a separator, a
    carriage return, a space or a letter, or deleted, loads as the line
    reader reads it: the fixed-width view accepts exactly the mutants
    whose layout it describes, and every other one falls back unchanged."""
    for byte in ["0", "9", ",", "\n", "\r", " ", "a", ""]:
        assert_loads_like_reference(_MUTATION_BASE[:at] + byte + _MUTATION_BASE[at + 1:])


def test_one_digit_bodies_take_the_fixed_width_view(monkeypatch):
    """Canonical CSV text, its CRLF and blank-line copies, and a body laid
    out as a (rows, 2 * columns) byte grid of digits and separators all
    come from the fixed-width view, never from the line reader."""
    rng = np.random.default_rng(19)
    arities = [2, 3, 10, 4]
    data = np.column_stack([rng.integers(0, a, 500) for a in arities])
    ds = Dataset([(f"V{j}", a) for j, a in enumerate(arities)], data)
    wide = Dataset([("W", 12)], [[11]])

    def line_reader(self, variables, rows):
        raise AssertionError("the body was read line by line")

    monkeypatch.setattr(Dataset, "__init__", line_reader)
    grid = np.empty((len(data), 2 * len(arities)), dtype=np.uint8)
    grid[:, 0::2] = data + ord("0")
    grid[:, 1::2] = ord(",")
    grid[:, -1] = ord("\n")
    text = ds.to_csv_text()
    header, body = text.split("\n", 1)
    for copy in (text, text.replace("\n", "\r\n"), header + "\n\n" + body,
                 header + "\n" + body.replace("\n", "\n\n", 7) + "\n"):
        assert load_csv(io.StringIO(copy, newline="")) == ds
        assert load_csv(io.BytesIO(copy.encode())) == ds
    assert load_csv(io.BytesIO(header.encode() + b"\n" + grid.tobytes())) == ds
    with pytest.raises(AssertionError, match="line by line"):
        load_csv(io.StringIO(wide.to_csv_text()))


def test_fixed_width_view_fills_the_table_column_by_column():
    """200,000 rows of 10 one-digit columns: the int64 table (15.3 MiB) is
    the only large allocation, where a whole (rows, columns) uint16 copy
    of the pairs made the peak 19.1 MiB."""
    rng = np.random.default_rng(37)
    arities = [2, 2, 3, 2, 3, 2, 3, 2, 2, 3]
    data = np.column_stack([rng.integers(0, a, 200_000) for a in arities])
    grid = np.empty((len(data), 2 * len(arities)), dtype=np.uint8)
    grid[:, 0::2] = data + ord("0")
    grid[:, 1::2] = ord(",")
    grid[:, -1] = ord("\n")
    header = ",".join(f"V{j}:{a}" for j, a in enumerate(arities)).encode()
    source = io.BytesIO(header + b"\n" + grid.tobytes())
    del grid
    tracemalloc.start()
    try:
        ds = load_csv(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.data, data)
    assert peak < data.nbytes + 2**20


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
