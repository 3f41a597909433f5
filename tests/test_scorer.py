"""The shared count-and-project chain: projected tables equal fresh
counts, audits equal the per-key public functions, and every query
scans the rows once."""

import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdscore.scores
from bdscore import cli, dataset, regularity, search
from bdscore.dataset import Dataset, _digits, _project, counts, empirical_cond_entropy
from bdscore.regularity import RegularityViolation, audit
from bdscore.scores import (BDeu, Jeffreys, aic, bic, conditional_score_local,
                             conditional_score_ratio)
from oracles import margin, per_cell_entropy, per_cell_local


def assert_same_table(got, want):
    assert got.subset == want.subset and got.n == want.n
    assert got.codes.dtype == want.codes.dtype
    assert got.codes.tolist() == want.codes.tolist()
    assert got.frequencies.dtype == np.int64
    assert got.frequencies.tolist() == want.frequencies.tolist()


def random_dataset(rng, arities, n):
    return Dataset.from_columns(
        [(f"V{j}", a, rng.integers(0, a, n)) for j, a in enumerate(arities)])


@st.composite
def scorer_cases(draw, wide=st.booleans()):
    """A random dataset and a list of subsets of its columns, as bit masks.

    Narrow cases have 1-5 columns and up to 40 rows, so margins fall on
    both sides of the bincount cutoff; wide ones have 64-70 columns and a
    few rows, so the widest subsets have codes past int64.
    """
    wide = draw(wide)
    width = draw(st.integers(64, 70) if wide else st.integers(1, 5))
    arities = draw(st.lists(st.integers(2, 4), min_size=width, max_size=width))
    n = draw(st.integers(1, 6) if wide else st.integers(1, 40))
    ds = random_dataset(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), arities, n)
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=12))
    return ds, masks


def mask_columns(ds, mask):
    return [i for i in range(ds.num_variables) if mask >> i & 1]


@settings(max_examples=120, deadline=None)
@given(scorer_cases(), st.sampled_from([1, 64, dataset._BATCH_CELLS]))
def test_property_projected_tables_equal_counts(case, batch_cells):
    """Each margin of the full table's digits projected alone, and all of
    them in one call in chunks of at most ``batch_cells`` projected codes,
    the table's own mask and the empty mask among them, equal fresh
    counts."""
    ds, masks = case
    full = counts(ds, range(ds.num_variables))
    masks = masks + [(1 << ds.num_variables) - 1, 0]
    subs = [ds.subset(mask_columns(ds, mask)) for mask in masks]
    for sub in subs:
        assert_same_table(margin(full, sub)[0], counts(ds, sub))
    with mock.patch.object(dataset, "_BATCH_CELLS", batch_cells):
        codes, sums, bounds, aligned = _project(_digits(full, ds.num_variables), full.frequencies,
                                                ds.arities, masks, aligned=True)
    assert len(bounds) == len(subs) + 1 and aligned.shape == (len(subs), full.num_nonzero)
    for k, sub in enumerate(subs):
        want = counts(ds, sub)
        assert codes[bounds[k]:bounds[k + 1]].tolist() == want.codes.tolist()
        assert sums[bounds[k]:bounds[k + 1]].tolist() == want.frequencies.tolist()
        assert aligned[k].tolist() == margin(full, sub)[1]


@settings(max_examples=80, deadline=None)
@given(scorer_cases(), st.integers(0, 69))
def test_property_per_key_functions_match_decoded_cells(case, child):
    """Conditional entropy, exactly the cell-by-cell sum in code order, and
    the local form under both weightings, exactly a per-cell ``fsum``,
    against sums over decoded cells; every other column as parents puts
    the wide cases' codes past int64."""
    ds, masks = case
    x = child % ds.num_variables
    for mask in masks + [(1 << ds.num_variables) - 1]:
        parents = [i for i in mask_columns(ds, mask) if i != x]
        assert empirical_cond_entropy(ds, x, parents) == per_cell_entropy(ds, x, parents)
        for prior in (Jeffreys(), BDeu(0.5)):
            for form in ("coupled", "independent"):
                assert (conditional_score_local(ds, x, parents, prior, parent_weight=form)
                        == per_cell_local(ds, x, parents, prior, form))


def reference_audit(ds, x, prior, pool, max_parents, criterion):
    """Every nested pair scored by the public per-key functions, each
    parent set's entropy and score computed once."""
    @functools.cache
    def h(u):
        return empirical_cond_entropy(ds, x, u)

    @functools.cache
    def score(u):
        if criterion == "bd":
            return conditional_score_ratio(ds, x, u, prior)
        return (aic if criterion == "aic" else bic)(ds, x, u)

    out = []
    for size in range(1, max_parents + 1):
        for up in itertools.combinations(pool, size):
            for sub in range(size):
                for u in itertools.combinations(up, sub):
                    if h(u) > h(up) + 1e-12:
                        continue
                    s_u, s_up = score(u), score(up)
                    if (s_u < s_up) if criterion == "bd" else (s_u > s_up):
                        out.append(RegularityViolation(
                            x, ds.subset(u), ds.subset(up), h(u), h(up), s_u, s_up, criterion))
    return out


@settings(max_examples=60, deadline=None)
@given(scorer_cases(wide=st.just(False)), st.integers(0, 4), st.integers(1, 4))
def test_property_audit_matches_per_key_reference(case, child, max_parents):
    ds, masks = case
    x = child % ds.num_variables
    pool = [i for i in mask_columns(ds, masks[0]) if i != x]
    for prior in (Jeffreys(), BDeu(0.5)):
        for criterion in ("bd", "aic", "bic"):
            assert (audit(ds, x, prior, pool, max_parents, criterion)
                    == reference_audit(ds, x, prior, pool, max_parents, criterion))


@pytest.mark.parametrize("criterion", ["bd", "aic", "bic"])
def test_audit_matches_per_key_reference(criterion):
    rng = np.random.default_rng(23)
    for trial in range(6):
        arities = rng.integers(2, 4, 6).tolist()
        ds = random_dataset(rng, arities, int(rng.integers(5, 60)))
        # a copy of V1 makes nested pairs with equal entropy
        ds = Dataset.from_columns([(f"V{j}", a, ds.data[:, j]) for j, a in enumerate(arities)]
                                  + [("C", arities[1], ds.data[:, 1])])
        for prior in (Jeffreys(), BDeu(1.0)):
            pool = [1, 2, 3, 4, 6]
            got = audit(ds, 0, prior, pool, max_parent_size=3, criterion=criterion)
            assert got == reference_audit(ds, 0, prior, pool, 3, criterion)


# ------------------------------------------------------------- row scans


def noisy_copies(n_cols, n_rows, seed):
    """Binary columns where every third one is a noisy copy of its neighbour."""
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(n_cols):
        if j % 3 == 2:
            cols.append(cols[-1] ^ (rng.random(n_rows) < 0.1))
        else:
            cols.append(rng.integers(0, 2, n_rows))
    return Dataset.from_columns([(f"V{j}", 2, c.astype(np.int64)) for j, c in enumerate(cols)])


def test_audit_scans_rows_once(scans, xor_and, data_dir, tmp_path):
    wide = noisy_copies(9, 500, 3)
    for criterion in ("bd", "aic", "bic"):
        for ds, child, pool, size in ((xor_and, "X", ["Z", "W", "Y"], 3),
                                      (wide, 8, range(8), 4)):
            scans.clear()
            audit(ds, child, BDeu(1.0), pool, max_parent_size=size, criterion=criterion)
            assert len(scans) == 1
    scans.clear()
    argv = ["audit", str(data_dir / "xor_and_12.csv"), "--child", "X", "--prior", "bdeu",
            "-o", str(tmp_path / "report.json")]
    assert cli.main(argv) == 3
    assert len(scans) == 1


def test_audit_projects_every_family_in_one_batched_call(monkeypatch):
    """One ``_project`` call gives every child-and-parents table, and it
    tallies once per chunk of masks, not once per mask."""
    ds = noisy_copies(9, 500, 3)
    projections, tallies = [], []

    def project(*args, **kwargs):
        projections.append(len(args[3]))
        return _project(*args, **kwargs)

    def tally(*args, **kwargs):
        tallies.append(len(args[0]))
        return tally_keys(*args, **kwargs)

    tally_keys = dataset._tally
    monkeypatch.setattr(regularity, "_project", project)
    monkeypatch.setattr(dataset, "_tally", tally)
    cells = counts(ds, range(9)).num_nonzero
    for batch_cells in (dataset._BATCH_CELLS, 2**12):
        monkeypatch.setattr(dataset, "_BATCH_CELLS", batch_cells)
        for criterion in ("bd", "aic", "bic"):
            projections.clear()
            tallies.clear()
            got = audit(ds, 8, BDeu(1.0), range(8), max_parent_size=4, criterion=criterion)
            masks = sum(math.comb(8, k) for k in range(5))
            assert projections == [masks]
            chunks = math.ceil(masks / (batch_cells // cells))
            # the family's count, one tally per chunk, and the child summed out
            assert len(tallies) == chunks + 2 < masks
            assert max(tallies[1:-1]) <= batch_cells
            assert got == reference_audit(ds, 8, BDeu(1.0), range(8), 4, criterion)


@pytest.mark.parametrize("criterion", ["bd", "aic", "bic"])
def test_audit_chunks_a_wide_pool(criterion):
    """A child and a pool of 30 binary columns, at most 3 parents: 4,526
    parent masks over 200 stored family cells, some 900,000 projected
    codes, go in chunks of at most 2**17, so audit's traced peak stays
    under 10 MB (6.1-6.4 MB measured; one batch of every mask peaked at
    16.8-17.0 MB).  Two pool columns are functions of the child, which
    gives BDeu violations to find."""
    ds = noisy_copies(29, 200, 7)
    child = ds.column("V5")
    ds = Dataset.from_columns([(name, 2, ds.column(name)) for name in ds.names]
                              + [("C", 2, child), ("D", 2, 1 - child)])
    pool = [i for i in range(31) if i != 5]
    tracemalloc.start()
    try:
        got = audit(ds, 5, BDeu(1.0), pool, max_parent_size=3, criterion=criterion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_audit(ds, 5, BDeu(1.0), pool, 3, criterion)
    assert (len(got) > 0) == (criterion == "bd")
    assert peak < 10 * 2**20


def test_audit_on_a_pool_past_int64_scans_rows_once(scans):
    """Child and pool together overflow int64 codes; the pool is still
    counted once and every child-and-parents table projected from it."""
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, [2] * 66, 30)
    pool = list(range(1, 66))
    for criterion in ("bd", "aic"):
        scans.clear()
        got = audit(ds, 0, BDeu(1.0), pool, max_parent_size=1, criterion=criterion)
        assert [s.indices for s in scans] == [tuple(range(66))]
        assert got == reference_audit(ds, 0, BDeu(1.0), pool, 1, criterion)


@pytest.mark.parametrize("criterion", ["bd", "aic", "bic"])
def test_audit_on_a_family_of_joint_arity_2_to_the_63(criterion):
    """X, A and B together have joint arity exactly 2**63, one past the
    largest int64, and the all-largest row takes the largest int64 code.
    X is a function of A, so the pair A inside A, B passes the entropy
    premise."""
    big = 2**31
    a = [big - 1, 5, 5, big - 1, 3, 3, 0]
    x = {big - 1: big - 1, 5: 2, 3: 0, 0: 2}
    ds = Dataset.from_columns([("X", big, [x[v] for v in a]), ("A", big, a),
                               ("B", 2, [1, 0, 1, 0, 1, 1, 0])])
    assert counts(ds, range(3)).codes.max() == 2**63 - 1
    assert empirical_cond_entropy(ds, 0, [1]) == empirical_cond_entropy(ds, 0, [1, 2]) == 0.0
    for prior in (Jeffreys(), BDeu(1.0)):
        got = audit(ds, 0, prior, [1, 2], max_parent_size=2, criterion=criterion)
        assert got == reference_audit(ds, 0, prior, [1, 2], 2, criterion)


def assert_roots_read_in_chunks(scans, n_vars, n_rows, cap):
    """The rows were read once per chunk of at most ``(_BATCH_CELLS >> 3) // n_rows``
    roots, the subsets of cap + 1 columns, and each root was listed once."""
    roots = [sum(1 << i for i in c) for c in itertools.combinations(range(n_vars), cap + 1)]
    per_chunk = max(1, (dataset._BATCH_CELLS >> 3) // n_rows)
    assert len(scans) == math.ceil(len(roots) / per_chunk)
    assert sorted(mask for read in scans for mask in read) == sorted(roots)


def test_learn_exact_scans_rows_once_per_root(scans):
    ds = noisy_copies(12, 1000, 5)
    search.learn_exact(ds, BDeu(1.0))
    assert scans == [[(1 << 12) - 1]]  # the full set; all 4095 others are projected
    scans.clear()
    search.learn_exact(ds, BDeu(1.0), cap=2)
    # 220 roots, 16 to a read
    assert_roots_read_in_chunks(scans, 12, 1000, 2)
    assert len(scans) == 14


def test_cli_learn_scores_each_subset_once(monkeypatch, scans, tmp_path):
    # arities 2, 3 and 5 give each of the 8 subsets its own joint arity, so
    # the arities of the scored tables name the subsets
    scored = []
    batch = bdscore.scores._table_scores

    def batched(arities, *args):
        scored.extend(arities)
        return batch(arities, *args)

    monkeypatch.setattr(search, "_table_scores", batched)
    path = tmp_path / "three.csv"
    path.write_text("A:2,B:3,C:5\n0,0,0\n1,1,2\n1,0,4\n0,2,2\n1,1,0\n")
    argv = ["learn", str(path), "--classes", "--prior", "bdeu", "-o", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert sorted(scored) == sorted(
        math.prod(c) for k in range(4) for c in itertools.combinations((2, 3, 5), k))
    assert scans == [[0b111]]
    scans.clear()
    argv = ["learn", str(path), "--cap", "1", "-o", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert_roots_read_in_chunks(scans, 3, 5, 1)
    assert len(scans) == 1
