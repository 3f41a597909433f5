"""The shared count-and-project chain: projected tables equal fresh
counts, audits equal the per-key public functions, and every query
scans the rows once."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdscore.scores
from bdscore import cli, search
from bdscore.dataset import Dataset, counts, empirical_cond_entropy
from bdscore.regularity import RegularityViolation, audit
from bdscore.scores import BDeu, Jeffreys, aic, bic, conditional_score_ratio


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
@given(scorer_cases())
def test_property_projected_tables_equal_counts(case):
    ds, masks = case
    full = counts(ds, range(ds.num_variables))
    for mask in masks:
        sub = ds.subset(mask_columns(ds, mask))
        assert_same_table(full.marginalize(sub), counts(ds, sub))


def reference_audit(ds, x, prior, pool, max_parents, criterion):
    """Every nested pair scored by the public per-key functions."""
    def h(u):
        return empirical_cond_entropy(ds, x, u)

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


def test_audit_on_a_pool_past_int64_counts_each_family(scans):
    """Child and pool together overflow int64 codes, so each child-and-parents
    table is counted on its own rather than once for the whole pool."""
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, [2] * 66, 30)
    pool = list(range(1, 66))
    for criterion in ("bd", "aic"):
        scans.clear()
        got = audit(ds, 0, BDeu(1.0), pool, max_parent_size=1, criterion=criterion)
        assert got == reference_audit(ds, 0, BDeu(1.0), pool, 1, criterion)
        assert all(len(s) <= 2 and s.indices[0] == 0 for s in scans)  # child and parents
        assert len(scans) <= 2 * (len(pool) + 1)  # as many as the per-key functions


def test_learn_exact_scans_rows_once_per_root(scans):
    ds = noisy_copies(12, 1000, 5)
    search.learn_exact(ds, BDeu(1.0))
    assert len(scans) == 1  # the full set; all 4095 others are projected
    scans.clear()
    search.learn_exact(ds, BDeu(1.0), cap=2)
    assert len(scans) == math.comb(12, 3)  # one per subset of cap + 1 columns


def test_cli_learn_scores_each_subset_once(monkeypatch, scans, tmp_path):
    # arities 2, 3 and 5 give each of the 8 subsets its own joint arity, so
    # the arities of the scored tables name the subsets, on either path
    scored = []
    batch, single = bdscore.scores._table_scores, search.table_score

    def batched(arities, *args):
        scored.extend(arities)
        return batch(arities, *args)

    def alone(table, prior):
        scored.append(table.gamma)
        return single(table, prior)

    monkeypatch.setattr(search, "_table_scores", batched)
    monkeypatch.setattr(search, "table_score", alone)
    path = tmp_path / "three.csv"
    path.write_text("A:2,B:3,C:5\n0,0,0\n1,1,2\n1,0,4\n0,2,2\n1,1,0\n")
    argv = ["learn", str(path), "--classes", "--prior", "bdeu", "-o", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert sorted(scored) == sorted(
        math.prod(c) for k in range(4) for c in itertools.combinations((2, 3, 5), k))
    assert len(scans) == 1
