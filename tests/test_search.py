"""The marginal array search reads, three-variable classes, and the
exact structure search against brute-force enumeration."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdscore import search
from bdscore.dataset import Dataset
from bdscore.scores import (
    BDeu,
    Flat,
    Jeffreys,
    conditional_score_ratio,
    marginal_score,
    network_score,
)
from bdscore.search import (
    MAX_EXACT_VARIABLES,
    MAX_LATTICE_TABLES,
    Network,
    class_posterior,
    enumerate_n3_classes,
    learn_exact,
)
from oracles import all_dags, list_dp, random_dataset


def test_all_dags_counts():
    assert len(all_dags(2)) == 3
    assert len(all_dags(3)) == 25
    assert len(all_dags(4)) == 543


# ---------------------------------------------------------- marginal array


@pytest.mark.parametrize("batch_cells", [1, 2**7, search._BATCH_CELLS, 2**62])
def test_marginals_hold_every_capped_subset(batch_cells, monkeypatch):
    """Whether the lattice is walked subset by subset (a budget of one
    cell), in chunks that split inside a level, in larger batches, or in
    one batch per level of a root, every subset of at most cap + 1
    columns holds its fresh marginal score and every wider one NaN, and
    no batch of more than one table holds more cells than an eighth of
    the budget."""
    monkeypatch.setattr(search, "_BATCH_CELLS", batch_cells)
    score = search._table_scores

    def bounded(arities, n, frequencies, bounds, prior):
        assert len(arities) == 1 or bounds[-1] <= batch_cells >> 3
        return score(arities, n, frequencies, bounds, prior)

    monkeypatch.setattr(search, "_table_scores", bounded)
    rng = np.random.default_rng(9)
    cases = [
        (random_dataset(rng, 4, 25), (Jeffreys(), BDeu(0.5))),
        (random_dataset(rng, 5, 40, max_arity=4), (Jeffreys(), BDeu(0.5), Flat(1.3))),
        # the full joint arity, 2**65, passes int64
        (Dataset.from_columns([(f"V{i}", 2**13, rng.integers(0, 2**13, 30))
                               for i in range(5)]), (Jeffreys(), BDeu(0.5))),
        # one cell per table, with equal codes in neighbouring margins
        (Dataset.from_columns([(f"V{i}", 2**13, [7] * 3) for i in range(5)]),
         (Jeffreys(), BDeu(0.5))),
        # the full joint arity is exactly 2**63 and its last code, the
        # largest int64, is observed, so dropping the first column takes a
        # place value past int64
        (Dataset.from_columns([(f"V{i}", 2**21, [2**21 - 1, 5, 2**20, 2**21 - 1])
                               for i in range(3)]), (Jeffreys(), BDeu(0.5))),
        # a level's margins span more codes in all than int64 holds
        (Dataset.from_columns([(f"V{i}", 2**31 - 1, rng.integers(0, 2**31 - 1, 30))
                               for i in range(3)]
                              + [(f"B{i}", 2, rng.integers(0, 2, 30)) for i in range(2)]),
         (Jeffreys(), BDeu(0.5))),
    ]
    for ds, priors in cases:
        n_vars = ds.num_variables
        size = [mask.bit_count() for mask in range(1 << n_vars)]
        for prior in priors:
            want = [marginal_score(ds, [i for i in range(n_vars) if mask >> i & 1], prior)
                    for mask in range(1 << n_vars)]
            for cap in range(n_vars):
                m = search._marginals(ds, prior, cap).tolist()
                for mask, got in enumerate(m):
                    if size[mask] <= cap + 1:
                        assert got == want[mask], (ds, prior, cap, mask)
                    else:
                        assert math.isnan(got), (ds, prior, cap, mask)


@pytest.mark.parametrize("batch_cells", [1, 2**7, search._BATCH_CELLS, 2**62])
def test_marginals_drop_with_shared_place_values(batch_cells, monkeypatch):
    """On the cases of ``test_marginals_hold_every_capped_subset``, every
    projection of the walk drops one column from every table of its batch
    with one pair of Python-int place values."""
    calls = []
    drop = search._drop_columns

    def shared(codes, frequencies, bounds, high, low, aligned=False):
        calls.append((type(high), type(low)))
        return drop(codes, frequencies, bounds, high, low, aligned)

    monkeypatch.setattr(search, "_drop_columns", shared)
    test_marginals_hold_every_capped_subset(batch_cells, monkeypatch)
    assert calls and set(calls) == {(int, int)}


def test_marginals_on_roots_of_joint_arity_2_to_the_60():
    """12 columns of arity 2**20 x 500 rows at cap 2: the 220 roots are
    counted 32 at a time, and each chunk's codes stay int64 though its
    joint arities sum past 2**63; every subset of at most three columns
    holds its fresh marginal score."""
    rng = np.random.default_rng(20)
    ds = Dataset.from_columns([(f"V{i}", 2**20, rng.integers(0, 2**20, 500)) for i in range(12)])
    dtypes = []
    project = search._project

    def counted(*args):
        out = project(*args)
        dtypes.append(out[0].dtype)
        return out

    with mock.patch.object(search, "_project", counted):
        for prior in (Jeffreys(), BDeu(1.0)):
            m = search._marginals(ds, prior, 2)
            for mask in range(m.size):
                columns = [i for i in range(12) if mask >> i & 1]
                if len(columns) <= 3:
                    assert m[mask] == marginal_score(ds, columns, prior), (prior, mask)
                else:
                    assert math.isnan(m[mask])
    assert dtypes == [np.int64] * 14


def test_marginals_count_roots_in_chunks():
    """16 binary columns of 40 rows at cap 3: the 1,820 roots of four columns
    are counted 409 at a time (``(_BATCH_CELLS >> 3) // n``), five chunks
    each walked as one batch, and every subset of at most four columns
    holds its fresh marginal score."""
    rng = np.random.default_rng(16)
    ds = random_dataset(rng, 16, 40, max_arity=2)
    assert math.ceil(math.comb(16, 4) / ((search._BATCH_CELLS >> 3) // ds.n)) == 5
    for prior in (Jeffreys(), BDeu(1.0)):
        m = search._marginals(ds, prior, 3)
        for mask in range(m.size):
            columns = [i for i in range(16) if mask >> i & 1]
            if len(columns) <= 4:
                assert m[mask] == marginal_score(ds, columns, prior), (prior, mask)
            else:
                assert math.isnan(m[mask])


def test_marginals_cap_validation():
    """The cap lies in 0..N-1, and a subset past cap + 1 columns is NaN."""
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 3, 10)
    for cap in (-1, 3):
        with pytest.raises(ValueError, match=r"cap must lie in 0\.\.2, got "):
            search._marginals(ds, Jeffreys(), cap)
    m = search._marginals(ds, Jeffreys(), 1)
    assert math.isnan(m[0b111])
    assert not np.isnan(m[:0b111]).any()


def test_marginals_width_limit():
    """More than 21 columns, or a lattice past ``MAX_LATTICE_TABLES``
    tables, is refused before the array is filled; 15 and 16 columns at
    cap 1 score exactly the subsets of at most two columns."""
    cols = [(f"V{i:02d}", 2, [0, 1]) for i in range(MAX_EXACT_VARIABLES + 1)]
    with pytest.raises(ValueError, match="at most 21 variables"):
        search._marginals(Dataset.from_columns(cols), Jeffreys(), 1)
    with pytest.raises(ValueError, match="--cap"):
        search._marginals(Dataset.from_columns(cols[:16]), Jeffreys(), 15)
    for width in (15, 16):
        m = search._marginals(Dataset.from_columns(cols[:width]), Jeffreys(), 1)
        scored = [mask for mask in range(m.size) if not math.isnan(m[mask])]
        assert m.size == 1 << width
        assert scored == [mask for mask in range(m.size) if mask.bit_count() <= 2]


def test_learn_argmax_invariant_under_constant_shift(xor_and):
    """Adding a constant to every marginal, or a constant per column to
    every family, moves no network's rank.  The shifts are exact on the
    dyadic array, so even its ties resolve the same way."""
    m = search._marginals(xor_and, BDeu(1.0), 3)
    x = xor_and.index_of("X")
    assert {xor_and.names[i] for i in search._learn(m).parents[x]} == {"Y", "Z", "W"}
    dyadic = np.random.default_rng(41).choice([-4.0, -2.5, -1.0, -0.5, 0.0], 1 << 6)
    for base in (m, dyadic):
        size = np.array([mask.bit_count() for mask in range(base.size)])
        want = search._learn(base).parents
        assert search._learn(base + 37.5).parents == want
        assert search._learn(base + 37.5 * size).parents == want


def test_learn_tie_breaks_on_every_binary_three_column_array():
    """Every array on three columns with entries in {0, 1}, at every cap,
    gives the list DP's structure; with all entries equal, every structure
    ties and the empty one, the smallest, wins."""
    size = np.array([mask.bit_count() for mask in range(8)])
    for bits in itertools.product([0.0, 1.0], repeat=8):
        for cap in range(3):
            m = np.array(bits)
            m[size > cap + 1] = np.nan
            assert search._learn(m).parents == list_dp(m).parents, (bits, cap)
    for n_vars in range(1, 6):
        assert search._learn(np.zeros(1 << n_vars)).parents == ((),) * n_vars


# ------------------------------------------------------------------ classes


def test_class_identities():
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, 3, 25)
    for prior in (Jeffreys(), BDeu(1.0)):
        classes = dict(enumerate_n3_classes(ds, prior))
        assert len(classes) == 11
        empty = sum(marginal_score(ds, [v], prior) for v in range(3))
        assert classes["V0;V1;V2"] == pytest.approx(empty, abs=1e-12)
        assert classes["V0;V1;V2"] == pytest.approx(
            network_score(ds, Network(((), (), ())), prior), abs=1e-12)
        # chain V2 -> V0 -> V1 shares the class of its marginal algebra
        chain = network_score(ds, Network(((2,), (0,), ())), prior)
        assert classes["V2V0*V0V1/V0"] == pytest.approx(chain, abs=1e-12)
        # collider V1 -> V0 <- V2 is its own class
        collider = network_score(ds, Network(((1, 2), (), ())), prior)
        assert classes["V1*V2*V0V1V2/V1V2"] == pytest.approx(collider, abs=1e-12)
        full = network_score(ds, Network(((), (0,), (0, 1))), prior)
        assert classes["V0V1V2"] == pytest.approx(full, abs=1e-12)
        # every DAG on three variables scores as one of the eleven
        values = sorted(classes.values())
        for dag in all_dags(3):
            s = network_score(ds, Network(dag), prior)
            assert any(abs(s - v) < 1e-9 for v in values)
        best_dag = max(network_score(ds, Network(d), prior) for d in all_dags(3))
        assert max(values) == pytest.approx(best_dag, abs=1e-9)


def test_class_posterior_normalizes():
    rng = np.random.default_rng(22)
    ds = random_dataset(rng, 3, 40)
    scores = enumerate_n3_classes(ds, BDeu(1.0))
    post = class_posterior(scores)
    assert [label for label, _ in post] == [label for label, _ in scores]
    assert math.fsum(p for _, p in post) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0.0 for _, p in post)
    # ratios match exponentiated score differences
    (l0, p0), (l1, p1) = post[0], post[1]
    s = dict(scores)
    assert p0 / p1 == pytest.approx(math.exp(s[l0] - s[l1]), rel=1e-9)


def test_classes_need_three_variables(xor_and):
    with pytest.raises(ValueError):
        enumerate_n3_classes(xor_and, Jeffreys())


# ------------------------------------------------------------- exact search


def brute_force_best(ds, prior, cap=None):
    """The best network score within the cap over every DAG, and the DAGs
    within 1e-12 of it.  Each DAG's score is ``network_score``'s float, the
    fsum of its families' ratio scores in variable order; each family is
    scored once."""
    cap = ds.num_variables - 1 if cap is None else cap
    families = {}

    def family(v, ps):
        if (v, ps) not in families:
            families[v, ps] = conditional_score_ratio(ds, v, ps, prior)
        return families[v, ps]

    best = None
    argmax = []
    for dag in all_dags(ds.num_variables):
        if any(len(ps) > cap for ps in dag):
            continue
        s = math.fsum(family(v, ps) for v, ps in enumerate(dag))
        if best is None or s > best + 1e-12:
            best, argmax = s, [dag]
        elif abs(s - best) <= 1e-12:
            argmax.append(dag)
    return best, argmax


def seeded_brute_force_cases():
    """Eight seeded (dataset, prior, cap) cases of 2-4 columns of arity 2-3."""
    rng = np.random.default_rng(33)
    for trial in range(8):
        n_vars = int(rng.integers(2, 5))
        ds = random_dataset(rng, n_vars, int(rng.integers(8, 40)))
        yield ds, (Jeffreys(), BDeu(1.0), BDeu(0.25))[trial % 3], None if trial % 2 else 1


@st.composite
def brute_force_cases(draw):
    """2-4 columns of arity 2-3, a cap of None, 1 or 2 (below the width),
    and a Jeffreys, BDeu or Flat prior."""
    arities = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    rows = draw(st.lists(st.tuples(*(st.integers(0, a - 1) for a in arities)),
                         min_size=1, max_size=40))
    ds = Dataset([(f"V{i}", a) for i, a in enumerate(arities)], rows)
    prior = draw(st.one_of(st.just(Jeffreys()),
                           st.floats(1e-3, 10.0).map(BDeu),
                           st.floats(1e-3, 10.0).map(Flat)))
    cap = draw(st.sampled_from([None, 1, 2]).filter(lambda c: c is None or c < len(arities)))
    return ds, prior, cap


def with_seeded_brute_force_cases(test):
    for case in seeded_brute_force_cases():
        test = example(case)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(brute_force_cases())
@with_seeded_brute_force_cases
def test_learn_exact_matches_brute_force(case):
    ds, prior, cap = case
    net = learn_exact(ds, prior, cap=cap)
    got = network_score(ds, net, prior)
    want, argmax = brute_force_best(ds, prior, cap=cap)
    assert got == pytest.approx(want, abs=1e-9)
    assert net.parents in argmax
    if cap is not None:
        assert all(len(ps) <= cap for ps in net.parents)


def order_oracle(ds, prior, caps):
    """Best network score per cap: the max over all variable orders, with
    each variable taking its best subset of predecessors within the cap."""
    n_vars = ds.num_variables
    local = {}
    for v in range(n_vars):
        others = [i for i in range(n_vars) if i != v]
        for size in range(n_vars):
            for ps in itertools.combinations(others, size):
                local[v, ps] = conditional_score_ratio(ds, v, ps, prior)
    best = {}
    for cap in caps:
        for order in itertools.permutations(range(n_vars)):
            total = math.fsum(
                max(local[v, ps]
                    for size in range(min(cap, k) + 1)
                    for ps in itertools.combinations(sorted(order[:k]), size))
                for k, v in enumerate(order))
            best[cap] = max(best.get(cap, total), total)
    return best


def test_learn_exact_matches_order_oracle_on_five_columns():
    rng = np.random.default_rng(38)
    caps = range(5)
    for trial in range(10):
        n = int(rng.integers(8, 41))
        cols = []
        for i in range(5):
            a = int(rng.integers(2, 4))
            cols.append([f"V{i}", a, rng.integers(0, a, n).tolist()])
        if trial % 2:
            cols[3][1:] = cols[1][1:]  # a duplicated column
            cols[4][2] = [cols[4][1] - 1] * n  # a constant one
        ds = Dataset.from_columns([tuple(c) for c in cols])
        for prior in (Jeffreys(), BDeu(1.0), BDeu(0.25)):
            want = order_oracle(ds, prior, caps)
            for cap in caps:
                net = learn_exact(ds, prior, cap=cap)
                assert all(len(ps) <= cap for ps in net.parents)
                got = network_score(ds, net, prior)
                assert got == pytest.approx(want[cap], abs=1e-9), (trial, prior, cap)


@st.composite
def walk_datasets(draw):
    """2-5 columns of arity 2-3 and 1-40 rows; from three columns on,
    sometimes the second last copies the first and the last is constant."""
    width = draw(st.integers(2, 5))
    n = draw(st.integers(1, 40))
    cols = []
    for i in range(width):
        a = draw(st.integers(2, 3))
        cols.append([f"V{i}", a, draw(st.lists(st.integers(0, a - 1), min_size=n, max_size=n))])
    if width >= 3 and draw(st.booleans()):
        cols[-2][1:] = cols[0][1:]
        cols[-1][2] = [draw(st.integers(0, cols[-1][1] - 1))] * n
    return Dataset.from_columns([tuple(c) for c in cols])


@settings(max_examples=25, deadline=None)
@given(walk_datasets())
def test_property_learn_exact_matches_order_oracle(ds):
    """Whether the walk fills the lattice subset by subset (a budget of one
    cell) or in batches, the learned structure reaches the best score over
    all orders, at every cap."""
    caps = range(ds.num_variables)
    for prior in (Jeffreys(), BDeu(1.0), BDeu(0.25)):
        want = order_oracle(ds, prior, caps)
        for batch_cells in (1, search._BATCH_CELLS):
            with mock.patch.object(search, "_BATCH_CELLS", batch_cells):
                for cap in caps:
                    net = learn_exact(ds, prior, cap=cap)
                    assert all(len(ps) <= cap for ps in net.parents)
                    got = network_score(ds, net, prior)
                    assert got == pytest.approx(want[cap], abs=1e-9), (prior, batch_cells, cap)


_DUP = [0, 1, 1, 0, 1, 0, 0, 1]
_P = [0, 1, 1, 0, 1, 0, 0, 1, 0, 1]
_Q = [0, 0, 1, 1, 0, 1, 1, 0, 1, 0]
TIE_DATASETS = {
    "duplicates": Dataset.from_columns([
        ("A", 2, _DUP), ("B", 2, _DUP), ("C", 2, [1 - v for v in _DUP]),
        ("D", 2, [0, 0, 1, 1, 0, 1, 1, 0])]),
    "constants": Dataset.from_columns([
        ("A", 2, [0] * 6), ("B", 3, [2] * 6),
        ("C", 2, [0, 1, 0, 1, 1, 0]), ("D", 2, [0, 1, 0, 1, 1, 0])]),
    # a copy, a complement, a constant, and a column that is the xor of two
    "six": Dataset.from_columns([
        ("A", 2, _P), ("B", 2, _P), ("C", 2, [1 - v for v in _P]), ("D", 3, [1] * 10),
        ("E", 2, _Q), ("F", 2, [p ^ q for p, q in zip(_P, _Q)])]),
}

# Recorded from the documented tie-breaks: among equal scores the smaller
# parent set wins, then the lexicographically smaller one, and the
# smaller sink index wins between sinks.
PINNED_STRUCTURES = [
    ("duplicates", "jeffreys", 0, ((), (), (), ())),
    ("duplicates", "jeffreys", 1, ((1,), (2,), (3,), ())),
    ("duplicates", "jeffreys", None, ((1,), (2,), (3,), ())),
    ("duplicates", "bdeu", 0, ((), (), (), ())),
    ("duplicates", "bdeu", 1, ((1,), (2,), (), ())),
    ("duplicates", "bdeu", None, ((1, 2), (2,), (), ())),
    ("constants", "jeffreys", 0, ((), (), (), ())),
    ("constants", "jeffreys", 1, ((), (), (3,), ())),
    ("constants", "jeffreys", None, ((), (), (3,), ())),
    ("constants", "bdeu", 0, ((), (), (), ())),
    ("constants", "bdeu", 1, ((1,), (), (3,), ())),
    ("constants", "bdeu", None, ((1,), (), (0, 1, 3), ())),
    ("xor_and_12", "jeffreys", 0, ((), (), (), ())),
    ("xor_and_12", "jeffreys", 1, ((3,), (3,), (3,), ())),
    ("xor_and_12", "jeffreys", None, ((1, 2), (), (), (1, 2))),
    ("xor_and_12", "bdeu", 0, ((), (), (), ())),
    ("xor_and_12", "bdeu", 1, ((3,), (3,), (3,), ())),
    ("xor_and_12", "bdeu", None, ((1, 2, 3), (), (), (1, 2))),
    ("constant_pair_5", "jeffreys", 0, ((), ())),
    ("constant_pair_5", "jeffreys", 1, ((), ())),
    ("constant_pair_5", "jeffreys", None, ((), ())),
    ("constant_pair_5", "bdeu", 0, ((), ())),
    ("constant_pair_5", "bdeu", 1, ((1,), ())),
    ("constant_pair_5", "bdeu", None, ((1,), ())),
    ("six", "jeffreys", 0, ((), (), (), (), (), ())),
    ("six", "jeffreys", 1, ((1,), (2,), (4,), (), (), ())),
    ("six", "jeffreys", 2, ((1,), (2,), (4, 5), (), (), ())),
    ("six", "jeffreys", None, ((1,), (2,), (4, 5), (), (), ())),
    ("six", "bdeu", 0, ((), (), (), (), (), ())),
    ("six", "bdeu", 1, ((1,), (2,), (4,), (), (), ())),
    ("six", "bdeu", 2, ((1, 3), (2, 3), (4, 5), (), (), ())),
    ("six", "bdeu", None, ((1, 2, 3), (2, 3), (), (), (0, 1, 2, 3, 5), ())),
]


def test_learn_exact_tie_breaks_are_pinned(xor_and, constant_pair):
    datasets = dict(TIE_DATASETS, xor_and_12=xor_and, constant_pair_5=constant_pair)
    priors = {"jeffreys": Jeffreys(), "bdeu": BDeu(1.0)}
    for name, prior, cap, want in PINNED_STRUCTURES:
        got = learn_exact(datasets[name], priors[prior], cap=cap).parents
        assert got == want, (name, prior, cap)


def test_learn_exact_three_variable_optimum_is_a_class():
    rng = np.random.default_rng(34)
    ds = random_dataset(rng, 3, 30)
    for prior in (Jeffreys(), BDeu(1.0)):
        net = learn_exact(ds, prior)
        got = network_score(ds, net, prior)
        best_class = max(v for _, v in enumerate_n3_classes(ds, prior))
        assert got == pytest.approx(best_class, abs=1e-9)


def test_learn_exact_independent_data_gives_empty_graph():
    rng = np.random.default_rng(35)
    cols = [(f"V{i}", 2, rng.integers(0, 2, 10000).tolist()) for i in range(3)]
    ds = Dataset.from_columns(cols)
    assert learn_exact(ds, Jeffreys()).edges() == []


def test_learn_exact_copied_column_gives_one_edge():
    rng = np.random.default_rng(36)
    col = rng.integers(0, 2, 1000).tolist()
    ds = Dataset.from_columns([("A", 2, col), ("B", 2, col)])
    net = learn_exact(ds, Jeffreys())
    assert len(net.edges()) == 1
    assert sorted(net.edges()[0]) == [0, 1]
    assert network_score(ds, net, Jeffreys()) == pytest.approx(
        marginal_score(ds, ["A", "B"], Jeffreys()), abs=1e-9)


def test_learn_exact_cap_zero_forces_empty():
    rng = np.random.default_rng(37)
    col = rng.integers(0, 2, 50).tolist()
    ds = Dataset.from_columns([("A", 2, col), ("B", 2, col)])
    assert learn_exact(ds, Jeffreys(), cap=0).edges() == []


def test_learn_exact_single_variable():
    ds = Dataset.from_columns([("A", 2, [0, 1, 1])])
    assert learn_exact(ds, Jeffreys()).parents == ((),)


def test_learn_exact_width_limit():
    """The DP's arrays bound the width; the lattice's table count, the sum
    of C(N, j) for j <= cap + 1, bounds the cap, and holds every width and
    cap of at most 15 columns."""
    assert MAX_EXACT_VARIABLES == 21
    assert MAX_LATTICE_TABLES == 2**15 == sum(math.comb(15, j) for j in range(16))
    cols = [(f"V{i:02d}", 2, [0, 1]) for i in range(MAX_EXACT_VARIABLES + 1)]
    with pytest.raises(ValueError, match="at most 21 variables"):
        learn_exact(Dataset.from_columns(cols), Jeffreys(), cap=0)
    for cap in (-1, 3):
        with pytest.raises(ValueError, match=r"cap must lie in 0\.\.2"):
            learn_exact(Dataset.from_columns(cols[:3]), Jeffreys(), cap=cap)
    # 16 columns: 26,333 tables at cap 6, 39,203 at cap 7
    assert sum(math.comb(16, j) for j in range(8)) <= MAX_LATTICE_TABLES
    wide = Dataset.from_columns(cols[:16])
    for cap in (None, 7):
        with pytest.raises(ValueError, match="--cap"):
            learn_exact(wide, Jeffreys(), cap=cap)
    assert all(len(ps) <= 2 for ps in learn_exact(wide, Jeffreys(), cap=2).parents)
    assert learn_exact(Dataset.from_columns(cols[:15]), Jeffreys()).num_variables == 15


def sixteen_columns():
    """16 binary columns of 400 rows; every third is the xor of the two
    before it, flipped in about 10% of rows."""
    rng = np.random.default_rng(16)
    n_vars, n = 16, 400
    data = rng.integers(0, 2, (n, n_vars))
    for j in range(2, n_vars, 3):
        data[:, j] = data[:, j - 1] ^ data[:, j - 2] ^ (rng.random(n) < 0.1)
    return Dataset.from_columns([(f"V{j:02d}", 2, data[:, j].tolist()) for j in range(n_vars)])


# Recorded from the list DP (``oracles.list_dp``) with the width limit raised.
SIXTEEN_COLUMNS_CAP_2 = {
    "bdeu": ((1, 2), (), (), (), (15,), (3, 4), (), (6, 8), (9,), (), (), (9, 10),
             (13, 14), (), (), ()),
    "jeffreys": ((1, 2), (7,), (8,), (), (15,), (3, 4), (7, 8), (5,), (4,), (8,), (9, 11),
                 (12,), (13, 14), (), (), ()),
}


def test_learn_exact_past_15_columns_with_a_cap():
    ds = sixteen_columns()
    for name, prior in (("bdeu", BDeu(1.0)), ("jeffreys", Jeffreys())):
        assert learn_exact(ds, prior, cap=2).parents == SIXTEEN_COLUMNS_CAP_2[name], name


@st.composite
def marginal_arrays(draw):
    """A marginal array on 1-10 columns whose entries take a few values, so
    parent sets and sinks often tie, and NaN past a random cap + 1."""
    n_vars = draw(st.integers(1, 10))
    cap = draw(st.integers(0, n_vars - 1))
    values = draw(st.lists(st.sampled_from([-4.0, -2.5, -1.0, -0.5, 0.0]),
                           min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.choice(values, 1 << n_vars)
    size = np.array([mask.bit_count() for mask in range(m.size)])
    m[size > cap + 1] = np.nan
    return m


@settings(max_examples=200, deadline=None)
@given(marginal_arrays())
def test_property_array_dp_matches_list_dp(m):
    assert search._learn(m).parents == list_dp(m).parents


def test_learn_memory_follows_the_array_layout():
    """On 14 columns the DP keeps one int32 position per variable and pool,
    14 * 2**13 * 4 bytes (0.46 MB), and per variable its 2**13 candidate
    masks (int32) and their gains (float64), 14 * 2**13 * 12 bytes (1.4 MB);
    the whole DP stays under 4 MB, where the list DP peaks past 10 MB."""
    m = np.random.default_rng(14).normal(size=1 << 14)
    tracemalloc.start()
    try:
        search._learn(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_learn_memory_is_one_position_per_pool():
    """On 18 columns at cap 2 the DP keeps one int32 position per variable
    and pool, 18 * 2**17 * 4 bytes (9 MB), and a few candidates per
    variable; a parent mask and a gain per pool would add 18 MB more."""
    m = np.random.default_rng(18).normal(size=1 << 18)
    m[np.array([mask.bit_count() for mask in range(m.size)]) > 3] = np.nan
    tracemalloc.start()
    try:
        search._learn(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_network_validation():
    with pytest.raises(ValueError):
        Network(((1,), (0,)))  # two-cycle
    net = Network(((2, 1, 1), (), ()))
    assert net.parents == ((1, 2), (), ())
    assert net.edges() == [(1, 0), (2, 0)]
    assert net.num_variables == 3
