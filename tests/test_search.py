"""Parent-set tables, family argmax, three-variable classes, and the
exact structure search against brute-force enumeration."""

import functools
import itertools
import math
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
    topological_order,
)
from bdscore.search import (
    MAX_EXACT_VARIABLES,
    Network,
    ParentSetTable,
    best_parent_set,
    build_parent_tables,
    class_posterior,
    enumerate_n3_classes,
    learn_exact,
)


def random_dataset(rng, n_vars, n, max_arity=3):
    cols = []
    for i in range(n_vars):
        a = int(rng.integers(2, max_arity + 1))
        cols.append((f"V{i}", a, rng.integers(0, a, n).tolist()))
    return Dataset.from_columns(cols)


@functools.cache
def all_dags(n_vars):
    """Every acyclic parent assignment, as tuples of parent tuples."""
    per_var = []
    for v in range(n_vars):
        others = [i for i in range(n_vars) if i != v]
        per_var.append([
            tuple(sorted(c))
            for size in range(n_vars)
            for c in itertools.combinations(others, size)
        ])
    dags = []
    for assignment in itertools.product(*per_var):
        try:
            topological_order(assignment)
        except ValueError:
            continue
        dags.append(assignment)
    return tuple(dags)


def test_all_dags_counts():
    assert len(all_dags(2)) == 3
    assert len(all_dags(3)) == 25
    assert len(all_dags(4)) == 543


# -------------------------------------------------------------------- table


def test_table_shape_and_values():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 2, 20)
    table = build_parent_tables(ds, Jeffreys(), cap=1)
    assert sum(len(v) for v in table.scores.values()) == 4
    for v in range(2):
        assert table.entry(v, ()) == pytest.approx(
            marginal_score(ds, [v], Jeffreys()), abs=1e-12)
    want = (marginal_score(ds, [0, 1], Jeffreys())
            - marginal_score(ds, [1], Jeffreys()))
    assert table.entry(0, (1,)) == pytest.approx(want, abs=1e-12)


def test_table_missing_entry_and_cap_validation():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 3, 10)
    table = build_parent_tables(ds, Jeffreys(), cap=1)
    with pytest.raises(KeyError):
        table.entry(0, (1, 2))
    with pytest.raises(ValueError):
        build_parent_tables(ds, Jeffreys(), cap=3)
    with pytest.raises(ValueError):
        build_parent_tables(ds, Jeffreys(), cap=-1)


def test_table_width_limit():
    cols = [(f"V{i:02d}", 2, [0, 1]) for i in range(16)]
    with pytest.raises(ValueError):
        build_parent_tables(Dataset.from_columns(cols), Jeffreys(), cap=1)
    table = build_parent_tables(Dataset.from_columns(cols[:15]), Jeffreys(), cap=1)
    assert all(len(per_var) == 15 for per_var in table.scores.values())


@pytest.mark.parametrize("batch_cells", [1, search._BATCH_CELLS, 2**62])
def test_table_holds_every_capped_parent_set_as_a_marginal_difference(batch_cells, monkeypatch):
    """Whether the lattice is filled subset by subset (a budget of one
    cell), in batches, or in one batch per root, every entry is the
    difference of two fresh marginal scores, and no batch of tables
    holds more cells than the budget."""
    monkeypatch.setattr(search, "_BATCH_CELLS", batch_cells)
    score = search._table_scores

    def bounded(arities, n, frequencies, bounds, prior):
        assert bounds[-1] <= batch_cells
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
        # a level's margins span more codes in all than int64 holds
        (Dataset.from_columns([(f"V{i}", 2**31 - 1, rng.integers(0, 2**31 - 1, 30))
                               for i in range(3)]
                              + [(f"B{i}", 2, rng.integers(0, 2, 30)) for i in range(2)]),
         (Jeffreys(), BDeu(0.5))),
    ]
    for ds, priors in cases:
        n_vars = ds.num_variables
        for prior in priors:
            for cap in range(n_vars):
                table = build_parent_tables(ds, prior, cap=cap)
                for v in range(n_vars):
                    others = [i for i in range(n_vars) if i != v]
                    want_keys = {ps for size in range(cap + 1)
                                 for ps in itertools.combinations(others, size)}
                    assert set(table.scores[v]) == want_keys
                    for ps in want_keys:
                        want = (marginal_score(ds, sorted(ps + (v,)), prior)
                                - marginal_score(ds, ps, prior))
                        assert table.entry(v, ps) == want, (ds, prior, cap, v, ps)


def test_best_parent_set_on_table(xor_and):
    table = build_parent_tables(xor_and, BDeu(1.0), cap=3)
    family = [c for size in range(4)
              for c in itertools.combinations(["Y", "Z", "W"], size)]
    chosen = best_parent_set(table, "X", family)
    assert [xor_and.names[i] for i in chosen.indices] == ["Z", "W", "Y"]

    table = build_parent_tables(xor_and, Jeffreys(), cap=3)
    chosen = best_parent_set(table, "X", family)
    assert [xor_and.names[i] for i in chosen.indices] == ["Z", "W"]


def test_best_parent_set_tie_breaks():
    ds = Dataset.from_columns([("A", 2, [0, 1]), ("B", 2, [0, 1]), ("C", 2, [0, 1])])
    table = ParentSetTable(
        dataset=ds, prior=Jeffreys(), cap=2,
        scores={0: {(): -2.0, (1,): -1.0, (2,): -1.0, (1, 2): -1.0}})
    # equal values: smaller set wins, then lexicographic order
    chosen = best_parent_set(table, "A", [(2,), (1, 2), (1,)])
    assert chosen.indices == (1,)
    chosen = best_parent_set(table, "A", [(2,), (1, 2)])
    assert chosen.indices == (2,)
    # candidates may be names, indices, or iterables
    chosen = best_parent_set(table, "A", ["C", (1, 2), ["B"]])
    assert chosen.indices == (1,)
    chosen = best_parent_set(table, "A", [()])
    assert chosen.indices == ()


def test_best_parent_set_errors(xor_and):
    table = build_parent_tables(xor_and, Jeffreys(), cap=1)
    with pytest.raises(ValueError):
        best_parent_set(table, "X", [])
    with pytest.raises(KeyError):
        best_parent_set(table, "X", [("Y", "Z")])  # beyond cap


def test_argmax_invariant_under_constant_shift(xor_and):
    base = build_parent_tables(xor_and, BDeu(1.0), cap=3)
    shifted_scores = {v: {k: s + 37.5 for k, s in per.items()}
                      for v, per in base.scores.items()}
    shifted = ParentSetTable(dataset=xor_and, prior=BDeu(1.0), cap=3,
                             scores=shifted_scores)
    family = [c for size in range(4)
              for c in itertools.combinations(["Y", "Z", "W"], size)]
    assert (best_parent_set(base, "X", family).indices
            == best_parent_set(shifted, "X", family).indices)


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
    assert MAX_EXACT_VARIABLES == 15
    cols = [(f"V{i:02d}", 2, [0, 1]) for i in range(16)]
    ds = Dataset.from_columns(cols)
    with pytest.raises(ValueError):
        learn_exact(ds, Jeffreys())
    with pytest.raises(ValueError):
        learn_exact(Dataset.from_columns(cols[:3]), Jeffreys(), cap=3)


def test_network_validation():
    with pytest.raises(ValueError):
        Network(((1,), (0,)))  # two-cycle
    net = Network(((2, 1, 1), (), ()))
    assert net.parents == ((1, 2), (), ())
    assert net.edges() == [(1, 0), (2, 0)]
    assert net.num_variables == 3
