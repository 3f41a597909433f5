"""Score-family tests: exact small-case oracles, form equivalences, and
the structure-score identities the learner relies on."""

import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdscore import scores
from bdscore.citest import ci_statistics
from bdscore.dataset import Dataset, counts
from bdscore.numerics import log_gamma_ratio
from bdscore.regularity import audit
from bdscore.scores import (
    BDeu,
    Flat,
    InvalidPriorError,
    Jeffreys,
    aic,
    bic,
    conditional_score_local,
    conditional_score_ratio,
    marginal_score,
    network_score,
    table_score,
    topological_order,
)
from bdscore.search import _marginals
from oracles import bd_oracle, mp_log_gamma_ratio

PRIORS = [Jeffreys(), BDeu(1.0), BDeu(0.7), Flat(1.3)]


def random_dataset(rng, n_vars=3, n=30, max_arity=3):
    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(n_vars)]
    return Dataset.from_columns([
        (f"V{i}", a, rng.integers(0, a, n).tolist()) for i, a in enumerate(arities)
    ])


# ------------------------------------------------------------ exact values


def test_constant_pair_exact_fractions(constant_pair):
    # n=5 all-zero columns; every value has a closed product form
    q_x = marginal_score(constant_pair, ["X"], Jeffreys())
    assert math.isclose(q_x, math.log(Fraction(63, 256)), abs_tol=1e-12)

    q_xy_j = marginal_score(constant_pair, ["X", "Y"], Jeffreys())
    assert math.isclose(q_xy_j, math.log(Fraction(945, 23040)), abs_tol=1e-12)

    q_xy_b = marginal_score(constant_pair, ["X", "Y"], BDeu(1.0))
    assert math.isclose(q_xy_b, math.log(Fraction(9945, 122880)), abs_tol=1e-12)

    # a binary column scores the same under both weightings (0.5 == 1/2)
    assert marginal_score(constant_pair, ["X"], BDeu(1.0)) == pytest.approx(q_x, abs=1e-12)


def test_constant_pair_printed_digits(constant_pair):
    assert math.exp(marginal_score(constant_pair, ["X"], Jeffreys())) == pytest.approx(
        0.246, abs=5e-4)
    assert math.exp(2 * marginal_score(constant_pair, ["X"], Jeffreys())) == pytest.approx(
        0.0605, abs=5e-4)
    assert math.exp(marginal_score(constant_pair, ["X", "Y"], Jeffreys())) == pytest.approx(
        0.0410, abs=5e-4)
    assert math.exp(marginal_score(constant_pair, ["X", "Y"], BDeu(1.0))) == pytest.approx(
        0.0809, abs=5e-4)


def test_empty_subset_scores_zero(constant_pair):
    for prior in PRIORS:
        assert marginal_score(constant_pair, [], prior) == 0.0


def test_conditional_ratio_exact(xor_and):
    got = conditional_score_ratio(xor_and, "X", ["Z", "W"], BDeu(1.0))
    assert math.isclose(got, math.log(Fraction(17, 40) ** 4), abs_tol=1e-12)
    got = conditional_score_ratio(xor_and, "X", ["Y", "Z", "W"], BDeu(1.0))
    assert math.isclose(got, math.log(Fraction(11, 24) ** 4), abs_tol=1e-12)
    got = conditional_score_ratio(xor_and, "X", ["Z", "W"], Jeffreys())
    assert math.isclose(got, math.log(Fraction(1, 35)), abs_tol=1e-12)
    got = conditional_score_ratio(xor_and, "X", ["Y", "Z", "W"], Jeffreys())
    assert math.isclose(got, math.log(Fraction(840, 93024)), abs_tol=1e-12)


def test_conditional_ratio_empty_parents(xor_and):
    for prior in PRIORS:
        assert conditional_score_ratio(xor_and, "X", [], prior) == pytest.approx(
            marginal_score(xor_and, ["X"], prior), abs=1e-12)


def test_conditional_child_in_parents(xor_and):
    with pytest.raises(ValueError):
        conditional_score_ratio(xor_and, "X", ["X", "Z"], Jeffreys())


# --------------------------------------------------------- form equivalence


def test_local_coupled_matches_ratio_for_bdeu():
    rng = np.random.default_rng(41)
    for trial in range(100):
        ds = random_dataset(rng, n_vars=3, n=int(rng.integers(4, 80)), max_arity=4)
        ess = float(rng.choice([0.3, 1.0, 2.5]))
        child = int(rng.integers(0, 3))
        parents = [i for i in range(3) if i != child][: int(rng.integers(0, 3))]
        ratio = conditional_score_ratio(ds, child, parents, BDeu(ess))
        local = conditional_score_local(ds, child, parents, BDeu(ess), parent_weight="coupled")
        assert abs(ratio - local) <= 1e-9, (trial, ratio, local)


def test_local_independent_jeffreys_witness(constant_pair):
    # flat weights break the cancellation: the local form gives
    # Q(Y|X) = 1 here while the ratio form gives 1/6
    local = conditional_score_local(
        constant_pair, "Y", ["X"], Jeffreys(), parent_weight="independent")
    ratio = conditional_score_ratio(constant_pair, "Y", ["X"], Jeffreys())
    assert local == pytest.approx(0.0, abs=1e-12)
    assert ratio == pytest.approx(math.log(Fraction(1, 6)), abs=1e-12)
    assert abs(local - ratio) > 1e-6


def test_local_empty_parents_forms(constant_pair):
    from bdscore.numerics import log_gamma_ratio

    # coupled: the lone parent cell absorbs the full child weight, which
    # reproduces the marginal exactly
    for prior in PRIORS:
        coupled = conditional_score_local(
            constant_pair, "X", [], prior, parent_weight="coupled")
        assert coupled == pytest.approx(marginal_score(constant_pair, ["X"], prior), abs=1e-12)
    # independent: the empty parent set is its own one-cell subset
    indep = conditional_score_local(
        constant_pair, "X", [], Jeffreys(), parent_weight="independent")
    want = -log_gamma_ratio(5, 0.5) + log_gamma_ratio(5, 0.5) + log_gamma_ratio(0, 0.5)
    assert indep == pytest.approx(want, abs=1e-12)


def test_local_weighting_validated(xor_and):
    with pytest.raises(ValueError):
        conditional_score_local(xor_and, "X", ["Z"], Jeffreys(), parent_weight="other")


# ------------------------------------------------------------- aic and bic


def test_aic_bic_on_deterministic_child(xor_and):
    assert aic(xor_and, "X", ["Z", "W"]) == pytest.approx(1 / 3, abs=1e-12)
    assert bic(xor_and, "X", ["Z", "W"]) == pytest.approx(math.log(12) / 6, abs=1e-12)


def test_aic_monotone_when_entropy_equal(xor_and):
    # H(X|ZW) == H(X|YZW) == 0, so the smaller set must win on penalty
    assert aic(xor_and, "X", ["Z", "W"]) < aic(xor_and, "X", ["Y", "Z", "W"])
    assert bic(xor_and, "X", ["Z", "W"]) < bic(xor_and, "X", ["Y", "Z", "W"])


# ----------------------------------------------------------- network score


def test_network_score_empty_graph(xor_and):
    got = network_score(xor_and, [[], [], [], []], Jeffreys())
    want = sum(marginal_score(xor_and, [nm], Jeffreys()) for nm in xor_and.names)
    assert got == pytest.approx(want, abs=1e-12)


def test_network_score_edge_reversal():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n_vars=2, n=25)
    for prior in PRIORS:
        forward = network_score(ds, [[], ["V0"]], prior)
        backward = network_score(ds, [["V1"], []], prior)
        joint = marginal_score(ds, ["V0", "V1"], prior)
        assert forward == pytest.approx(joint, abs=1e-12)
        assert backward == pytest.approx(joint, abs=1e-12)


def test_network_score_chain_identity():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, n_vars=3, n=40)
    for prior in PRIORS:
        chain = network_score(ds, [[], ["V0"], ["V1"]], prior)
        want = (marginal_score(ds, ["V0", "V1"], prior)
                + marginal_score(ds, ["V1", "V2"], prior)
                - marginal_score(ds, ["V1"], prior))
        assert chain == pytest.approx(want, abs=1e-12)


def test_network_score_rejects_cycle(xor_and):
    with pytest.raises(ValueError):
        network_score(xor_and, [["Y"], [], [], ["X"]], Jeffreys())
    with pytest.raises(ValueError):
        topological_order(((1,), (0,)))


def _equivalence_class_key(parents):
    # Markov equivalence = same skeleton + same set of v-structures
    n = len(parents)
    adjacent = set()
    for v, ps in enumerate(parents):
        for p in ps:
            adjacent.add(frozenset((p, v)))
    immoral = set()
    for v, ps in enumerate(parents):
        for a, b in itertools.combinations(sorted(ps), 2):
            if frozenset((a, b)) not in adjacent:
                immoral.add((a, b, v))
    return frozenset(adjacent), frozenset(immoral)


def all_dags(n_vars):
    per_var = []
    for v in range(n_vars):
        others = [i for i in range(n_vars) if i != v]
        options = []
        for k in range(n_vars):
            options.extend(itertools.combinations(others, k))
        per_var.append(options)
    for combo in itertools.product(*per_var):
        try:
            topological_order(combo)
        except ValueError:
            continue
        yield combo


def test_markov_equivalent_dags_score_equal():
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, n_vars=3, n=35)
    dags = list(all_dags(3))
    assert len(dags) == 25
    for prior in PRIORS:
        by_class = {}
        for parents in dags:
            key = _equivalence_class_key(parents)
            score = network_score(
                ds, [[ds.names[p] for p in ps] for ps in parents], prior)
            by_class.setdefault(key, []).append(score)
        assert len(by_class) == 11
        for key, scores in by_class.items():
            assert max(scores) - min(scores) <= 1e-9, key


# ------------------------------------------------------- global invariants


def test_marginal_nonpositive_and_row_decrease():
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        ds = random_dataset(rng, n_vars=2, n=n)
        for prior in PRIORS:
            s = marginal_score(ds, ["V0", "V1"], prior)
            assert s <= 1e-12
            extra = [int(rng.integers(0, a)) for a in ds.arities]
            grown = Dataset.from_columns([
                (nm, a, ds.column(i).tolist() + [extra[i]])
                for i, (nm, a) in enumerate(zip(ds.names, ds.arities))
            ])
            s_grown = marginal_score(grown, ["V0", "V1"], prior)
            assert s_grown < s + 1e-12


def test_kraft_normalization_small():
    # every length-6 binary sequence, summed: the score is a genuine
    # sequence distribution (acceptance repeats this at n=10)
    for prior in (Jeffreys(), BDeu(1.0)):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=6):
            ds = Dataset.from_columns([("X", 2, list(bits))])
            total += math.exp(marginal_score(ds, ["X"], prior))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_invalid_priors():
    with pytest.raises(InvalidPriorError):
        BDeu(0.0)
    with pytest.raises(InvalidPriorError):
        BDeu(-2.0)
    with pytest.raises(InvalidPriorError):
        Flat(-2.0)
    with pytest.raises(InvalidPriorError, match="equivalent sample size must be finite"):
        BDeu(math.inf)
    with pytest.raises(InvalidPriorError, match="^custom weight must be positive, got nan$"):
        Flat(math.nan)
    with pytest.raises(InvalidPriorError, match="^custom weight must be positive, got 0.0$"):
        Flat(0.0)
    with pytest.raises(InvalidPriorError, match="^custom weight must be finite, got inf$"):
        Flat(math.inf)


def test_jeffreys_is_flat_at_one_half():
    # it keeps its own constructor, equality, repr and name
    assert isinstance(Jeffreys(), Flat) and Jeffreys().weight == 0.5
    assert Jeffreys() == Jeffreys() and repr(Jeffreys()) == "Jeffreys()"
    assert Jeffreys() != Flat(0.5) and repr(Flat(0.5)) == "Flat(weight=0.5)"
    with pytest.raises(TypeError):
        Jeffreys(0.7)
    assert (Jeffreys().name, Flat(2.0).name, BDeu().name) == ("jeffreys", "custom", "bdeu")


def test_custom_weights_summing_past_float_range_are_invalid_priors():
    # each weight is finite, but two of them sum past the float range
    ds = Dataset.from_columns([("X", 2, [0, 1, 1]), ("Y", 2, [1, 1, 0])])
    prior = Flat(1e308)
    with pytest.raises(InvalidPriorError, match="sum past the float range"):
        prior.total_weight(ds.subset(["X"]).joint_arity)
    with pytest.raises(InvalidPriorError, match="sum past the float range"):
        marginal_score(ds, ["X"], prior)
    # the coupled local form sums X's two child-cell weights into a(u)
    with pytest.raises(InvalidPriorError, match="sum past the float range"):
        conditional_score_local(ds, "X", ["Y"], prior)


def test_weights_past_float_range_are_invalid_priors():
    # 2^1100 joint configurations do not fit a float at all
    wide = Dataset([(f"V{i}", 2) for i in range(1100)], [[0] * 1100, [1] * 1100])
    for prior in (Jeffreys(), BDeu(1.0)):
        with pytest.raises(InvalidPriorError,
                           match="a subset has more joint configurations than a float"):
            marginal_score(wide, range(1100), prior)
    # 2^1000 do, but a small equivalent sample size split over them is 0.0
    ds = Dataset([(f"V{i}", 2) for i in range(1000)], [[0] * 1000, [1] * 1000])
    with pytest.raises(InvalidPriorError, match="underflows"):
        marginal_score(ds, range(1000), BDeu(1e-30))
    assert math.isfinite(marginal_score(ds, range(1000), BDeu(1.0)))


# ------------------------------------------------- count-of-counts kernel

KERNEL_PRIORS = [Jeffreys(), BDeu(1.0), BDeu(1e-3)]


def per_cell_score(table, prior):
    """Reference for the kernel: one gamma ratio per observed cell, one fsum."""
    arity = table.gamma
    parts = [-log_gamma_ratio(table.n, prior.total_weight(arity))]
    parts += [log_gamma_ratio(c, prior.cell_weight(arity)) for _, c in table.items()]
    return math.fsum(parts)


def kernel_tables():
    """Seeded tables with many repeated counts: subsets of random data at
    arities 2-4 and n up to 5000 (the empty subset included), a table from
    marginalize, and a 65-column subset counted past int64 codes."""
    rng = np.random.default_rng(2024)
    for n in (1, 9, 120, 1000, 5000):
        ds = random_dataset(rng, n_vars=4, n=n, max_arity=4)
        for k in range(5):
            yield f"n={n} first {k}", counts(ds, range(k))
        yield f"n={n} marginal", counts(ds, range(4)).marginalize(ds.subset([0, 2]))
    distinct = rng.integers(0, 2, (6, 65))
    rows = distinct[rng.integers(0, 6, 300)].tolist()
    wide = Dataset([(f"V{i}", 2) for i in range(65)], rows)
    yield "65 columns", counts(wide, range(65))


def batch_scores(tables, prior):
    """``_table_scores`` of tables of one dataset, as one batch."""
    return scores._table_scores(
        [t.gamma for t in tables], tables[0].n,
        np.concatenate([t.frequencies for t in tables]),
        np.cumsum([0] + [t.num_nonzero for t in tables]), prior)


# Every way a table is scored: on its own, by the lattice kernel as a
# batch of one, and by the kernel with all the tables of one dataset (one
# n) in a single batch.
SCORING_PATHS = {
    "table_score": lambda tables, prior: [table_score(t, prior) for t in tables],
    "batches-of-one": lambda tables, prior: [batch_scores([t], prior)[0] for t in tables],
    "one-batch": batch_scores,
}


@pytest.mark.parametrize("path", SCORING_PATHS)
@pytest.mark.parametrize("prior", KERNEL_PRIORS, ids=repr)
def test_table_score_equals_per_cell_sum(prior, path):
    by_n = {}
    for label, table in kernel_tables():
        by_n.setdefault(table.n, []).append((label, table))
    for group in by_n.values():
        labels, tables = zip(*group)
        want = [per_cell_score(t, prior) for t in tables]
        assert SCORING_PATHS[path](tables, prior) == want, labels


@pytest.mark.parametrize("prior", [Jeffreys(), BDeu(1.0)], ids=repr)
def test_table_score_evaluates_per_cell_and_the_batch_kernel_per_count(prior, monkeypatch):
    seen = []

    def counted(n, b):
        seen.append(n)
        return log_gamma_ratio(n, b)

    monkeypatch.setattr(scores, "log_gamma_ratio", counted)
    rng = np.random.default_rng(5)
    small = counts(random_dataset(rng, n_vars=2, n=40, max_arity=3), [0, 1])
    big = counts(Dataset.from_columns([
        (f"V{i}", 2, rng.integers(0, 2, 2000).tolist()) for i in range(8)]), range(8))
    for table in (small, big):
        # per cell: the total first, then every cell in code order
        seen.clear()
        assert table_score(table, prior) == per_cell_score(table, prior)
        assert seen == [table.n] + table.frequencies.tolist()
    # batched: each distinct count once, and the total once
    seen.clear()
    assert batch_scores([big], prior) == [per_cell_score(big, prior)]
    distinct = Counter(big.frequencies.tolist())
    assert sorted(seen) == sorted([big.n] + list(distinct))
    assert len(distinct) < big.num_nonzero


def exact_sum_error_bound(c, b):
    """First-order float64 error bound of log_gamma_ratio(c, b) below the
    lgamma threshold: each ln(k + b) carries one rounding of k + b (2^-53
    after the log) and at most one ulp of the log; the fsum rounds once."""
    logs = np.log(np.arange(c, dtype=np.float64) + b)
    return c * 2.0**-53 + float(np.spacing(np.abs(logs)).sum())


def test_table_score_against_mpmath():
    # Against a 50-digit oracle, every gamma ratio the kernel evaluates
    # stays within its rounding bound plus one ulp, and the score within
    # the sum of those bounds.  Relative to the score's own size the error
    # can reach several ulp: at n=5000 the total-weight ratio (~37600) and
    # the cell ratios cancel to ~5500.
    with mpmath.workdps(50):
        for prior in KERNEL_PRIORS:
            for label, table in kernel_tables():
                arity = table.gamma
                parts = [(table.n, prior.total_weight(arity), -1)]
                parts += [(c, prior.cell_weight(arity), m)
                          for c, m in Counter(table.frequencies).items()]
                exact, bound = mpmath.mpf(0), 0.0
                for c, b, times in parts:
                    want = mp_log_gamma_ratio(c, b)
                    tol = exact_sum_error_bound(c, b) + math.ulp(float(want))
                    assert abs(log_gamma_ratio(c, b) - want) <= tol, (prior, label, c)
                    exact += times * want
                    bound += abs(times) * tol
                score = table_score(table, prior)
                assert abs(score - exact) <= bound + math.ulp(float(exact)), (prior, label)


@st.composite
def small_datasets(draw, min_vars=1, max_vars=3):
    arities = draw(st.lists(st.integers(2, 4), min_size=min_vars, max_size=max_vars))
    rows = draw(st.lists(st.tuples(*(st.integers(0, a - 1) for a in arities)),
                         min_size=1, max_size=40))
    return Dataset([(f"V{i}", a) for i, a in enumerate(arities)], rows)


def _subsets(ds):
    for k in range(ds.num_variables + 1):
        yield from itertools.combinations(range(ds.num_variables), k)


@settings(max_examples=80, deadline=None)
@given(small_datasets(), st.sampled_from(KERNEL_PRIORS), st.randoms(use_true_random=False))
def test_property_marginal_invariant_under_row_permutation(ds, prior, random):
    rows = ds.data.tolist()
    random.shuffle(rows)
    shuffled = Dataset(ds.variables, rows)
    for sub in _subsets(ds):
        assert marginal_score(shuffled, sub, prior) == marginal_score(ds, sub, prior)


@settings(max_examples=80, deadline=None)
@given(small_datasets(), st.sampled_from(KERNEL_PRIORS))
def test_property_marginal_equals_per_cell_sum(ds, prior):
    for sub in _subsets(ds):
        assert marginal_score(ds, sub, prior) == per_cell_score(counts(ds, sub), prior)


# Every prior whose cell weight depends only on the joint arity: Jeffreys,
# BDeu at an equivalent sample size, Flat at a weight (K2 is Flat(1)).
arity_priors = st.one_of(
    st.just(Jeffreys()),
    st.sampled_from([1e-3, 0.7, 1.0, 10.0]).map(BDeu),
    st.sampled_from([1e-3, 0.75, 1.0, 1.3, 3.0]).map(Flat),
)


def exact_cell_weight(prior, joint_arity):
    """A prior's cell weight from its definition, as an exact fraction."""
    if isinstance(prior, BDeu):
        return Fraction(prior.ess) / joint_arity
    return Fraction(prior.weight)


@settings(max_examples=80, deadline=None)
@given(small_datasets(), arity_priors)
def test_property_marginal_score_matches_exact_oracle(ds, prior):
    # The oracle is the product formula over every declared cell in exact
    # rationals, the float weights taken as Fraction(w).  The score may
    # differ by the rounding of its weights and of each gamma ratio: at
    # n <= 40 that stays far inside 1e-12 relative plus a few ulp.
    with mpmath.workdps(50):
        for sub in _subsets(ds):
            arities = [ds.arity_of(v) for v in sub]
            seen = Counter(map(tuple, ds.data[:, list(sub)].tolist()))
            cells = [seen[cell] for cell in itertools.product(*(range(a) for a in arities))]
            w = exact_cell_weight(prior, len(cells))
            want = mpmath.log(bd_oracle(cells, [w] * len(cells)))
            got = marginal_score(ds, sub, prior)
            assert abs(got - want) <= 1e-12 * abs(want) + 4 * math.ulp(float(want)), (sub, prior)


def _same_scores(ds, a, b):
    """Every score the package derives from a prior agrees under a and b."""
    k = ds.num_variables
    assert np.array_equal(_marginals(ds, a, k - 1), _marginals(ds, b, k - 1), equal_nan=True)
    for sub in _subsets(ds):
        assert table_score(counts(ds, sub), a) == table_score(counts(ds, sub), b)
    others = range(1, k)
    for parents in itertools.chain.from_iterable(
            itertools.combinations(others, r) for r in range(k)):
        assert (conditional_score_ratio(ds, 0, parents, a)
                == conditional_score_ratio(ds, 0, parents, b))
        for form in ("coupled", "independent"):
            assert (conditional_score_local(ds, 0, parents, a, parent_weight=form)
                    == conditional_score_local(ds, 0, parents, b, parent_weight=form))
    # the prior's name is echoed, and the names of Jeffreys and Flat differ
    stats_a = ci_statistics(ds, [0], [1], list(range(2, k)), a)
    stats_b = ci_statistics(ds, [0], [1], list(range(2, k)), b)
    assert dataclasses.replace(stats_a, prior=b.name) == stats_b
    assert audit(ds, 0, a, others, k - 1) == audit(ds, 0, b, others, k - 1)


def per_cell_local(ds, x, parents, prior, parent_weight):
    """Reference for the local form: one term per decoded parent cell and
    per joint cell; a coupled a(u) is the fsum of the u block's x_arity
    child-cell weights, one term per child cell."""
    u = ds.subset(parents)
    xu = u.union(ds.subset([x]))
    joint = counts(ds, xu)
    parts = []
    for ucell, cu in joint.marginalize(u).items():
        if parent_weight == "coupled":
            a_u = math.fsum(prior.cell_weight(xu.joint_arity) for _ in range(ds.arity_of(x)))
        else:
            a_u = prior.cell_weight(u.joint_arity)
        parts.append(-log_gamma_ratio(cu, a_u))
    parts += [log_gamma_ratio(c, prior.cell_weight(xu.joint_arity)) for _, c in joint.items()]
    return math.fsum(parts)


@settings(max_examples=60, deadline=None)
@given(small_datasets(min_vars=2), st.sampled_from([0.5, 0.75, 1.3, 1e-3, 3.0]))
def test_property_flat_prior_equals_constant_custom_prior(ds, w):
    # the local form's one weight per block is bit for bit the per-cell sum
    for prior in (Jeffreys(), BDeu(w), Flat(w)):
        for x in range(ds.num_variables):
            others = [v for v in range(ds.num_variables) if v != x]
            for parents in itertools.chain.from_iterable(
                    itertools.combinations(others, r) for r in range(len(others) + 1)):
                for form in ("coupled", "independent"):
                    assert (conditional_score_local(ds, x, parents, prior, parent_weight=form)
                            == per_cell_local(ds, x, parents, prior, form)), (prior, x, parents)
    assert ci_statistics(ds, [0], [1], [], Flat(w)).prior == "custom"
    _same_scores(ds, Jeffreys(), Flat(0.5))


@st.composite
def covered_edge_walks(draw):
    """A dataset of 3-5 columns, a random DAG over them, and the DAGs a
    random walk of covered-edge reversals reaches from it.  An edge x -> y
    is covered when pa(y) = pa(x) + {x}; reversing it keeps the DAG in its
    Markov equivalence class (Chickering, UAI 1995)."""
    ds = draw(small_datasets(min_vars=3, max_vars=5))
    k = ds.num_variables
    order = draw(st.permutations(range(k)))
    parents = [frozenset(u for u in order[:order.index(v)] if draw(st.booleans()))
               for v in range(k)]
    dags = [parents]
    for _ in range(draw(st.integers(1, 6))):
        covered = [(x, y) for y in range(k) for x in sorted(parents[y])
                   if parents[y] == parents[x] | {x}]
        if not covered:
            break
        x, y = draw(st.sampled_from(covered))
        parents = list(parents)
        parents[x], parents[y] = parents[x] | {y}, parents[y] - {x}
        dags.append(parents)
    return ds, dags


@settings(max_examples=60, deadline=None)
@given(covered_edge_walks(), arity_priors)
def test_property_covered_edge_reversals_keep_the_network_score(walk, prior):
    ds, dags = walk
    assert len({_equivalence_class_key(dag) for dag in dags}) == 1
    scores = [network_score(ds, [[ds.names[p] for p in sorted(ps)] for ps in dag], prior)
              for dag in dags]
    assert max(scores) - min(scores) <= 1e-9, dags
