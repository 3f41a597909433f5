"""Regularity audit, deterministic-data generator, constant-pair
inequalities, and the constant-column J profile."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdscore.citest import j_statistic
from bdscore.dataset import Dataset, empirical_cond_entropy
from bdscore.numerics import log_gamma_ratio
from bdscore.regularity import (
    DeterministicSpec,
    _j_profiles,
    audit,
    constant_pair_inequalities,
    j_statistic_profile,
    make_deterministic_dataset,
    source_variable_names,
)
from bdscore.scores import BDeu, Flat, Jeffreys
from oracles import list_built_deterministic_dataset, pointwise_j_profile

TABLE_SPEC = DeterministicSpec(
    z_arity=4,
    f=(0, 1, 1, 0),
    g=(0, 0, 0, 1),
    z_sequence=(0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3),
)


def test_generator_reproduces_fixture(data_dir):
    want = (data_dir / "xor_and_12.csv").read_text()
    assert make_deterministic_dataset(TABLE_SPEC).to_csv_text() == want
    assert source_variable_names(TABLE_SPEC) == ["Z", "W"]


def test_generator_odd_arity_single_column():
    spec = DeterministicSpec(z_arity=3, f=(0, 1, 1), g=(0, 0, 1), z_sequence=(0, 1, 2, 2))
    ds = make_deterministic_dataset(spec)
    assert ds.names == ("X", "Z", "Y")
    assert source_variable_names(spec) == ["Z"]
    assert ds.column("Z").tolist() == [0, 1, 2, 2]
    assert ds.column("X").tolist() == [0, 1, 1, 1]
    assert ds.column("Y").tolist() == [0, 0, 1, 1]


def test_generator_constant_maps():
    spec = DeterministicSpec(z_arity=2, f=(0, 0), g=(0, 0), z_sequence=(0, 1, 0, 1))
    ds = make_deterministic_dataset(spec)
    assert ds.column("X").tolist() == [0, 0, 0, 0]
    assert ds.column("Y").tolist() == [0, 0, 0, 0]
    assert ds.arity_of("X") == 2  # declared arity floors at 2


def test_generator_declared_arities():
    spec = DeterministicSpec(z_arity=2, f=(0, 1), g=(0, 0), z_sequence=(0, 1),
                             x_arity=3, y_arity=4)
    ds = make_deterministic_dataset(spec)
    assert ds.arity_of("X") == 3 and ds.arity_of("Y") == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=1, f=(0,), g=(0,), z_sequence=(0,))
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=2, f=(0,), g=(0, 1), z_sequence=(0,))
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=2, f=(0, 1), g=(0, 1), z_sequence=())
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=2, f=(0, 1), g=(0, 1), z_sequence=(0, 2))
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=2, f=(0, -1), g=(0, 1), z_sequence=(0,))
    with pytest.raises(ValueError):
        DeterministicSpec(z_arity=2, f=(0, 2), g=(0, 1), z_sequence=(0,), x_arity=2)


def test_spec_takes_whole_numbers_only():
    # each field by the rule Dataset applies to a cell: a whole float, a bool
    # or a numpy integer is taken as its int, a fraction is refused
    spec = DeterministicSpec(z_arity=4.0, f=(0, 1.0, True, np.int64(0)), g=(0, 0, 0, 1),
                             z_sequence=(0, 1.0, np.int8(3), True), x_arity=np.int32(3),
                             y_arity=2.0)
    assert spec == DeterministicSpec(4, (0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 3, 1), 3, 2)
    assert all(type(v) is int
               for v in (spec.z_arity, *spec.f, *spec.z_sequence, spec.x_arity, spec.y_arity))
    assert make_deterministic_dataset(spec).names == ("X", "Z", "W", "Y")
    for states in (np.array([0, 1, 1], dtype=np.uint8), [False, True, True]):
        spec = DeterministicSpec(z_arity=2, f=(0, 1), g=(1, 0), z_sequence=states)
        assert spec.z_sequence == (0, 1, 1) and all(type(v) is int for v in spec.z_sequence)
    for kwargs, message in (
        (dict(z_arity=2.5), "z_arity: 2.5 is not an integer"),
        (dict(z_arity=math.inf), "z_arity: inf is not an integer"),
        (dict(f=(0, 1.9), g=(0.5, 1), z_sequence=(0, 1.7, 1)), "f: 1.9 is not an integer"),
        (dict(g=(0.5, 1)), "g: 0.5 is not an integer"),
        (dict(z_sequence=(0, 1.7, 1)), "z_sequence: 1.7 is not an integer"),
        (dict(z_sequence=(0, "1")), "z_sequence: '1' is not an integer"),
        (dict(x_arity=2.5), "x_arity: 2.5 is not an integer"),
        (dict(y_arity=math.nan), "y_arity: nan is not an integer"),
        (dict(f=(0, 2**63)), "mapped child value 9223372036854775808 does not fit in a 64-bit integer"),
    ):
        fields = dict(z_arity=2, f=(0, 1), g=(0, 1), z_sequence=(0, 1)) | kwargs
        with pytest.raises(ValueError) as info:
            DeterministicSpec(**fields)
        assert str(info.value) == message


@st.composite
def deterministic_specs(draw):
    z_arity = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))
    value = st.integers(0, 3) | st.integers(0, 2**63 - 1)
    f, g = (tuple(draw(st.lists(value, min_size=z_arity, max_size=z_arity))) for _ in "fg")
    # up to 10**4 rows: a drawn block of states repeated
    block = draw(st.lists(st.integers(0, z_arity - 1), min_size=1, max_size=100))
    z_sequence = (block * draw(st.integers(1, 100)))[:10**4]
    x_arity, y_arity = (draw(st.none() | st.integers(max(max(m) + 1, 2), 2**64)) for m in (f, g))
    return DeterministicSpec(z_arity, f, g, z_sequence, x_arity, y_arity)


@settings(max_examples=150, deadline=None)
@given(deterministic_specs())
@example(TABLE_SPEC)
@example(DeterministicSpec(z_arity=16, f=tuple(range(16)), g=(2**63 - 1,) * 16,
                           z_sequence=[i % 16 for i in range(10**4)], y_arity=2**64))
@example(DeterministicSpec(z_arity=5, f=(0, 1, 0, 1, 0), g=(1, 0, 1, 0, 1), z_sequence=(4,),
                           x_arity=2**63))
def test_property_generator_equals_list_built_dataset(spec):
    ds = make_deterministic_dataset(spec)
    want = list_built_deterministic_dataset(spec)
    assert (ds.names, ds.arities) == (want.names, want.arities)
    assert np.array_equal(ds.data, want.data)
    assert ds.data.dtype == np.int64 and ds.data.flags.f_contiguous
    assert not ds.data.flags.writeable
    assert source_variable_names(spec) == list(want.names[1:-1])


@pytest.fixture(scope="module")
def eight_states():
    """10**6 rows of an 8-state source: five columns, 38.1 MiB of int64."""
    return DeterministicSpec(z_arity=8, f=(0, 1, 1, 0, 1, 0, 0, 1), g=(0, 0, 0, 1, 0, 1, 1, 1),
                             z_sequence=[z for z in range(8) for _ in range(125_000)])


def test_generator_allocates_its_table_and_little_more(eight_states):
    # no per-row list, and no copy of the table or of the source states
    tracemalloc.start()
    try:
        ds = make_deterministic_dataset(eight_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.data.shape == (10**6, 5)
    assert peak < 1.6 * ds.data.nbytes, peak / ds.data.nbytes


def test_source_names_do_not_read_the_sequence(eight_states):
    tracemalloc.start()
    try:
        names = source_variable_names(eight_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert names == ["Z1", "Z2", "Z3"]
    assert peak < 2**20


# -------------------------------------------------------------------- audit


def test_audit_on_table(xor_and):
    violations = audit(xor_and, "X", BDeu(1.0), ["Y", "Z", "W"])
    assert len(violations) == 1
    v = violations[0]
    assert [xor_and.names[i] for i in v.u.indices] == ["Z", "W"]
    assert [xor_and.names[i] for i in v.u_prime.indices] == ["Z", "W", "Y"]
    assert v.h_u == pytest.approx(0.0, abs=1e-12)
    assert v.h_u_prime == pytest.approx(0.0, abs=1e-12)
    # conditional scores are products of per-block fractions, one per
    # observed (Z, W) state
    assert v.score_u == pytest.approx(math.log(Fraction(17, 40) ** 4), abs=1e-12)
    assert v.score_u_prime == pytest.approx(math.log(Fraction(11, 24) ** 4), abs=1e-12)
    assert v.score_u < v.score_u_prime

    assert audit(xor_and, "X", Jeffreys(), ["Y", "Z", "W"]) == []
    for crit in ("aic", "bic"):
        assert audit(xor_and, "X", BDeu(1.0), ["Y", "Z", "W"], criterion=crit) == []


def test_audit_validation(xor_and):
    with pytest.raises(ValueError):
        audit(xor_and, "X", BDeu(1.0), ["X", "Y"])
    with pytest.raises(ValueError):
        audit(xor_and, "X", BDeu(1.0), ["Y"], max_parent_size=0)
    with pytest.raises(ValueError):
        audit(xor_and, "X", BDeu(1.0), ["Y"], criterion="mdl")


def random_deterministic_spec(rng):
    z_arity = int(rng.integers(2, 5))
    n = int(rng.integers(2, 30))
    f = tuple(int(v) for v in rng.integers(0, int(rng.integers(2, 4)), z_arity))
    g = tuple(int(v) for v in rng.integers(0, int(rng.integers(2, 4)), z_arity))
    z_seq = [int(v) for v in rng.integers(0, z_arity, n)]
    z_seq[min(1, n - 1)] = z_seq[0]  # force one source block of size >= 2
    return DeterministicSpec(z_arity=z_arity, f=f, g=g, z_sequence=tuple(z_seq))


def test_audit_randomized_deterministic_children():
    # any split-weight ESS prefers the padded parent set on functional
    # data with a repeated source state; flat weights never do
    rng = np.random.default_rng(113)
    for trial in range(60):
        spec = random_deterministic_spec(rng)
        ds = make_deterministic_dataset(spec)
        sources = source_variable_names(spec)
        ess = float(rng.choice([0.1, 0.5, 1.0, 2.0, 10.0]))
        split = audit(ds, "X", BDeu(ess), sources + ["Y"])
        found = any(
            [ds.names[i] for i in v.u.indices] == sources
            and set(ds.names[i] for i in v.u_prime.indices) == set(sources) | {"Y"}
            for v in split
        )
        assert found, (trial, spec)
        assert audit(ds, "X", Jeffreys(), sources + ["Y"]) == [], (trial, spec)


def test_audit_entropy_premise_is_enforced():
    # a pair whose entropy strictly drops is never reported, whatever
    # the scores do
    ds = make_deterministic_dataset(TABLE_SPEC)
    violations = audit(ds, "X", BDeu(1.0), ["Y", "Z", "W"])
    for v in violations:
        assert v.h_u <= v.h_u_prime + 1e-12
    h_z = empirical_cond_entropy(ds, "X", ["Z"], base="e")
    h_zw = empirical_cond_entropy(ds, "X", ["Z", "W"], base="e")
    assert h_z > h_zw  # so (Z,) inside (Z, W) fails the premise


# ------------------------------------------------------------- inequalities


def gaps(n, alpha, beta, ess):
    flat = (log_gamma_ratio(n, alpha * beta / 2.0) + log_gamma_ratio(n, 0.5)
            - log_gamma_ratio(n, alpha / 2.0) - log_gamma_ratio(n, beta / 2.0))
    split = (log_gamma_ratio(n, ess / (alpha * beta)) + log_gamma_ratio(n, ess)
             - log_gamma_ratio(n, ess / alpha) - log_gamma_ratio(n, ess / beta))
    return flat, split


def test_inequalities_hold_on_grid():
    for alpha in (2, 3, 4):
        for beta in (2, 3, 4):
            for ess in (0.25, 1.0, 4.0):
                for n in (0, 1, 2, 3, 7, 20, 100):
                    check = constant_pair_inequalities(n, alpha, beta, ess)
                    assert check.jeffreys_holds and check.bdeu_holds
                    flat, split = gaps(n, alpha, beta, ess)
                    assert flat >= -1e-12 and split >= -1e-12


def test_inequalities_equalities_and_strictness():
    # n = 0 and n = 1 are exact equalities; both gaps turn strictly
    # positive at n = 2
    for n in (0, 1):
        flat, split = gaps(n, 2, 3, 0.7)
        assert flat == pytest.approx(0.0, abs=1e-14)
        assert split == pytest.approx(0.0, abs=1e-14)
    flat, split = gaps(2, 2, 2, 1.0)
    assert split > 1e-3
    assert flat > 1e-3


def test_inequalities_validation():
    with pytest.raises(ValueError):
        constant_pair_inequalities(-1, 2, 2, 1.0)
    with pytest.raises(ValueError):
        constant_pair_inequalities(5, 1, 2, 1.0)
    with pytest.raises(ValueError):
        constant_pair_inequalities(5, 2, 2, 0.0)
    for alpha, beta in ((2.5, 3), (2, 3.0), (True, 2), (2, np.float64(2)), (Fraction(5, 2), 3)):
        with pytest.raises(ValueError, match="arities must be integers"):
            constant_pair_inequalities(10, alpha, beta, 1.0)


# ------------------------------------------------------------------ profile


def test_profile_flat_is_count_invariant():
    n = 60
    base_value = j_statistic_profile(n, 0, Jeffreys())
    for ones in range(n + 1):
        assert j_statistic_profile(n, ones, Jeffreys()) == pytest.approx(
            base_value, abs=1e-12)
    want = math.log(
        math.sqrt(math.pi) * math.gamma(n + 1) / ((n + 1) * math.gamma(n + 0.5))) / n
    assert base_value == pytest.approx(want, abs=1e-12)
    assert base_value < 0.0


def test_profile_split_sign_structure():
    n = 100
    values = [j_statistic_profile(n, r, BDeu(1.0)) for r in range(n + 1)]
    positive = {r for r, v in enumerate(values) if v > 0.0}
    assert positive == {0, 1, 2, 3, n - 3, n - 2, n - 1, n}
    # symmetric in ones <-> zeros
    for r in range(n + 1):
        assert values[r] == pytest.approx(values[n - r], abs=1e-12)


def test_profile_split_matches_term_decomposition():
    def phi(m):
        return log_gamma_ratio(m, 0.25) - log_gamma_ratio(m, 0.5)

    for n in (1, 2, 5, 17):
        psi = log_gamma_ratio(n, 1.0) - log_gamma_ratio(n, 0.5)
        for r in range(n + 1):
            want = (phi(r) + phi(n - r) + psi) / n
            got = j_statistic_profile(n, r, BDeu(1.0))
            assert got == pytest.approx(want, abs=1e-12)


def test_profile_single_row_is_zero():
    for prior in (Jeffreys(), BDeu(1.0), BDeu(0.3)):
        assert j_statistic_profile(1, 0, prior) == pytest.approx(0.0, abs=1e-14)
        assert j_statistic_profile(1, 1, prior) == pytest.approx(0.0, abs=1e-14)


def test_profile_validation():
    with pytest.raises(ValueError):
        j_statistic_profile(10, 11, Jeffreys())
    with pytest.raises(ValueError):
        j_statistic_profile(10, -1, Jeffreys())
    with pytest.raises(ValueError):
        j_statistic_profile(0, 0, Jeffreys())


@pytest.mark.parametrize("n, ones", [(10, 1.5), (10.0, 1), (10, 2.0), (True, 0), (10, False),
                                     (10, "1"), (None, 0), (10, np.float64(1.0))])
def test_profile_rejects_non_integer_arguments(n, ones):
    with pytest.raises(ValueError, match="must be integers"):
        j_statistic_profile(n, ones, Jeffreys())


def test_profile_takes_numpy_integers():
    for prior in (Jeffreys(), BDeu(1.0)):
        assert j_statistic_profile(np.int64(40), np.int32(7), prior) == \
            j_statistic_profile(40, 7, prior)


def _row_profile(n, ones, prior):
    """j_statistic of the profile's pair, from its n materialised rows."""
    x = np.zeros(n, dtype=np.int64)
    x[:ones] = 1
    ds = Dataset.from_columns([("X", 2, x), ("Y", 2, np.zeros(n, dtype=np.int64))])
    return j_statistic(ds, ["X"], ["Y"], (), prior)


@pytest.mark.parametrize("prior", [
    Jeffreys(), BDeu(1.0), BDeu(0.25), Flat(0.75),
], ids=["jeffreys", "bdeu1", "bdeu0.25", "custom"])
def test_profile_table_path_equals_row_path_bit_for_bit(prior):
    for n in (1, 2, 7, 100, 2000):
        for ones in range(n + 1):
            assert j_statistic_profile(n, ones, prior) == _row_profile(n, ones, prior), (n, ones)


def test_profile_flat_at_a_billion_rows():
    # 10**9 rows would take 16 GB as a dataset; the 2x2 table takes none.
    # n*J is a difference of scores near 2e10, whose ulp is 4e-6, so both
    # bounds are on n*J at a few of those ulp.
    n = 10**9
    values = [j_statistic_profile(n, r, Jeffreys())
              for r in (0, 1, 2, 1000, 10**6, 10**6 + 1, 10**8, n // 2)]
    assert (max(values) - min(values)) * n <= 1e-5
    closed = (mpmath.log(mpmath.sqrt(mpmath.pi)) + mpmath.loggamma(n + 1) - mpmath.log(n + 1)
              - mpmath.loggamma(n + mpmath.mpf(0.5))) / n
    assert abs(values[0] - closed) * n <= 2e-5


@st.composite
def profile_grids(draw):
    """An n, and counts of ones in 0..n in any order, repeats and the ends
    of the range made likely."""
    n = draw(st.one_of(st.integers(1, 5000), st.sampled_from([10**9, 2**63 - 1])))
    one = st.one_of(st.integers(0, n), st.sampled_from([0, 1, n // 2, n - 1, n]))
    return n, draw(st.lists(one, max_size=12))


profile_priors = st.one_of(st.just(Jeffreys()),
                           st.floats(1e-3, 1e3).map(BDeu),
                           st.floats(1e-3, 1e3).map(Flat))


@settings(max_examples=300, deadline=None)
@given(profile_grids(), profile_priors)
@example((1, [0, 1, 1, 0]), Jeffreys())
@example((2000, list(range(1001))), BDeu(1.0))
@example((2**63 - 1, [2**63 - 1, 0, 1, 2**62, 2**63 - 1]), BDeu(1e-3))
@example((10**9, [10**6, 10**6 + 1, 10**9]), Flat(1e3))
def test_property_batched_profile_equals_pointwise_profile(grid, prior):
    # one batch of every point's tables gives, point for point, the float
    # that the point's own four margins scored one by one give
    n, ones = grid
    got = _j_profiles(n, ones, prior)
    assert len(got) == len(ones)
    for r, value in zip(ones, got):
        assert value == pointwise_j_profile(n, r, prior), (n, r, prior)


def test_profile_past_64_bit_counts_is_refused():
    with pytest.raises(ValueError, match="does not fit in a 64-bit count"):
        j_statistic_profile(2**63, 1, Jeffreys())
