"""Acceptance gate: one test per shipped claim, each against an oracle
that is independent of the library code under test.

Run ``pytest tests/test_acceptance.py -v``; the terminal summary prints
one status line per criterion.  Criterion 2 has a strict-xfail companion
documenting two reference digits that do not match this table (see the
comment there); everything else must pass at the stated tolerances.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from bdscore.cli import main
from bdscore.citest import j_statistic
from bdscore.dataset import Dataset, load_csv
from bdscore.regularity import (
    DeterministicSpec,
    audit,
    constant_pair_inequalities,
    j_statistic_profile,
    make_deterministic_dataset,
    source_variable_names,
)
from bdscore.scores import (
    BDeu,
    Jeffreys,
    conditional_score_local,
    conditional_score_ratio,
    marginal_score,
    network_score,
)
from bdscore.search import (
    Network,
    enumerate_n3_classes,
    learn_exact,
)
from oracles import all_dags, bd_oracle, mp_log_gamma_ratio, random_dataset

mp.dps = 50


# ------------------------------------------------------------ oracles


def cell_counts(ds, names):
    """Counts over every declared cell of the named margin, row loops only."""
    cols = [list(ds.column(v)) for v in names]
    arities = [ds.arity_of(v) for v in names]
    got = Counter(zip(*cols)) if cols else Counter({(): ds.n})
    return [got.get(cell, 0) for cell in itertools.product(*(range(a) for a in arities))]


# -------------------------------------------------------------- criteria


def test_criterion_01_constant_pair_reference_values(constant_pair):
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    q_x = bd_oracle(cell_counts(constant_pair, ["X"]), [half, half])
    q_xy_flat = bd_oracle(cell_counts(constant_pair, ["X", "Y"]), [half] * 4)
    q_xy_split = bd_oracle(cell_counts(constant_pair, ["X", "Y"]), [quarter] * 4)
    assert q_x == Fraction(63, 256)

    got_x = math.exp(marginal_score(constant_pair, ["X"], Jeffreys()))
    got_y = math.exp(marginal_score(constant_pair, ["Y"], Jeffreys()))
    got_flat = math.exp(marginal_score(constant_pair, ["X", "Y"], Jeffreys()))
    got_split = math.exp(marginal_score(constant_pair, ["X", "Y"], BDeu(1.0)))

    # exact product-formula oracle
    assert got_x == pytest.approx(float(q_x), abs=1e-9)
    assert got_x * got_y == pytest.approx(float(q_x * q_x), abs=1e-9)
    assert got_flat == pytest.approx(float(q_xy_flat), abs=1e-9)
    assert got_split == pytest.approx(float(q_xy_split), abs=1e-9)

    # documented reference digits
    assert got_x == pytest.approx(0.246, abs=5e-4)
    assert got_x * got_y == pytest.approx(0.0605, abs=5e-4)
    assert got_flat == pytest.approx(0.0410, abs=5e-4)
    assert got_split == pytest.approx(0.0809, abs=5e-4)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_table_audit_and_argmax(xor_and):
    t0 = time.perf_counter()
    eighth = Fraction(1, 8)
    sixteenth = Fraction(1, 16)
    quarter = Fraction(1, 4)
    q_xzw = bd_oracle(cell_counts(xor_and, ["X", "Z", "W"]), [eighth] * 8)
    q_zw = bd_oracle(cell_counts(xor_and, ["Z", "W"]), [quarter] * 4)
    q_xyzw = bd_oracle(cell_counts(xor_and, ["X", "Y", "Z", "W"]), [sixteenth] * 16)
    q_yzw = bd_oracle(cell_counts(xor_and, ["Y", "Z", "W"]), [eighth] * 8)
    assert q_xzw / q_zw == Fraction(17, 40) ** 4
    assert q_xyzw / q_yzw == Fraction(11, 24) ** 4

    got_u = conditional_score_ratio(xor_and, "X", ["Z", "W"], BDeu(1.0))
    got_up = conditional_score_ratio(xor_and, "X", ["Y", "Z", "W"], BDeu(1.0))
    assert got_u == pytest.approx(float(mp.log(Fraction(17, 40) ** 4)), abs=1e-9)
    assert got_up == pytest.approx(float(mp.log(Fraction(11, 24) ** 4)), abs=1e-9)
    assert got_u < got_up  # the padded parent set wins despite equal entropy

    violations = audit(xor_and, "X", BDeu(1.0), ["Y", "Z", "W"])
    pairs = {
        (tuple(xor_and.names[i] for i in v.u.indices),
         tuple(xor_and.names[i] for i in v.u_prime.indices))
        for v in violations
    }
    assert (("Z", "W"), ("Z", "W", "Y")) in pairs

    # the learned structure gives X the padded parent set under BDeu only
    x = xor_and.index_of("X")
    chosen = learn_exact(xor_and, BDeu(1.0)).parents[x]
    assert set(xor_and.names[i] for i in chosen) == {"Y", "Z", "W"}
    chosen = learn_exact(xor_and, Jeffreys()).parents[x]
    assert set(xor_and.names[i] for i in chosen) == {"Z", "W"}
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="reference digits 0.0767/0.0962 equal the per-block conditional "
    "ratios cubed, i.e. a three-block table; this 12-row table has four "
    "(Z, W) blocks, so the true products are (17/40)^4 = 0.0326 and "
    "(11/24)^4 = 0.0441",
)
def test_criterion_02_reference_digits(xor_and):
    got_u = math.exp(conditional_score_ratio(xor_and, "X", ["Z", "W"], BDeu(1.0)))
    got_up = math.exp(conditional_score_ratio(xor_and, "X", ["Y", "Z", "W"], BDeu(1.0)))
    assert got_u == pytest.approx(0.0767, abs=5e-4)
    assert got_up == pytest.approx(0.0962, abs=5e-4)


def test_criterion_03_deterministic_children_signs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(307)
    for draw in range(200):
        z_arity = int(rng.integers(2, 5))
        x_arity = int(rng.integers(2, 4))
        y_arity = int(rng.integers(2, 4))
        n = int(rng.integers(2, 51))
        f = tuple(int(v) for v in rng.integers(0, x_arity, z_arity))
        g = tuple(int(v) for v in rng.integers(0, y_arity, z_arity))
        z_seq = [int(v) for v in rng.integers(0, z_arity, n)]
        z_seq[1] = z_seq[0]  # guarantee one source block of two rows
        spec = DeterministicSpec(z_arity=z_arity, f=f, g=g,
                                 z_sequence=tuple(z_seq),
                                 x_arity=x_arity, y_arity=y_arity)
        ds = make_deterministic_dataset(spec)
        sources = source_variable_names(spec)
        for ess in (0.1, 0.5, 1.0, 10.0):
            assert j_statistic(ds, ["X"], ["Y"], sources, BDeu(ess)) > 0.0, (draw, ess)
        assert j_statistic(ds, ["X"], ["Y"], sources, Jeffreys()) <= 0.0, draw
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_constant_column_profile():
    t0 = time.perf_counter()
    n = 100

    def split_oracle(r):
        phi_r = mp_log_gamma_ratio(r, 0.25) - mp_log_gamma_ratio(r, 0.5)
        phi_nr = mp_log_gamma_ratio(n - r, 0.25) - mp_log_gamma_ratio(n - r, 0.5)
        psi = mp_log_gamma_ratio(n, 1) - mp_log_gamma_ratio(n, 0.5)
        return (phi_r + phi_nr + psi) / n

    split = [j_statistic_profile(n, r, BDeu(1.0)) for r in range(n // 2 + 1)]
    assert {r for r, v in enumerate(split) if v > 0.0} == {0, 1, 2, 3}
    for r in range(4, n // 2 + 1):
        assert (split[r] > 0.0) == (split_oracle(r) > 0), r

    flat = [j_statistic_profile(n, r, Jeffreys()) for r in range(n // 2 + 1)]
    assert max(flat) - min(flat) <= 1e-12
    closed = (math.log(math.sqrt(math.pi)) + math.lgamma(n + 1)
              - math.log(n + 1) - math.lgamma(n + 0.5)) / n
    assert flat[0] == pytest.approx(closed, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_correction_sweep(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "dn-sweep", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,correction,threshold,above"
    flags = [int(line.split(",")[3]) for line in lines[1:]]
    assert len(flags) == 200
    assert sum(flags) >= 0.99 * len(flags)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_residuals_bounded(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "residuals.csv"
    assert main(["experiment", "residuals", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,residual_jeffreys,residual_bdeu"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [100, 1000, 10000, 100000]
    for col in (1, 2):
        values = [abs(float(r[col])) for r in rows]
        assert max(values) <= 3.0 * values[0]
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_normalization():
    for prior in (Jeffreys(), BDeu(1.0)):
        total = math.fsum(
            math.exp(marginal_score(
                Dataset.from_columns([("X", 2, list(seq))]), ["X"], prior))
            for seq in itertools.product(range(2), repeat=10)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_criterion_08_constant_pair_inequalities():
    from bdscore.numerics import log_gamma_ratio

    def gaps(n, alpha, beta, ess):
        flat = (log_gamma_ratio(n, alpha * beta / 2.0) + log_gamma_ratio(n, 0.5)
                - log_gamma_ratio(n, alpha / 2.0) - log_gamma_ratio(n, beta / 2.0))
        split = (log_gamma_ratio(n, ess / (alpha * beta)) + log_gamma_ratio(n, ess)
                 - log_gamma_ratio(n, ess / alpha) - log_gamma_ratio(n, ess / beta))
        return flat, split

    for alpha in (2, 3, 4):
        for beta in (2, 3, 4):
            for ess in (0.25, 1.0, 4.0):
                for n in range(101):
                    check = constant_pair_inequalities(n, alpha, beta, ess)
                    assert check.jeffreys_holds, (n, alpha, beta, ess)
                    assert check.bdeu_holds, (n, alpha, beta, ess)
                flat0, split0 = gaps(0, alpha, beta, ess)
                assert flat0 == 0.0 and split0 == 0.0
                _, split2 = gaps(2, alpha, beta, ess)
                assert split2 > 0.0, (alpha, beta, ess)


def test_criterion_09_local_form_equivalence(constant_pair):
    rng = np.random.default_rng(911)
    for trial in range(100):
        n_vars = int(rng.integers(2, 5))
        ds = random_dataset(rng, n_vars, int(rng.integers(3, 40)))
        ess = float(rng.choice([0.25, 1.0, 4.0]))
        child = int(rng.integers(0, n_vars))
        others = [i for i in range(n_vars) if i != child]
        k = int(rng.integers(0, len(others) + 1))
        parents = list(rng.choice(others, size=k, replace=False)) if k else []
        parents = [int(v) for v in parents]
        coupled = conditional_score_local(ds, child, parents, BDeu(ess),
                                          parent_weight="coupled")
        ratio = conditional_score_ratio(ds, child, parents, BDeu(ess))
        assert coupled == pytest.approx(ratio, abs=1e-9), trial

    # shipped witness: flat weights with independently weighted parent
    # cells disagree with the ratio form
    independent = conditional_score_local(constant_pair, "Y", ["X"], Jeffreys(),
                                          parent_weight="independent")
    ratio = conditional_score_ratio(constant_pair, "Y", ["X"], Jeffreys())
    assert abs(independent - ratio) > 1e-6


def test_criterion_10_search_matches_brute_force():
    rng = np.random.default_rng(1013)
    sizes = [2, 3, 4] * 7
    for trial in range(20):
        n_vars = sizes[trial]
        ds = random_dataset(rng, n_vars, 50)
        prior = (Jeffreys(), BDeu(1.0))[trial % 2]
        best = max(network_score(ds, Network(dag), prior) for dag in all_dags(n_vars))
        net = learn_exact(ds, prior)
        assert network_score(ds, net, prior) == pytest.approx(best, abs=1e-9), trial
        if n_vars == 3:
            class_best = max(v for _, v in enumerate_n3_classes(ds, prior))
            assert class_best == pytest.approx(best, abs=1e-9), trial
