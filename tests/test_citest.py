"""Independence-statistic tests: exact J oracles, penalized MI, the
split-weight correction term, decisions, and expansion residuals."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import bdscore.citest
import bdscore.dataset
import bdscore.scores
from bdscore import cli
from bdscore.citest import (
    _margins,
    _pair_margins,
    asymptotic_residuals,
    bdeu_correction,
    ci_decide_cond,
    ci_decide_pair,
    ci_statistics,
    j_statistic,
    penalized_mutual_information,
)
from bdscore.dataset import ContingencyTable, Dataset, _columns, counts
from bdscore.scores import (
    BDeu,
    Flat,
    Jeffreys,
    conditional_score_ratio,
    marginal_score,
)


def test_j_signs_on_deterministic_children(xor_and):
    j_split = j_statistic(xor_and, ["X"], ["Y"], ["Z", "W"], BDeu(1.0))
    j_flat = j_statistic(xor_and, ["X"], ["Y"], ["Z", "W"], Jeffreys())
    assert j_split > 0.0
    assert j_flat <= 0.0


def test_j_exact_on_constant_pair(constant_pair):
    # J = (1/n) ln[Q(X,Y) / (Q(X) Q(Y))] with every factor a known fraction
    ratio_split = Fraction(9945, 122880) / (Fraction(63, 256) ** 2)
    got = j_statistic(constant_pair, ["X"], ["Y"], [], BDeu(1.0))
    assert got == pytest.approx(math.log(ratio_split) / 5, abs=1e-12)
    assert got > 0.0

    ratio_flat = Fraction(945, 23040) / (Fraction(63, 256) ** 2)
    got = j_statistic(constant_pair, ["X"], ["Y"], [], Jeffreys())
    assert got == pytest.approx(math.log(ratio_flat) / 5, abs=1e-12)
    assert got < 0.0


def test_j_empty_z_identity(xor_and):
    for prior in (Jeffreys(), BDeu(2.0)):
        got = j_statistic(xor_and, ["X"], ["Y"], [], prior)
        want = (marginal_score(xor_and, ["X", "Y"], prior)
                - marginal_score(xor_and, ["X"], prior)
                - marginal_score(xor_and, ["Y"], prior)) / xor_and.n
        assert got == pytest.approx(want, abs=1e-12)


def test_j_symmetric_in_x_and_y(xor_and):
    for prior in (Jeffreys(), BDeu(0.5), Flat(2.0)):
        a = j_statistic(xor_and, ["X"], ["Y"], ["Z"], prior)
        b = j_statistic(xor_and, ["Y"], ["X"], ["Z"], prior)
        assert a == pytest.approx(b, abs=1e-12)


def test_j_rejects_overlap_and_empty(xor_and):
    with pytest.raises(ValueError):
        j_statistic(xor_and, ["X"], ["X"], [], Jeffreys())
    with pytest.raises(ValueError):
        j_statistic(xor_and, ["X"], ["Y"], ["Y"], Jeffreys())
    with pytest.raises(ValueError):
        j_statistic(xor_and, [], ["Y"], [], Jeffreys())


# ------------------------------------------------------------ penalized MI


def test_mi_copy_column():
    ds = Dataset.from_columns([("A", 2, [0, 0, 0, 0, 1, 1, 1, 1]),
                               ("B", 2, [0, 0, 0, 0, 1, 1, 1, 1])])
    got = penalized_mutual_information(ds, ["A"], ["B"], [], base="e")
    assert got == pytest.approx(math.log(2) - math.log(8) / 16, abs=1e-12)


def test_mi_exact_factorization():
    # all four (x, y) combinations once: empirical MI is exactly zero
    ds = Dataset.from_columns([("A", 2, [0, 0, 1, 1]), ("B", 2, [0, 1, 0, 1])])
    got = penalized_mutual_information(ds, ["A"], ["B"], [], base="e")
    assert got == pytest.approx(-math.log(4) / 8, abs=1e-12)


def test_mi_brute_force_oracle(xor_and):
    # cell keys follow dataset column order: (X, Z, W, Y)
    n = xor_and.n
    joint = counts(xor_and, ["X", "Y", "Z", "W"]).cells
    cz = counts(xor_and, ["Z", "W"]).cells
    cxz = counts(xor_and, ["X", "Z", "W"]).cells
    cyz = counts(xor_and, ["Y", "Z", "W"]).cells
    mi = 0.0
    for (x, z, w, y), c in joint.items():
        mi += (c / n) * math.log(c * cz[(z, w)] / (cxz[(x, z, w)] * cyz[(z, w, y)]))
    want = mi - (1 * 1 * 4) / (2 * n) * math.log(n)
    got = penalized_mutual_information(xor_and, ["X"], ["Y"], ["Z", "W"], base="e")
    assert got == pytest.approx(want, abs=1e-12)


def test_mi_base_conversion(xor_and):
    nats = penalized_mutual_information(xor_and, ["X"], ["Y"], ["Z", "W"], base="e")
    bits = penalized_mutual_information(xor_and, ["X"], ["Y"], ["Z", "W"], base=2)
    assert bits == pytest.approx(nats / math.log(2), abs=1e-12)


# --------------------------------------------------------------- correction


def reference_correction(ds, x_vars, y_vars, z_vars, ess, base):
    """Independent re-implementation: plain loops over full state spaces."""
    xs, ys, zs = ds.subset(x_vars), ds.subset(y_vars), ds.subset(z_vars)
    a, b, g = xs.joint_arity, ys.joint_arity, zs.joint_arity
    n = ds.n

    def margin_sum(subset, w):
        table = counts(ds, subset).cells
        total = 0.0
        for cell in itertools.product(*(range(a) for a in subset.arities)):
            c = table.get(cell, 0)
            total += math.log((c + w) / (n + ess))
        return total

    value = (
        -(ess / (a * g) - 0.5) * margin_sum(xs.union(zs), ess / (a * g))
        - (ess / (b * g) - 0.5) * margin_sum(ys.union(zs), ess / (b * g))
        + (ess / (a * b * g) - 0.5) * margin_sum(xs.union(ys).union(zs), ess / (a * b * g))
        + (ess / g - 0.5) * margin_sum(zs, ess / g)
    )
    return value / math.log(base) if base != "e" else value


def test_correction_against_reference():
    rng = np.random.default_rng(71)
    for trial in range(40):
        n = int(rng.integers(3, 60))
        cols = [("X", int(rng.integers(2, 4)), None),
                ("Y", int(rng.integers(2, 4)), None),
                ("Z", int(rng.integers(2, 3)), None)]
        cols = [(nm, ar, rng.integers(0, ar, n).tolist()) for nm, ar, _ in cols]
        ds = Dataset.from_columns(cols)
        ess = float(rng.choice([0.25, 1.0, 3.0]))
        got = bdeu_correction(ds, "X", "Y", ["Z"], ess=ess, base=2)
        want = reference_correction(ds, ["X"], ["Y"], ["Z"], ess, 2)
        assert got == pytest.approx(want, abs=1e-12), trial


def test_correction_binary_pair_reduction():
    # alpha=beta=2, gamma=1, ess=1: only the joint-margin term survives,
    # with coefficient -1/4
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        ds = Dataset.from_columns([("X", 2, rng.integers(0, 2, n).tolist()),
                                   ("Y", 2, rng.integers(0, 2, n).tolist())])
        table = counts(ds, ["X", "Y"]).cells
        want = -0.25 * sum(
            math.log2((table.get((x, y), 0) + 0.25) / (n + 1))
            for x in range(2) for y in range(2))
        got = bdeu_correction(ds, "X", "Y", [], ess=1.0, base=2)
        assert got == pytest.approx(want, abs=1e-12)


def test_correction_equal_counts_is_two_bits():
    for quarter in (1, 3, 10):
        n = 4 * quarter
        ds = Dataset.from_columns([
            ("X", 2, [0] * (2 * quarter) + [1] * (2 * quarter)),
            ("Y", 2, ([0] * quarter + [1] * quarter) * 2),
        ])
        got = bdeu_correction(ds, "X", "Y", [], ess=1.0, base=2)
        assert got == pytest.approx(2.0, abs=1e-12)
        # the sweep's flag compares against 0.5*log2(n): an evenly split
        # draw sits below it from n=16 on
        assert (got > 0.5 * math.log2(n)) == (n < 16)


def test_correction_requires_positive_ess(xor_and):
    with pytest.raises(ValueError):
        bdeu_correction(xor_and, "X", "Y", [], ess=0.0)


def test_arities_past_float_range_are_input_errors():
    # a 1,098-column Z gives 2^1100 XYZ configurations, past float range
    ds = Dataset([(f"V{i}", 2) for i in range(1100)], [[0] * 1100, [1] * 1100])
    z = list(range(2, 1100))
    too_many = "a subset has more joint configurations than a float can describe"
    with pytest.raises(bdscore.scores.InvalidPriorError, match=too_many):
        penalized_mutual_information(ds, "V0", "V1", z)
    with pytest.raises(bdscore.scores.InvalidPriorError, match=too_many):
        bdeu_correction(ds, "V0", "V1", z, ess=1.0)
    # 1,000 columns still fit
    assert math.isfinite(penalized_mutual_information(ds, "V0", "V1", list(range(2, 1000))))
    assert math.isfinite(bdeu_correction(ds, "V0", "V1", list(range(2, 1000)), ess=1.0))


# ------------------------------------------------------------ n=1 boundary


def test_single_row_is_a_tie():
    ds = Dataset.from_columns([("X", 2, [0]), ("Y", 2, [0])])
    verdict = ci_decide_pair(ds, "X", "Y", Jeffreys(), 0.5)
    assert verdict.left == pytest.approx(verdict.right, abs=1e-12)
    assert verdict.independent  # ties go to independence


# ---------------------------------------------------------------- verdicts


def test_constant_pair_verdicts(constant_pair):
    assert ci_decide_pair(constant_pair, "X", "Y", Jeffreys(), 0.5).independent
    assert not ci_decide_pair(constant_pair, "X", "Y", BDeu(1.0), 0.5).independent


def test_copied_column_is_dependent():
    half = [0] * 100 + [1] * 100
    ds = Dataset.from_columns([("A", 2, half), ("B", 2, half)])
    assert not ci_decide_pair(ds, "A", "B", Jeffreys(), 0.5).independent


def test_conditional_verdict_on_blocks(xor_and):
    # given (Z, W) both children are constants, so flat weights call
    # them conditionally independent
    assert ci_decide_cond(xor_and, "X", "Y", ["Z", "W"], Jeffreys(), 0.5).independent
    assert not ci_decide_cond(xor_and, "X", "Y", ["Z", "W"], BDeu(1.0), 0.5).independent


def test_verdict_monotone_in_p():
    rng = np.random.default_rng(97)
    grid = [0.05, 0.2, 0.5, 0.8, 0.95]
    for _ in range(10):
        n = int(rng.integers(4, 60))
        ds = Dataset.from_columns([("A", 2, rng.integers(0, 2, n).tolist()),
                                   ("B", 3, rng.integers(0, 3, n).tolist())])
        for prior in (Jeffreys(), BDeu(1.0)):
            flags = [ci_decide_pair(ds, "A", "B", prior, p).independent for p in grid]
            # once independent, higher p keeps it independent
            assert flags == sorted(flags)


def test_p_validated(constant_pair):
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            ci_decide_pair(constant_pair, "X", "Y", Jeffreys(), bad)


# -------------------------------------------------------------- statistics


def test_statistics_bundle(xor_and):
    stats = ci_statistics(xor_and, ["X"], ["Y"], ["Z", "W"], BDeu(1.0), base="e")
    assert stats.x_arity == 2 and stats.y_arity == 2 and stats.z_arity == 4
    assert stats.j == pytest.approx(
        j_statistic(xor_and, ["X"], ["Y"], ["Z", "W"], BDeu(1.0)), abs=1e-12)
    assert stats.correction == pytest.approx(
        bdeu_correction(xor_and, "X", "Y", ["Z", "W"], ess=1.0, base="e"), abs=1e-12)
    flat = ci_statistics(xor_and, ["X"], ["Y"], ["Z", "W"], Jeffreys(), base="e")
    assert flat.correction == 0.0


def random_queries(rng, trials):
    """Seeded datasets of arity-2..4 columns with random disjoint X, Y, Z."""
    for _ in range(trials):
        n_vars = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        ds = Dataset.from_columns([
            (f"V{i}", a, rng.integers(0, a, n).tolist())
            for i, a in enumerate(int(a) for a in rng.integers(2, 5, n_vars))
        ])
        order = rng.permutation(n_vars).tolist()
        nx = int(rng.integers(1, n_vars))
        ny = int(rng.integers(1, n_vars - nx + 1))
        nz = int(rng.integers(0, n_vars - nx - ny + 1))
        yield ds, order[:nx], order[nx:nx + ny], order[nx + ny:nx + ny + nz]


def test_one_count_feeds_every_margin_exactly():
    rng = np.random.default_rng(404)
    saw_empty_z = False
    for ds, x, y, z in random_queries(rng, 60):
        saw_empty_z |= not z
        for prior in (Jeffreys(), BDeu(1.0), BDeu(0.3)):
            m_xyz = marginal_score(ds, x + y + z, prior)
            m_xz = marginal_score(ds, x + z, prior)
            m_yz = marginal_score(ds, y + z, prior)
            m_z = marginal_score(ds, z, prior)
            assert j_statistic(ds, x, y, z, prior) == (m_xyz + m_z - m_xz - m_yz) / ds.n
            verdict = ci_decide_cond(ds, x, y, z, prior, 0.3)
            assert verdict.left == math.log(0.3) + m_xz + m_yz
            assert verdict.right == math.log(0.7) + m_xyz + m_z
            child, parents = x[0], y + z
            assert (conditional_score_ratio(ds, child, parents, prior)
                    == marginal_score(ds, [child] + parents, prior)
                    - marginal_score(ds, parents, prior))
    assert saw_empty_z


def test_each_query_scans_rows_once(scans, data_dir, tmp_path, monkeypatch):
    rng = np.random.default_rng(405)
    for ds, x, y, z in random_queries(rng, 20):
        for prior in (Jeffreys(), BDeu(1.0)):
            for query in (
                lambda: ci_statistics(ds, x, y, z, prior),
                lambda: ci_decide_cond(ds, x, y, z, prior, 0.5),
                lambda: conditional_score_ratio(ds, x[0], y + z, prior),
            ):
                scans.clear()
                query()
                assert len(scans) == 1
    scans.clear()
    asymptotic_residuals([ds], x, y, z, BDeu(1.0))
    assert len(scans) == 1
    scans.clear()
    projections, scored = [], []

    def project(*args, **kwargs):
        projections.append([_columns(mask) for mask in args[3]])
        return project_codes(*args, **kwargs)

    def score(arity, *args):
        scored.append(arity)
        return score_counts(arity, *args)

    project_codes, score_counts = bdscore.citest._project, bdscore.citest._counts_score
    monkeypatch.setattr(bdscore.citest, "_project", project)
    monkeypatch.setattr(bdscore.citest, "_counts_score", score)
    argv = ["citest", str(data_dir / "xor_and_12.csv"), "--x", "X", "--y", "Y",
            "--z", "Z,W", "-o", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert len(scans) == 1
    # one projection onto XZ, YZ and Z gives both their counts and each
    # XYZ cell's counts on them
    assert projections == [[(0, 1, 2), (1, 2, 3), (1, 2)]]
    # each margin is scored once, for the verdict and the statistics both
    assert scored == [16, 8, 8, 4]


# ------------------------------------------------------- binary pair margins


def pair_cases():
    for n in range(13):
        for x in range(n + 1):
            for y in range(n + 1):
                for b in range(max(0, x + y - n), min(x, y) + 1):
                    yield n, x, y, b
    rng = np.random.default_rng(1607)
    for _ in range(300):
        n = int(rng.integers(1, 10**9, endpoint=True))
        x, y = (int(v) for v in rng.integers(0, n, size=2, endpoint=True))
        yield n, x, y, int(rng.integers(max(0, x + y - n), min(x, y), endpoint=True))


def counted_pair_margins(n, ones_x, ones_y, both, monkeypatch):
    """``_margins`` of the pair's X, Y query on a two-column dataset: its rows
    while they are few, else a stand-in row counted as the 2x2 table that
    ``counts`` gives for one row per cell, with the cells' counts and the
    zero cells dropped."""
    cells = {(0, 0): n - ones_x - ones_y + both, (0, 1): ones_y - both,
             (1, 0): ones_x - both, (1, 1): both}
    if 0 < n <= 12:
        rows = [cell for cell, c in cells.items() for _ in range(c)]
        return _margins(Dataset([("X", 2), ("Y", 2)], rows), "X", "Y", ())
    four = counts(Dataset([("X", 2), ("Y", 2)], list(cells)), ["X", "Y"])
    frequencies = np.array([cells[k] for k in four.cells], dtype=np.int64)
    observed = frequencies > 0
    table = ContingencyTable._from_codes(four.subset, n, four.codes[observed], frequencies[observed])
    with monkeypatch.context() as patch:
        patch.setattr(bdscore.citest, "counts", lambda ds, subset: table)
        return _margins(Dataset([("X", 2), ("Y", 2)], [[0, 0]]), "X", "Y", ())


def test_pair_margins_equal_counted_margins_bit_for_bit(monkeypatch):
    for n, x, y, b in pair_cases():
        direct, counted = _pair_margins(n, x, y, b), counted_pair_margins(n, x, y, b, monkeypatch)
        assert direct == counted, (n, x, y, b)
        assert (direct.n, direct.x_arity, direct.y_arity, direct.z_arity) == (n, 2, 2, 1)
        for counts_list in (direct.xyz, direct.xz, direct.yz, direct.z, *direct.aligned):
            assert all(type(c) is int for c in counts_list), (n, x, y, b)


@pytest.mark.parametrize("n, ones_x, ones_y, both", [
    (5, 6, 0, 0), (5, 0, 6, 0), (5, 2, 2, 3), (5, 3, 3, 0), (5, -1, 0, 0), (5, 1, 1, -1),
    (-1, 0, 0, 0),
])
def test_pair_margins_reject_inconsistent_counts(n, ones_x, ones_y, both):
    with pytest.raises(ValueError, match="inconsistent"):
        _pair_margins(n, ones_x, ones_y, both)


def test_pair_margins_reject_n_past_int64():
    with pytest.raises(ValueError, match="64-bit"):
        _pair_margins(2**63, 0, 0, 0)
    assert _pair_margins(2**63 - 1, 0, 0, 0).z == [2**63 - 1]


# --------------------------------------------------------------- residuals


def sample_pair_stream(rng, total):
    theta = (0.2, 0.3, 0.2, 0.3)
    codes = np.searchsorted(np.cumsum(theta), rng.random(total), side="right")
    return (codes >> 1).astype(np.int64), (codes & 1).astype(np.int64)


def test_residual_identities():
    rng = np.random.default_rng(101)
    x, y = sample_pair_stream(rng, 2000)
    prefixes = [Dataset.from_columns([("X", 2, x[:n].tolist()), ("Y", 2, y[:n].tolist())])
                for n in (100, 400, 2000)]
    flat = asymptotic_residuals(prefixes, "X", "Y", [], Jeffreys())
    split = asymptotic_residuals(prefixes, "X", "Y", [], BDeu(1.0))
    for (n, res), ds in zip(flat, prefixes):
        j = j_statistic(ds, ["X"], ["Y"], [], Jeffreys())
        i = penalized_mutual_information(ds, ["X"], ["Y"], [], base="e")
        assert res == pytest.approx(n * (j - i), abs=1e-9)
    for (n, res), ds in zip(split, prefixes):
        j = j_statistic(ds, ["X"], ["Y"], [], BDeu(1.0))
        i = penalized_mutual_information(ds, ["X"], ["Y"], [], base="e")
        d = bdeu_correction(ds, "X", "Y", [], ess=1.0, base="e")
        # J = I + D/n + residual/n reassembles exactly
        assert j == pytest.approx(i + d / n + res / n, abs=1e-12)


def test_residuals_require_increasing_sizes():
    ds = Dataset.from_columns([("X", 2, [0, 1]), ("Y", 2, [1, 0])])
    with pytest.raises(ValueError):
        asymptotic_residuals([ds, ds], "X", "Y", [], Jeffreys())


def test_query_whose_margins_sum_to_2_to_the_63(tmp_path):
    """X:2, Y:5 and 60 binary Z columns: the joint arities of XZ, YZ and Z
    sum to exactly 2**63, so their projected codes are int64 while the
    last margin's offset is not.  The all-largest row puts a code just
    below each margin's offset."""
    rng = np.random.default_rng(63)
    names = ["X", "Y"] + [f"Z{i}" for i in range(60)]
    arities = [2, 5] + [2] * 60
    rows = [[a - 1 for a in arities]] + rng.integers(0, arities, (20, 62)).tolist()
    path = tmp_path / "boundary.csv"
    path.write_text(",".join(f"{v}:{a}" for v, a in zip(names, arities)) + "\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    ds = Dataset([(v, a) for v, a in zip(names, arities)], rows)
    z = names[2:]
    for prior in (Jeffreys(), BDeu(1.0)):
        m = {key: marginal_score(ds, cols, prior)
             for key, cols in (("xyz", names), ("xz", ["X"] + z), ("yz", ["Y"] + z), ("z", z))}
        want = (m["xyz"] + m["z"] - m["xz"] - m["yz"]) / ds.n
        assert j_statistic(ds, "X", "Y", z, prior) == want
    out = tmp_path / "report.json"
    argv = ["citest", str(path), "--x", "X", "--y", "Y", "--z", ",".join(z), "-o", str(out)]
    assert cli.main(argv) == 0
    j = json.loads(out.read_text())["statistics"]["j"]
    assert j == j_statistic(ds, "X", "Y", z, Jeffreys())
