"""Self-tests of the benchmark's generators, span arithmetic and checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from bdscore import cli, dataset, load_csv, numerics, scores  # noqa: E402


# -- generators -----------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a, b = inputs.learn_wide_data(5), inputs.learn_wide_data(5)
    assert np.array_equal(a.data, b.data)
    assert a.parents == b.parents
    assert inputs.csv_bytes(a) == inputs.csv_bytes(b)


def test_generator_differs_across_seeds():
    a, b = inputs.learn_wide_data(5), inputs.learn_wide_data(6)
    assert not np.array_equal(a.data, b.data)
    t1, t2 = inputs.tall_queries_data(5, n_rows=500), inputs.tall_queries_data(6, n_rows=500)
    assert not np.array_equal(t1.data, t2.data)


def test_planted_network_respects_its_shape():
    p = inputs.learn_wide_data(11)
    assert p.data.shape == (inputs.LEARN_ROWS, 12)
    assert all(len(ps) <= 2 for ps in p.parents.values())
    assert checks._acyclic(p.parents)
    t = inputs.tall_queries_data(11, n_rows=2000)
    assert np.array_equal(t.data[:, 7], t.data[:, 0] ^ t.data[:, 1])
    assert t.parents["V8"] == ["V1", "V2"] and t.deterministic == ("V8",)


def test_csv_round_trips_through_load_csv(tmp_path):
    p = inputs.tall_queries_data(3, n_rows=300)
    path = inputs.write_planted(p, tmp_path, "t")
    ds = load_csv(path)
    assert ds.names == p.names and ds.arities == p.arities
    assert np.array_equal(ds.data, p.data)
    meta = json.loads((tmp_path / "t.parents.json").read_text())
    assert meta["parents"] == p.parents


# -- span arithmetic ------------------------------------------------------


def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span(1, 0, "cli.main", 0.0, 10.0),
        spans.Span(2, 1, "scores.marginal_score", 1.0, 4.0),
        spans.Span(3, 1, "dataset.counts", 3.0, 6.0),  # overlaps span 2 by one unit
        spans.Span(4, 2, "dataset.counts", 2.0, 3.0),
        spans.Span(5, 1, "numerics.log_gamma_ratio", 6.5, 9.5, calls=3, busy=1.5, covers=1.75),
        spans.Span(6, 3, "dataset.counts", 5.0, 8.0),  # sticks out of its parent
    ]
    for s in tree[:4] + tree[5:]:
        s.busy = s.end - s.start
    st = spans.self_times(tree)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.75)  # children cover [1, 6] plus the folded 1.75
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(3.0 - 1.0)  # only [5, 6] of span 6 lies inside span 3
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.5)


class StepClock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_wraps_every_binding_and_restores_it():
    original = dataset.counts
    ds = dataset.Dataset([("A", 2), ("B", 3)], [[0, 0], [1, 2], [1, 2], [0, 1]])
    tracer = spans.Tracer(clock=StepClock())
    with tracer:
        assert scores.counts is not original and dataset.counts is not original
        value = scores.marginal_score(ds, ["A", "B"], scores.BDeu(1.0))
        scores.marginal_score(ds, ["B", "A"], scores.BDeu(1.0))
        numerics.log_gamma_ratio(100, 0.5)
        numerics.log_gamma_ratio(2_000_000, 0.5)
    assert dataset.counts is original and scores.counts is original
    assert value == scores.marginal_score(ds, ["A", "B"], scores.BDeu(1.0))

    m = spans.layer_metrics(tracer.spans)
    assert m["scores.marginal_score.calls"] == 2
    assert m["scores.marginal_score.distinct"] == 1
    assert m["scores.marginal_score.useful_ratio"] == 0.5
    assert m["dataset.counts.calls"] == 2
    assert m["dataset.counts.rows_scanned"] == 8
    assert m["dataset.counts.cells"] == 6
    # per marginal: one total-weight term and three cells, all short
    assert m["numerics.log_gamma_ratio.short_calls"] == 8
    assert m["numerics.log_gamma_ratio.exact_calls"] == 1
    assert m["numerics.log_gamma_ratio.exact_terms"] == 100
    assert m["numerics.log_gamma_ratio.lgamma_calls"] == 1
    assert m["numerics.log_gamma_ratio.calls"] == 10
    # the step clock makes every span's self time a whole number of steps
    for key, v in m.items():
        if key.endswith("self_s"):
            assert v == int(v) and v >= 0, key


def test_tracer_reports_cli_main(tmp_path):
    path = inputs.write_planted(inputs.tall_queries_data(2, n_rows=400), tmp_path, "t")
    out = tmp_path / "a.json"
    tracer = spans.Tracer()
    with tracer:
        rc = cli.main(["audit", str(path), "--child", "V8", "--max-parents", "2", "-o", str(out)])
    m = spans.layer_metrics(tracer.spans)
    assert rc in (0, 3)
    assert [s.parent for s in tracer.spans if s.name == "cli.main"] == [0]
    assert m["cli.main.report_bytes"] == out.stat().st_size
    assert m["dataset.load_csv.rows"] == 400
    assert m["regularity.audit.pairs"] == 9 * 1 + 36 * 3
    assert m["regularity.audit.violations"] == json.loads(out.read_text())["violation_count"]
    tracer.write(tmp_path / "s.jsonl", "t")
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)


# -- checks ---------------------------------------------------------------


def _run(argv, out: Path) -> dict:
    assert cli.main([*argv, "-o", str(out)]) in (0, 3)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def small_learn(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("learn")
    planted = inputs.planted_network(4, (2,) * 5, 400)
    path = inputs.write_planted(planted, tmp, "l")
    report = _run(["learn", str(path), "--prior", "bdeu"], tmp / "o.json")
    oracle = checks.CountOracle(planted.names, planted.arities, planted.data)
    return planted, oracle, report


def test_learn_checks_pass_on_real_output(small_learn):
    planted, oracle, report = small_learn
    assert checks.check_learn(report, oracle, planted.parents, "bdeu") == []


def test_flipped_edge_is_flagged(small_learn):
    planted, oracle, report = small_learn
    ref = checks.summarize("learn", json.dumps(report))
    bad = json.loads(json.dumps(report))
    child = next(v for v, ps in bad["parents"].items() if ps)
    parent = bad["parents"][child][0]
    bad["parents"][child].remove(parent)
    bad["parents"][parent] = sorted(bad["parents"][parent] + [child])
    bad["edges"] = [[p, v] for v, ps in bad["parents"].items() for p in ps]
    assert checks.check_learn(bad, oracle, planted.parents, "bdeu")
    assert checks.compare_to_ref("learn", checks.summarize("learn", json.dumps(bad)), ref)


@pytest.fixture(scope="module")
def small_citest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("citest")
    planted = inputs.tall_queries_data(7, n_rows=3000)
    path = inputs.write_planted(planted, tmp, "t")
    report = _run(["citest", str(path), "--x", "V3", "--y", "V4", "--z", "V1,V2",
                   "--prior", "bdeu"], tmp / "o.json")
    oracle = checks.CountOracle(planted.names, planted.arities, planted.data)
    return oracle, report


def test_citest_checks_pass_on_real_output(small_citest):
    oracle, report = small_citest
    assert checks.check_citest(report, oracle, ["V3"], ["V4"], ["V1", "V2"]) == []


def test_flipped_verdict_is_flagged(small_citest):
    oracle, report = small_citest
    ref = checks.summarize("citest", json.dumps(report))
    bad = dict(report, independent=not report["independent"])
    assert checks.check_citest(bad, oracle, ["V3"], ["V4"], ["V1", "V2"])
    assert checks.compare_to_ref("citest", checks.summarize("citest", json.dumps(bad)), ref)


def test_audit_check_flags_a_dropped_or_added_pair(tmp_path):
    base = inputs.tall_queries_data(1, n_rows=2000)
    data = base.data.copy()
    data[:, 2] = data[:, 0]  # V3 repeats V1, so adding it to {V1, V2} is redundant
    planted = inputs.PlantedData(base.names, base.arities, data, base.parents)
    path = inputs.write_planted(planted, tmp_path, "t")
    out = tmp_path / "o.json"
    rc = cli.main(["audit", str(path), "--child", "V8", "--max-parents", "3",
                   "--prior", "bdeu", "-o", str(out)])
    report = json.loads(out.read_text())
    oracle = checks.CountOracle(planted.names, planted.arities, planted.data)
    assert report["violation_count"] > 0  # the split weights prefer the redundant V3
    assert checks.check_audit(report, rc, oracle, "V8", 3) == []
    dropped = dict(report, violations=report["violations"][1:],
                   violation_count=report["violation_count"] - 1)
    assert checks.check_audit(dropped, rc, oracle, "V8", 3)
    fake = {"smaller_parents": ["V1"], "larger_parents": ["V1", "V3"]}
    added = dict(report, violations=report["violations"] + [fake],
                 violation_count=report["violation_count"] + 1)
    assert checks.check_audit(added, rc, oracle, "V8", 3)


def test_float_fields_compare_within_tolerance():
    ref = {"log_score": -1234.5678, "parents": {"V1": ["V2"]}}
    ulp = math.ulp(ref["log_score"])
    assert checks.compare({"log_score": -1234.5678 + 4 * ulp, "parents": {"V1": ["V2"]}}, ref) == []
    assert checks.compare({"log_score": -1234.5679, "parents": {"V1": ["V2"]}}, ref)
    assert checks.compare({"log_score": -1234.5678, "parents": {"V1": []}}, ref)


def test_sweep_flag_may_flip_only_at_a_tie():
    t10, t20 = 0.5 * math.log2(10), 0.5 * math.log2(20)

    def sweep(first_flag, second_flag):
        return (f"n,correction,threshold,above\n10,{t10 + 1!r},{t10!r},{first_flag}\n"
                f"20,{t20!r},{t20!r},{second_flag}\n")

    ref = checks.summarize("dn-sweep", sweep(1, 0))
    assert checks.check_dn_sweep(sweep(1, 0), 2, 10, 20) == []
    assert checks.compare_to_ref("dn-sweep", checks.summarize("dn-sweep", sweep(1, 1)), ref) == []
    assert checks.compare_to_ref("dn-sweep", checks.summarize("dn-sweep", sweep(0, 0)), ref)
    assert checks.check_dn_sweep(sweep(0, 0), 2, 10, 20)
