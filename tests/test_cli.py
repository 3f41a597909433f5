"""Command-line interface: JSON/CSV report shapes, exact values through
the text round trip, exit codes, and seeded determinism."""

import json
import math
from fractions import Fraction

import pytest

from bdscore.cli import main
from bdscore.dataset import load_csv
from bdscore.scores import BDeu, Jeffreys, marginal_score


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=0):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect, err
    return json.loads(out)


# ------------------------------------------------------------------- score


def test_score_marginal_exact(capsys, data_dir):
    path = str(data_dir / "constant_pair_5.csv")
    report = run_json(capsys, "score", path, "X,Y", "--prior", "bdeu", "--ess", "1.0")
    assert report["schema_version"] == 1
    assert report["command"] == "score"
    assert report["subset"] == ["X", "Y"]
    assert report["prior"] == {"kind": "bdeu", "ess": 1.0}
    # .17g text reproduces the in-process double bit for bit
    ds = load_csv(path)
    assert report["log_score"] == marginal_score(ds, ["X", "Y"], BDeu(1.0))
    assert report["log_score"] == pytest.approx(
        math.log(Fraction(9945, 122880)), abs=1e-12)
    assert report["score"] == pytest.approx(9945 / 122880, rel=1e-12)

    report = run_json(capsys, "score", path, "X")
    assert report["prior"] == {"kind": "jeffreys"}
    assert report["log_score"] == marginal_score(ds, ["X"], Jeffreys())
    assert report["log_score"] == pytest.approx(math.log(Fraction(63, 256)), abs=1e-12)


def test_score_empty_subset_is_one(capsys, data_dir):
    path = str(data_dir / "constant_pair_5.csv")
    report = run_json(capsys, "score", path, "")
    assert report["log_score"] == 0.0
    assert report["score"] == 1.0


def test_score_conditional_forms(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    report = run_json(capsys, "score", path, "X|Z,W", "--prior", "bdeu")
    assert report["child"] == "X" and report["parents"] == ["Z", "W"]
    assert report["form"] == "ratio"
    assert report["log_score"] == pytest.approx(
        math.log(Fraction(17, 40) ** 4), abs=1e-12)

    local = run_json(capsys, "score", path, "X|Z,W", "--prior", "bdeu",
                     "--form", "local-coupled")
    assert local["log_score"] == pytest.approx(report["log_score"], abs=1e-9)

    indep = run_json(capsys, "score", path, "X|Z,W", "--form", "local-independent")
    assert indep["form"] == "local-independent"


def test_score_custom_prior(capsys, data_dir):
    path = str(data_dir / "constant_pair_5.csv")
    report = run_json(capsys, "score", path, "X", "--prior", "custom",
                      "--custom-weight", "0.5")
    assert report["prior"] == {"kind": "custom", "weight": 0.5}
    assert report["log_score"] == pytest.approx(math.log(Fraction(63, 256)), abs=1e-12)


# -------------------------------------------------------------- exit codes


def test_exit_codes(capsys, data_dir, tmp_path):
    path = str(data_dir / "constant_pair_5.csv")
    code, _, err = run_cli(capsys, "score", path, "Q")
    assert code == 2
    assert "error: unknown variable name 'Q'" in err

    code, _, err = run_cli(capsys, "score", str(tmp_path / "missing.csv"), "X")
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "citest", path, "--x", "X", "--y", "Y", "--p", "1.5")
    assert code == 2

    code, _, err = run_cli(capsys, "score", path, "X", "--prior", "bdeu", "--ess", "0")
    assert code == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("X:2\n5\n")
    code, _, err = run_cli(capsys, "score", str(bad), "X")
    assert code == 2 and "outside" in err


def test_internal_key_error_is_not_an_input_error(data_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("bdscore.cli.learn_exact", broken)
    with pytest.raises(KeyError):
        main(["learn", str(data_dir / "xor_and_12.csv")])


# ------------------------------------------------------------------- audit


def test_audit_violations_and_exit(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    report = run_json(capsys, "audit", path, "--child", "X", "--prior", "bdeu",
                      expect=3)
    assert report["violation_count"] == 1
    v = report["violations"][0]
    assert v["smaller_parents"] == ["Z", "W"]
    assert v["larger_parents"] == ["Z", "W", "Y"]
    assert v["score_smaller"] < v["score_larger"]
    assert v["entropy_smaller"] == pytest.approx(0.0, abs=1e-12)

    report = run_json(capsys, "audit", path, "--child", "X", "--prior", "jeffreys")
    assert report["violation_count"] == 0
    assert report["violations"] == []


# ----------------------------------------------------------------- entropy


def test_entropy_command(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    report = run_json(capsys, "entropy", path, "--of", "X", "--given", "Z,W")
    assert report["value"] == 0.0
    report = run_json(capsys, "entropy", path, "--of", "Y", "--log-base", "2")
    # Y is 1 on a quarter of the rows
    want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert report["value"] == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------ citest


def test_citest_command(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    report = run_json(capsys, "citest", path, "--x", "X", "--y", "Y",
                      "--z", "Z,W", "--prior", "bdeu")
    assert report["independent"] is False
    assert report["statistics"]["z_arity"] == 4
    assert report["statistics"]["correction"] != 0.0
    assert report["left"] < report["right"]

    report = run_json(capsys, "citest", path, "--x", "X", "--y", "Y", "--z", "Z,W")
    assert report["independent"] is True
    assert report["statistics"]["correction"] == 0.0


# ------------------------------------------------------------------- learn


def test_learn_pipeline_with_classes(capsys, tmp_path):
    gen_path = tmp_path / "gen.csv"
    code, out, err = run_cli(capsys, "gen-deterministic", "--z-arity", "2",
                             "--f", "0,1", "--g", "0,1", "--repeat-each", "4",
                             "-o", str(gen_path))
    assert code == 0
    report = run_json(capsys, "learn", str(gen_path), "--classes")
    assert set(report["parents"]) == {"X", "Z", "Y"}
    assert report["cap"] == 2
    assert len(report["classes"]) == 11
    total = math.fsum(c["posterior"] for c in report["classes"])
    assert total == pytest.approx(1.0, abs=1e-9)
    best = max(c["log_score"] for c in report["classes"])
    assert report["log_score"] == pytest.approx(best, abs=1e-9)
    # all three columns are copies: the learned structure is connected
    assert len(report["edges"]) == 2


def test_learn_plain(capsys, data_dir):
    report = run_json(capsys, "learn", str(data_dir / "constant_pair_5.csv"))
    assert report["edges"] == []
    assert report["log_score"] == pytest.approx(2 * math.log(63 / 256), abs=1e-12)


# -------------------------------------------------------- gen-deterministic


def test_gen_matches_fixture(capsys, data_dir):
    want = (data_dir / "xor_and_12.csv").read_text()
    code, out, _ = run_cli(capsys, "gen-deterministic", "--z-arity", "4",
                           "--f", "0,1,1,0", "--g", "0,0,0,1",
                           "--repeat-each", "3")
    assert code == 0
    assert out == want
    code, out2, _ = run_cli(capsys, "gen-deterministic", "--z-arity", "4",
                            "--f", "0,1,1,0", "--g", "0,0,0,1",
                            "--z-seq", "0,0,0,1,1,1,2,2,2,3,3,3")
    assert code == 0 and out2 == want


def test_gen_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "gen-deterministic", "--z-arity", "2",
                           "--f", "0", "--g", "0,1", "--repeat-each", "2")
    assert code == 2


# -------------------------------------------------------------- experiments


def test_dn_sweep_deterministic(capsys):
    args = ("experiment", "dn-sweep", "--points", "25", "--seed", "7")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    code, other, _ = run_cli(capsys, "experiment", "dn-sweep", "--points", "25",
                             "--seed", "8")
    assert other != first

    lines = first.strip().split("\n")
    assert lines[0] == "n,correction,threshold,above"
    assert len(lines) == 26
    for line in lines[1:]:
        n, corr, thr, above = line.split(",")
        assert float(thr) == pytest.approx(0.5 * math.log2(int(n)), abs=1e-12)
        assert above in ("0", "1")
        assert above == ("1" if float(corr) > float(thr) else "0")
    assert int(lines[1].split(",")[0]) == 10
    assert int(lines[-1].split(",")[0]) == 1000


def test_jn_vs_r_profile(capsys):
    code, out, _ = run_cli(capsys, "experiment", "jn-vs-r", "--n", "100")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,j_bdeu,j_jeffreys"
    assert len(lines) == 52
    flat_values = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(flat_values) - min(flat_values) < 1e-12  # count-invariant
    assert all(v < 0.0 for v in flat_values)
    positive = {int(line.split(",")[0]) for line in lines[1:]
                if float(line.split(",")[1]) > 0.0}
    assert positive == {0, 1, 2, 3}


def test_residuals_deterministic_and_exact(capsys):
    args = ("experiment", "residuals", "--grid", "50,100,200", "--seed", "3")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "n,residual_jeffreys,residual_bdeu"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [50, 100, 200]

    code, _, err = run_cli(capsys, "experiment", "residuals", "--theta", "0.5,0.5,0.1,0.1")
    assert code == 2
    code, _, err = run_cli(capsys, "experiment", "residuals", "--grid", "0,10")
    assert code == 2


# ----------------------------------------------------------------- outputs


def test_output_file_and_float_round_trip(capsys, data_dir, tmp_path):
    out_path = tmp_path / "report.json"
    path = str(data_dir / "constant_pair_5.csv")
    code, out, _ = run_cli(capsys, "score", path, "X,Y", "-o", str(out_path))
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    ds = load_csv(path)
    assert report["log_score"] == marginal_score(ds, ["X", "Y"], Jeffreys())
    assert report["log_score"] == pytest.approx(math.log(Fraction(945, 23040)), abs=1e-12)


def test_reports_carry_schema_version(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    for argv in (
        ("score", path, "X"),
        ("entropy", path, "--of", "X"),
        ("citest", path, "--x", "X", "--y", "Y"),
        ("audit", path, "--child", "X", "--prior", "jeffreys"),
        ("learn", path),
    ):
        report = run_json(capsys, *argv)
        assert report["schema_version"] == 1
        assert report["dataset"] == path


def test_seed_validation(capsys):
    # argparse aborts with usage exit code 2 before the handler runs
    for bad in ("-1", str(2 ** 64)):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "dn-sweep", "--seed", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_console_entry_point(capsys, monkeypatch, data_dir):
    import bdscore.cli as cli_mod

    monkeypatch.setattr("sys.argv",
                        ["bdscore", "score", str(data_dir / "constant_pair_5.csv"), "X"])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main_entry()
    assert exc.value.code == 0
