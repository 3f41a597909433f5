"""Command-line interface: JSON/CSV report shapes, exact values through
the text round trip, exit codes, and seeded determinism."""

import ast
import hashlib
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bdscore
from bdscore import citest, cli, numerics, regularity, scores, search
from bdscore.citest import asymptotic_residuals, bdeu_correction
from bdscore.cli import main
from bdscore.dataset import Dataset, _cond_entropy, counts, load_csv, save_csv
from bdscore.scores import BDeu, Jeffreys, marginal_score
from bdscore.search import enumerate_n3_classes, learn_exact
from oracles import random_dataset, sequential_pair_counts


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

    # an infinite prior weight is rejected where it is validated
    for command in (("score", path, "X"), ("citest", path, "--x", "X", "--y", "Y"),
                    ("audit", path, "--child", "X"), ("learn", path)):
        code, _, err = run_cli(capsys, *command, "--prior", "bdeu", "--ess", "inf")
        assert code == 2 and "equivalent sample size must be finite" in err
        code, _, err = run_cli(capsys, *command, "--prior", "custom", "--custom-weight", "inf")
        assert code == 2 and "custom weight must be finite, got inf" in err
        code, _, err = run_cli(capsys, *command, "--prior", "custom", "--custom-weight", "nan")
        assert code == 2 and "custom weight must be positive, got nan" in err
    code, _, err = run_cli(capsys, "experiment", "dn-sweep", "--points", "2", "--ess", "inf")
    assert code == 2 and "equivalent sample size must be finite" in err

    bad = tmp_path / "bad.csv"
    bad.write_text("X:2\n5\n")
    code, _, err = run_cli(capsys, "score", str(bad), "X")
    assert code == 2 and "outside" in err


def test_custom_weights_past_float_range_are_an_input_error(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    code, out, err = run_cli(capsys, "score", path, "X,Y", "--prior", "custom",
                             "--custom-weight", "1e308")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sum past the float range" in err
    assert "Traceback" not in err


def test_constant_custom_weight_scores_past_the_enumeration_limit(capsys, tmp_path):
    # a constant weight enumerates no cells, so all 2^21 of a subset are fine
    rows = np.random.default_rng(21).integers(0, 2, (40, 21))
    path = tmp_path / "wide21.csv"
    path.write_text(",".join(f"V{i}:2" for i in range(21)) + "\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    spec = ",".join(f"V{i}" for i in range(21))
    custom = run_json(capsys, "score", str(path), spec, "--prior", "custom",
                      "--custom-weight", "0.5")
    assert custom["prior"] == {"kind": "custom", "weight": 0.5}
    assert custom["log_score"] == run_json(capsys, "score", str(path), spec)["log_score"]


@pytest.mark.parametrize("module", ["bdscore", "bdscore.cli"])
def test_python_m_runs_the_cli(capsys, data_dir, module):
    path = str(data_dir / "xor_and_12.csv")
    code, want, _ = run_cli(capsys, "score", path, "X")
    assert code == 0
    src = str(pathlib.Path(bdscore.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", module, "score", path, "X"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only on star imports and in tools that
    # getattr every export, such as the benchmark's tracer
    modules = [bdscore] + [importlib.import_module(f"bdscore.{m.name}")
                           for m in pkgutil.iter_modules(bdscore.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    namespace = {}
    exec("from bdscore import *", namespace)
    assert set(bdscore.__all__) <= set(namespace)


def test_no_module_imports_a_name_it_never_reads():
    """Every name a package module imports is read in it, or listed in its
    ``__all__``; ``from __future__`` imports are directives."""
    unread = []
    for path in sorted(pathlib.Path(bdscore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and [t.id for t in node.targets
                                                   if isinstance(t, ast.Name)] == ["__all__"]:
                read.update(ast.literal_eval(node.value))
        unread += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unread == []


def test_value_past_int64_is_an_input_error(capsys, tmp_path):
    cases = [(2, "99999999999999999999", "outside 0..1"),
             (2, "-99999999999999999999", "outside 0..1"),
             # in range of its arity, but too large to store
             (10**19, "9999999999999999999", "does not fit in a 64-bit integer")]
    for arity, value, problem in cases:
        bad = tmp_path / "huge.csv"
        bad.write_text(f"A:{arity},B:2\n0,1\n{value},0\n")
        code, _, err = run_cli(capsys, "score", str(bad), "A")
        assert code == 2
        assert f"error: data row 2, column 'A': value {value} {problem}" in err


def test_too_many_joint_configurations_is_an_input_error(capsys, tmp_path):
    # 2^1100 configurations have no float weight under either prior
    wide = tmp_path / "wide.csv"
    wide.write_text(",".join(f"V{i}:2" for i in range(1100)) + "\n"
                    + ",".join("0" * 1100) + "\n" + ",".join("1" * 1100) + "\n")
    spec = ",".join(f"V{i}" for i in range(1100))
    for prior in ("jeffreys", "bdeu"):
        code, _, err = run_cli(capsys, "score", str(wide), spec, "--prior", prior)
        assert code == 2
        assert "error: a subset has more joint configurations than a float can describe" in err


def test_internal_key_error_is_not_an_input_error(data_dir, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("bdscore.cli._learn", broken)
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


def test_score_and_entropy_given_a_margin_of_joint_arity_2_to_the_63(capsys, tmp_path):
    """V64 given V1..V63 on 64 binary columns: the parents' margin has
    joint arity exactly 2**63, and is projected from the 64-column count."""
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, (20, 64))
    data[0] = 1  # the parents' largest int64 code
    data[10:15] = data[:5]
    data[10:13, 63] ^= 1  # three parent cells see both child values
    ds = Dataset.from_columns([(f"V{j + 1}", 2, data[:, j]) for j in range(64)])
    path = tmp_path / "wide.csv"
    path.write_text(ds.to_csv_text())
    parents = ",".join(ds.names[:63])
    report = run_json(capsys, "score", str(path), f"V64|{parents}")
    assert report["log_score"] == (marginal_score(ds, ds.names, Jeffreys())
                                   - marginal_score(ds, ds.names[:63], Jeffreys()))
    report = run_json(capsys, "entropy", str(path), "--of", "V64", "--given", parents)
    joint, margin = counts(ds, ds.names), counts(ds, ds.names[:63]).cells
    want = _cond_entropy(ds.n, joint.frequencies.tolist(),
                         [margin[cell[:63]] for cell in joint.cells])
    assert report["value"] == want > 0


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


def test_learn_classes_refuses_other_widths_before_the_search(capsys, data_dir, monkeypatch):
    """``--classes`` on a four-column file is an input error raised before
    the marginal array is filled."""
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "_marginals", refuse)
    monkeypatch.setattr(search, "_marginals", refuse)
    code, out, err = run_cli(capsys, "learn", str(data_dir / "xor_and_12.csv"), "--classes")
    assert (code, out, err) == (2, "", "error: class enumeration needs exactly 3 variables, got 4\n")


@pytest.mark.parametrize("cap", [0, 1])
def test_learn_classes_below_cap_2(capsys, tmp_path, cap):
    """Below cap 2 the array holds no three-column marginal, so the classes
    are scored from a fresh one: the same block as at the default cap and
    as ``enumerate_n3_classes``."""
    path = tmp_path / "three.csv"
    ds = random_dataset(np.random.default_rng(3), 3, 40)
    save_csv(ds, path)
    argv = ["learn", str(path), "--classes", "--prior", "bdeu"]
    report = run_json(capsys, *argv, "--cap", str(cap))
    assert report["cap"] == cap
    assert report["classes"] == run_json(capsys, *argv)["classes"]
    want = enumerate_n3_classes(ds, BDeu(1.0))
    assert [(c["id"], c["log_score"]) for c in report["classes"]] == want


def test_learn_plain(capsys, data_dir):
    report = run_json(capsys, "learn", str(data_dir / "constant_pair_5.csv"))
    assert report["edges"] == []
    assert report["log_score"] == pytest.approx(2 * math.log(63 / 256), abs=1e-12)


def test_learn_past_15_columns_needs_a_cap(capsys, tmp_path):
    """16 columns at the default cap would walk 2**16 subset tables: an input
    error that names ``--cap``; with ``--cap 2`` the report is the library's
    structure."""
    rng = np.random.default_rng(17)
    path = tmp_path / "wide16.csv"
    names = [f"V{j:02d}" for j in range(16)]
    rows = rng.integers(0, 2, (200, 16))
    rows[:, 5] = rows[:, 3] ^ rows[:, 4]
    path.write_text(",".join(f"{v}:2" for v in names) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist()))
    code, out, err = run_cli(capsys, "learn", str(path))
    assert code == 2 and out == "" and "--cap" in err
    report = run_json(capsys, "learn", str(path), "--cap", "2")
    net = learn_exact(load_csv(str(path)), Jeffreys(), cap=2)
    assert report["parents"] == {names[v]: [names[p] for p in ps]
                                 for v, ps in enumerate(net.parents)}


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


def test_gen_checks_the_maps_before_the_sequence(capsys):
    # 10**7 source states, refused for f and g before any of them is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen-deterministic", "--z-arity", "100000",
                                 "--repeat-each", "100", "--f", "0,1", "--g", "0,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: maps f and g must assign a value to every source state\n"
    assert peak < 5 * 2**20


def test_gen_map_value_past_int64_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "gen-deterministic", "--z-arity", "2",
                             "--f", "0,9223372036854775808", "--g", "0,1", "--z-seq", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: mapped child value 9223372036854775808 does not fit in a 64-bit integer\n"


def test_gen_sequence_past_memory_is_an_input_error(capsys):
    # 2 * 10**12 states: one 16 TB list, refused before a page of it is written
    code, out, err = run_cli(capsys, "gen-deterministic", "--z-arity", "2", "--f", "0,1",
                             "--g", "0,1", "--repeat-each", "1000000000000")
    assert (code, out) == (2, "")
    assert err == "error: 2000000000000 source states do not fit in memory\n"


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


@pytest.mark.parametrize("seed, ess", [(7, 1.0), (11, 0.25), (13, 4.0)])
def test_dn_sweep_table_correction_equals_row_path(capsys, seed, ess):
    # dn-sweep scores each draw from its 2x2 table; the same draws as an
    # n-row dataset through bdeu_correction must give the same floats
    code, out, _ = run_cli(capsys, "experiment", "dn-sweep", "--seed", str(seed),
                           "--points", "40", "--n-max", "3000", "--ess", str(ess))
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    rng = np.random.Generator(np.random.PCG64(seed))
    for n, corr, _, _ in rows:
        n = int(n)
        p = float(n) ** -0.75
        x = (rng.random(n) < p).astype(np.int64)
        y = (rng.random(n) < p).astype(np.int64)
        ds = Dataset.from_columns([("X", 2, x), ("Y", 2, y)])
        assert float(corr) == bdeu_correction(ds, "X", "Y", (), ess=ess, base=2), n


def _readme_experiments() -> list[tuple[str, str]]:
    """README's experiment commands, each with the CSV excerpt shown for it."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### experiment\n", 1)[1].split("\n## ", 1)[0]
    blocks = [textwrap.dedent(body)
              for body in re.findall(r"^ *```\w*\n(.*?)^ *```$", section, re.M | re.S)]
    commands = blocks[0].strip().split("\n")
    return list(zip(commands, blocks[1:], strict=True))


def test_readme_experiment_excerpts_are_output_prefixes(capsys):
    experiments = _readme_experiments()
    assert [shlex.split(cmd)[:3] for cmd, _ in experiments] == [
        ["bdscore", "experiment", kind] for kind in ("dn-sweep", "jn-vs-r", "residuals")]
    for cmd, excerpt in experiments:
        code, out, err = run_cli(capsys, *shlex.split(cmd)[1:])
        assert code == 0, err
        assert out.startswith(excerpt), cmd


def test_readme_score_excerpt_is_the_report(capsys, monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n### score\n", 1)[1].split("\n### ", 1)[0]
    command, excerpt = re.findall(r"^ *```\w*\n(.*?)^ *```$", section, re.M | re.S)
    assert "bdscore score data.csv \"X,Y\" --prior bdeu --ess 1" in command
    monkeypatch.chdir(root)
    report = run_json(capsys, "score", "tests/data/constant_pair_5.csv", "X,Y",
                      "--prior", "bdeu", "--ess", "1")
    assert json.loads(excerpt) == report


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


def test_jn_vs_r_scores_each_prior_in_one_batch(capsys, monkeypatch):
    batches = []
    batch = regularity._table_scores

    def spied(arities, n, frequencies, bounds, prior):
        batches.append((len(arities), n, prior))
        return batch(arities, n, frequencies, bounds, prior)

    def refused(*args):
        raise AssertionError("a table was scored on its own")

    monkeypatch.setattr(regularity, "_table_scores", spied)
    monkeypatch.setattr(scores, "_counts_score", refused)
    monkeypatch.setattr(citest, "_counts_score", refused)
    code, out, err = run_cli(capsys, "experiment", "jn-vs-r", "--n", "100", "--ess", "0.5")
    assert code == 0, err
    # 51 counts of ones: their XY tables and X margins, then Y and the empty margin
    assert batches == [(104, 100, BDeu(0.5)), (104, 100, Jeffreys())]
    assert len(out.strip().split("\n")) == 52


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
    # NaN compares false both ways, so it must fail "positive", not slip past "<= 0"
    code, out, err = run_cli(capsys, "experiment", "residuals", "--theta", "nan,0.3,0.2,0.3",
                             "--grid", "100,1000")
    assert code == 2 and out == ""
    assert "theta needs four positive cell probabilities" in err
    code, _, err = run_cli(capsys, "experiment", "residuals", "--grid", "0,10")
    assert code == 2
    # argparse aborts with usage exit code 2 before the handler runs
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "residuals", "--grid", "100,abc"])
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


class _SmallMemoryGenerator:
    """numpy's generator, but a draw of more than a million values raises
    MemoryError the way numpy does when it cannot allocate the array."""

    real = np.random.Generator

    def __init__(self, bit_generator):
        self.rng = self.real(bit_generator)

    def random(self, size):
        if size > 10**6:
            raise MemoryError(f"cannot allocate {size} doubles")
        return self.rng.random(size)


def test_draws_past_memory_are_an_input_error(capsys, monkeypatch):
    with pytest.raises(ValueError, match="^10000000000000 random draws do not fit in memory$"):
        cli._draw(_SmallMemoryGenerator(np.random.PCG64(0)), 10**13)
    small = ("experiment", "residuals", "--grid", "50,100,200", "--seed", "3")
    _, want, _ = run_cli(capsys, *small)
    monkeypatch.setattr(np.random, "Generator", _SmallMemoryGenerator)
    for argv in (["residuals", "--grid", "100,10000000000000"],
                 ["dn-sweep", "--n-min", "10", "--n-max", "10000000000000", "--points", "2"]):
        code, out, err = run_cli(capsys, "experiment", *argv)
        assert (code, out) == (2, "")
        assert err == "error: 10000000000000 random draws do not fit in memory\n"
    # within memory the stub draws what numpy's generator draws
    assert run_cli(capsys, *small) == (0, want, "")


def test_residuals_refuse_a_bad_ess_before_drawing(capsys, monkeypatch):
    # a grid past memory must not hide the bad --ess, nor draw for it first
    def refuse(rng, size):
        raise AssertionError("drew before checking --ess")

    monkeypatch.setattr(cli, "_draw", refuse)
    for ess in ("0", "-1", "nan"):
        code, out, err = run_cli(capsys, "experiment", "residuals", "--grid", "30000000",
                                 "--ess", ess)
        assert (code, out) == (2, "")
        assert err.startswith("error: equivalent sample size must be positive"), err


def test_grid_past_memory_is_an_input_error(capsys, monkeypatch):
    # numpy's geomspace, but a grid of more than a million points raises
    # MemoryError the way numpy does when it cannot allocate the array
    geomspace = np.geomspace

    def small_memory(start, stop, num):
        if num > 10**6:
            raise MemoryError(f"cannot allocate {num} doubles")
        return geomspace(start, stop, num)

    small = ("experiment", "dn-sweep", "--n-min", "10", "--n-max", "1000", "--points", "3")
    _, want, _ = run_cli(capsys, *small)
    monkeypatch.setattr(np, "geomspace", small_memory)
    code, out, err = run_cli(capsys, "experiment", "dn-sweep", "--points", "10000000000000")
    assert (code, out) == (2, "")
    assert err == "error: 10000000000000 grid points do not fit in memory\n"
    # within memory the stub gives numpy's grid
    assert run_cli(capsys, *small) == (0, want, "")


def test_residuals_memory_is_the_draws(capsys):
    # at the benchmark's grid the draws' codes (1 MB of int8) are the largest
    # allocation; every count's exact gamma sum streams, where a one-array
    # sum took 38 MB at n = 10**6
    numerics._memo_log_gamma_ratio.cache_clear()
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "experiment", "residuals",
                               "--grid", "100,1000,10000,100000,1000000", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 16 * 2**20


@pytest.mark.parametrize("theta", ["0.2,0.3,0.2,0.3", "0.1,0.4,0.3,0.2"])
@pytest.mark.parametrize("ess", [1.0, 0.25])
@pytest.mark.parametrize("seed", [0, 3, 13])
def test_residuals_equal_prefix_dataset_path(capsys, seed, ess, theta):
    # residuals scores each prefix from its four cell counts; the same
    # draws as materialised prefix datasets must give the same floats
    grid = [50, 100, 1000, 5000]
    code, out, err = run_cli(capsys, "experiment", "residuals", "--seed", str(seed),
                             "--ess", str(ess), "--theta", theta,
                             "--grid", ",".join(map(str, grid)))
    assert code == 0, err
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = np.cumsum([float(t) for t in theta.split(",")])
    codes = np.searchsorted(edges, rng.random(grid[-1]), side="right")
    x, y = (codes >> 1).astype(np.int64), (codes & 1).astype(np.int64)
    prefixes = [Dataset.from_columns([("X", 2, x[:n]), ("Y", 2, y[:n])]) for n in grid]
    flat = asymptotic_residuals(prefixes, "X", "Y", (), Jeffreys())
    split = asymptotic_residuals(prefixes, "X", "Y", (), BDeu(ess))
    assert rows == [[n, rj, rb] for (n, rj), (_, rb) in zip(flat, split)]


def test_residuals_theta_just_below_one_keeps_every_draw(capsys):
    # the four probabilities sum to 1 - 9e-10, inside the sum check; draw
    # 147274 falls past their sum, and the last cell must take it
    code, out, err = run_cli(capsys, "experiment", "residuals",
                             "--theta", "0.2,0.3,0.2,0.2999999991",
                             "--grid", "1000,1000000", "--seed", "2722")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "n,residual_jeffreys,residual_bdeu"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1000, 1000000]


CHUNK = numerics._SUM_CHUNK


@pytest.mark.parametrize("grid", [
    [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 3 * CHUNK + CHUNK // 3],
    [3 * CHUNK + 5],
])
@pytest.mark.parametrize("theta", ["0.2,0.3,0.2,0.3", "0.2,0.3,0.2,0.2999999991"])
@pytest.mark.parametrize("seed", [1, 2722])
def test_residuals_across_chunk_edges_equal_one_array_of_draws(capsys, seed, theta, grid):
    # residuals draws and counts the stream in chunks; every prefix, ending
    # on either side of a chunk edge or spanning several, must score as the
    # prefix of one whole-stream array of draws
    code, out, err = run_cli(capsys, "experiment", "residuals", "--seed", str(seed),
                             "--theta", theta, "--grid", ",".join(map(str, grid)))
    assert code == 0, err
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = np.cumsum([float(t) for t in theta.split(",")])[:-1]
    codes = np.searchsorted(edges, rng.random(grid[-1]), side="right")
    x, y = (codes >> 1).astype(np.int64), (codes & 1).astype(np.int64)
    prefixes = [Dataset.from_columns([("X", 2, x[:n]), ("Y", 2, y[:n])]) for n in grid]
    flat = asymptotic_residuals(prefixes, "X", "Y", (), Jeffreys())
    split = asymptotic_residuals(prefixes, "X", "Y", (), BDeu(1.0))
    assert rows == [[n, rj, rb] for (n, rj), (_, rb) in zip(flat, split)]


@pytest.mark.parametrize("grid", ["100,1000,10000,100000,1000000",
                                  "100,1000,10000,100000,1000000,4000000"])
def test_residuals_hold_one_byte_per_draw(capsys, grid):
    # the int8 codes are the one full-length array: draws, comparisons and
    # counts go a chunk at a time, where a whole-stream float64 array and an
    # int64 copy of each prefix segment peaked at 10.5 MB at 10**6 draws
    # and 38 MB at 4 * 10**6
    numerics._memo_log_gamma_ratio.cache_clear()
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "experiment", "residuals", "--grid", grid, "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 2.5 * 2**20 + int(grid.split(",")[-1])


# The sweeps at the benchmark's sizes, as sha256 of stdout; the golden
# reports stop at n = 5000, so these pin the large-n rows bit for bit.
SWEEP_DIGESTS = {
    "experiment dn-sweep --points 1000 --n-max 100000 --seed 1":
        "c830eb7c846a5e2fc711463a3d298eb118c4e86d45e899dd81ff7b99e4dbdf11",
    "experiment jn-vs-r --n 2000":
        "37e3cfba89c6a0eab48d6bb05a1832a3a35eacaa6142d0677207f7ee397cdb4d",
    "experiment residuals --grid 100,1000,10000,100000,1000000 --seed 1":
        "b951987b8bfc46739fe886b45487cb953a2ace6a1f10c1be921ce04742e3f7ae",
    "experiment residuals --grid 100,1000,10000,100000,1000000 --seed 13 --ess 0.25"
    " --theta 0.1,0.4,0.3,0.2":
        "78df03f521f69e0fb5ce46c7cc83b21ebe58267e8e3118b55fc94db7ac329f51",
}


@pytest.mark.parametrize("command", sorted(SWEEP_DIGESTS))
def test_sweep_output_digest_at_benchmark_sizes(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[command]


# Exact gamma sums past 64 terms take numpy's vectorised log, whose SIMD
# kernels may round a term differently from libm's: on an AVX-512 host,
# np.log and math.log disagree on a few dozen of 10**6 terms ln(k + 0.5).
# The pinned sweeps must print the same bytes with every dispatched kernel
# switched off, as on a CPU that has none of them.
SIMD_OFF_PROBE = """
import contextlib, hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from bdscore.cli import main
assert not any(__cpu_features__[f] for f in __cpu_dispatch__), "dispatch is still on"
digests = {}
for command in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0, command
    digests[command] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def test_sweep_digests_with_numpy_simd_dispatch_off():
    from numpy._core._multiarray_umath import __cpu_dispatch__

    if not __cpu_dispatch__:
        pytest.skip("this numpy build dispatches no SIMD kernels")
    src = str(pathlib.Path(bdscore.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ",".join(__cpu_dispatch__),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", SIMD_OFF_PROBE, json.dumps(sorted(SWEEP_DIGESTS))],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == SWEEP_DIGESTS


# dn-sweep draws its stream in parts, one per usable CPU; the tests force
# the count through cli._usable_cpus and compare with one generator.

BENCHMARK_DN_SWEEP = "experiment dn-sweep --points 1000 --n-max 100000 --seed 1"

PAIR_GRIDS = {
    "one point": [10],
    "n-min = n-max": [500] * 6,
    "n = 1": [1, 1, 2, 4, 7, 14, 27, 50],
    "last point holds most draws": [1, 46, 2154, 100_000],
    "first point holds most draws": [100_000, 1, 2, 3, 5, 8],
    "benchmark": [int(v) for v in np.rint(np.geomspace(10, 100_000, 1000))],
}


def _thread_starts(monkeypatch) -> list:
    """The threads started from now on, in order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.fixture(scope="module")
def sequential_counts():
    seen = {}

    def get(seed, name):
        if (seed, name) not in seen:
            seen[seed, name] = sequential_pair_counts(seed, PAIR_GRIDS[name])
        return seen[seed, name]

    return get


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("seed", [0, 1, 7, 13, 2**64 - 1])
def test_pair_counts_do_not_depend_on_the_number_of_parts(monkeypatch, sequential_counts,
                                                          seed, parts):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: parts)
    started = _thread_starts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the parts interleave as often as they can
    try:
        for name, grid in PAIR_GRIDS.items():
            del started[:]
            assert cli._pair_counts(seed, grid) == sequential_counts(seed, name), name
            assert len(started) <= min(parts, len(grid)) - 1, name
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == parts - 1  # the benchmark grid takes every part


@pytest.mark.parametrize("parts", range(1, 9))
def test_dn_sweep_bytes_for_every_part_count(capsys, monkeypatch, parts):
    small = [("--points", "1"), ("--n-min", "7", "--n-max", "7", "--points", "5"),
             ("--n-min", "1", "--n-max", "40", "--points", "30", "--seed", "13")]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    want = [run_cli(capsys, "experiment", "dn-sweep", *argv) for argv in small]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: parts)
    assert [run_cli(capsys, "experiment", "dn-sweep", *argv) for argv in small] == want
    code, out, err = run_cli(capsys, *BENCHMARK_DN_SWEEP.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[BENCHMARK_DN_SWEEP]


def test_parts_are_usable_cpus_up_to_eight_and_the_points(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cli._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    started = _thread_starts(monkeypatch)
    cli._pair_counts(3, PAIR_GRIDS["benchmark"])
    assert len(started) == 7
    del started[:]
    cli._pair_counts(3, [10, 10, 10])
    assert len(started) == 2


def test_dn_sweep_leaves_no_thread_behind(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    code, _, err = run_cli(capsys, "experiment", "dn-sweep", "--points", "50", "--n-max", "20000")
    assert (code, err) == (0, "")
    assert threading.active_count() == before

    advanced = []

    class RecordingPCG64(np.random.PCG64):
        def advance(self, delta):
            advanced.append(delta)
            return super().advance(delta)

    # sizes are checked before any generator moves, so the grid is an input error
    monkeypatch.setattr(np.random, "Generator", _SmallMemoryGenerator)
    monkeypatch.setattr(np.random, "PCG64", RecordingPCG64)
    code, out, err = run_cli(capsys, "experiment", "dn-sweep", "--n-min", "10",
                             "--n-max", "10000000000000", "--points", "2")
    assert (code, out, err) == (2, "", "error: 10000000000000 random draws do not fit in memory\n")
    assert advanced == []
    assert threading.active_count() == before


@pytest.mark.parametrize("bounds", [
    ["--n-max", str(2**64 - 1)], ["--n-max", str(2**64)], ["--n-max", str(2**64 + 1)],
    ["--n-max", str(10**40)], ["--n-min", str(2**64 + 3), "--n-max", str(2**64 + 4)],
])
def test_dn_sweep_n_past_a_64_bit_count_is_an_input_error(capsys, monkeypatch, bounds):
    """n-max past 2**63 - 1, the largest count the margins hold, is refused
    by the grid check: before the grid is built, any thread starts or any
    generator moves."""
    advanced, started = [], []

    class RecordingPCG64(np.random.PCG64):
        def advance(self, delta):
            advanced.append(delta)
            return super().advance(delta)

    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(np.random, "PCG64", RecordingPCG64)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    code, out, err = run_cli(capsys, "experiment", "dn-sweep", "--points", "2", *bounds)
    assert (code, out) == (2, "")
    assert err == "error: grid needs 1 <= n-min <= n-max <= 2**63 - 1 and at least one point\n"
    assert advanced == [] and started == []


@pytest.mark.parametrize("failing, raised", [({20, 30}, 20), ({30}, 30), ({10}, 10)])
def test_a_failing_part_is_raised_in_grid_order_after_every_join(monkeypatch, failing, raised):
    real = np.random.Generator

    class FailingGenerator:
        """numpy's generator, but a draw of a size in ``failing`` raises."""

        def __init__(self, bit_generator):
            self.rng = real(bit_generator)

        def random(self, size=None, out=None):
            if (size if out is None else out.size) in failing:
                raise RuntimeError(f"draw of {size if out is None else out.size}")
            return self.rng.random(size, out=out)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(np.random, "Generator", FailingGenerator)
    before = threading.active_count()
    started = _thread_starts(monkeypatch)
    # parts [10, 20, 100000] and [30]: the second part's error waits for the first
    with pytest.raises(RuntimeError, match=f"^draw of {raised}$"):
        cli._pair_counts(0, [10, 20, 100_000, 30])
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


def test_importing_the_cli_loads_no_thread_pool_or_logging():
    # concurrent.futures imports logging, which costs every command's start
    src = str(pathlib.Path(bdscore.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, bdscore.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# Only sizes whose grid cannot even be reserved: 10**15 asks for 4 PB, past
# the address space, and larger ones past what a size can describe.
@pytest.mark.parametrize("n", [10**15, 2**62, 2**63 - 1])
def test_jn_vs_r_grid_past_memory_is_an_input_error(capsys, n):
    code, out, err = run_cli(capsys, "experiment", "jn-vs-r", "--n", str(n))
    assert code == 2 and out == ""
    assert f"{n // 2 + 1} grid points do not fit in memory" in err


def test_jn_vs_r_n_past_int64_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "experiment", "jn-vs-r", "--n", str(2**63))
    assert code == 2 and out == ""
    assert "does not fit in a 64-bit count" in err


def test_input_errors_without_a_child_or_a_row(capsys, data_dir):
    path = str(data_dir / "xor_and_12.csv")
    assert run_cli(capsys, "score", path, "|X") == (
        2, "", "error: conditional spec needs a child before '|', got '|X'\n")
    assert run_cli(capsys, "experiment", "jn-vs-r", "--n", "0") == (
        2, "", "error: n must be at least 1, got 0\n")


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


# Each subcommand's argv ({xor}: xor_and_12.csv, {three}: a 3-column file)
# and its exit code; main writes the same text to stdout and to -o.
ONE_WRITER_COMMANDS = {
    "score marginal": (0, "score", "{xor}", "X,Y", "--prior", "bdeu"),
    "score ratio": (0, "score", "{xor}", "X|Z,W", "--form", "ratio"),
    "score local": (0, "score", "{xor}", "X|Z,W", "--form", "local-independent",
                    "--prior", "custom", "--custom-weight", "0.7"),
    "entropy": (0, "entropy", "{xor}", "--of", "Y", "--given", "X,Z"),
    "citest": (0, "citest", "{xor}", "--x", "X", "--y", "Y", "--z", "Z,W"),
    "audit with violations": (3, "audit", "{xor}", "--child", "X", "--prior", "bdeu"),
    "audit without": (0, "audit", "{xor}", "--child", "X", "--prior", "jeffreys"),
    "learn --classes": (0, "learn", "{three}", "--classes"),
    "gen-deterministic": (0, "gen-deterministic", "--z-arity", "3", "--f", "0,1,1",
                          "--g", "1,0,1", "--repeat-each", "4"),
    "dn-sweep": (0, "experiment", "dn-sweep", "--points", "5", "--n-max", "300", "--seed", "3"),
    "jn-vs-r": (0, "experiment", "jn-vs-r", "--n", "12"),
    "residuals": (0, "experiment", "residuals", "--grid", "10,200", "--seed", "2"),
}


@pytest.mark.parametrize("case", sorted(ONE_WRITER_COMMANDS))
def test_output_file_holds_the_bytes_printed_to_stdout(capsys, data_dir, tmp_path, case):
    expect, *argv = ONE_WRITER_COMMANDS[case]
    three = tmp_path / "three.csv"
    three.write_text("X:2,Z:2,Y:2\n0,0,0\n0,0,1\n1,1,1\n1,1,0\n1,0,1\n0,1,1\n")
    argv = [arg.format(xor=data_dir / "xor_and_12.csv", three=three) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (expect, "") and out
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "-o", str(path)) == (expect, "", "")
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ("score", "{xor}", "X"),
    ("experiment", "jn-vs-r", "--n", "4"),
], ids=["json", "csv"])
def test_unwritable_output_path_is_an_input_error(capsys, data_dir, tmp_path, argv):
    argv = [arg.format(xor=data_dir / "xor_and_12.csv") for arg in argv]
    code, out, err = run_cli(capsys, *argv, "-o", str(tmp_path / "missing" / "out"))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
def test_property_json_text_reads_back_every_finite_double(x):
    for back in json.loads(cli._json_text(x)), json.loads(cli._json_text({"v": [x]}))["v"][0]:
        assert back == x
        assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_json_text_of_empty_null_and_unwritable_values():
    assert cli._json_text({}) == "{}"
    assert cli._json_text(None) == "null"
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        cli._json_text(object())
    with pytest.raises(ValueError, match="^refusing to emit non-finite value nan$"):
        cli._json_text(math.nan)


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
