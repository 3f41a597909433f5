"""Command-line interface: JSON/CSV report shapes, exact values through
the text round trip, exit codes, and seeded determinism."""

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
from fractions import Fraction

import numpy as np
import pytest

import bdscore
from bdscore import cli
from bdscore.citest import asymptotic_residuals, bdeu_correction
from bdscore.cli import main
from bdscore.dataset import Dataset, load_csv
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


def test_jn_vs_r_n_past_int64_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "experiment", "jn-vs-r", "--n", str(2**63))
    assert code == 2 and out == ""
    assert "does not fit in a 64-bit count" in err


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
