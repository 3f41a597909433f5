"""Byte identity of CLI reports on the shipped datasets.

``tests/data/golden_reports.json`` holds, for each invocation below, its
exit code and exact stdout and stderr.  A change that is meant to leave
every result alone must leave these bytes alone.  Reports echo their
dataset path, which is stored as the bare file name.

Re-record (only when a change of output is intended and explained)::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from bdscore import cli

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "golden_reports.json"

PRIORS = {
    "jeffreys": ["--prior", "jeffreys"],
    "bdeu1": ["--prior", "bdeu", "--ess", "1"],
    "bdeu0.25": ["--prior", "bdeu", "--ess", "0.25"],
    "custom0.75": ["--prior", "custom", "--custom-weight", "0.75"],
}

# per dataset: marginal specs, conditional specs, CI queries (x, y, z),
# audit child, entropy queries (of, given)
QUERIES = {
    "xor_and_12.csv": {
        "marginal": ["X", "X,Z,W", "X,Z,W,Y"],
        "conditional": ["X|Z,W", "Y|Z", "Z|"],
        "citest": [("X", "Y", ""), ("X", "Y", "Z,W"), ("Z", "W", "X")],
        "child": "X",
        "entropy": [("X", ""), ("X", "Z"), ("X", "Z,W"), ("Y", "X,Z")],
    },
    "constant_pair_5.csv": {
        "marginal": ["X", "X,Y"],
        "conditional": ["Y|X", "X|"],
        "citest": [("X", "Y", "")],
        "child": "Y",
        "entropy": [("Y", ""), ("Y", "X")],
    },
}


def invocations() -> dict[str, list[str]]:
    """Every recorded invocation, keyed by a readable id; ``{data}`` is the CSV."""
    out = {}
    for name, q in QUERIES.items():
        for label, prior in PRIORS.items():
            tag = f"{name}:{label}"
            for spec in q["marginal"]:
                out[f"{tag}:score {spec}"] = ["score", "{data}", spec, *prior]
            for spec in q["conditional"]:
                for form in ("ratio", "local-coupled", "local-independent"):
                    out[f"{tag}:score {spec} {form}"] = ["score", "{data}", spec, "--form", form,
                                                         *prior]
            for x, y, z in q["citest"]:
                out[f"{tag}:citest {x} {y} | {z}"] = ["citest", "{data}", "--x", x, "--y", y,
                                                      "--z", z, "--p", "0.3", "--log-base", "2",
                                                      *prior]
                out[f"{tag}:citest {x} {y} | {z} base e"] = [
                    "citest", "{data}", "--x", x, "--y", y, "--z", z, "--p", "0.3",
                    "--log-base", "e", *prior]
            for criterion in ("bd", "aic", "bic"):
                out[f"{tag}:audit {criterion}"] = ["audit", "{data}", "--child", q["child"],
                                                   "--criterion", criterion, *prior]
            out[f"{tag}:learn"] = ["learn", "{data}", *prior]
            out[f"{tag}:learn cap 1"] = ["learn", "{data}", "--cap", "1", *prior]
        for of, given in q["entropy"]:
            for base in ("e", "2"):
                out[f"{name}:entropy {of} | {given} base {base}"] = [
                    "entropy", "{data}", "--of", of, "--given", given, "--log-base", base]
    for ess in ("1", "0.25"):
        out[f"dn-sweep ess {ess}"] = ["experiment", "dn-sweep", "--seed", "7", "--points", "12",
                                      "--n-min", "10", "--n-max", "5000", "--ess", ess]
        out[f"jn-vs-r ess {ess}"] = ["experiment", "jn-vs-r", "--n", "24", "--ess", ess]
        out[f"residuals ess {ess}"] = ["experiment", "residuals", "--seed", "3",
                                       "--grid", "50,400,3000", "--ess", ess]
    out["error: custom weight 0"] = ["score", "{data}", "X", "--prior", "custom",
                                     "--custom-weight", "0"]
    out["error: unknown variable"] = ["citest", "{data}", "--x", "X", "--y", "Q"]
    return out


def run_invocation(key: str, template: list[str]) -> dict:
    name = key.split(":", 1)[0]
    data = DATA_DIR / (name if name in QUERIES else "xor_and_12.csv")
    argv = [str(data) if a == "{data}" else a for a in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"exit": code,
            "stdout": stdout.getvalue().replace(json.dumps(str(data)), json.dumps(data.name)),
            "stderr": stderr.getvalue().replace(str(data), data.name)}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(invocations()))
def test_cli_report_is_byte_identical_to_the_recording(key, recorded):
    assert run_invocation(key, invocations()[key]) == recorded[key]


def test_recording_covers_every_invocation(recorded):
    assert sorted(recorded) == sorted(invocations())


if __name__ == "__main__":
    recorded = {key: run_invocation(key, argv) for key, argv in sorted(invocations().items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} reports to {GOLDEN}")
