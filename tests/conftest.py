import pathlib
import re

import pytest

import bdscore.citest
import bdscore.dataset
import bdscore.regularity
import bdscore.scores
import bdscore.search
from bdscore import Dataset, load_csv
from bdscore.dataset import _project, counts

DATA_DIR = pathlib.Path(__file__).parent / "data"

_CRITERION = re.compile(r"test_acceptance\.py::(test_criterion_(\d+)\w*)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One status line per acceptance criterion at the end of the run."""
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", None) != "call":
                continue
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            outcome = rep.outcome
            if hasattr(rep, "wasxfail"):
                outcome = "xfailed" if outcome == "skipped" else "xpassed"
            label = {"passed": "PASS", "failed": "FAIL",
                     "xfailed": "XFAIL (documented)", "xpassed": "XPASS"}.get(
                         outcome, outcome.upper())
            rows[m.group(1)] = (int(m.group(2)), label)
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, (num, label) in sorted(rows.items(), key=lambda kv: (kv[1][0], kv[0])):
            terminalreporter.write_line(f"criterion {num:>2}: {label:20s} {name}")


@pytest.fixture(scope="session")
def xor_and() -> Dataset:
    """12 rows: X = Z xor W, Y = Z and W, each (Z, W) block three times."""
    return load_csv(DATA_DIR / "xor_and_12.csv")


@pytest.fixture(scope="session")
def constant_pair() -> Dataset:
    """Five rows of (0, 0) under two declared-binary columns."""
    return load_csv(DATA_DIR / "constant_pair_5.csv")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture
def scans(monkeypatch):
    """The reads of a dataset's rows while the test runs, in order, through
    every module that reads rows for scores, CI queries, audits and search:
    a ``counts`` call's subset (``dataset`` counts the child and parents of
    a per-key score or entropy), or the list of masks of a ``_project``
    call on the rows themselves (``weights`` None), as exact search
    counts its roots."""
    seen = []

    def counting(ds, subset):
        seen.append(subset)
        return counts(ds, subset)

    def projecting(digits, weights, arities, masks, **kwargs):
        if weights is None:
            seen.append(list(masks))
        return _project(digits, weights, arities, masks, **kwargs)

    for module in (bdscore.dataset, bdscore.scores, bdscore.citest, bdscore.regularity):
        monkeypatch.setattr(module, "counts", counting)
    for module in (bdscore.citest, bdscore.regularity, bdscore.search):
        monkeypatch.setattr(module, "_project", projecting)
    return seen
