"""Output checks for the benchmark's commands.

Each command's output is checked three ways:

* against references recorded from this program for the same workload
  and seed (``refs.json``): structures, verdicts and violation pairs must
  match exactly, floats within ``REL_TOL``/``ABS_TOL``;
* against oracles that share no code with bdscore: marginal scores
  recomputed with mpmath ``loggamma`` from the benchmark's own numpy
  counts, an independent enumeration of the audit, and the planted
  network's score as a lower bound for the learned one;
* for internal consistency (edges agree with parents, flags agree with
  the values they are derived from).

A decision that hinges on two floats closer than the tolerance (a CI
verdict, an audit pair, a sweep flag) may flip without counting as a
failure, so that an accepted last-digit change to a kernel does not
read as a wrong answer.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFS_PATH = Path(__file__).resolve().with_name("refs.json")
SAMPLE_STRIDE = 100  # sweep rows kept in the references


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def near_tie(a: float, b: float) -> bool:
    """True when a comparison of a and b is within the float tolerance."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


# -- references -----------------------------------------------------------


def load_refs(path: Path = REFS_PATH) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def compare(summary, ref, where: str = "") -> list[str]:
    """Exact comparison, except floats within tolerance, recursively."""
    if isinstance(ref, float) or isinstance(summary, float):
        if isinstance(summary, (int, float)) and isinstance(ref, (int, float)) and close(summary, ref):
            return []
        return [f"{where}: {summary!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(summary, dict):
        if set(ref) != set(summary):
            return [f"{where}: keys {sorted(summary)} != reference {sorted(ref)}"]
        return [p for k in ref for p in compare(summary[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(summary, list):
        if len(ref) != len(summary):
            return [f"{where}: length {len(summary)} != reference {len(ref)}"]
        return [p for i, (s, r) in enumerate(zip(summary, ref)) for p in compare(s, r, f"{where}[{i}]")]
    return [] if summary == ref else [f"{where}: {summary!r} != reference {ref!r}"]


def compare_to_ref(kind: str, summary: dict, ref: dict) -> list[str]:
    """Compare a command summary with its reference, allowing near-tie flips."""
    if kind == "citest" and summary["independent"] != ref["independent"]:
        if near_tie(summary["left"], summary["right"]):
            summary = dict(summary, independent=ref["independent"])
    if kind == "audit":
        summary = _audit_allow_ties(summary, ref)
    if kind == "dn-sweep":
        summary = _sweep_allow_ties(summary, ref)
        summary = {k: v for k, v in summary.items() if k != "near_threshold"}
        ref = {k: v for k, v in ref.items() if k != "near_threshold"}
    return compare(summary, ref, kind)


def _audit_allow_ties(summary: dict, ref: dict) -> dict:
    mine = {tuple(map(tuple, p)): s for p, s in zip(summary["violations"], summary["scores"])}
    theirs = {tuple(map(tuple, p)): s for p, s in zip(ref["violations"], ref["scores"])}
    flips = set(mine) ^ set(theirs)
    if flips and all(near_tie(*(mine.get(p) or theirs[p])) for p in flips):
        return ref
    return summary


def _sweep_allow_ties(summary: dict, ref: dict) -> dict:
    if summary["above"] == ref["above"] or len(summary["above"]) != len(ref["above"]):
        return summary
    differs = {i for i, (a, b) in enumerate(zip(summary["above"], ref["above"])) if a != b}
    if differs <= set(summary["near_threshold"]):
        return dict(summary, above=ref["above"])
    return summary


# -- summaries: what of each output is compared -------------------------


def _rows(text: str) -> list[list[str]]:
    """Data rows of a CSV output, without its header."""
    return list(csv.reader(io.StringIO(text)))[1:]


def summarize(kind: str, text: str) -> dict:
    """The part of a command's output that references record."""
    if kind in ("learn", "score", "citest", "audit"):
        report = json.loads(text)
    else:
        rows = _rows(text)
    if kind == "learn":
        return {"parents": report["parents"], "edges": report["edges"],
                "log_score": report["log_score"]}
    if kind == "score":
        return {"log_score": report["log_score"]}
    if kind == "citest":
        st = report["statistics"]
        return {"independent": report["independent"], "left": report["left"],
                "right": report["right"], "j": st["j"], "penalized_mi": st["penalized_mi"],
                "correction": st["correction"]}
    if kind == "audit":
        vs = report["violations"]
        return {"violations": [[v["smaller_parents"], v["larger_parents"]] for v in vs],
                "scores": [[v["score_smaller"], v["score_larger"]] for v in vs]}
    if kind == "dn-sweep":
        corr = [float(r[1]) for r in rows]
        thr = [float(r[2]) for r in rows]
        return {"rows": len(rows), "above": "".join(r[3] for r in rows),
                "near_threshold": [i for i, (c, t) in enumerate(zip(corr, thr)) if near_tie(c, t)],
                "correction_sum": math.fsum(corr),
                "sample": [corr[i] for i in range(0, len(rows), SAMPLE_STRIDE)]}
    if kind == "jn-vs-r":
        return {"rows": len(rows),
                "sample": [[float(r[1]), float(r[2])] for r in rows[::SAMPLE_STRIDE]]}
    if kind == "residuals":
        return {"rows": [[int(r[0]), float(r[1]), float(r[2])] for r in rows]}
    raise ValueError(f"unknown command kind {kind!r}")


# -- oracle: scores from the benchmark's own counts -----------------------


class CountOracle:
    """Dense joint counts of a generated table, and exact scores from them."""

    def __init__(self, names, arities, data: np.ndarray) -> None:
        self.names = tuple(names)
        self.arities = tuple(arities)
        self.n = int(data.shape[0])
        code = np.ravel_multi_index(tuple(data.T.astype(np.intp)), self.arities)
        self.joint = np.bincount(code, minlength=math.prod(self.arities)).reshape(self.arities)
        self._memo: dict = {}

    def index(self, names) -> tuple[int, ...]:
        return tuple(sorted(self.names.index(v) for v in names))

    def counts(self, idx: tuple[int, ...]) -> np.ndarray:
        """Joint counts of columns ``idx`` as a dense array in index order."""
        other = tuple(i for i in range(len(self.names)) if i not in idx)
        return self.joint.sum(axis=other)

    def marginal(self, names, prior: str, ess: float = 1.0) -> float:
        """Marginal score with 30-digit mpmath loggamma; prior 'jeffreys' or 'bdeu'."""
        idx = self.index(names)
        key = (idx, prior, ess)
        if key not in self._memo:
            cells = self.counts(idx)
            gamma = cells.size
            w, total = (0.5, 0.5 * gamma) if prior == "jeffreys" else (ess / gamma, ess)
            values, mult = np.unique(cells[cells > 0], return_counts=True)
            with mpmath.workdps(30):
                w_mp = mpmath.mpf(w)
                lg_w = mpmath.loggamma(w_mp)
                s = -(mpmath.loggamma(self.n + mpmath.mpf(total)) - mpmath.loggamma(mpmath.mpf(total)))
                for c, m in zip(values.tolist(), mult.tolist()):
                    s += m * (mpmath.loggamma(c + w_mp) - lg_w)
                self._memo[key] = float(s)
        return self._memo[key]

    def family_score(self, child: str, parents, prior: str) -> float:
        return self.marginal([*parents, child], prior) - self.marginal(parents, prior)

    def network_score(self, parents: dict, prior: str) -> float:
        return math.fsum(self.family_score(v, ps, prior) for v, ps in parents.items())

    def cond_entropy(self, x: int, given: tuple[int, ...]) -> float:
        """Empirical H(X | given) in nats, as floats from numpy."""
        idx = tuple(sorted(given + (x,)))
        joint = self.counts(idx)
        parent = joint.sum(axis=idx.index(x), keepdims=True)
        mask = joint > 0
        c = joint[mask]
        cu = np.broadcast_to(parent, joint.shape)[mask]
        return float(-np.sum(c / self.n * np.log(c / cu)))

    def float_family_score(self, x: int, given: tuple[int, ...], ess: float) -> float:
        """BDeu conditional score from math.lgamma; close enough to order audit pairs."""
        def marg(idx):
            cells = self.counts(idx)
            w = ess / cells.size
            c = cells[cells > 0].tolist()
            return (-(math.lgamma(self.n + ess) - math.lgamma(ess))
                    + math.fsum(math.lgamma(k + w) - math.lgamma(w) for k in c))
        return marg(tuple(sorted(given + (x,)))) - marg(given)


# -- per-command oracle checks --------------------------------------------


def check_learn(report: dict, oracle: CountOracle, planted: dict, prior: str) -> list[str]:
    problems = []
    parents = report["parents"]
    if sorted(parents) != sorted(oracle.names):
        return [f"learn/{prior}: parents cover {sorted(parents)}, expected every column"]
    edges = sorted([p, v] for v, ps in parents.items() for p in ps)
    if sorted(report["edges"]) != edges:
        problems.append(f"learn/{prior}: edges do not match the parent lists")
    if not _acyclic(parents):
        problems.append(f"learn/{prior}: learned structure has a cycle")
    expected = oracle.network_score(parents, prior)
    if not close(report["log_score"], expected):
        problems.append(f"learn/{prior}: log_score {report['log_score']!r} != mpmath {expected!r}")
    floor = oracle.network_score(planted, prior)
    if report["log_score"] < floor and not near_tie(report["log_score"], floor):
        problems.append(f"learn/{prior}: log_score {report['log_score']!r} below planted {floor!r}")
    return problems


def _acyclic(parents: dict) -> bool:
    remaining = {v: set(ps) for v, ps in parents.items()}
    while remaining:
        roots = [v for v, ps in remaining.items() if not ps]
        if not roots:
            return False
        for v in roots:
            del remaining[v]
        for ps in remaining.values():
            ps.difference_update(roots)
    return True


def check_score(report: dict, oracle: CountOracle, child: str, parents) -> list[str]:
    expected = oracle.family_score(child, parents, "bdeu")
    if close(report["log_score"], expected):
        return []
    return [f"score: log_score {report['log_score']!r} != mpmath {expected!r}"]


def check_citest(report: dict, oracle: CountOracle, xs, ys, zs) -> list[str]:
    m_xz, m_yz = oracle.marginal([*xs, *zs], "bdeu"), oracle.marginal([*ys, *zs], "bdeu")
    m_xyz, m_z = oracle.marginal([*xs, *ys, *zs], "bdeu"), oracle.marginal(zs, "bdeu")
    p = report["p"]
    left = math.log(p) + m_xz + m_yz
    right = math.log(1.0 - p) + m_xyz + m_z
    j = (m_xyz + m_z - m_xz - m_yz) / oracle.n
    problems = []
    for name, got, want in (("left", report["left"], left), ("right", report["right"], right),
                            ("j", report["statistics"]["j"], j)):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-9 / oracle.n):
            problems.append(f"citest: {name} {got!r} != mpmath {want!r}")
    if report["independent"] != (left >= right) and not near_tie(left, right):
        problems.append(f"citest: verdict {report['independent']} but mpmath says {left >= right}")
    return problems


def audit_oracle(oracle: CountOracle, child: str, max_parents: int, ess: float,
                 entropy_tol: float = 1e-12):
    """Violation pairs that must be reported, and those that may be.

    Mirrors the audit's definition: every U inside U' drawn from all other
    columns with |U'| <= max_parents, premise H(X|U) <= H(X|U') + tol,
    violation when the larger set scores strictly higher.
    """
    x = oracle.names.index(child)
    pool = [i for i in range(len(oracle.names)) if i != x]
    h, s = {}, {}

    def h_of(u):
        if u not in h:
            h[u] = oracle.cond_entropy(x, u)
        return h[u]

    def s_of(u):
        if u not in s:
            s[u] = oracle.float_family_score(x, u, ess)
        return s[u]

    must, may = set(), set()
    slack = 1e-13  # entropies from numpy and from bdscore differ by float noise only
    for size in range(1, max_parents + 1):
        for up in itertools.combinations(pool, size):
            for sub in range(size):
                for u in itertools.combinations(up, sub):
                    gap = h_of(u) - h_of(up) - entropy_tol
                    if gap > slack:
                        continue
                    diff = s_of(up) - s_of(u)
                    names = (tuple(oracle.names[i] for i in u), tuple(oracle.names[i] for i in up))
                    if diff > -1e-6:
                        may.add(names)
                    if diff > 1e-6 and gap < -slack:
                        must.add(names)
    return must, may


def check_audit(report: dict, rc: int, oracle: CountOracle, child: str, max_parents: int) -> list[str]:
    problems = []
    found = {(tuple(v["smaller_parents"]), tuple(v["larger_parents"])) for v in report["violations"]}
    if report["violation_count"] != len(report["violations"]):
        problems.append("audit: violation_count disagrees with the violation list")
    if rc != (3 if found else 0):
        problems.append(f"audit: exit code {rc} with {len(found)} violations")
    must, may = audit_oracle(oracle, child, max_parents, ess=1.0)
    if missing := must - found:
        problems.append(f"audit: {len(missing)} violations missing, e.g. {sorted(missing)[0]}")
    if extra := found - may:
        problems.append(f"audit: {len(extra)} pairs are not violations, e.g. {sorted(extra)[0]}")
    return problems


def check_dn_sweep(text: str, points: int, n_min: int, n_max: int) -> list[str]:
    rows = _rows(text)
    grid = [int(v) for v in np.rint(np.geomspace(n_min, n_max, points))]
    if [int(r[0]) for r in rows] != grid:
        return ["dn-sweep: sample sizes differ from the requested grid"]
    problems = []
    for r in rows:
        n, corr, thr, above = int(r[0]), float(r[1]), float(r[2]), r[3]
        if not close(thr, 0.5 * math.log2(n)):
            problems.append(f"dn-sweep: threshold {thr!r} at n={n} is not 0.5*log2(n)")
        if above != ("1" if corr > thr else "0") and not near_tie(corr, thr):
            problems.append(f"dn-sweep: flag {above} at n={n} disagrees with {corr!r} > {thr!r}")
    return problems[:5]


def _j_constant_pair(n: int, ones: int, prior: str) -> float:
    """J of X with ``ones`` ones against a constant Y, from mpmath."""
    data = np.zeros((n, 2), dtype=np.int64)
    data[:ones, 0] = 1
    o = CountOracle(("X", "Y"), (2, 2), data)
    return (o.marginal(["X", "Y"], prior) - o.marginal(["X"], prior) - o.marginal(["Y"], prior)) / n


def check_jn_vs_r(text: str, n: int) -> list[str]:
    rows = _rows(text)
    if [int(r[0]) for r in rows] != list(range(n // 2 + 1)):
        return ["jn-vs-r: rows do not cover r = 0..n/2"]
    problems = []
    flat = [float(r[2]) for r in rows]
    # Under Jeffreys weights J of a constant pair does not depend on r.
    if not all(close(v, flat[0]) for v in flat):
        problems.append("jn-vs-r: Jeffreys column varies with r")
    for r in (0, 1, n // 4, n // 2):
        for col, prior in ((1, "bdeu"), (2, "jeffreys")):
            want = _j_constant_pair(n, r, prior)
            got = float(rows[r][col])
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-9 / n):
                problems.append(f"jn-vs-r: {prior} J at r={r} is {got!r}, mpmath {want!r}")
    return problems


def check_residuals(text: str, grid: list[int]) -> list[str]:
    rows = _rows(text)
    if [int(r[0]) for r in rows] != sorted(grid):
        return ["residuals: rows do not match the grid"]
    if not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
        return ["residuals: non-finite residual"]
    return []
