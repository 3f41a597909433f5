"""Score-based conditional-independence statistics and decisions.

The central quantity is the per-sample log score gap

    J(n) = (1/n) [score(X+Y+Z) + score(Z) - score(X+Z) - score(Y+Z)]

for disjoint variable groups X, Y, Z; positive values favor keeping X
and Y dependent given Z.  Its large-sample behavior is tracked by two
companions:

* ``penalized_mutual_information``: the empirical conditional mutual
  information minus the dimension penalty (a-1)(b-1)g/(2n) * log n,
  where a, b, g are the joint arities of X, Y, Z.

* ``bdeu_correction``: the finite-sample term specific to evenly split
  equivalent-sample-size weights.  With d the equivalent sample size,

      D = -(d/ag - 1/2)  S_xz - (d/bg - 1/2) S_yz
        + (d/abg - 1/2) S_xyz + (d/g - 1/2)  S_z

  where each S is the sum of log[(c + w)/(n + d)] over the *entire*
  declared state space of that margin (zero-count cells included) and w
  is the margin's per-cell weight.  Under Jeffreys weights every
  coefficient vanishes; under split weights the term grows with log n
  and is what drags the decision toward dependence on sparse data.

``asymptotic_residuals`` exposes what is left of n*J after removing the
penalized mutual information (and the correction term, for split
weights); bounded residuals over a growing-n grid are the numerical
signature that the expansion above is complete.

All of these are functions of the joint arities and observed counts of
the XYZ, XZ, YZ and Z margins alone.  Each query counts X+Y+Z once and
projects it onto XZ, YZ and Z in one call, which gives each margin's
counts and every XYZ cell's count on it together.  A projected margin
holds the counts a fresh count gives, so every score is the one a fresh
count gives; the command line scores each margin once for both the
verdict and the statistics.  dn-sweep's and residuals' binary pairs
build the same count lists from their four cells, one pair at a time:
each point has its own n.  jn-vs-r's pairs all have the same n, so
``regularity._j_profiles`` scores the margins of its whole grid in one
batch, and ``_j`` forms each J from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dataset import _INT64_MAX, Dataset, _digits, _project, _varset, counts
from .numerics import log_base_divisor
from .scores import BDeu, PriorSpec, _counts_score, _float_arity

__all__ = [
    "CIStatistics",
    "CIVerdict",
    "asymptotic_residuals",
    "bdeu_correction",
    "ci_decide_cond",
    "ci_decide_pair",
    "ci_statistics",
    "j_statistic",
    "penalized_mutual_information",
]


@dataclass(frozen=True)
class CIStatistics:
    """The three decision statistics for one (X, Y | Z) query."""

    j: float
    penalized_mi: float
    correction: float
    x_arity: int
    y_arity: int
    z_arity: int
    prior: str
    log_base: str


@dataclass(frozen=True)
class CIVerdict:
    """Outcome of one independence decision at prior probability p."""

    independent: bool
    p: float
    left: float
    right: float


@dataclass(frozen=True)
class _Margins:
    """One query's rows, the joint arities of X, Y and Z, each margin's observed
    counts in code order, and each XYZ cell's counts on XZ, YZ and Z."""

    n: int
    x_arity: int
    y_arity: int
    z_arity: int
    xyz: list[int]
    xz: list[int]
    yz: list[int]
    z: list[int]
    aligned: tuple[list[int], list[int], list[int]]

    def arities_and_counts(self) -> tuple[tuple[int, list[int]], ...]:
        """(joint arity, counts) of the XYZ, XZ, YZ and Z margins."""
        a, b, g = self.x_arity, self.y_arity, self.z_arity
        return (a * b * g, self.xyz), (a * g, self.xz), (b * g, self.yz), (g, self.z)


def _margins(ds: Dataset, x_vars, y_vars, z_vars) -> _Margins:
    """Resolve one (X, Y | Z) query, count X+Y+Z once and project it onto
    XZ, YZ and Z in one call."""
    xs, ys, zs = ds.subset(x_vars), ds.subset(y_vars), ds.subset(z_vars)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("X and Y groups must be nonempty")
    x, y, z = (sum(1 << i for i in g) for g in (xs, ys, zs))
    if x & y or (x | y) & z:
        raise ValueError("X, Y, Z groups must be pairwise disjoint")
    xyz = counts(ds, _varset(x | y | z, ds.arities))
    _, sums, bounds, aligned = _project(_digits(xyz, ds.num_variables), xyz.frequencies,
                                        ds.arities, (x | z, y | z, z), aligned=True)
    sums, b = sums.tolist(), bounds.tolist()
    return _Margins(xyz.n, xs.joint_arity, ys.joint_arity, zs.joint_arity,
                    xyz.frequencies.tolist(), *(sums[b[k]:b[k + 1]] for k in range(3)),
                    tuple(aligned.tolist()))


def _check_rows(n: int) -> None:
    """Refuse a pair's row count past the 64-bit counts its margins hold."""
    if n > _INT64_MAX:
        raise ValueError(f"n={n} does not fit in a 64-bit count")


def _pair_margins(n: int, ones_x: int, ones_y: int, both: int) -> _Margins:
    """The margins of a binary pair's 2x2 table (X is the high digit, Z is
    empty), from its rows and counts of ones; zero cells are dropped."""
    cells = (n - ones_x - ones_y + both, ones_y - both, ones_x - both, both)
    if min(cells) < 0:
        raise ValueError(f"counts n={n}, ones {ones_x} and {ones_y}, both {both} are inconsistent")
    _check_rows(n)
    x_margin, y_margin = (n - ones_x, ones_x), (n - ones_y, ones_y)
    kept = [code for code, c in enumerate(cells) if c]
    observed = ([c for c in margin if c] for margin in (cells, x_margin, y_margin, (n,)))
    return _Margins(n, 2, 2, 1, *observed,
                    ([x_margin[code >> 1] for code in kept], [y_margin[code & 1] for code in kept],
                     [n] * len(kept)))


def _scores(m: _Margins, prior: PriorSpec) -> list[float]:
    """Scores of the XYZ, XZ, YZ and Z margins."""
    return [_counts_score(arity, m.n, c, prior) for arity, c in m.arities_and_counts()]


def _j(n: int, scores: Sequence[float]) -> float:
    """J of n rows from the scores of the XYZ, XZ, YZ and Z margins."""
    xyz, xz, yz, z = scores
    return (xyz + z - xz - yz) / n


def _penalized_mi(m: _Margins) -> float:
    n = m.n
    mi = math.fsum((c / n) * math.log(c * cz / (cxz * cyz))
                   for c, cxz, cyz, cz in zip(m.xyz, *m.aligned))
    dimension = _float_arity((m.x_arity - 1) * (m.y_arity - 1) * m.z_arity)
    penalty = dimension / (2.0 * n) * math.log(n)
    return mi - penalty


def _correction(m: _Margins, prior: BDeu) -> float:
    denom = m.n + prior.ess

    def term(arity: int, observed_counts: list[int]) -> float:
        w = prior.cell_weight(arity)
        observed = math.fsum(math.log((c + w) / denom) for c in observed_counts)
        absent = arity - len(observed_counts)
        return (w - 0.5) * (observed + absent * math.log(w / denom))

    xyz, xz, yz, z = (term(*margin) for margin in m.arities_and_counts())
    return -xz - yz + xyz + z


def j_statistic(ds: Dataset, x_vars, y_vars, z_vars, prior: PriorSpec) -> float:
    """Per-sample log score gap of (X, Y | Z) in nats.

    The empty Z group has joint arity 1 and score 0, so the pairwise and
    the conditional cases are the same code path.
    """
    m = _margins(ds, x_vars, y_vars, z_vars)
    return _j(m.n, _scores(m, prior))


def penalized_mutual_information(ds: Dataset, x_vars, y_vars, z_vars, base="e") -> float:
    """Empirical conditional mutual information minus its dimension penalty.

    MI is summed over observed cells only (0 log 0 = 0); the penalty
    (a-1)(b-1)g/(2n) * log n uses the declared arities.  Both parts are
    reported in the requested base.
    """
    divisor = log_base_divisor(base)
    return _penalized_mi(_margins(ds, x_vars, y_vars, z_vars)) / divisor


def bdeu_correction(ds: Dataset, x_vars, y_vars, z_vars, ess: float, base="e") -> float:
    """Finite-sample correction term for evenly split prior weights.

    Every sum runs over the full declared state space of its margin,
    zero-count cells included; absent cells share one closed-form term.
    """
    prior = BDeu(ess)
    divisor = log_base_divisor(base)
    return _correction(_margins(ds, x_vars, y_vars, z_vars), prior) / divisor


def _statistics(m: _Margins, scores: Sequence[float], prior: PriorSpec, base) -> CIStatistics:
    """The statistics of a query from its margins and their ``_scores``."""
    divisor = log_base_divisor(base)
    return CIStatistics(
        j=_j(m.n, scores) / divisor,
        penalized_mi=_penalized_mi(m) / divisor,
        correction=_correction(m, prior) / divisor if isinstance(prior, BDeu) else 0.0,
        x_arity=m.x_arity,
        y_arity=m.y_arity,
        z_arity=m.z_arity,
        prior=prior.name,
        log_base="2" if divisor != 1.0 else "e",
    )


def ci_statistics(ds: Dataset, x_vars, y_vars, z_vars, prior: PriorSpec, base="e") -> CIStatistics:
    """Bundle J, penalized MI, and the split-weight correction for one query.

    The correction is identically zero for non-BDeu priors.
    """
    m = _margins(ds, x_vars, y_vars, z_vars)
    return _statistics(m, _scores(m, prior), prior, base)


def _residual(m: _Margins, prior: PriorSpec) -> float:
    """n * (J - penalized MI) - correction, in nats."""
    correction = _correction(m, prior) if isinstance(prior, BDeu) else 0.0
    return m.n * (_j(m.n, _scores(m, prior)) - _penalized_mi(m)) - correction


def _decide(scores: Sequence[float], p: float) -> CIVerdict:
    """The verdict at prior independence probability p from the ``_scores``
    of a query's margins."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior probability p must lie strictly between 0 and 1, got {p!r}")
    xyz, xz, yz, z = scores
    left = math.log(p) + xz + yz
    right = math.log(1.0 - p) + xyz + z
    return CIVerdict(independent=left >= right, p=p, left=left, right=right)


def ci_decide_cond(ds: Dataset, x, y, z_vars, prior: PriorSpec, p: float) -> CIVerdict:
    """Decide X independent of Y given Z at prior independence probability p.

    Independence wins when

        ln p + score(X+Z) + score(Y+Z) >= ln(1-p) + score(X+Y+Z) + score(Z)

    with ties decided independent.
    """
    m = _margins(ds, x, y, z_vars)
    return _decide(_scores(m, prior), p)


def ci_decide_pair(ds: Dataset, x, y, prior: PriorSpec, p: float) -> CIVerdict:
    """Unconditional independence decision; the Z group is empty."""
    return ci_decide_cond(ds, x, y, (), prior, p)


def asymptotic_residuals(
    datasets: Sequence[Dataset], x_vars, y_vars, z_vars, prior: PriorSpec
) -> list[tuple[int, float]]:
    """Residuals of the J expansion over a growing-n dataset sequence.

    For each dataset: n * (J - penalized MI), minus the correction term
    when the prior splits an equivalent sample size.  All in nats.  The
    datasets are expected to be prefixes of one sampled stream, sorted
    by strictly increasing n over a shared schema.
    """
    sizes = [ds.n for ds in datasets]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"dataset sizes must be strictly increasing, got {sizes}")
    return [(ds.n, _residual(_margins(ds, x_vars, y_vars, z_vars), prior)) for ds in datasets]
