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

All of these are functions of the XYZ, XZ, YZ and Z margins of one
joint table: each query counts X+Y+Z once and takes the XZ, YZ and Z
tables from that count with ``marginalize``.  A projected table equals
a fresh count cell for cell, so every score is the one a fresh count
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import _INT64_MAX, ContingencyTable, Dataset, VarSet, _varset, counts
from .numerics import log_base_divisor
from .scores import BDeu, PriorSpec, _float_arity, table_score

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
    """One query's variable groups and the four margins of its joint count."""

    xs: VarSet
    ys: VarSet
    zs: VarSet
    xyz: ContingencyTable
    xz: ContingencyTable
    yz: ContingencyTable
    z: ContingencyTable


def _margins(ds: Dataset, x_vars, y_vars, z_vars) -> _Margins:
    """Resolve one (X, Y | Z) query and count X+Y+Z once."""
    xs, ys, zs = ds.subset(x_vars), ds.subset(y_vars), ds.subset(z_vars)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("X and Y groups must be nonempty")
    used = set(xs.indices)
    for group in (ys, zs):
        for i in group.indices:
            if i in used:
                raise ValueError("X, Y, Z groups must be pairwise disjoint")
            used.add(i)
    xyz = counts(ds, sorted(used))
    x, y, z = (sum(1 << i for i in g) for g in (xs, ys, zs))
    xz, yz = (xyz.marginalize(_varset(g | z, ds.arities)) for g in (x, y))
    return _Margins(xs, ys, zs, xyz, xz, yz, xyz.marginalize(zs))


# The sweeps' binary pair, built once: X is column 0, Y column 1, Z is empty.
_PAIR = tuple(_varset(mask, (2, 2)) for mask in (0b01, 0b10, 0b11, 0))


def _pair_margins(n: int, ones_x: int, ones_y: int, both: int) -> _Margins:
    """The margins of a binary pair's 2x2 table, from its rows and counts of ones,
    each built from its cells (zero cells dropped) instead of by ``marginalize``."""
    cells = (n - ones_x - ones_y + both, ones_y - both, ones_x - both, both)
    if min(cells) < 0:
        raise ValueError(f"counts n={n}, ones {ones_x} and {ones_y}, both {both} are inconsistent")
    if n > _INT64_MAX:
        raise ValueError(f"n={n} does not fit in a 64-bit count")

    x, y, xy, none = _PAIR

    def table(subset: VarSet, values) -> ContingencyTable:
        frequencies = np.array(values, dtype=np.int64)
        codes = np.flatnonzero(frequencies).astype(np.int64, copy=False)
        return ContingencyTable._from_codes(subset, n, codes, frequencies[codes])

    return _Margins(x, y, none, table(xy, cells), table(x, (n - ones_x, ones_x)),
                    table(y, (n - ones_y, ones_y)), table(none, (n,)))


def _j(m: _Margins, prior: PriorSpec) -> float:
    value = (
        table_score(m.xyz, prior)
        + table_score(m.z, prior)
        - table_score(m.xz, prior)
        - table_score(m.yz, prior)
    )
    return value / m.xyz.n


def _penalized_mi(m: _Margins) -> float:
    n = m.xyz.n
    xz, yz, z = (m.xyz.aligned_margin(t.subset) for t in (m.xz, m.yz, m.z))
    mi = math.fsum(
        (c / n) * math.log(c * cz / (cxz * cyz))
        for c, cxz, cyz, cz in zip(m.xyz.frequencies.tolist(), xz, yz, z)
    )
    dimension = _float_arity((m.xs.joint_arity - 1) * (m.ys.joint_arity - 1) * m.zs.joint_arity)
    penalty = dimension / (2.0 * n) * math.log(n)
    return mi - penalty


def _correction(m: _Margins, prior: BDeu) -> float:
    denom = m.xyz.n + prior.ess

    def term(table: ContingencyTable) -> float:
        w = prior.cell_weight(table.gamma)
        observed = math.fsum(math.log((c + w) / denom) for c in table.frequencies.tolist())
        absent = table.gamma - table.num_nonzero
        return (w - 0.5) * (observed + absent * math.log(w / denom))

    return -term(m.xz) - term(m.yz) + term(m.xyz) + term(m.z)


def j_statistic(ds: Dataset, x_vars, y_vars, z_vars, prior: PriorSpec) -> float:
    """Per-sample log score gap of (X, Y | Z) in nats.

    The empty Z group has joint arity 1 and score 0, so the pairwise and
    the conditional cases are the same code path.
    """
    return _j(_margins(ds, x_vars, y_vars, z_vars), prior)


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


def _statistics(m: _Margins, prior: PriorSpec, base) -> CIStatistics:
    divisor = log_base_divisor(base)
    return CIStatistics(
        j=_j(m, prior) / divisor,
        penalized_mi=_penalized_mi(m) / divisor,
        correction=_correction(m, prior) / divisor if isinstance(prior, BDeu) else 0.0,
        x_arity=m.xs.joint_arity,
        y_arity=m.ys.joint_arity,
        z_arity=m.zs.joint_arity,
        prior=prior.name,
        log_base="2" if divisor != 1.0 else "e",
    )


def ci_statistics(ds: Dataset, x_vars, y_vars, z_vars, prior: PriorSpec, base="e") -> CIStatistics:
    """Bundle J, penalized MI, and the split-weight correction for one query.

    The correction is identically zero for non-BDeu priors.
    """
    return _statistics(_margins(ds, x_vars, y_vars, z_vars), prior, base)


def _residual(m: _Margins, prior: PriorSpec) -> float:
    """n * (J - penalized MI) - correction, in nats."""
    stats = _statistics(m, prior, "e")
    return m.xyz.n * (stats.j - stats.penalized_mi) - stats.correction


def _decide(m: _Margins, prior: PriorSpec, p: float) -> CIVerdict:
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior probability p must lie strictly between 0 and 1, got {p!r}")
    left = math.log(p) + table_score(m.xz, prior) + table_score(m.yz, prior)
    right = math.log(1.0 - p) + table_score(m.xyz, prior) + table_score(m.z, prior)
    return CIVerdict(independent=left >= right, p=p, left=left, right=right)


def ci_decide_cond(ds: Dataset, x, y, z_vars, prior: PriorSpec, p: float) -> CIVerdict:
    """Decide X independent of Y given Z at prior independence probability p.

    Independence wins when

        ln p + score(X+Z) + score(Y+Z) >= ln(1-p) + score(X+Y+Z) + score(Z)

    with ties decided independent.
    """
    return _decide(_margins(ds, x, y, z_vars), prior, p)


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
