"""Dirichlet-multinomial sequence scores for variable subsets.

The marginal score of a subset S is the log probability that a
Dirichlet-multinomial model assigns to the observed joint sequence of
S's columns.  With per-cell prior weights a(s) > 0 and counts c(s),

    score(S) = -[ln G(n + A) - ln G(A)]
               + sum_s [ln G(c(s) + a(s)) - ln G(a(s))]

where A = sum_s a(s) over the declared state space and G is the gamma
function.  Zero-count cells drop out of the sum, so only observed
configurations are visited, but the full state space still enters
through A and through weights that split an equivalent sample size over
every cell.

Weight families:

* ``Flat`` puts one weight on every cell; ``Jeffreys`` is ``Flat`` at 0.5.
* ``BDeu`` splits an equivalent sample size evenly, a(s) = ess / gamma.

Both weigh every cell of a subset alike, so a prior sees a subset only
through its joint arity gamma, an int: ``cell_weight(gamma)`` is a(s)
and ``total_weight(gamma)`` is A.  Nothing needs the subset's columns,
so exact search scores the tables of its lattice walk by arity alone.
K2 is ``Flat(1)``.

A conditional score has two distinct readings.  The ratio form
``score(S + X) - score(S)`` is what the marginal model implies.  The
local form scores each parent configuration as its own independent
block; it matches the ratio form exactly when the parent-cell weight is
the sum of its child-cell weights (``parent_weight="coupled"``), and
differs in general when the parent cells are weighted from the parent
subset's own prior (``parent_weight="independent"``).  BDeu is coupled
by construction; Jeffreys is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .dataset import (ContingencyTable, Dataset, VarSet, _family_counts, _tally, counts,
                      empirical_cond_entropy)
from .numerics import log_gamma_ratio

__all__ = [
    "BDeu",
    "Flat",
    "InvalidPriorError",
    "Jeffreys",
    "PriorSpec",
    "aic",
    "bic",
    "conditional_score_local",
    "conditional_score_ratio",
    "marginal_score",
    "network_score",
    "table_score",
    "topological_order",
]


class InvalidPriorError(ValueError):
    """Raised when a prior specification cannot produce valid weights."""


def _float_arity(configurations: int) -> float:
    """A count of joint configurations of a subset as a float.

    Every constant prior weight divides a joint arity, and the CI dimension
    penalty multiplies arities; past float range neither has a value.
    """
    try:
        return float(configurations)
    except OverflowError:
        raise InvalidPriorError("a subset has more joint configurations than a float "
                                "can describe") from None


def _summed(w: float, configurations: int) -> float:
    """Total weight of ``configurations`` cells of weight w: below 2^53 cells
    the product is the exact sum rounded once, the float ``math.fsum`` gives."""
    total = w * _float_arity(configurations)
    if math.isinf(total):
        raise InvalidPriorError(f"custom weights of the {configurations} cells of a "
                                f"subset sum past the float range")
    return total


def _check_weight(what: str, w: float) -> None:
    if not w > 0.0:
        raise InvalidPriorError(f"{what} must be positive, got {w!r}")
    if not math.isfinite(w):
        raise InvalidPriorError(f"{what} must be finite, got {w!r}")


@dataclass(frozen=True)
class Flat:
    """One weight on every cell, so a total is one correctly rounded product."""

    weight: float
    name = "custom"

    def __post_init__(self):
        _check_weight("custom weight", self.weight)

    def cell_weight(self, arity: int) -> float:
        return self.weight

    def total_weight(self, arity: int) -> float:
        return _summed(self.weight, arity)


@dataclass(frozen=True)
class Jeffreys(Flat):
    """Per-cell weight 0.5 on every subset."""

    weight: float = field(default=0.5, init=False, repr=False)
    name = "jeffreys"


@dataclass(frozen=True)
class BDeu:
    """Equivalent sample size split evenly over each subset's cells."""

    ess: float = 1.0
    name = "bdeu"

    def __post_init__(self):
        _check_weight("equivalent sample size", self.ess)

    def cell_weight(self, arity: int) -> float:
        w = self.ess / _float_arity(arity)
        if w == 0.0:
            raise InvalidPriorError(f"equivalent sample size {self.ess!r} split over the joint "
                                    f"configurations of a subset underflows to zero")
        return w

    def total_weight(self, arity: int) -> float:
        return float(self.ess)


PriorSpec = Union[Flat, BDeu]


def table_score(table: ContingencyTable, prior: PriorSpec) -> float:
    """Natural-log sequence probability of one table of subset counts.

    One memoised gamma ratio per observed cell and one for the total
    weight, summed with ``math.fsum``, so a projected table scores
    exactly like a fresh count of its subset.
    """
    return _counts_score(table.gamma, table.n, table.frequencies.tolist(), prior)


def _counts_score(arity: int, n: int, frequencies: Sequence[int], prior: PriorSpec) -> float:
    """``table_score`` of a subset of joint arity ``arity`` whose ``n`` rows
    fall into observed cells of these ``frequencies``, in any order."""
    w = prior.cell_weight(arity)
    return math.fsum([-log_gamma_ratio(n, prior.total_weight(arity)),
                      *[log_gamma_ratio(c, w) for c in frequencies]])


def _table_scores(arities: Sequence[int], n: int, frequencies: np.ndarray,
                  bounds: np.ndarray, prior: PriorSpec) -> list[float]:
    """``table_score`` of many tables of one dataset's ``n`` rows at once:
    the kernel of exact search's lattice walk.

    Table t has joint arity ``arities[t]`` and its observed counts in
    ``bounds[t]:bounds[t + 1]``.  Both prior weights depend only on the
    joint arity, so a table's score is a function of its arity and its
    histogram: each distinct count c with the number m of cells holding
    it.  One tally finds every table's histogram, and ``log_gamma_ratio``
    is evaluated once per distinct (cell weight, count) pair of the batch
    and once per distinct arity for the total weight.  A distinct count's
    gamma value v enters its table's ``math.fsum`` as the exact parts of
    v * m (``_exact_products``), so the sum is still the per-cell sum
    rounded once: every score is the float a per-cell sum gives.
    """
    tables = len(arities)
    # a key table * width + c - 1 per observed count c >= 1: width is at
    # most 2**63 - 1 even when a table holds one cell of that many rows
    width = int(frequencies.max(initial=1))
    if tables * width > 2**63:  # keys past int64: halve the batch
        half = tables // 2
        cut = int(bounds[half])
        return (_table_scores(arities[:half], n, frequencies[:cut], bounds[:half + 1], prior)
                + _table_scores(arities[half:], n, frequencies[cut:], bounds[half:] - cut, prior))
    # per distinct arity: its kind, the index of its cell weight, and its total term
    weights: dict[float, int] = {}
    kinds = {a: weights.setdefault(prior.cell_weight(a), len(weights))
             for a in dict.fromkeys(arities)}
    totals = {a: -log_gamma_ratio(n, prior.total_weight(a)) for a in kinds}
    # the histograms: one (table, count) key per distinct pair, ascending
    table = np.repeat(np.arange(tables, dtype=np.int64), np.diff(bounds))
    hist, multiplicity, _ = _tally(table * width + (frequencies - 1), tables * width)
    table, count = np.divmod(hist, width)
    pair = np.array([kinds[a] for a in arities], dtype=np.int64)[table] * width + count
    pairs, _, _ = _tally(pair, len(weights) * width)
    weight = list(weights)
    pair_kind, pair_count = np.divmod(pairs, width)
    values = np.array([log_gamma_ratio(c + 1, weight[k])
                       for k, c in zip(pair_kind.tolist(), pair_count.tolist())])
    parts = _exact_products(values[np.searchsorted(pairs, pair)], multiplicity)
    terms = np.column_stack(parts).ravel().tolist()
    edges = (np.searchsorted(table, np.arange(tables + 1)) * len(parts)).tolist()
    return [math.fsum([totals[a], *terms[b:e]])
            for a, b, e in zip(arities, edges[:-1], edges[1:])]


# Veltkamp's splitter for float64: v * (2**27 + 1) splits v into a high and
# a low part of at most 26 significant bits each.
_SPLITTER = 2.0**27 + 1
_LOW_BITS = 2**26 - 1


def _exact_products(v: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    """Float arrays whose elementwise sum is exactly v * m, for float64
    ``v`` with |v| at most 2**960 and int64 ``m`` in 1 .. 2**53 - 1.

    With v = hi + lo split in halves of 26 bits, hi * m and lo * m are
    exact while m < 2**26; a larger m is split into 26-bit halves too.
    """
    c = v * _SPLITTER
    hi = c - (c - v)
    lo = v - hi
    if m.max(initial=0) <= _LOW_BITS:
        m = m.astype(np.float64)
        return [hi * m, lo * m]
    low = m & _LOW_BITS
    high, low = (m - low).astype(np.float64), low.astype(np.float64)
    return [hi * low, lo * low, hi * high, lo * high]


def marginal_score(ds: Dataset, subset, prior: PriorSpec) -> float:
    """Natural-log sequence probability of a subset's observed columns.

    Always <= 0; exactly 0 for the empty subset, whose only configuration
    is observed in every row.
    """
    return table_score(counts(ds, subset), prior)


def conditional_score_ratio(ds: Dataset, x, parents, prior: PriorSpec) -> float:
    """Conditional score of x given a parent set, as a marginal ratio.

    score(parents + x) - score(parents): the added log mass the joint
    model assigns once x's column is included.  Score-equivalent for
    every prior (reversing an edge never changes a network total).
    """
    xi, u, (xu, _, u_counts) = _family_counts(ds, x, parents)
    return _ratio(u.joint_arity, ds.arities[xi], ds.n, xu, u_counts, prior)


def _ratio(u_arity: int, x_arity: int, n: int, xu: Sequence[int], u: Sequence[int],
           prior: PriorSpec) -> float:
    """score(U + X) - score(U) from the observed counts of U+X and of U over
    n rows, given U's joint arity and the child's arity."""
    return _counts_score(u_arity * x_arity, n, xu, prior) - _counts_score(u_arity, n, u, prior)


def conditional_score_local(
    ds: Dataset, x, parents, prior: PriorSpec, parent_weight: str = "coupled"
) -> float:
    """Conditional score of x with one Dirichlet block per parent cell.

        sum_u [ln G(a(u)) - ln G(c(u) + a(u))]
        + sum_{u,x} [ln G(c(x,u) + a(x,u)) - ln G(a(x,u))]

    ``parent_weight`` fixes a(u): "coupled" sums the child-cell weights
    of the u block (local == ratio form for every prior that is additive
    this way, BDeu in particular); "independent" takes a(u) from the
    prior evaluated on the parent subset alone, which for Jeffreys gives
    a genuinely different score than the ratio form.  Every weight
    depends only on a subset's joint arity, so one a(u) serves every
    parent cell and one a(x, u) every joint cell.
    """
    if parent_weight not in ("coupled", "independent"):
        raise ValueError(f"parent_weight must be 'coupled' or 'independent', got {parent_weight!r}")
    xi, u, (xu, _, u_counts) = _family_counts(ds, x, parents)
    w = prior.cell_weight(u.joint_arity * ds.arities[xi])
    a_u = (_summed(w, ds.arities[xi]) if parent_weight == "coupled"
           else prior.cell_weight(u.joint_arity))
    return math.fsum([*[-log_gamma_ratio(c, a_u) for c in u_counts],
                      *[log_gamma_ratio(c, w) for c in xu]])


def aic(ds: Dataset, x, parents) -> float:
    """Akaike criterion H(x | parents) + k/n in nats, k = (arity-1) * joint parent arity."""
    u = ds.subset(parents)
    return empirical_cond_entropy(ds, x, u, base="e") + _aic_penalty(ds, x, u)


def bic(ds: Dataset, x, parents) -> float:
    """Bayesian information criterion H(x | parents) + (k / 2n) ln n in nats."""
    u = ds.subset(parents)
    return empirical_cond_entropy(ds, x, u, base="e") + _bic_penalty(ds, x, u)


def _aic_penalty(ds: Dataset, x, u: VarSet) -> float:
    return (ds.arity_of(x) - 1) * u.joint_arity / ds.n


def _bic_penalty(ds: Dataset, x, u: VarSet) -> float:
    k = (ds.arity_of(x) - 1) * u.joint_arity
    return k * math.log(ds.n) / (2.0 * ds.n)


def topological_order(parents: Sequence[Sequence[int]]) -> list[int]:
    """Topological order of a parent-list structure; raises on cycles."""
    n = len(parents)
    remaining = {v: set(ps) for v, ps in enumerate(parents)}
    for v, ps in remaining.items():
        for p in ps:
            if not 0 <= p < n:
                raise ValueError(f"variable {v} has parent index {p} out of range")
            if p == v:
                raise ValueError(f"variable {v} lists itself as a parent")
    order = []
    ready = sorted(v for v, ps in remaining.items() if not ps)
    remaining = {v: ps for v, ps in remaining.items() if ps}
    while ready:
        v = ready.pop(0)
        order.append(v)
        freed = []
        for w, ps in remaining.items():
            ps.discard(v)
            if not ps:
                freed.append(w)
        for w in sorted(freed):
            del remaining[w]
            ready.append(w)
    if remaining:
        raise ValueError(f"structure contains a cycle among variables {sorted(remaining)}")
    return order


def network_score(ds: Dataset, net, prior: PriorSpec) -> float:
    """Total score of a directed acyclic structure over all columns.

    Sum of ratio-form conditional scores of every variable given its
    parents.  The uniform structure prior contributes the same constant
    to every structure and is omitted.
    """
    parent_lists = net.parents if hasattr(net, "parents") else tuple(
        tuple(sorted(ds.index_of(p) for p in ps)) for ps in net
    )
    if len(parent_lists) != ds.num_variables:
        raise ValueError(
            f"structure lists {len(parent_lists)} variables, dataset has {ds.num_variables}"
        )
    topological_order(parent_lists)
    return math.fsum(
        conditional_score_ratio(ds, v, parent_lists[v], prior)
        for v in range(ds.num_variables)
    )
