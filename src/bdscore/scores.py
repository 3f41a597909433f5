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
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .dataset import ContingencyTable, Dataset, VarSet, counts, empirical_cond_entropy
from .numerics import log_gamma_ratio

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .search import Network

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
    weight, summed with ``math.fsum``, so a table from ``marginalize``
    scores exactly like a fresh count of its subset.
    """
    gamma = table.gamma
    w = prior.cell_weight(gamma)
    return math.fsum([-log_gamma_ratio(table.n, prior.total_weight(gamma)),
                      *[log_gamma_ratio(c, w) for c in table.frequencies.tolist()]])


def _table_scores(arities: Sequence[int], n: int, frequencies: np.ndarray,
                  bounds: np.ndarray, prior: PriorSpec) -> list[float]:
    """``table_score`` of many tables of one dataset's ``n`` rows at once:
    the kernel of exact search's lattice walk.

    Table t has joint arity ``arities[t]`` and its observed counts in
    ``bounds[t]:bounds[t + 1]``.  Each table adds one term per stored
    cell, as a (count, cell weight) pair, and one for its total weight;
    both weights depend only on the joint arity, so a table's cells
    share one.  ``log_gamma_ratio`` is evaluated once per distinct
    pair of the whole batch and each table's terms are summed with one
    ``math.fsum``; that sum is exactly rounded, so every score is the
    float a per-cell sum gives.
    """
    # a key per (count, weight) pair: weight index * (n + 1) + count
    weight_index: dict[float, int] = {}

    def index(w: float) -> int:
        return weight_index.setdefault(w, len(weight_index))

    total_keys = [index(prior.total_weight(a)) for a in arities]
    cell_keys = np.repeat([index(prior.cell_weight(a)) for a in arities], np.diff(bounds))
    keys = np.concatenate([np.asarray(cell_keys, dtype=np.int64) * (n + 1) + frequencies,
                           np.array(total_keys, dtype=np.int64) * (n + 1) + n])
    pairs, where = np.unique(keys, return_inverse=True)
    weights = list(weight_index)
    values = np.array([log_gamma_ratio(key % (n + 1), weights[key // (n + 1)])
                       for key in pairs.tolist()])
    terms = values[where].tolist()
    cells, totals = terms[:-len(arities)], terms[-len(arities):]
    return [math.fsum([-total, *cells[a:b]])
            for total, a, b in zip(totals, bounds[:-1].tolist(), bounds[1:].tolist())]


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
    xi = ds.index_of(x)
    u = ds.subset(parents)
    if xi in u:
        raise ValueError(f"variable {x!r} cannot be its own parent")
    return _ratio(counts(ds, u.union(ds.subset([xi]))), u, prior)


def _ratio(joint: ContingencyTable, u: VarSet, prior: PriorSpec) -> float:
    """score(U + X) - score(U) from the U+X counts, with U's table projected."""
    return table_score(joint, prior) - table_score(joint.marginalize(u), prior)


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
    xi = ds.index_of(x)
    u = ds.subset(parents)
    if xi in u:
        raise ValueError(f"variable {x!r} cannot be its own parent")
    xu = u.union(ds.subset([xi]))
    joint = counts(ds, xu)
    w = prior.cell_weight(joint.gamma)
    a_u = (_summed(w, ds.arity_of(xi)) if parent_weight == "coupled"
           else prior.cell_weight(u.joint_arity))
    parent_counts = joint.marginalize(u).frequencies.tolist()
    return math.fsum([*[-log_gamma_ratio(c, a_u) for c in parent_counts],
                      *[log_gamma_ratio(c, w) for c in joint.frequencies.tolist()]])


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
