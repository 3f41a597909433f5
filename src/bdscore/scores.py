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

* ``Jeffreys`` puts 0.5 on every cell of every subset.
* ``BDeu`` splits an equivalent sample size evenly, a(s) = ess / gamma.
* ``CustomDirichlet`` accepts any strictly positive weight function.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

from .dataset import ContingencyTable, Dataset, VarSet, counts, empirical_cond_entropy
from .numerics import log_gamma_ratio

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from .search import Network

__all__ = [
    "BDeu",
    "CustomDirichlet",
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

# Custom priors need the whole state space enumerated to normalize; past
# this size that is a configuration mistake, not a computation.
_MAX_ENUMERATED_CELLS = 1_000_000


class InvalidPriorError(ValueError):
    """Raised when a prior specification cannot produce valid weights."""


def _float_arity(configurations: int, variables: int) -> float:
    """A count of joint configurations of ``variables`` columns as a float.

    Every constant prior weight divides a joint arity, and the CI dimension
    penalty multiplies arities; past float range neither has a value.
    """
    try:
        return float(configurations)
    except OverflowError:
        raise InvalidPriorError(
            f"a subset of {variables} variables has more joint configurations "
            f"than a float can describe"
        ) from None


@dataclass(frozen=True)
class Jeffreys:
    """Per-cell weight 0.5 on every subset."""

    def cell_weight(self, subset: VarSet, cell: tuple[int, ...] = ()) -> float:
        return 0.5

    def total_weight(self, subset: VarSet) -> float:
        return 0.5 * _float_arity(subset.joint_arity, len(subset))

    @property
    def name(self) -> str:
        return "jeffreys"


@dataclass(frozen=True)
class BDeu:
    """Equivalent sample size split evenly over each subset's cells."""

    ess: float = 1.0

    def __post_init__(self):
        if not self.ess > 0.0:
            raise InvalidPriorError(f"equivalent sample size must be positive, got {self.ess!r}")

    def cell_weight(self, subset: VarSet, cell: tuple[int, ...] = ()) -> float:
        w = self.ess / _float_arity(subset.joint_arity, len(subset))
        if w == 0.0:
            raise InvalidPriorError(
                f"equivalent sample size {self.ess!r} split over the joint configurations "
                f"of a subset of {len(subset)} variables underflows to zero"
            )
        return w

    def total_weight(self, subset: VarSet) -> float:
        return float(self.ess)

    @property
    def name(self) -> str:
        return "bdeu"


@dataclass(frozen=True)
class CustomDirichlet:
    """Arbitrary strictly positive per-cell weights.

    ``weight_fn(subset, cell)`` is called for individual cells; the total
    weight enumerates the subset's full state space, so it is meant for
    desk-scale subsets only.
    """

    weight_fn: Callable[[VarSet, tuple[int, ...]], float]

    def cell_weight(self, subset: VarSet, cell: tuple[int, ...]) -> float:
        w = float(self.weight_fn(subset, cell))
        if not w > 0.0:
            raise InvalidPriorError(f"custom weight for cell {cell} must be positive, got {w!r}")
        return w

    def total_weight(self, subset: VarSet) -> float:
        if subset.joint_arity > _MAX_ENUMERATED_CELLS:
            raise InvalidPriorError(
                f"custom prior needs all {subset.joint_arity} cells enumerated; "
                f"that exceeds the supported limit of {_MAX_ENUMERATED_CELLS}"
            )
        return math.fsum(self.cell_weight(subset, cell) for cell in subset.cells())

    @property
    def name(self) -> str:
        return "custom"


PriorSpec = Union[Jeffreys, BDeu, CustomDirichlet]

# Grouping equal counts costs a Counter over the table's frequencies, and
# memoised gamma ratios are cheap, so small tables are scored per cell.
# Over the 4096 subset tables of 12 binary columns x 1000 rows, one table
# took 14 us per cell against 21 us grouped at 17-32 cells, 27 us either
# way at 33-64, and 53 against 29 us at 65-128.
_GROUP_MIN_CELLS = 64


def table_score(table: ContingencyTable, prior: PriorSpec) -> float:
    """Natural-log sequence probability of one table of subset counts.

    Summed with ``math.fsum``, so a table from ``marginalize`` scores
    exactly like a fresh count of its subset.  Under Jeffreys and BDeu
    every cell weighs the same, so cells with equal counts add equal
    terms: past ``_GROUP_MIN_CELLS`` observed cells, each distinct count
    is evaluated once and its term repeated once per cell, which leaves
    the exactly rounded sum unchanged.
    """
    s = table.subset
    parts = [-log_gamma_ratio(table.n, prior.total_weight(s))]
    if isinstance(prior, CustomDirichlet):
        for cell, c in table.items():
            parts.append(log_gamma_ratio(c, prior.cell_weight(s, cell)))
        return math.fsum(parts)
    w = prior.cell_weight(s)
    if table.num_nonzero < _GROUP_MIN_CELLS:
        parts.extend([log_gamma_ratio(c, w) for c in table.frequencies])
    else:
        for c, cells in table.count_of_counts().items():
            parts.extend([log_gamma_ratio(c, w)] * cells)
    return math.fsum(parts)


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
    joint = counts(ds, u.union(ds.subset([xi])))
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
    a genuinely different score than the ratio form.
    """
    if parent_weight not in ("coupled", "independent"):
        raise ValueError(f"parent_weight must be 'coupled' or 'independent', got {parent_weight!r}")
    xi = ds.index_of(x)
    u = ds.subset(parents)
    if xi in u:
        raise ValueError(f"variable {x!r} cannot be its own parent")
    xu = u.union(ds.subset([xi]))
    x_pos = xu.positions_of(ds.subset([xi]))[0]
    x_arity = ds.arity_of(xi)

    joint = counts(ds, xu)
    parent_counts = joint.marginalize(u)

    parts = []
    for ucell, cu in parent_counts.items():
        if parent_weight == "coupled":
            a_u = math.fsum(
                prior.cell_weight(xu, ucell[:x_pos] + (xv,) + ucell[x_pos:])
                for xv in range(x_arity)
            )
        else:
            a_u = prior.cell_weight(u, ucell)
        parts.append(-log_gamma_ratio(cu, a_u))
    for cell, c in joint.items():
        parts.append(log_gamma_ratio(c, prior.cell_weight(xu, cell)))
    return math.fsum(parts)


def aic(ds: Dataset, x, parents) -> float:
    """Akaike criterion H(x | parents) + k/n in nats, k = (arity-1) * joint parent arity."""
    u = ds.subset(parents)
    h = empirical_cond_entropy(ds, x, u, base="e")
    k = (ds.arity_of(x) - 1) * u.joint_arity
    return h + k / ds.n


def bic(ds: Dataset, x, parents) -> float:
    """Bayesian information criterion H(x | parents) + (k / 2n) ln n in nats."""
    u = ds.subset(parents)
    h = empirical_cond_entropy(ds, x, u, base="e")
    k = (ds.arity_of(x) - 1) * u.joint_arity
    return h + k * math.log(ds.n) / (2.0 * ds.n)


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
