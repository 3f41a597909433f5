"""Exact structure selection over Dirichlet-multinomial network scores.

Every score here is a difference of two subset marginals, so the module
computes them once into one float64 array indexed by bit mask (bit i is
column i): entry S holds ``marginal_score`` of the columns in S for
every S of at most ``cap + 1`` columns, and NaN beyond.  The conditional
score of v given a parent mask P is ``M[P | 1 << v] - M[P]``.
``learn_exact``, ``build_parent_tables`` and ``enumerate_n3_classes``
all read that array.  Filling it counts rows only for the subsets of
cap + 1 columns; every narrower table is projected from the one a column
wider.  Small subtrees of the subset lattice are filled in batches, level
by level, with one projection and one scoring call per level, so the
per-subset cost is a few list entries rather than a few numpy calls.
What waits for or takes part in a batch holds at most ``_BATCH_CELLS``
stored cells (see ``_marginals``).

``learn_exact`` finds a global-maximum directed acyclic structure by
dynamic programming over variable orders, after Silander & Myllymaki
(UAI 2006).  Stage 1 finds, for each variable, its best parent mask
inside every candidate pool by a subset-max: every mask gets its
position in the order (score descending, rank ascending), and one
vectorised pass per bit gives each pool the smallest position among its
subsets.  Stage 2 records, for every mask of columns in plain integer
order (every subset of a mask is a smaller integer), the best score of
a structure on exactly those columns, choosing the last variable (the
sink) and the sink's best parent mask inside the remainder.  Memory and
time grow as 2^N, which is fine for the desk scales this package
targets; the hard cap refuses anything wider than 15 columns.

For three columns the package also enumerates the eleven score
equivalence classes directly as products and quotients of subset
marginals (one per Markov-equivalence class of three-node structures);
their maximum must match ``learn_exact``, which is a useful end-to-end
check of both code paths.

Determinism: ties between equal-scoring parent sets resolve toward the
smaller set, then lexicographically smaller indices.  ``_rank`` is that
order: ``best_parent_set`` applies it directly, and ``learn_exact``
turns it into one integer rank per mask with one ``np.lexsort``.
Ties between sinks resolve toward the smaller variable index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import (_INT64_MAX, ContingencyTable, Dataset, VarSet, _columns, _drop_columns,
                      _varset, counts)
from .scores import PriorSpec, _table_scores, table_score, topological_order

__all__ = [
    "MAX_EXACT_VARIABLES",
    "Network",
    "ParentSetTable",
    "best_parent_set",
    "build_parent_tables",
    "class_posterior",
    "enumerate_n3_classes",
    "learn_exact",
]

MAX_EXACT_VARIABLES = 15


@dataclass(frozen=True)
class Network:
    """A directed acyclic structure as one sorted parent tuple per variable."""

    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(tuple(sorted(set(ps))) for ps in self.parents)
        object.__setattr__(self, "parents", normalized)
        topological_order(self.parents)

    @property
    def num_variables(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, v) for v, ps in enumerate(self.parents) for p in ps]


@dataclass(frozen=True)
class ParentSetTable:
    """Precomputed conditional scores per (variable, parent set).

    ``scores[v]`` maps sorted parent index tuples (size <= cap) to the
    ratio-form conditional score of v given that set.
    """

    dataset: Dataset = field(repr=False)
    prior: PriorSpec
    cap: int
    scores: Mapping[int, Mapping[tuple[int, ...], float]]

    def entry(self, x, parent_indices: Iterable[int]) -> float:
        xi = self.dataset.index_of(x)
        key = tuple(sorted(parent_indices))
        per_var = self.scores.get(xi)
        if per_var is None or key not in per_var:
            raise KeyError(f"no table entry for variable {xi} with parents {key}")
        return per_var[key]


# The walk stops at a subtree of the lattice whose tables hold at most this
# many stored cells in all, and stopped subtrees are filled together until
# they pass it: a batch costs a few numpy calls per level and one gamma
# evaluation per distinct (count, weight) pair, and its arrays take a few
# MB.  Batching whole lattice levels instead raised peak RSS on 12 binary
# columns x 1000 rows from 48 to 55-69 MB.
_BATCH_CELLS = 2**17


def _marginals(ds: Dataset, prior: PriorSpec, cap: int) -> np.ndarray:
    """``marginal_score`` of every subset of at most cap + 1 columns, by mask.

    The subsets form a spanning tree of the lattice: the parent of a
    subset adds back its highest missing column, so the subsets of
    cap + 1 columns are the roots, and a subset's children drop one of
    its free columns, those above its highest missing one.  Each root is
    counted once and every other table is projected from its parent.
    Larger subsets hold NaN: no parent set within the cap reads them.

    The walk goes down from each root, depth first, and stops at a subset
    whose subtree is small: at most stored cells x 2^(free columns) <=
    ``_BATCH_CELLS`` cells in all, with a joint arity that fits in int64.
    A subset it passes is scored on its own by ``table_score``.  Stopped
    subsets wait in a pending forest, which is filled once adding a
    subtree would pass that budget, and at the end.  The forest is filled
    level by level and by mask: each table is a mask and a joint arity, a
    child's arity is its parent's divided by the dropped column's, one
    ``_drop_columns`` call projects all of a level's children, and one
    ``_table_scores`` call scores the level.  So at most ``_BATCH_CELLS``
    cells wait or are filled at a time, next to the tables of the cap + 2
    subsets on the path from a root.
    """
    n_vars = ds.num_variables
    if n_vars > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact search supports at most {MAX_EXACT_VARIABLES} variables, got {n_vars}"
        )
    if not 0 <= cap <= n_vars - 1:
        raise ValueError(f"cap must lie in 0..{n_vars - 1}, got {cap}")
    out = np.full(1 << n_vars, np.nan)
    full = out.size - 1
    # the stopped subsets with their tables, and their subtrees' summed bound
    forest: list[tuple[int, ContingencyTable]] = []
    waiting = 0

    def fill() -> None:
        nonlocal waiting
        masks = [mask for mask, _ in forest]
        arities = [t.gamma for _, t in forest]
        codes = np.concatenate([t.codes for _, t in forest])
        frequencies = np.concatenate([t.frequencies for _, t in forest])
        bounds = np.cumsum([0] + [t.num_nonzero for _, t in forest])
        forest.clear()
        waiting = 0
        while True:
            out[masks] = _table_scores(arities, ds.n, frequencies, bounds, prior)
            level = [(t, i, mask ^ 1 << i, arity // ds.arities[i])
                     for t, (mask, arity) in enumerate(zip(masks, arities))
                     for i in range((full ^ mask).bit_length(), n_vars)]
            if not level:
                return
            tables, drop, masks, arities = (list(column) for column in zip(*level))
            codes, frequencies, bounds = _drop_columns(
                codes, frequencies, bounds, np.array(tables), np.array(drop), ds.arities)

    def descend(mask: int, table: ContingencyTable) -> None:
        nonlocal waiting
        low = (full ^ mask).bit_length()
        bound = table.num_nonzero << n_vars - low
        if bound <= _BATCH_CELLS and table.gamma <= _INT64_MAX:
            if waiting + bound > _BATCH_CELLS:
                fill()
            forest.append((mask, table))
            waiting += bound
            return
        out[mask] = table_score(table, prior)
        for i in range(low, n_vars):
            child = mask ^ 1 << i
            descend(child, table.marginalize(_varset(child, ds.arities)))

    for mask in range(out.size):
        if mask.bit_count() == cap + 1:
            descend(mask, counts(ds, _columns(mask)))
    if forest:
        fill()
    return out


def build_parent_tables(ds: Dataset, prior: PriorSpec, cap: int) -> ParentSetTable:
    """Score every parent set of size <= cap for every variable.

    Like ``learn_exact``, refuses datasets wider than MAX_EXACT_VARIABLES.
    """
    m = _marginals(ds, prior, cap).tolist()
    scores: dict[int, dict[tuple[int, ...], float]] = {v: {} for v in range(ds.num_variables)}
    for mask, m_parents in enumerate(m):
        if mask.bit_count() <= cap:
            key = _columns(mask)
            for v, per_var in scores.items():
                if not mask >> v & 1:
                    per_var[key] = m[mask | 1 << v] - m_parents
    return ParentSetTable(dataset=ds, prior=prior, cap=cap, scores=scores)


def _rank(key: tuple[int, ...]) -> tuple:
    """Order among equal-scoring parent sets: the smallest rank wins."""
    return (len(key), key)


def best_parent_set(table: ParentSetTable, x, family: Iterable) -> VarSet:
    """Highest-scoring candidate among an explicit family of parent sets.

    Ties resolve toward the smaller set, then lexicographically.  Every
    candidate must already be present in the table.
    """
    ds = table.dataset
    xi = ds.index_of(x)
    best_key: tuple[int, ...] | None = None
    best_rank = None
    for candidate in family:
        if isinstance(candidate, VarSet):
            key = candidate.indices
        elif isinstance(candidate, (str, int)):
            key = (ds.index_of(candidate),)
        else:
            key = tuple(sorted(ds.index_of(v) for v in candidate))
        rank = (-table.entry(xi, key), _rank(key))
        if best_rank is None or rank < best_rank:
            best_rank, best_key = rank, key
    if best_key is None:
        raise ValueError("the candidate family is empty")
    return ds.subset(best_key)


def enumerate_n3_classes(ds: Dataset, prior: PriorSpec) -> list[tuple[str, float]]:
    """Scores of the eleven three-variable equivalence classes.

    Each class is a product/quotient of subset marginals; the label
    spells out that expression using the dataset's variable names
    (";" separates independent factors).  Classes are exhaustive: their
    maximum equals the best achievable network score on three columns.
    """
    return _n3_classes(ds, prior, None)


def _n3_classes(ds: Dataset, prior: PriorSpec, m: np.ndarray | None) -> list[tuple[str, float]]:
    """``enumerate_n3_classes`` from a marginal array of ``ds`` that covers all
    three columns, or from a fresh one when ``m`` is None."""
    if ds.num_variables != 3:
        raise ValueError(f"class enumeration needs exactly 3 variables, got {ds.num_variables}")
    if m is None:
        m = _marginals(ds, prior, 2)
    x, y, z = ds.names
    mx, my, mxy, mz, mzx, myz, mxyz = m.tolist()[1:]
    return [
        (f"{x};{y};{z}", mx + my + mz),
        (f"{x};{y}{z}", mx + myz),
        (f"{y};{z}{x}", my + mzx),
        (f"{z};{x}{y}", mz + mxy),
        (f"{z}{x}*{x}{y}/{x}", mzx + mxy - mx),
        (f"{x}{y}*{y}{z}/{y}", mxy + myz - my),
        (f"{z}{x}*{y}{z}/{z}", mzx + myz - mz),
        (f"{y}*{z}*{x}{y}{z}/{y}{z}", my + mz + mxyz - myz),
        (f"{z}*{x}*{x}{y}{z}/{z}{x}", mz + mx + mxyz - mzx),
        (f"{x}*{y}*{x}{y}{z}/{x}{y}", mx + my + mxyz - mxy),
        (f"{x}{y}{z}", mxyz),
    ]


def class_posterior(class_scores: Sequence[tuple[str, float]]) -> list[tuple[str, float]]:
    """Softmax of class log scores under a uniform class prior."""
    peak = max(value for _, value in class_scores)
    weights = [(label, math.exp(value - peak)) for label, value in class_scores]
    total = math.fsum(w for _, w in weights)
    return [(label, w / total) for label, w in weights]


def learn_exact(ds: Dataset, prior: PriorSpec, cap: int | None = None) -> Network:
    """Globally optimal structure by dynamic programming over orders.

    ``cap`` bounds parent-set size (default: unbounded, i.e. N-1).
    Raises on datasets wider than MAX_EXACT_VARIABLES columns.
    """
    n_vars = ds.num_variables
    return _learn(_marginals(ds, prior, n_vars - 1 if cap is None else cap))


def _learn(m: np.ndarray) -> Network:
    """``learn_exact`` from the marginal array; NaN entries are out of reach."""
    n_vars = m.size.bit_length() - 1
    masks = np.arange(m.size)
    # ``_rank`` order: by size, then, among equal sizes, the set holding the
    # lowest index of the symmetric difference first, which is the larger
    # mask with its bits reversed (column 0 most significant)
    size = np.zeros_like(masks)
    reversed_mask = np.zeros_like(masks)
    for i in range(n_vars):
        bit = masks >> i & 1
        size += bit
        reversed_mask |= bit << n_vars - 1 - i
    rank = np.empty_like(masks)
    rank[np.lexsort((-reversed_mask, size))] = masks

    # Stage 1: best[v][pool] is v's best parent mask inside the pool (a
    # mask excluding v).  Each mask gets its position in the order
    # (score descending, rank ascending); masks holding v or beyond the
    # cap have a NaN score, which sorts last.  After one pass per bit,
    # each pool holds the smallest position among its subsets.
    best: list[list[int]] = []
    gain: list[list[float]] = []
    for v in range(n_vars):
        own = 1 << v
        local = m[masks | own] - m
        local[masks & own != 0] = np.nan
        order = np.lexsort((rank, -local))
        pos = np.empty_like(masks)
        pos[order] = masks
        for i in range(n_vars):
            halves = pos.reshape(-1, 2, 1 << i)
            np.minimum(halves[:, 0], halves[:, 1], out=halves[:, 1])
        choice = order[pos]
        best.append(choice.tolist())
        gain.append(local[choice].tolist())

    # Stage 2: best structure on each set of variables, choosing its
    # sink; ties keep the smallest sink index.
    best_score = [0.0] * m.size
    best_sink = [0] * m.size
    for mask in range(1, m.size):
        top = None
        top_sink = -1
        bits = mask
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            rest = mask ^ low
            score = best_score[rest] + gain[v][rest]
            if top is None or score > top:
                top, top_sink = score, v
            bits ^= low
        best_score[mask] = top
        best_sink[mask] = top_sink

    parents: list[tuple[int, ...]] = [()] * n_vars
    mask = m.size - 1
    while mask:
        v = best_sink[mask]
        mask ^= 1 << v
        parents[v] = _columns(best[v][mask])
    return Network(tuple(parents))


def _log_score(m: np.ndarray, net: Network) -> float:
    """``network_score`` of a structure within the array's cap, from the array.

    Each family adds ``M[P | v] - M[P]``, the float ``conditional_score_ratio``
    gives, and the terms are summed with ``math.fsum`` in variable order.
    """
    terms = []
    for v, ps in enumerate(net.parents):
        p = sum(1 << i for i in ps)
        terms.append(m[p | 1 << v] - m[p])
    return math.fsum(terms)
