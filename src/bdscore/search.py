"""Exact structure selection over Dirichlet-multinomial network scores.

``learn_exact`` finds a global-maximum directed acyclic structure by
dynamic programming over variable orders.  Stage 1 runs over the
parent-set table of ``build_parent_tables``: for each variable and each
candidate pool it keeps the best-ranked parent set inside the pool.
Stage 2 records, for every subset M of the columns, the best score of
a structure whose variables are exactly M, choosing the last variable
(the sink) and the sink's best parent set inside the remainder.
Memory and time grow as 2^N, which is fine for the desk scales this
package targets; the hard cap refuses anything wider than 15 columns.

For three columns the package also enumerates the eleven score
equivalence classes directly as products and quotients of subset
marginals (one per Markov-equivalence class of three-node structures);
their maximum must match ``learn_exact``, which is a useful end-to-end
check of both code paths.

Determinism: ties between equal-scoring parent sets resolve toward the
smaller set, then lexicographically smaller indices (one ``_rank``
serves ``learn_exact`` and ``best_parent_set``); ties between sinks
resolve toward the smaller variable index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .dataset import Dataset, VarSet
from .scores import PriorSpec, marginal_score, topological_order

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


def _marginal_memo(ds: Dataset, prior: PriorSpec):
    cache: dict[tuple[int, ...], float] = {}

    def m(indices: tuple[int, ...]) -> float:
        if indices not in cache:
            cache[indices] = marginal_score(ds, indices, prior)
        return cache[indices]

    return m


def build_parent_tables(ds: Dataset, prior: PriorSpec, cap: int) -> ParentSetTable:
    """Score every parent set of size <= cap for every variable."""
    n_vars = ds.num_variables
    if not 0 <= cap <= n_vars - 1:
        raise ValueError(f"cap must lie in 0..{n_vars - 1}, got {cap}")
    m = _marginal_memo(ds, prior)
    # One key tuple per parent set, shared by every variable's table.
    scores: dict[int, dict[tuple[int, ...], float]] = {v: {} for v in range(n_vars)}
    for size in range(cap + 1):
        for parent_set in itertools.combinations(range(n_vars), size):
            for v in range(n_vars):
                if v not in parent_set:
                    family = tuple(sorted(parent_set + (v,)))
                    scores[v][parent_set] = m(family) - m(parent_set)
    return ParentSetTable(dataset=ds, prior=prior, cap=cap, scores=scores)


def _rank(score: float, key: tuple[int, ...]) -> tuple:
    """Order of preference among parent sets: the smallest rank wins."""
    return (-score, len(key), key)


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
        rank = _rank(table.entry(xi, key), key)
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
    if ds.num_variables != 3:
        raise ValueError(f"class enumeration needs exactly 3 variables, got {ds.num_variables}")
    m = _marginal_memo(ds, prior)
    x, y, z = ds.names
    mx, my, mz = m((0,)), m((1,)), m((2,))
    mxy, mzx, myz = m((0, 1)), m((0, 2)), m((1, 2))
    mxyz = m((0, 1, 2))
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
    if n_vars > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact search supports at most {MAX_EXACT_VARIABLES} variables, got {n_vars}"
        )
    cap = n_vars - 1 if cap is None else cap
    table = build_parent_tables(ds, prior, cap).scores
    full = (1 << n_vars) - 1
    masks_by_size = sorted(range(full + 1), key=lambda s: (s.bit_count(), s))
    keys = [tuple(i for i in range(n_vars) if mask >> i & 1) for mask in range(full + 1)]

    # Stage 1: per variable, the best parent set inside each candidate
    # pool (a mask excluding the variable), subject to the size cap:
    # the pool itself if the table scores it, or the best of its
    # one-smaller pools.  local[v][pool] is that parent set.
    local: list[dict[int, tuple[int, ...]]] = [dict() for _ in range(n_vars)]
    for v in range(n_vars):
        own = 1 << v
        per_var = table[v]
        best = local[v]
        for pool in masks_by_size:
            if pool & own:
                continue
            key = keys[pool]
            choices = [best[pool ^ (1 << i)] for i in key]
            if key in per_var:
                choices.append(key)
            best[pool] = min(choices, key=lambda k: _rank(per_var[k], k))

    # Stage 2: best structure on each subset of variables, choosing its
    # sink; ties keep the smallest sink index.
    best_score = {0: 0.0}
    best_sink: dict[int, int] = {}
    for mask in masks_by_size:
        if mask == 0:
            continue
        top = None
        top_sink = -1
        bits = mask
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            rest = mask ^ low
            score = best_score[rest] + table[v][local[v][rest]]
            if top is None or score > top:
                top, top_sink = score, v
            bits ^= low
        best_score[mask] = top
        best_sink[mask] = top_sink

    parents: list[tuple[int, ...]] = [()] * n_vars
    mask = full
    while mask:
        v = best_sink[mask]
        mask ^= 1 << v
        parents[v] = local[v][mask]
    return Network(tuple(parents))
