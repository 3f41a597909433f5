"""Exact structure selection over Dirichlet-multinomial network scores.

Every score here is a difference of two subset marginals, so the module
computes them once into one float64 array indexed by bit mask (bit i is
column i): entry S holds ``marginal_score`` of the columns in S for
every S of at most ``cap + 1`` columns, and NaN beyond.  The conditional
score of v given a parent mask P is ``M[P | 1 << v] - M[P]``.
``learn_exact``, ``build_parent_tables`` and ``enumerate_n3_classes``
all read that array.

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
turns it into one integer rank per mask by sorting the masks with it.
Ties between sinks resolve toward the smaller variable index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

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


def _columns(mask: int) -> tuple[int, ...]:
    """The column indices of a bit mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _marginals(ds: Dataset, prior: PriorSpec, cap: int) -> np.ndarray:
    """``marginal_score`` of every subset of at most cap + 1 columns, by mask.

    Larger subsets hold NaN: no parent set within the cap reads them.
    """
    n_vars = ds.num_variables
    if n_vars > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact search supports at most {MAX_EXACT_VARIABLES} variables, got {n_vars}"
        )
    if not 0 <= cap <= n_vars - 1:
        raise ValueError(f"cap must lie in 0..{n_vars - 1}, got {cap}")
    out = np.full(1 << n_vars, np.nan)
    for mask in range(out.size):
        if mask.bit_count() <= cap + 1:
            out[mask] = marginal_score(ds, _columns(mask), prior)
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
    if ds.num_variables != 3:
        raise ValueError(f"class enumeration needs exactly 3 variables, got {ds.num_variables}")
    x, y, z = ds.names
    mx, my, mxy, mz, mzx, myz, mxyz = _marginals(ds, prior, 2).tolist()[1:]
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
    m = _marginals(ds, prior, n_vars - 1 if cap is None else cap)
    masks = np.arange(m.size)
    rank = np.empty_like(masks)
    rank[sorted(range(m.size), key=lambda s: _rank(_columns(s)))] = masks

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
