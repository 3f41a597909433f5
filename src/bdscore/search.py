"""Exact structure selection over Dirichlet-multinomial network scores.

Every score here is a difference of two subset marginals, so the module
computes them once into one float64 array indexed by bit mask (bit i is
column i): entry S holds ``marginal_score`` of the columns in S for
every S of at most ``cap + 1`` columns, and NaN beyond.  The conditional
score of v given a parent mask P is ``M[P | 1 << v] - M[P]``.
``learn_exact`` and ``enumerate_n3_classes``
both read that array.  Filling it counts rows only for the subsets of
cap + 1 columns, many of them per read of the rows; every narrower table
is projected from the one a column wider.  The walk down the subset
lattice goes in passes, one dropped column per pass: a batch of tables
loses the same column in one projection, by place values shared across
the batch, and is scored in one call, so the per-subset cost is a few
list entries rather than a few numpy calls.  A batch of more than one
table holds at most ``_BATCH_CELLS >> 3`` cells (see ``_marginals``).

``learn_exact`` finds a global-maximum directed acyclic structure by
dynamic programming over variable orders, after Silander & Myllymaki
(UAI 2006), on numpy arrays.  Stage 1 sorts each variable v's candidate
parent masks (score descending, ties broken as below) and finds, in each
of the 2^(N-1) pools that exclude v, the position of v's best parent
mask among them by a subset-min: one vectorised pass per bit gives each
pool the smallest position among its subsets.  Stage 2 runs level by
level: for all masks of k columns at once it records the best score of a
structure on exactly those columns, choosing the last variable (the
sink), whose best family inside the remainder it reads through that
position; each level reads only the level below.  The int32 positions
take N * 2^(N-1) * 4 bytes (88 MB at 21 columns), the sorted candidates
12 bytes each, and time grows as N * 2^N.

Two constants bound a run.  ``MAX_EXACT_VARIABLES`` keeps ``learn --cap 2``
on 1000 binary rows within 10 s and 500 MB peak RSS on a 2-vCPU VM: 21
columns take about 1.3 s and 170 MB (22, with the limit lifted, 3 s and 315 MB).
``MAX_LATTICE_TABLES`` bounds the subset tables the lattice walk scores,
the sum of C(N, j) for j <= cap + 1, at 2^15: every width and cap up to
15 columns fits, and wider data needs a parent cap (``--cap``).

For three columns the package also enumerates the eleven score
equivalence classes directly as products and quotients of subset
marginals (one per Markov-equivalence class of three-node structures);
their maximum must match ``learn_exact``, which is a useful end-to-end
check of both code paths.

Determinism: ties between equal-scoring parent sets resolve toward the
smaller set, then lexicographically smaller indices: ``learn_exact``
sorts the scored masks in that order with one ``np.lexsort``.  Ties
between sinks resolve toward the smaller variable index: each mask takes
the first maximum in ascending sink order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import _BATCH_CELLS, Dataset, _columns, _drop_columns, _project
from .scores import PriorSpec, _table_scores, topological_order

__all__ = [
    "MAX_EXACT_VARIABLES",
    "MAX_LATTICE_TABLES",
    "Network",
    "class_posterior",
    "enumerate_n3_classes",
    "learn_exact",
]

MAX_EXACT_VARIABLES = 21
MAX_LATTICE_TABLES = 1 << 15


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


def _marginals(ds: Dataset, prior: PriorSpec, cap: int) -> np.ndarray:
    """``marginal_score`` of every subset of at most cap + 1 columns, by mask.

    The subsets form a spanning tree of the lattice: the parent of a
    subset adds back its highest missing column, so the subsets of
    cap + 1 columns are the roots, and a subset's children drop one of
    its free columns, those above its highest missing one.  Each root is
    counted once and every other table is projected from its parent.
    Larger subsets hold NaN: no parent set within the cap reads them.

    The walk goes in passes, one dropped column per pass, over batches of
    tables, each a mask and a joint arity.  Every table of a batch that
    starts at pass s holds columns s .. N - 1, so pass i drops column i
    from all of them with one ``_drop_columns`` call on the place values
    ``place[i]`` that they share (a child's mask loses bit i, and its
    arity is divided by column i's).  If the batch and its children hold
    at most ``_BATCH_CELLS >> 3`` cells they go on as one batch, else the
    children walk on their own from pass i + 1.  One ``_table_scores``
    call scores a batch after its last pass.  The roots are counted
    ``max(1, (_BATCH_CELLS >> 3) // n)`` at a time by one ``_project``
    call on the rows, ordered by their highest missing column h; a
    chunk's roots of one h are a batch that starts at pass h + 1.  Codes
    past int64 take the same path: ``_project`` and ``_drop_columns``
    pick the integer width.
    """
    n_vars = ds.num_variables
    if n_vars > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact search supports at most {MAX_EXACT_VARIABLES} variables, got {n_vars}"
        )
    if not 0 <= cap <= n_vars - 1:
        raise ValueError(f"cap must lie in 0..{n_vars - 1}, got {cap}")
    tables = sum(math.comb(n_vars, j) for j in range(cap + 2))
    if tables > MAX_LATTICE_TABLES:
        raise ValueError(
            f"exact search on {n_vars} variables with up to {cap} parents scores {tables} "
            f"subsets, more than {MAX_LATTICE_TABLES}; lower the parent cap (--cap)"
        )
    out = np.full(1 << n_vars, np.nan)
    full = out.size - 1
    # place[i]: column i's two place values in the codes of a table holding i .. N - 1
    place = [(math.prod(ds.arities[i:]), math.prod(ds.arities[i + 1:])) for i in range(n_vars)]

    def walk(masks, arities, codes, counts, bounds, start) -> None:
        # every table of the batch holds columns start .. N - 1
        for i in range(start, n_vars):
            codes_i, counts_i, bounds_i, _ = _drop_columns(codes, counts, bounds, *place[i])
            masks_i, arities_i = masks ^ 1 << i, [a // ds.arities[i] for a in arities]
            if bounds[-1] + bounds_i[-1] > _BATCH_CELLS >> 3:
                walk(masks_i, arities_i, codes_i, counts_i, bounds_i, i + 1)
                continue
            masks, arities = np.concatenate([masks, masks_i]), arities + arities_i
            codes, counts = np.concatenate([codes, codes_i]), np.concatenate([counts, counts_i])
            bounds = np.concatenate([bounds, bounds_i[1:] + bounds[-1]])
        out[masks] = _table_scores(arities, ds.n, counts, bounds, prior)

    # the roots by the pass they start at, after their highest missing
    # column, each with its mask and its joint arity
    roots = sorted(((full ^ mask).bit_length(), mask, arity) for mask, arity in (
        (sum(1 << i for i in root), math.prod(ds.arities[i] for i in root))
        for root in itertools.combinations(range(n_vars), cap + 1)))
    per_chunk = max(1, (_BATCH_CELLS >> 3) // ds.n)
    for begin in range(0, len(roots), per_chunk):
        starts, masks, arities = zip(*roots[begin:begin + per_chunk])
        codes, counts, bounds, _ = _project(ds.data, None, ds.arities, masks)
        # the roots that start at pass s are a batch: edges[s]:edges[s + 1]
        edges = np.searchsorted(starts, range(n_vars + 2)).tolist()
        for start, a, b in zip(range(n_vars + 1), edges, edges[1:]):
            if a < b:
                walk(np.array(masks[a:b]), list(arities[a:b]), codes[bounds[a]:bounds[b]],
                     counts[bounds[a]:bounds[b]], bounds[a:b + 1] - bounds[a], start)
    return out


def enumerate_n3_classes(ds: Dataset, prior: PriorSpec) -> list[tuple[str, float]]:
    """Scores of the eleven three-variable equivalence classes.

    Each class is a product/quotient of subset marginals; the label
    spells out that expression using the dataset's variable names
    (";" separates independent factors).  Classes are exhaustive: their
    maximum equals the best achievable network score on three columns.
    """
    _require_three(ds)
    return _n3_classes(ds.names, _marginals(ds, prior, 2))


def _require_three(ds: Dataset) -> None:
    """Refuse class enumeration on any width but three columns."""
    if ds.num_variables != 3:
        raise ValueError(f"class enumeration needs exactly 3 variables, got {ds.num_variables}")


def _n3_classes(names: Sequence[str], m: np.ndarray) -> list[tuple[str, float]]:
    """``enumerate_n3_classes`` of three columns named ``names``, from a
    marginal array ``m`` that covers all three."""
    x, y, z = names
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
    Raises on datasets wider than MAX_EXACT_VARIABLES columns, and on caps
    whose lattice holds more than MAX_LATTICE_TABLES subsets.
    """
    n_vars = ds.num_variables
    return _learn(_marginals(ds, prior, n_vars - 1 if cap is None else cap))


def _drop_bit(masks, v: int):
    """Masks without bit v, with the bits above v moved down one place: a
    mask's index among the 2^(N-1) masks that exclude v."""
    low = (1 << v) - 1
    return masks & low | masks >> 1 & ~low


def _learn(m: np.ndarray) -> Network:
    """``learn_exact`` from the marginal array; NaN entries are out of reach."""
    n_vars = m.size.bit_length() - 1
    # size[mask] counts the mask's columns.  The masks with a score go in
    # tie-break order: by size, then, among equal sizes, the set holding the
    # lowest index of the symmetric difference first, which is the larger
    # mask with its bits reversed (column 0 most significant)
    size = np.zeros(m.size, np.int8)
    for i in range(n_vars):
        size[1 << i:2 << i] = size[:1 << i] + 1
    scored = np.flatnonzero(~np.isnan(m)).astype(np.int32)
    reversed_mask = np.zeros_like(scored)
    for i in range(n_vars):
        reversed_mask |= (scored >> i & 1) << n_vars - 1 - i
    ranked = scored[np.lexsort((-reversed_mask, size[scored]))]

    # Stage 1: cands[v] holds v's candidates, the parent masks whose family
    # has a score, in the order (score descending, then ``ranked``), and
    # gains[v] their scores.  pos[v][p] is the position of v's best parent
    # mask inside pool p, p indexing the pools that exclude v (``_drop_bit``):
    # after one pass per bit, each pool holds the least among its subsets.
    pos = np.empty((n_vars, m.size >> 1), np.int32)
    cands, gains = [], []
    for v in range(n_vars):
        own = 1 << v
        cand = ranked[ranked & own == 0]
        local = m[cand | own] - m[cand]
        keep = ~np.isnan(local)
        order = np.argsort(-local[keep], kind="stable")
        cands.append(cand[keep][order])
        gains.append(local[keep][order])
        pos[v].fill(order.size)  # no pool keeps it: each holds the empty parent set
        pos[v][_drop_bit(cands[v], v)] = np.arange(order.size)
        for i in range(n_vars - 1):
            halves = pos[v].reshape(-1, 2, 1 << i)
            np.minimum(halves[:, 0], halves[:, 1], out=halves[:, 1])

    # Stage 2: best score of a structure on each set of variables, level by
    # level, choosing its sink: the first maximum in ascending sink order.
    best_score = np.zeros(m.size)
    best_sink = np.zeros(m.size, np.int8)
    for k in range(1, n_vars + 1):
        level = np.flatnonzero(size == k)
        top = np.full(level.size, -np.inf)
        sink = np.zeros(level.size, np.int8)
        for v in range(n_vars):
            at = np.flatnonzero(level >> v & 1)
            rest = level[at] ^ 1 << v
            score = best_score[rest] + gains[v][pos[v][_drop_bit(rest, v)]]
            win = score > top[at]
            top[at[win]] = score[win]
            sink[at[win]] = v
        best_score[level] = top
        best_sink[level] = sink

    parents: list[tuple[int, ...]] = [()] * n_vars
    mask = m.size - 1
    while mask:
        v = int(best_sink[mask])
        mask ^= 1 << v
        parents[v] = _columns(int(cands[v][pos[v][_drop_bit(mask, v)]]))
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
