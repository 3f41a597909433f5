"""Oracles shared by the tests, independent of the library code under test:
exact Fraction products for Dirichlet-multinomial scores, an mpmath gamma
ratio at the caller's working precision, per-cell sums of conditional
entropy and local scores over decoded cells, and every directed acyclic
structure on a few nodes for brute-force search; with them, the seeded
random datasets that the search tests draw."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath

from bdscore.dataset import Dataset, counts
from bdscore.numerics import log_gamma_ratio


def rising(b: Fraction, m: int) -> Fraction:
    """The rising factorial b (b + 1) ... (b + m - 1), exactly."""
    out = Fraction(1)
    for k in range(m):
        out *= b + k
    return out


def bd_oracle(cell_counts, cell_weights) -> Fraction:
    """Product-formula score over a full declared cell list, exactly."""
    n = sum(cell_counts)
    total = sum(cell_weights, Fraction(0))
    q = Fraction(1)
    for c, w in zip(cell_counts, cell_weights):
        q *= rising(w, c)
    return q / rising(total, n)


def mp_log_gamma_ratio(c, b):
    """ln G(c + b) - ln G(b) in mpmath; a float b converts exactly."""
    b = mpmath.mpf(b)
    return mpmath.loggamma(c + b) - mpmath.loggamma(b)


def _decoded_family(ds, x, parents):
    """The child-and-parents cells of ``counts(...).cells``, decoded and in
    code order, the parents' part of a cell, and the parents' counts
    summed from those cells: no projection of codes."""
    u = ds.subset(parents)
    xu = u.union(ds.subset([x]))
    cells = counts(ds, xu).cells
    keep = [p for p, i in enumerate(xu.indices) if i in u]

    def parent_cell(cell):
        return tuple(cell[p] for p in keep)

    u_counts = Counter()
    for cell, c in cells.items():
        u_counts[parent_cell(cell)] += c
    return cells, parent_cell, u_counts


def per_cell_entropy(ds, x, parents):
    """H(x | parents) in nats, one term per decoded cell in code order."""
    cells, parent_cell, u_counts = _decoded_family(ds, x, parents)
    h = 0.0
    for cell, c in cells.items():
        h -= (c / ds.n) * math.log(c / u_counts[parent_cell(cell)])
    return h


def per_cell_local(ds, x, parents, prior, parent_weight):
    """Reference for the local form: one term per decoded parent cell and
    per joint cell; a coupled a(u) is the fsum of the u block's x_arity
    child-cell weights, one term per child cell."""
    cells, _, u_counts = _decoded_family(ds, x, parents)
    u_arity = ds.subset(parents).joint_arity
    w = prior.cell_weight(u_arity * ds.arity_of(x))
    if parent_weight == "coupled":
        a_u = math.fsum(w for _ in range(ds.arity_of(x)))
    else:
        a_u = prior.cell_weight(u_arity)
    return math.fsum([*[-log_gamma_ratio(cu, a_u) for cu in u_counts.values()],
                      *[log_gamma_ratio(c, w) for c in cells.values()]])


def random_dataset(rng, n_vars, n, max_arity=3):
    """Columns ``V0``, ``V1``, ... of random arity in 2..max_arity and
    uniform values, each drawn in turn from ``rng``."""
    cols = []
    for i in range(n_vars):
        a = int(rng.integers(2, max_arity + 1))
        cols.append((f"V{i}", a, rng.integers(0, a, n).tolist()))
    return Dataset.from_columns(cols)


def _acyclic(parents) -> bool:
    """Whether a parent tuple per node has no directed cycle: nodes whose
    parents are all gone are removed until none or no such node is left."""
    left = set(range(len(parents)))
    while left:
        free = {v for v in left if left.isdisjoint(parents[v])}
        if not free:
            return False
        left -= free
    return True


@functools.cache
def all_dags(n_vars):
    """Every acyclic parent assignment, as tuples of parent tuples."""
    per_var = []
    for v in range(n_vars):
        others = [i for i in range(n_vars) if i != v]
        per_var.append([
            tuple(sorted(c))
            for size in range(n_vars)
            for c in itertools.combinations(others, size)
        ])
    return tuple(a for a in itertools.product(*per_var) if _acyclic(a))
