"""Oracles shared by the tests, independent of the library code under test:
exact Fraction products for Dirichlet-multinomial scores, an mpmath gamma
ratio at the caller's working precision, the exact-sum gamma ratio over
one array of all its terms, per-cell sums of conditional entropy and local
scores over decoded cells, every directed acyclic structure on a few nodes
for brute-force search, the dynamic program over orders on Python
lists that exact search ran before its array form, dn-sweep's draws
on one generator as the sweep took them before it drew in parts, and the
J profile scored point by point as it was before it went in one batch, the
deterministic witness built from per-row lists as it was before it filled
one array; with
them, the seeded random datasets that the search tests draw, and one
table's margin through the library's projection, which the tests hold
to fresh counts and to sums over decoded cells."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from bdscore.citest import _j, _pair_margins, _scores
from bdscore.dataset import ContingencyTable, Dataset, _columns, _digits, _project, counts
from bdscore.numerics import log_gamma_ratio
from bdscore.search import Network


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


def one_array_log_gamma_ratio(n, b):
    """The exact-sum gamma ratio as the kernel took it before it streamed:
    every term ln(k + b) in one float64 array, and one ``fsum`` over them.
    The streamed kernel must give this float bit for bit."""
    return math.fsum(np.log(np.arange(n, dtype=np.float64) + b).tolist())


def margin(table, sub):
    """``table``'s margin on ``sub`` through ``_project`` of its ``_digits``,
    in a batch of its own, as a table, and each stored cell's count on it,
    in order."""
    s = table.subset
    width = s.indices[-1] + 1 if s.indices else 0
    arities = [1] * width  # only the table's columns are read
    for i, a in zip(s.indices, s.arities):
        arities[i] = a
    codes, sums, _, aligned = _project(_digits(table, width), table.frequencies, arities,
                                       [sum(1 << i for i in sub.indices)], aligned=True)
    return ContingencyTable._from_codes(sub, table.n, codes, sums), aligned[0].tolist()


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


def list_dp(m):
    """Reference for ``search._learn``: the dynamic program over orders with
    ``best`` and ``gain`` as one Python list of 2^N entries per variable, and
    stage 2 as a loop over every mask and sink.  NaN entries are out of
    reach."""
    n_vars = m.size.bit_length() - 1
    masks = np.arange(m.size)
    # tie-break order: by size, then, among equal sizes, the set holding the
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


def sequential_pair_counts(seed, grid):
    """dn-sweep's counts drawn on one PCG64 generator, point after point:
    at each n, n draws for x then n for y, a row one when its draw is below
    n ** -0.75; the ones in x, the ones in y and the rows where both are
    one.  The sweep's parts must give these counts whatever their number."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for n in grid:
        p = float(n) ** -0.75
        x, y = rng.random(n) < p, rng.random(n) < p
        out.append((np.count_nonzero(x), np.count_nonzero(y), np.count_nonzero(x & y)))
    return out


def pointwise_j_profile(n, ones, prior):
    """``j_statistic_profile(n, ones, prior)`` from the pair's own margins:
    each of its four count lists scored by its own per-cell ``math.fsum``
    (``_counts_score``), and J from those four scores.  The batched profile
    must give this float bit for bit."""
    m = _pair_margins(n, ones, 0, 0)
    return _j(m.n, _scores(m, prior))


def list_built_deterministic_dataset(spec):
    """A ``DeterministicSpec``'s dataset from per-row Python lists through
    ``Dataset.from_columns``: X, the source column(s), Y, where a source of
    a power-of-two arity above 2 is one binary column per bit, most
    significant first, named Z, W for two bits and Z1, Z2, ... otherwise.
    ``make_deterministic_dataset`` must give this table and these names."""
    z = spec.z_arity
    if z > 2 and z & (z - 1) == 0:
        bits = z.bit_length() - 1
        names = ["Z", "W"] if bits == 2 else [f"Z{i + 1}" for i in range(bits)]
        sources = [(names[i], 2, [(s >> (bits - 1 - i)) & 1 for s in spec.z_sequence])
                   for i in range(bits)]
    else:
        sources = [("Z", z, list(spec.z_sequence))]
    xa, ya = spec.resolved_child_arities()
    return Dataset.from_columns([("X", xa, [spec.f[s] for s in spec.z_sequence]), *sources,
                                 ("Y", ya, [spec.g[s] for s in spec.z_sequence])])
