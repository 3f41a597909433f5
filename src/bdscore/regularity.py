"""Regularity auditing of conditional scores, and its witness generators.

A scoring criterion is *regular* when, among nested parent candidates
that explain a child equally well or better in the empirical-entropy
sense, it never prefers the larger one:

    U inside U', H(X|U) <= H(X|U')  =>  score(X|U) >= score(X|U').

``audit`` searches a candidate pool exhaustively for violations of that
implication.  Jeffreys-weighted scores and the penalized criteria (AIC,
BIC) pass; evenly split equivalent-sample-size weights (BDeu) fail, and
the failure is constructive: whenever two child columns are functions
of the same source column, adding the redundant second child to the
parent set *raises* the BDeu conditional score even though it cannot
reduce the conditional entropy.  ``make_deterministic_dataset`` emits
exactly such data, and ``j_statistic_profile`` traces the score gap for
the near-degenerate two-column family used to map where the preference
flips.

Every entropy and score ``audit`` compares is a function of counts over
the child and some candidates, so it counts the child with the whole
pool once and takes every child-and-parents table from that count in
one batched projection, then sums the child out of all of them in a
second.  Each parent set's conditional entropy comes from those counts
up front, and its score when a pair first needs it, with no further
projection.  ``empirical_cond_entropy``, ``conditional_score_ratio``
and ``conditional_score_local`` sum the child out of their one count
through the same path, and a projected table equals a fresh count cell
for cell, so the values are the ones those functions, ``aic`` and
``bic`` give.

``j_statistic_profile`` is the batch of one of ``_j_profiles``, which
scores the margins of a whole grid of profile pairs of one n with one
``_table_scores`` call.  That kernel gives each table the float of its
per-cell ``math.fsum``, so every J is the one the pair's four margins,
scored one at a time, give.

``constant_pair_inequalities`` checks the two log-gamma product
inequalities that settle the all-constant-columns case in closed form,
with lgr(n, w) = ln Gamma(n + w) - ln Gamma(w):

    jeffreys:  lgr(n, ab/2) + lgr(n, 1/2) >= lgr(n, a/2) + lgr(n, b/2)
    bdeu:      lgr(n, d/a) + lgr(n, d/b) <= lgr(n, d/ab) + lgr(n, d)

The first keeps the Jeffreys decision on the independent side for
constant columns; the second, pointing the opposite way, is what lets
split weights declare two constant columns dependent.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .citest import _check_rows, _j
from .dataset import (_INT64_MAX, Dataset, VarSet, _cond_entropy, _digits, _is_whole,
                      _parents_of, _project, _sum_child_out, _varset, counts)
from .numerics import log_gamma_ratio
from .scores import PriorSpec, _aic_penalty, _bic_penalty, _ratio, _table_scores

__all__ = [
    "DeterministicSpec",
    "InequalityCheck",
    "RegularityViolation",
    "audit",
    "constant_pair_inequalities",
    "j_statistic_profile",
    "make_deterministic_dataset",
    "source_variable_names",
]

_ENTROPY_TOL = 1e-12


@dataclass(frozen=True)
class RegularityViolation:
    """A nested parent pair on which a criterion prefers the larger set.

    ``h_u``/``h_u_prime`` are conditional entropies in nats and satisfy
    ``h_u <= h_u_prime`` (the premise); ``score_u``/``score_u_prime``
    hold the criterion values that violate the conclusion.
    """

    x: int
    u: VarSet
    u_prime: VarSet
    h_u: float
    h_u_prime: float
    score_u: float
    score_u_prime: float
    criterion: str = "bd"


def audit(
    ds: Dataset,
    x,
    prior: PriorSpec,
    candidates,
    max_parent_size: int = 3,
    criterion: str = "bd",
) -> list[RegularityViolation]:
    """Exhaustively search nested candidate parent pairs for violations.

    Examines every pair U inside U' with U' drawn from ``candidates``
    and |U'| <= max_parent_size.  ``criterion`` selects what is compared:
    "bd" uses the conditional score under ``prior`` (larger is better),
    "aic"/"bic" use those penalized entropies (smaller is better).
    A tolerance of 1e-12 absorbs float noise in the premise comparison
    only; the score comparison itself is strict.
    """
    if criterion not in ("bd", "aic", "bic"):
        raise ValueError(f"criterion must be 'bd', 'aic', or 'bic', got {criterion!r}")
    if max_parent_size < 1:
        raise ValueError(f"max_parent_size must be at least 1, got {max_parent_size}")
    xi, pool = _parents_of(ds, x, candidates)

    # Parent sets are bit masks: bit i is column i.
    bits = [1 << i for i in pool.indices]
    masks = [sum(c) for size in range(max_parent_size + 1)
             for c in itertools.combinations(bits, size)]
    joint = counts(ds, pool.union(ds.subset([xi])))
    codes, xu_counts, bounds, _ = _project(_digits(joint, ds.num_variables), joint.frequencies,
                                           ds.arities, [mask | 1 << xi for mask in masks])
    # the child-and-U counts, each of those cells' count on U, and U's counts
    tables = dict(zip(masks, _sum_child_out(codes, xu_counts, bounds, ds.arities, xi, masks)))
    entropies = {mask: _cond_entropy(ds.n, xu, aligned)  # H(X | U)
                 for mask, (xu, aligned, _) in tables.items()}
    values: dict[int, float] = {}  # the criterion's value

    def score_of(mask: int) -> float:
        if mask not in values:
            u = _varset(mask, ds.arities)
            if criterion == "bd":
                xu, _, u_counts = tables[mask]
                values[mask] = _ratio(u.joint_arity, ds.arities[xi], ds.n, xu, u_counts, prior)
            else:
                penalty = _aic_penalty if criterion == "aic" else _bic_penalty
                values[mask] = entropies[mask] + penalty(ds, xi, u)
        return values[mask]

    violations = []
    for size in range(1, max_parent_size + 1):
        for up_bits in itertools.combinations(bits, size):
            u_prime = sum(up_bits)
            h_up = entropies[u_prime]
            for sub_size in range(size):
                for u_bits in itertools.combinations(up_bits, sub_size):
                    u = sum(u_bits)
                    h_u = entropies[u]
                    if h_u > h_up + _ENTROPY_TOL:
                        continue
                    s_u, s_up = score_of(u), score_of(u_prime)
                    prefers_larger = s_u < s_up if criterion == "bd" else s_u > s_up
                    if prefers_larger:
                        violations.append(
                            RegularityViolation(
                                x=xi,
                                u=_varset(u, ds.arities),
                                u_prime=_varset(u_prime, ds.arities),
                                h_u=h_u,
                                h_u_prime=h_up,
                                score_u=s_u,
                                score_u_prime=s_up,
                                criterion=criterion,
                            )
                        )
    return violations


@dataclass(frozen=True)
class DeterministicSpec:
    """Recipe for data where two child columns are functions of one source.

    The source takes ``z_arity`` states; row i has source state
    ``z_sequence[i]``, first child ``f[z]``, second child ``g[z]``.
    Declared child arities default to the smallest valid value (the
    largest mapped state plus one, floor 2) but can be fixed explicitly,
    which matters for scores because declared state-space size feeds the
    prior weights.  Every field is taken as ``Dataset`` takes a cell: an
    integer, or a real number with no fractional part, so a fraction is
    refused instead of truncated.  A mapped value must fit in int64, the
    table's type.  ``z_sequence``, any iterable, is read after the other
    checks.
    """

    z_arity: int
    f: tuple[int, ...]
    g: tuple[int, ...]
    z_sequence: tuple[int, ...]
    x_arity: int | None = None
    y_arity: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "z_arity", _whole(self.z_arity, "z_arity"))
        object.__setattr__(self, "f", tuple(_whole(v, "f") for v in self.f))
        object.__setattr__(self, "g", tuple(_whole(v, "g") for v in self.g))
        if self.z_arity < 2:
            raise ValueError(f"source arity must be at least 2, got {self.z_arity}")
        if len(self.f) != self.z_arity or len(self.g) != self.z_arity:
            raise ValueError("maps f and g must assign a value to every source state")
        if min(self.f + self.g) < 0:
            raise ValueError("mapped child values must be nonnegative")
        if max(self.f + self.g) > _INT64_MAX:
            raise ValueError(f"mapped child value {max(self.f + self.g)} does not fit in a 64-bit integer")
        for label, mapped in (("x_arity", self.f), ("y_arity", self.g)):
            declared = getattr(self, label)
            if declared is not None:
                declared = _whole(declared, label)
                object.__setattr__(self, label, declared)
                if declared < max(max(mapped) + 1, 2):
                    raise ValueError(f"{label}={declared} cannot hold the mapped values {mapped}")
        states = tuple(self.z_sequence)
        if set(map(type, states)) - {int}:  # a float, a bool or a numpy scalar among them
            states = tuple(_whole(v, "z_sequence") for v in states)
        object.__setattr__(self, "z_sequence", states)
        if len(states) < 1:
            raise ValueError("the source sequence needs at least one row")
        if min(states) < 0 or max(states) >= self.z_arity:
            raise ValueError("source sequence contains out-of-range states")

    def resolved_child_arities(self) -> tuple[int, int]:
        xa = self.x_arity if self.x_arity is not None else max(max(self.f) + 1, 2)
        ya = self.y_arity if self.y_arity is not None else max(max(self.g) + 1, 2)
        return xa, ya


def _whole(value, field: str) -> int:
    """``value`` as an int, by the rule ``Dataset`` applies to a cell."""
    if not _is_whole(value):
        raise ValueError(f"{field}: {value!r} is not an integer")
    return int(value)


def make_deterministic_dataset(spec: DeterministicSpec) -> Dataset:
    """Materialize a DeterministicSpec as a dataset.

    Column order is the first child, the source column(s), the second
    child; a 4-state source becomes the two binary columns Z and W.  The
    states are written once, into the int64 table itself: into the source
    column, or, for bits, into Y's, which the ``np.take`` of ``g`` fills last.
    On 2 vCPUs, 2 * 10**6 rows of 3 columns take ``gen-deterministic`` 0.5 s and 98 MB.
    """
    sources = source_variable_names(spec)
    data = np.empty((len(spec.z_sequence), len(sources) + 2), dtype=np.int64, order="F")
    z = data[:, 1 if len(sources) == 1 else -1]
    z[:] = spec.z_sequence
    if len(sources) > 1:  # one bit per column, most significant first
        np.right_shift(z[:, None], np.arange(len(sources))[::-1], out=data[:, 1:-1])
        np.bitwise_and(data[:, 1:-1], 1, out=data[:, 1:-1])
    # every state is in range, so "clip" changes nothing and spares take a buffered copy
    np.take(np.array(spec.f, dtype=np.int64), z, out=data[:, 0], mode="clip")
    np.take(np.array(spec.g, dtype=np.int64), z, out=data[:, -1], mode="clip")
    xa, ya = spec.resolved_child_arities()
    za = spec.z_arity if len(sources) == 1 else 2
    ds = object.__new__(Dataset)
    ds._adopt(("X", *sources, "Y"), (xa, *[za] * len(sources), ya), data)
    return ds


def source_variable_names(spec: DeterministicSpec) -> list[str]:
    """Names of the source column(s) a spec generates: for a power-of-two
    arity above 2, one binary column per bit, most significant first, so the
    joint source state space is preserved exactly; else the one column Z."""
    bits = spec.z_arity.bit_length() - 1
    if spec.z_arity > 2 and spec.z_arity == 1 << bits:
        return ["Z", "W"] if bits == 2 else [f"Z{i + 1}" for i in range(bits)]
    return ["Z"]


class InequalityCheck(NamedTuple):
    jeffreys_holds: bool
    bdeu_holds: bool


def constant_pair_inequalities(n: int, alpha: int, beta: int, ess: float) -> InequalityCheck:
    """Check both constant-column log-gamma inequalities at one point.

    Returns whether each holds (up to 1e-12 slack for float noise); both
    are equalities at n = 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (alpha, beta)):
        raise ValueError(f"arities must be integers, got {alpha!r}, {beta!r}")
    if alpha < 2 or beta < 2:
        raise ValueError(f"arities must be at least 2, got {alpha}, {beta}")
    if not ess > 0.0:
        raise ValueError(f"equivalent sample size must be positive, got {ess!r}")
    jeffreys_gap = (
        log_gamma_ratio(n, alpha * beta / 2.0)
        + log_gamma_ratio(n, 0.5)
        - log_gamma_ratio(n, alpha / 2.0)
        - log_gamma_ratio(n, beta / 2.0)
    )
    bdeu_gap = (
        log_gamma_ratio(n, ess / (alpha * beta))
        + log_gamma_ratio(n, ess)
        - log_gamma_ratio(n, ess / alpha)
        - log_gamma_ratio(n, ess / beta)
    )
    return InequalityCheck(jeffreys_gap >= -1e-12, bdeu_gap >= -1e-12)


def j_statistic_profile(n: int, ones: int, prior: PriorSpec) -> float:
    """J statistic of a binary pair where Y is constant zero and X has
    ``ones`` ones among n rows.

    Under Jeffreys weights the value does not depend on ``ones`` at all;
    under split weights its sign flips as ``ones`` grows, which is the
    boundary of the irregular region.  The batch of one of
    ``_j_profiles``, which scores a grid of ``ones`` at one n at once.
    """
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (n, ones)):
        raise ValueError(f"n and ones must be integers, got n={n!r}, ones={ones!r}")
    n, ones = int(n), int(ones)
    if not 0 <= ones <= n:
        raise ValueError(f"ones must lie in 0..{n}, got {ones}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_rows(n)
    return _j_profiles(n, [ones], prior)[0]


def _j_profiles(n: int, ones: Sequence[int], prior: PriorSpec) -> list[float]:
    """``j_statistic_profile(n, r, prior)`` for each r of ``ones``, in order,
    from one ``_table_scores`` call; n is 1 .. 2**63 - 1 and each r 0 .. n.

    Tables 0 .. k - 1 are the k pairs' XY tables (arity 4), tables
    k .. 2k - 1 their X margins (arity 2), both holding n - r and r with a
    zero dropped; the last two are the Y margin (arity 2) and the empty
    margin (arity 1), each one cell of n.
    """
    r = np.asarray(ones, dtype=np.int64)
    k = len(r)
    cells = np.column_stack([n - r, r])
    observed = cells > 0
    frequencies, sizes = cells[observed], observed.sum(axis=1)
    bounds = np.cumsum(np.concatenate([[0], sizes, sizes, [1, 1]]))
    scores = _table_scores([4] * k + [2] * k + [2, 1], n,
                           np.concatenate([frequencies, frequencies, [n, n]]), bounds, prior)
    y, z = scores[2 * k:]
    return [_j(n, (xy, x, y, z)) for xy, x in zip(scores[:k], scores[k:2 * k])]
