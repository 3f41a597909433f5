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
pool once and projects each child-and-parents table from that count,
keeping each parent set's conditional entropy and criterion value.
When the joint codes of child and pool would not fit in int64, it
counts each child-and-parents table on its own instead.  A projected
table equals a fresh count cell for cell, so the values are the ones
``empirical_cond_entropy``, ``conditional_score_ratio``, ``aic`` and
``bic`` give.

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

from .citest import _j, _pair_margins
from .dataset import (ContingencyTable, Dataset, VarSet, _code_dtype, _cond_entropy, _varset,
                      counts)
from .numerics import log_gamma_ratio
from .scores import PriorSpec, _aic_penalty, _bic_penalty, _ratio

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
    xi = ds.index_of(x)
    pool = ds.subset(candidates)
    if xi in pool:
        raise ValueError(f"candidate pool may not contain the child {x!r}")

    # Parent sets are bit masks: bit i is column i.
    family = pool.union(ds.subset([xi]))
    # the one row scan, unless the family's codes would not fit in int64
    joint = counts(ds, family) if _code_dtype(family) is np.int64 else None

    def table(mask: int) -> ContingencyTable:
        """The counts of the child with the parents of a mask."""
        s = _varset(mask | 1 << xi, ds.arities)
        return counts(ds, s) if joint is None else joint.marginalize(s)

    entropies: dict[int, float] = {}  # H(X | U)
    values: dict[int, float] = {}  # the criterion's value

    def entropy(mask: int) -> float:
        if mask not in entropies:
            xu = table(mask)
            entropies[mask] = _cond_entropy(xu, xu.aligned_margin(_varset(mask, ds.arities)))
        return entropies[mask]

    def score_of(mask: int) -> float:
        if mask not in values:
            u = _varset(mask, ds.arities)
            if criterion == "bd":
                values[mask] = _ratio(table(mask), u, prior)
            else:
                penalty = _aic_penalty if criterion == "aic" else _bic_penalty
                values[mask] = entropy(mask) + penalty(ds, xi, u)
        return values[mask]

    violations = []
    bits = [1 << i for i in pool.indices]
    for size in range(1, max_parent_size + 1):
        for up_bits in itertools.combinations(bits, size):
            u_prime = sum(up_bits)
            h_up = entropy(u_prime)
            for sub_size in range(size):
                for u_bits in itertools.combinations(up_bits, sub_size):
                    u = sum(u_bits)
                    h_u = entropy(u)
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
    prior weights.
    """

    z_arity: int
    f: tuple[int, ...]
    g: tuple[int, ...]
    z_sequence: tuple[int, ...]
    x_arity: int | None = None
    y_arity: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(int(v) for v in self.f))
        object.__setattr__(self, "g", tuple(int(v) for v in self.g))
        object.__setattr__(self, "z_sequence", tuple(int(v) for v in self.z_sequence))
        if self.z_arity < 2:
            raise ValueError(f"source arity must be at least 2, got {self.z_arity}")
        if len(self.f) != self.z_arity or len(self.g) != self.z_arity:
            raise ValueError("maps f and g must assign a value to every source state")
        if len(self.z_sequence) < 1:
            raise ValueError("the source sequence needs at least one row")
        if any(not 0 <= z < self.z_arity for z in self.z_sequence):
            raise ValueError("source sequence contains out-of-range states")
        if any(v < 0 for v in self.f) or any(v < 0 for v in self.g):
            raise ValueError("mapped child values must be nonnegative")
        for label, declared, mapped in (
            ("x_arity", self.x_arity, self.f),
            ("y_arity", self.y_arity, self.g),
        ):
            if declared is not None and declared < max(max(mapped) + 1, 2):
                raise ValueError(f"{label}={declared} cannot hold the mapped values {mapped}")

    @property
    def n(self) -> int:
        return len(self.z_sequence)

    def resolved_child_arities(self) -> tuple[int, int]:
        xa = self.x_arity if self.x_arity is not None else max(max(self.f) + 1, 2)
        ya = self.y_arity if self.y_arity is not None else max(max(self.g) + 1, 2)
        return xa, ya


def _source_columns(spec: DeterministicSpec) -> list[tuple[str, int, list[int]]]:
    """Source column(s) for the generated dataset.

    A power-of-two arity above 2 is emitted as separate binary columns
    (most significant bit first) so the joint source state space is
    preserved exactly; anything else is one column of full arity.
    """
    z = spec.z_arity
    if z > 2 and (z & (z - 1)) == 0:
        bits = z.bit_length() - 1
        names = ["Z", "W"] if bits == 2 else [f"Z{i + 1}" for i in range(bits)]
        return [
            (names[i], 2, [(s >> (bits - 1 - i)) & 1 for s in spec.z_sequence])
            for i in range(bits)
        ]
    return [("Z", z, list(spec.z_sequence))]


def make_deterministic_dataset(spec: DeterministicSpec) -> Dataset:
    """Materialize a DeterministicSpec as a dataset.

    Column order is the first child, the source column(s), the second
    child; a 4-state source becomes the two binary columns Z and W.
    """
    xa, ya = spec.resolved_child_arities()
    x_col = [spec.f[z] for z in spec.z_sequence]
    y_col = [spec.g[z] for z in spec.z_sequence]
    columns: list[tuple[str, int, Sequence[int]]] = [("X", xa, x_col)]
    columns.extend(_source_columns(spec))
    columns.append(("Y", ya, y_col))
    return Dataset.from_columns(columns)


def source_variable_names(spec: DeterministicSpec) -> list[str]:
    """Names of the source column(s) a spec generates."""
    return [name for name, _, _ in _source_columns(spec)]


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
    boundary of the irregular region.  Scored from the pair's 2x2 table.
    """
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (n, ones)):
        raise ValueError(f"n and ones must be integers, got n={n!r}, ones={ones!r}")
    n, ones = int(n), int(ones)
    if not 0 <= ones <= n:
        raise ValueError(f"ones must lie in 0..{n}, got {ones}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return _j(_pair_margins(n, ones, 0, 0), prior)
