"""Categorical datasets, contingency counting, and empirical entropy.

A dataset is an immutable table of integer-coded categorical columns
with declared arities.  Arities come from the header, never from the
observed values: the size of a variable's state space is part of the
model, and inferring it from data would silently change every score
that depends on it (unobserved states still carry prior mass).

The CSV format is deliberately tiny::

    X:2,Z:2,W:2,Y:2      <- header, name:arity per column
    0,0,0,0              <- one integer row per observation
    ...

Lines starting with ``#`` are comments and are ignored wherever they
appear.  Values must lie in ``0 .. arity-1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .numerics import log_base_divisor

__all__ = [
    "ContingencyTable",
    "DataFormatError",
    "Dataset",
    "UnknownVariableError",
    "VarSet",
    "counts",
    "empirical_cond_entropy",
    "load_csv",
    "save_csv",
]


class DataFormatError(ValueError):
    """Raised for malformed dataset files or invalid cell values."""


class UnknownVariableError(LookupError):
    """Raised when a variable name or index does not exist in a dataset."""


VarSpec = Union[int, str]


@dataclass(frozen=True)
class VarSet:
    """Ordered subset of dataset columns together with their arities.

    Indices are kept strictly ascending.  The empty set is valid and has
    joint arity 1: a single, always-observed configuration, which is what
    makes unconditional and conditional score formulas one code path.
    """

    indices: tuple[int, ...]
    arities: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.arities):
            raise ValueError("indices and arities must have equal length")
        if any(i < 0 for i in self.indices):
            raise ValueError(f"negative column index in {self.indices}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing, got {self.indices}")
        if any(a < 2 for a in self.arities):
            raise ValueError(f"every arity must be at least 2, got {self.arities}")

    @property
    def joint_arity(self) -> int:
        out = 1
        for a in self.arities:
            out *= a
        return out

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def union(self, other: "VarSet") -> "VarSet":
        """Merge two subsets; shared indices must agree on arity."""
        merged: dict[int, int] = dict(zip(self.indices, self.arities))
        for i, a in zip(other.indices, other.arities):
            if merged.setdefault(i, a) != a:
                raise ValueError(f"conflicting arities for column {i}")
        items = sorted(merged.items())
        return VarSet(tuple(i for i, _ in items), tuple(a for _, a in items))

    def positions_of(self, sub: "VarSet") -> tuple[int, ...]:
        """Positions of ``sub``'s columns inside this set's cell tuples."""
        where = {idx: pos for pos, idx in enumerate(self.indices)}
        try:
            return tuple(where[i] for i in sub.indices)
        except KeyError as missing:
            raise ValueError(f"column {missing.args[0]} is not in {self.indices}") from None

    def cells(self) -> Iterator[tuple[int, ...]]:
        """All joint configurations in lexicographic order."""
        return itertools.product(*(range(a) for a in self.arities))


class Dataset:
    """Immutable table of integer-coded categorical observations."""

    def __init__(self, variables: Sequence[tuple[str, int]], rows) -> None:
        names = tuple(str(name) for name, _ in variables)
        arities = tuple(int(arity) for _, arity in variables)
        if len(names) == 0:
            raise DataFormatError("a dataset needs at least one variable")
        if len(set(names)) != len(names):
            raise DataFormatError(f"duplicate variable names in {names}")
        for name, arity in zip(names, arities):
            if arity < 2:
                raise DataFormatError(f"variable {name!r}: declared arity must be at least 2, got {arity}")
        data = np.asarray(rows, dtype=np.int64)
        if data.ndim != 2 or data.shape[1] != len(names):
            raise DataFormatError(
                f"rows must form an (n, {len(names)}) table, got shape {data.shape}"
            )
        if data.shape[0] == 0:
            raise DataFormatError("dataset has no data rows")
        for j, (name, arity) in enumerate(zip(names, arities)):
            col = data[:, j]
            bad = np.flatnonzero((col < 0) | (col >= arity))
            if bad.size:
                r = int(bad[0])
                raise DataFormatError(
                    f"data row {r + 1}, column {name!r}: value {int(col[r])} outside 0..{arity - 1}"
                )
        data = data.copy()
        data.setflags(write=False)
        self._names = names
        self._arities = arities
        self._data = data

    @classmethod
    def from_columns(cls, columns: Sequence[tuple[str, int, Sequence[int]]]) -> "Dataset":
        """Build a dataset from (name, arity, values) column triples."""
        if not columns:
            raise DataFormatError("a dataset needs at least one variable")
        lengths = {len(values) for _, _, values in columns}
        if len(lengths) != 1:
            raise DataFormatError(f"columns have unequal lengths {sorted(lengths)}")
        variables = [(name, arity) for name, arity, _ in columns]
        rows = np.column_stack([np.asarray(values, dtype=np.int64) for _, _, values in columns])
        return cls(variables, rows)

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arities(self) -> tuple[int, ...]:
        return self._arities

    @property
    def variables(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self._names, self._arities))

    @property
    def data(self) -> np.ndarray:
        """Read-only (n, num_variables) view of the observations."""
        return self._data

    def index_of(self, var: VarSpec) -> int:
        if isinstance(var, str):
            try:
                return self._names.index(var)
            except ValueError:
                raise UnknownVariableError(f"unknown variable name {var!r}") from None
        i = int(var)
        if not 0 <= i < self.num_variables:
            raise UnknownVariableError(f"variable index {i} out of range 0..{self.num_variables - 1}")
        return i

    def arity_of(self, var: VarSpec) -> int:
        return self._arities[self.index_of(var)]

    def column(self, var: VarSpec) -> np.ndarray:
        return self._data[:, self.index_of(var)]

    def subset(self, vars) -> VarSet:
        """Normalize names/indices (or an existing VarSet) into a VarSet."""
        if isinstance(vars, VarSet):
            for i, a in zip(vars.indices, vars.arities):
                if i >= self.num_variables or self._arities[i] != a:
                    raise ValueError(f"variable set {vars} does not match this dataset's schema")
            return vars
        if isinstance(vars, (str, int)):
            vars = [vars]
        idx = sorted({self.index_of(v) for v in vars})
        return VarSet(tuple(idx), tuple(self._arities[i] for i in idx))

    def all_variables(self) -> VarSet:
        return VarSet(tuple(range(self.num_variables)), self._arities)

    # -- serialization and comparison -----------------------------------

    def to_csv_text(self) -> str:
        lines = [",".join(f"{nm}:{ar}" for nm, ar in zip(self._names, self._arities))]
        for row in self._data:
            lines.append(",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self._names == other._names
            and self._arities == other._arities
            and np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        cols = ",".join(f"{nm}:{ar}" for nm, ar in zip(self._names, self._arities))
        return f"Dataset({cols}, n={self.n})"


def load_csv(source) -> Dataset:
    """Read a dataset from a path, a text stream, or a byte stream."""
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        text = Path(source).read_text(encoding="utf-8")

    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise DataFormatError("empty input: no header line found")

    header, *body = content
    variables = []
    for token in header.split(","):
        name, sep, arity_text = token.strip().rpartition(":")
        if not sep or not name:
            raise DataFormatError(f"header token {token!r} is not of the form name:arity")
        try:
            arity = int(arity_text)
        except ValueError:
            raise DataFormatError(f"header token {token!r}: arity is not an integer") from None
        if arity < 2:
            raise DataFormatError(f"header token {token!r}: declared arity must be at least 2")
        variables.append((name, arity))

    if not body:
        raise DataFormatError("dataset has no data rows")

    rows = []
    for r, line in enumerate(body, start=1):
        fields = line.split(",")
        if len(fields) != len(variables):
            raise DataFormatError(
                f"data row {r}: expected {len(variables)} values, got {len(fields)}"
            )
        try:
            rows.append([int(f) for f in fields])
        except ValueError:
            raise DataFormatError(f"data row {r}: non-integer value in {line!r}") from None
    return Dataset(variables, rows)


def save_csv(ds: Dataset, dest) -> None:
    """Write a dataset in the canonical CSV form (path or text stream)."""
    text = ds.to_csv_text()
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


@dataclass(frozen=True)
class ContingencyTable:
    """Sparse joint counts of one variable subset.

    Only observed configurations are stored; every absent configuration
    has count zero.  `n` is the total number of rows, which equals the
    sum of stored counts.
    """

    subset: VarSet
    cells: Mapping[tuple[int, ...], int]
    n: int

    def __post_init__(self):
        width = len(self.subset)
        total = 0
        for cell, c in self.cells.items():
            if len(cell) != width:
                raise ValueError(f"cell {cell} has wrong width, expected {width}")
            if any(not 0 <= v < a for v, a in zip(cell, self.subset.arities)):
                raise ValueError(f"cell {cell} outside the declared state space")
            if c <= 0:
                raise ValueError(f"cell {cell} has nonpositive count {c}")
            total += c
        if total != self.n:
            raise ValueError(f"cell counts sum to {total}, expected n={self.n}")

    @property
    def gamma(self) -> int:
        """Number of joint configurations in the declared state space."""
        return self.subset.joint_arity

    @property
    def num_nonzero(self) -> int:
        return len(self.cells)

    def count(self, cell: tuple[int, ...]) -> int:
        return self.cells.get(tuple(cell), 0)

    def items(self):
        return self.cells.items()

    def marginalize(self, sub: VarSet) -> "ContingencyTable":
        """Sum counts down onto a subset of this table's columns."""
        pos = self.subset.positions_of(sub)
        out: dict[tuple[int, ...], int] = {}
        for cell, c in self.cells.items():
            key = tuple(cell[p] for p in pos)
            out[key] = out.get(key, 0) + c
        return ContingencyTable(sub, out, self.n)


def _decode(code: int, arities: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for a in reversed(arities):
        code, v = divmod(code, a)
        out.append(v)
    return tuple(reversed(out))


def counts(ds: Dataset, subset) -> ContingencyTable:
    """Joint counts of a variable subset, keyed by configuration tuple.

    The empty subset yields the single cell () with count n.  Subsets
    whose joint codes overflow int64 are counted row-wise (slower).
    """
    s = ds.subset(subset)
    if len(s) == 0:
        return ContingencyTable(s, {(): ds.n}, ds.n)
    cols = ds.data[:, list(s.indices)]
    if s.joint_arity - 1 > np.iinfo(np.int64).max:
        values, frequencies = np.unique(cols, axis=0, return_counts=True)
        cells = map(tuple, values.tolist())
    else:
        code = np.zeros(ds.n, dtype=np.int64)
        for j, a in enumerate(s.arities):
            code = code * a + cols[:, j]
        values, frequencies = np.unique(code, return_counts=True)
        cells = (_decode(v, s.arities) for v in values.tolist())
    return ContingencyTable(s, dict(zip(cells, frequencies.tolist())), ds.n)


def empirical_cond_entropy(ds: Dataset, x: VarSpec, given, base="e") -> float:
    """Empirical conditional entropy H(X | U) of the observed rows.

    Terms with zero joint count contribute zero.  ``base`` selects the
    reporting unit (2 for bits, "e" for nats); all conditioning happens
    on observed counts, never on the declared state space.
    """
    divisor = log_base_divisor(base)
    xi = ds.index_of(x)
    u = ds.subset(given)
    if xi in u:
        raise ValueError(f"variable {x!r} cannot be conditioned on itself")
    xu = u.union(ds.subset([xi]))
    joint = counts(ds, xu)
    parent = joint.marginalize(u)
    pos = xu.positions_of(u)
    n = ds.n
    h = 0.0
    for cell, c in joint.items():
        cu = parent.count(tuple(cell[p] for p in pos))
        h -= (c / n) * math.log(c / cu)
    return h / divisor
