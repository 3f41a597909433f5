"""Categorical datasets, contingency counting, and empirical entropy.

A dataset is an immutable table of integer-coded categorical columns
with declared arities.  Arities come from the header, never from the
observed values: the size of a variable's state space is part of the
model, and inferring it from data would silently change every score
that depends on it (unobserved states still carry prior mass).

One function builds codes, ``_project``: it counts margins of a digit
matrix, a dataset's rows (``counts``, exact search's roots) or a table's
``_digits`` (the CI and audit margins).  ``_drop_columns`` sums one
column out of every table of a batch at once, on their codes.

The CSV format is deliberately tiny::

    X:2,Z:2,W:2,Y:2      <- header, name:arity per column
    0,0,0,0              <- one integer row per observation
    ...

Lines starting with ``#`` are comments and are ignored wherever they
appear.  Values must lie in ``0 .. arity-1``.
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, Union

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


def _varset(mask: int, arities: Sequence[int]) -> VarSet:
    """The columns of a bit mask (bit i is column i) with their arities from a
    dataset's ``arities``: built without the checks in ``__post_init__``."""
    indices = _columns(mask)
    s = object.__new__(VarSet)
    object.__setattr__(s, "indices", indices)
    object.__setattr__(s, "arities", tuple(arities[i] for i in indices))
    return s


def _columns(mask: int) -> tuple[int, ...]:
    """The column indices of a bit mask (bit i is column i), ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _is_whole(v) -> bool:
    """Whether ``v`` is an integer, or a real number with no fractional
    part: a fraction, NaN or infinity is not."""
    return isinstance(v, (numbers.Integral, np.bool_)) or (
        isinstance(v, numbers.Real) and math.isfinite(v) and float(v).is_integer())


def _schema(variables: Sequence[tuple[str, int]]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    names = tuple(str(name) for name, _ in variables)
    if len(names) == 0:
        raise DataFormatError("a dataset needs at least one variable")
    if len(set(names)) != len(names):
        raise DataFormatError(f"duplicate variable names in {names}")
    arities = []
    for name, (_, arity) in zip(names, variables):
        if not _is_whole(arity):
            raise DataFormatError(f"variable {name!r}: declared arity must be a whole number, got {arity!r}")
        arities.append(int(arity))
        if arities[-1] < 2:
            raise DataFormatError(f"variable {name!r}: declared arity must be at least 2, got {arities[-1]}")
    return names, tuple(arities)


def _check_shape(table: np.ndarray, names: tuple[str, ...]) -> None:
    if table.ndim != 2 or table.shape[1] != len(names):
        raise DataFormatError(f"rows must form an (n, {len(names)}) table, got shape {table.shape}")


def _outside(row: int, name: str, value, arity: int) -> DataFormatError:
    return DataFormatError(f"data row {row}, column {name!r}: value {value} outside 0..{arity - 1}")


def _out_of_range(table: np.ndarray, names, arities) -> DataFormatError:
    """The error for the first bad value of the first column that has one."""
    for j, (name, arity) in enumerate(zip(names, arities)):
        col = table[:, j]
        bad = np.flatnonzero((col < 0) | (col >= arity))
        if bad.size:
            r = int(bad[0])
            return _outside(r + 1, name, int(col[r]), arity)
    raise AssertionError("no value is out of range")


def _whole_table(rows, names, arities) -> np.ndarray:
    """Rows that are not an integer array, checked value by value, as int64.

    A float counts only when it is a whole number, so a fraction, NaN or
    infinity is reported instead of truncated.  A value past int64 is out
    of range, or, under an arity past int64, too large to store.  Columns
    are checked in order, each from its first row.
    """
    table = np.array(rows, dtype=object)
    _check_shape(table, names)
    for j, (name, arity) in enumerate(zip(names, arities)):
        for r, v in enumerate(table[:, j].tolist(), start=1):
            if not _is_whole(v):
                raise DataFormatError(f"data row {r}, column {name!r}: value {v} is not an integer")
            if not 0 <= v < arity:
                raise _outside(r, name, v, arity)
            if v > _INT64_MAX:
                raise DataFormatError(
                    f"data row {r}, column {name!r}: value {v} does not fit in a 64-bit integer")
    return np.array(table, dtype=np.int64, order="F")


class Dataset:
    """Immutable table of integer-coded categorical observations.

    The observations are stored column by column (``order="F"``), so each
    variable's values are one contiguous int64 run: counting reads whole
    columns, never strided rows.  Values of any integer dtype are taken
    as they are; anything else must hold whole numbers.
    """

    def __init__(self, variables: Sequence[tuple[str, int]], rows) -> None:
        names, arities = _schema(variables)
        try:
            table = np.asarray(rows)
        except ValueError:  # rows of unequal lengths: the checked path names the shape
            table = np.asarray(rows, dtype=object)
        if np.can_cast(table.dtype, np.int64):
            data = np.array(table, dtype=np.int64, order="F")
        else:
            data = _whole_table(rows, names, arities)
        self._adopt(names, arities, data)

    @classmethod
    def from_columns(cls, columns: Sequence[tuple[str, int, Sequence[int]]]) -> "Dataset":
        """Build a dataset from (name, arity, values) column triples."""
        if not columns:
            raise DataFormatError("a dataset needs at least one variable")
        lengths = {len(values) for _, _, values in columns}
        if len(lengths) != 1:
            raise DataFormatError(f"columns have unequal lengths {sorted(lengths)}")
        variables = [(name, arity) for name, arity, _ in columns]
        names, arities = _schema(variables)
        data = np.empty((lengths.pop(), len(columns)), dtype=np.int64, order="F")
        for j, (name, _, values) in enumerate(columns):
            try:
                col = np.asarray(values)
            except ValueError:  # nested values of unequal lengths
                col = np.asarray(values, dtype=object)
            if col.ndim != 1:
                raise DataFormatError(f"column {name!r} must be one-dimensional, got shape {col.shape}")
            if not np.can_cast(col.dtype, np.int64):
                return cls(variables, list(zip(*(values for _, _, values in columns))))
            data[:, j] = col
        ds = object.__new__(cls)
        ds._adopt(names, arities, data)
        return ds

    def _adopt(self, names: tuple[str, ...], arities: tuple[int, ...], data: np.ndarray,
               unsigned: bool = False) -> None:
        """Validate an int64 table this instance owns, freeze it, and keep it.

        ``unsigned`` says the values were parsed from digits, so none is
        negative and only each column's maximum is checked.
        """
        _check_shape(data, names)
        if data.shape[0] == 0:
            raise DataFormatError("dataset has no data rows")
        highest = data.max(axis=0).tolist()
        if any(h >= a for h, a in zip(highest, arities)) or not unsigned and data.min() < 0:
            raise _out_of_range(data, names, arities)
        data.setflags(write=False)
        self._names = names
        self._arities = arities
        self._data = data

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
        """The column of a name or an integral index; a bool or a float is refused."""
        if isinstance(var, str):
            try:
                return self._names.index(var)
            except ValueError:
                raise UnknownVariableError(f"unknown variable name {var!r}") from None
        if not isinstance(var, (int, np.integer)) or isinstance(var, bool):
            raise UnknownVariableError(f"variable {var!r} is neither a name nor an integer index")
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
        if isinstance(vars, str) or not np.iterable(vars):
            vars = [vars]
        idx = sorted({self.index_of(v) for v in vars})
        return VarSet(tuple(idx), tuple(self._arities[i] for i in idx))

    # -- serialization and comparison -----------------------------------

    def to_csv_text(self) -> str:
        """The header line, then one line per row.  A body of one-digit
        values is the grid of (digit, separator) byte pairs that
        ``_fixed_width`` views, filled by column after the header's bytes and
        decoded once; any other body is formatted row by row."""
        header = ",".join(f"{nm}:{ar}" for nm, ar in zip(self._names, self._arities))
        if self._data.max() >= 10:
            rows = (",".join(str(int(v)) for v in row) for row in self._data)
            return "\n".join([header, *rows]) + "\n"
        head = (header + "\n").encode("utf-8")
        text = np.empty(len(head) + 2 * self._data.size, dtype=np.uint8)
        text[:len(head)] = np.frombuffer(head, dtype=np.uint8)
        pairs = text[len(head):].reshape(*self._data.shape, 2)
        pairs[:, :, 0] = self._data
        pairs[:, :, 0] += ord("0")
        pairs[:, :, 1] = ord(",")
        pairs[:, -1, 1] = ord("\n")
        return str(text.data, "utf-8")

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
    """Read a dataset from a path, a text stream, or a byte stream.

    A header line followed by a body of one-digit fields, each followed
    by a comma or, at the row's end, a line end (LF or CRLF), with blank
    lines allowed, is read by one check over a fixed-width view of it
    (see ``_load_plain``).  Every other input is read line by line, which
    yields the same dataset and is the only source of error messages.
    """
    stream = hasattr(source, "read")
    raw = source.read() if stream else Path(source).read_bytes()
    plain = _load_plain(raw)
    if plain is not None:
        return plain
    if isinstance(raw, str):
        text = raw
    elif stream:
        text = raw.decode("utf-8")
    else:
        # what Path.read_text gives: UTF-8 with universal newlines
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()

    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    content = [ln for ln in lines if ln and not ln.startswith("#")]
    if not content:
        raise DataFormatError("empty input: no header line found")

    header, *body = content
    variables = _parse_header(header)
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


def _parse_header(header: str) -> list[tuple[str, int]]:
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
    return variables


def _load_plain(raw) -> Dataset | None:
    """Read a body of one-digit fields from its fixed-width view
    (``_fixed_width``), or return None to read it line by line.

    The first line must be the header (not blank, not a comment).  The
    view is tried on the body as it is, with no copy, then once more on
    the body normalised as the line reader sees it: each CRLF made LF,
    blank lines and a leading newline dropped, a final newline added.  A
    bad header, or a body the view reads in neither form (any value of
    more than one digit, a comment, a stray carriage return), gives
    None, so that its values or its error message come from the line
    reader.
    """
    if isinstance(raw, str):
        try:
            raw = raw.encode("utf-8")
        except UnicodeEncodeError:
            return None
    end = raw.find(b"\n")
    if end < 0:
        return None
    header = raw[:end].removesuffix(b"\r")
    if not header or header.startswith(b"#") or b"\r" in header:
        return None
    try:
        variables = _parse_header(header.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    data = _fixed_width(raw, end + 1, len(variables))
    if data is None:
        body = raw[end + 1:].replace(b"\r\n", b"\n")
        while b"\n\n" in body:
            body = body.replace(b"\n\n", b"\n")
        body = body.removeprefix(b"\n")
        if not body.endswith(b"\n"):
            body += b"\n"
        data = _fixed_width(body, 0, len(variables))
        if data is None:
            return None
    ds = object.__new__(Dataset)
    ds._adopt(*_schema(variables), data, unsigned=True)
    return ds


def _fixed_width(raw: bytes, start: int, width: int) -> np.ndarray | None:
    """The values of ``raw[start:]`` as an (n, width) column-major int64
    array when it is n >= 1 rows of ``width`` one-digit fields, each field
    followed by a comma or, the row's last, by a newline; else None.

    Such a body is a grid of little-endian uint16 (digit, separator)
    pairs, ``width`` to a row.  Subtracting each column's ``"0"`` plus
    its separator from the pairs wraps every other pair to 10 or more,
    so one comparison checks every byte, the row width and the final
    newline, and what is left are the values.
    """
    size = len(raw) - start
    if size == 0 or size % (2 * width):
        return None
    pairs = np.frombuffer(raw, dtype="<u2", offset=start).reshape(-1, width)
    separators = np.full(width, ord(","), dtype=np.uint16)
    separators[-1] = ord("\n")
    values = pairs - (separators << 8 | ord("0"))
    if values.max() >= 10:
        return None
    return values.astype(np.int64, order="F")


def save_csv(ds: Dataset, dest) -> None:
    """Write a dataset in the canonical CSV form (path or text stream)."""
    text = ds.to_csv_text()
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


_INT64_MAX = int(np.iinfo(np.int64).max)


class ContingencyTable:
    """Sparse joint counts of one variable subset.

    Only observed configurations are stored, as ascending mixed-radix
    ``codes`` (first column most significant) with their ``frequencies``;
    every absent configuration has count zero.  `n` is the total number
    of rows, which equals the sum of stored counts.  Codes are int64 when
    the subset's joint arity fits, Python ints otherwise.

    ``codes`` and ``frequencies`` are parallel arrays, the counts int64.
    ``cells``, equality and repr decode the codes into Python ints;
    scores and margins never decode.  Tables come only from ``counts``
    and from projections of its tables, through ``_from_codes``.
    """

    __slots__ = ("subset", "n", "codes", "frequencies")

    @classmethod
    def _from_codes(cls, subset: VarSet, n: int, codes: np.ndarray,
                    frequencies: np.ndarray) -> "ContingencyTable":
        """A table whose codes and counts this module computed: no validation."""
        table = object.__new__(cls)
        table.subset, table.n, table.codes, table.frequencies = subset, n, codes, frequencies
        return table

    @property
    def cells(self) -> dict[tuple[int, ...], int]:
        """Observed configurations and their counts, in code order."""
        arities = self.subset.arities
        return {_decode(code, arities): c
                for code, c in zip(self.codes.tolist(), self.frequencies.tolist())}

    @property
    def gamma(self) -> int:
        """Number of joint configurations in the declared state space."""
        return self.subset.joint_arity

    @property
    def num_nonzero(self) -> int:
        return len(self.frequencies)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return (self.subset, self.n, self.cells) == (other.subset, other.n, other.cells)

    def __repr__(self) -> str:
        return f"ContingencyTable(subset={self.subset!r}, cells={self.cells!r}, n={self.n!r})"


# A batch of margin codes holds at most this many: its arrays take a few
# MB, however many margins are asked for at once.  Exact search counts
# its roots from at most an eighth of this many rows, and a batch of its
# lattice tables holds at most an eighth of this many stored cells (or is
# one larger table): a pass over a batch costs a few numpy calls, and
# scoring it one tally of its (table, count) histogram and one gamma
# evaluation per distinct (count, weight) pair.  Chunks of this many
# cells raised peak RSS on 12 binary columns x 1000 rows from 39 to 53 MB.
_BATCH_CELLS = 2**17

# Keys spanning at most this many values per key are tallied with one
# bincount over the whole span; sparser ones are sorted instead.  A tally
# costs O(keys + span), a sort O(keys log keys).
_DENSE_CELLS_PER_ROW = 2


def _tally(keys: np.ndarray, span, weights=None, aligned: bool = False):
    """The distinct ``keys`` (int64, or Python ints past it) in ``0 .. span - 1``,
    ascending, with the int64 sums of their ``weights``, summed in float64 (exact
    below 2**53; one each by default), and with ``aligned`` each key's sum, else None.
    """
    if span <= _DENSE_CELLS_PER_ROW * len(keys):
        tally = np.bincount(keys, weights, minlength=span).astype(np.int64, copy=False)
        distinct = np.flatnonzero(tally)
        return distinct, tally[distinct], tally[keys] if aligned else None
    if weights is None and not aligned:
        return np.unique(keys, return_counts=True) + (None,)
    distinct, where = np.unique(keys, return_inverse=True)
    sums = np.bincount(where, weights, minlength=len(distinct)).astype(np.int64, copy=False)
    return distinct, sums, sums[where] if aligned else None


def _digits(table: ContingencyTable, width: int) -> np.ndarray:
    """A table's stored cells as a (cells, width) int64 digit matrix in the
    layout of a dataset's rows: column i holds each cell's value of
    dataset column i, zero for a column outside the table.

    The codes are decoded from the last column up with ``%`` and ``//``;
    the first column takes what is left, with no modulus, so the codes of
    a joint arity of 2**63 stay int64.
    """
    out = np.zeros((table.num_nonzero, width), dtype=np.int64, order="F")
    s, rest = table.subset, table.codes
    for i, a in zip(s.indices[:0:-1], s.arities[:0:-1]):
        out[:, i] = rest % a
        rest = rest // a
    if s.indices:
        out[:, s.indices[0]] = rest
    return out


def _project(digits: np.ndarray, weights, arities: Sequence[int], masks: Sequence[int],
             aligned: bool = False):
    """The margins of a digit matrix on each bit mask of ``masks`` (bit i is
    column i), in ``_drop_columns``' layout: codes and counts back to back,
    margin k in ``bounds[k]:bounds[k + 1]`` with its codes ascending.

    ``digits`` holds one cell per row and one dataset column per column,
    whose arity is ``arities[i]``: a dataset's rows, each counted once
    (``weights`` None), or a table's ``_digits`` with its counts as
    ``weights``.  The codes are int64 when every margin's joint arity is
    at most 2**63, else Python ints.  With ``aligned``, row k of a
    (len(masks), len(digits)) array holds each cell's count on margin k;
    else that array is None.

    A margin's codes are built by a multiply-add over its columns, the
    first most significant.  The margins go in chunks of at most
    ``_BATCH_CELLS`` codes (or one margin), and a chunk closes before its
    joint arities sum past 2**63; every margin's codes are shifted past
    those of the margins before it, and one ``_tally`` groups a chunk.
    """
    cells = len(digits)
    per_chunk = max(1, _BATCH_CELLS // max(1, cells))
    chunks = []  # per chunk: its margins' columns and the offsets of their codes
    for columns in map(_columns, masks):
        span = math.prod(arities[i] for i in columns)
        if chunks and len(chunks[-1][0]) < per_chunk and chunks[-1][1][-1] + span <= 2**63:
            chunks[-1][0].append(columns)
            chunks[-1][1].append(chunks[-1][1][-1] + span)
        else:
            chunks.append(([columns], [0, span]))
    parts = []
    for chunk, offsets in chunks:
        dtype = np.int64 if offsets[-1] - 1 <= _INT64_MAX else object
        keys = np.zeros((len(chunk), cells), dtype=dtype)
        for row, columns, offset in zip(keys, chunk, offsets):
            for k, i in enumerate(columns):
                if k:
                    row *= arities[i]
                row += digits[:, i].astype(dtype, copy=False)
            if offset:
                row += offset
        distinct, sums, at = _tally(keys.reshape(-1), offsets[-1],
                                    None if weights is None else np.tile(weights, len(chunk)),
                                    aligned)
        # the inner offsets in the keys' dtype: a list ending in 2**63 would
        # make searchsorted compare in float64
        inner = np.array(offsets[:-1], dtype=dtype)
        bounds = np.append(np.searchsorted(distinct, inner), len(distinct))
        distinct = distinct - np.repeat(inner, np.diff(bounds))
        parts.append((distinct, sums, bounds, None if at is None else at.reshape(keys.shape)))
    if len(parts) == 1:
        return parts[0]
    ends = np.cumsum([0] + [len(p[1]) for p in parts])
    return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
            np.concatenate([[0]] + [p[2][1:] + end for p, end in zip(parts, ends)]),
            np.concatenate([p[3] for p in parts]) if aligned else None)


def _drop_columns(codes: np.ndarray, frequencies: np.ndarray, bounds: np.ndarray, high, low,
                  aligned: bool = False):
    """One column summed out of every table, in ``_project``'s layout.

    ``codes`` (int64 or Python ints) and ``frequencies`` hold tables back
    to back, table t in ``bounds[t]:bounds[t + 1]``, none of them empty.
    The column's digit has place value ``low`` in a table's codes and
    ``high`` is that times its arity: Python ints shared by every table
    (numpy then divides by a scalar), or one per table, repeated per
    cell.  So a code c maps to ``c // high * low + c % low``.  Returns the
    margins' codes, counts and bounds in the same layout, each margin's
    codes ascending, and with ``aligned`` each cell's count on its margin
    (else None).  Every margin's codes are shifted past the ones before
    it, and one ``_tally`` groups them all.

    Codes are divided as Python ints when they or a place value pass
    int64.  The keys, and so the returned codes, are int64 when the
    margins' summed spans fit, else Python ints.
    """
    sizes = np.diff(bounds)
    per_table = not isinstance(high, int)
    if codes.dtype == np.int64 and max(high if per_table else [high]) > _INT64_MAX:
        codes = codes.astype(object)
    if per_table:
        high, low = (np.repeat(np.array(v, dtype=codes.dtype), sizes) for v in (high, low))
    projected = codes // high * low + codes % low
    # each margin's codes lie below its largest one plus one; the offsets
    # are summed in Python ints
    spans = np.maximum.reduceat(projected, bounds[:-1]) + 1
    offsets = list(itertools.accumulate(spans.tolist(), initial=0))
    dtype = np.int64 if offsets[-1] <= _INT64_MAX else object
    offsets = np.array(offsets, dtype=dtype)
    keys, sums, at = _tally(np.repeat(offsets[:-1], sizes) + projected.astype(dtype, copy=False),
                            offsets[-1], frequencies.astype(np.float64), aligned)
    out_bounds = np.searchsorted(keys, offsets)
    return keys - np.repeat(offsets[:-1], np.diff(out_bounds)), sums, out_bounds, at


def _decode(code: int, arities: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for a in reversed(arities):
        code, v = divmod(code, a)
        out.append(v)
    return tuple(reversed(out))


def counts(ds: Dataset, subset) -> ContingencyTable:
    """Joint counts of a variable subset: its one margin of the dataset's rows
    (``_project``).

    Codes are int64 while the subset's joint arity fits and Python ints
    past it, so no code wraps.  The empty subset yields the single code 0
    with count n.  Codes come in ascending (lexicographic) order.
    """
    s = ds.subset(subset)
    codes, frequencies, _, _ = _project(ds.data, None, ds.arities, [sum(1 << i for i in s)])
    return ContingencyTable._from_codes(s, ds.n, codes, frequencies)


def empirical_cond_entropy(ds: Dataset, x: VarSpec, given, base="e") -> float:
    """Empirical conditional entropy H(X | U) of the observed rows.

    Terms with zero joint count contribute zero.  ``base`` selects the
    reporting unit (2 for bits, "e" for nats); all conditioning happens
    on observed counts, never on the declared state space.
    """
    divisor = log_base_divisor(base)
    _, _, (xu, aligned, _) = _family_counts(ds, x, given)
    return _cond_entropy(ds.n, xu, aligned) / divisor


def _parents_of(ds: Dataset, x: VarSpec, parents) -> tuple[int, VarSet]:
    """The column of child ``x`` and its resolved parent set, which may not hold it."""
    xi = ds.index_of(x)
    u = ds.subset(parents)
    if xi in u:
        raise ValueError(f"variable {x!r} cannot be its own parent")
    return xi, u


def _family_counts(ds: Dataset, x: VarSpec, parents):
    """The child's column, its parent set U, and ``_sum_child_out`` of one
    count of the child with U."""
    xi, u = _parents_of(ds, x, parents)
    mask = sum(1 << i for i in u)
    joint = counts(ds, _varset(mask | 1 << xi, ds.arities))
    bounds = np.array([0, joint.num_nonzero])
    (family,) = _sum_child_out(joint.codes, joint.frequencies, bounds, ds.arities, xi, [mask])
    return xi, u, family


def _sum_child_out(codes: np.ndarray, frequencies: np.ndarray, bounds: np.ndarray,
                   arities: Sequence[int], child: int, parents: Sequence[int]):
    """Sum column ``child`` out of child-and-U tables stored back to back.

    Table t, in ``bounds[t]:bounds[t + 1]`` of ``codes`` and
    ``frequencies`` (``_project``'s layout), counts the child with the
    columns of parent mask ``parents[t]`` (bit i is column i, whose arity
    is ``arities[i]``).  One ``_drop_columns`` call sums the child out of
    all of them.  For each table this gives three lists of Python ints:
    its counts in code order, each of those cells' count on U, and U's
    observed counts.
    """
    # the child's place value in each table: the arities of the parents after it
    low = [math.prod(arities[i] for i in _columns(mask) if i > child) for mask in parents]
    _, u_counts, u_bounds, aligned = _drop_columns(
        codes, frequencies, bounds, [p * arities[child] for p in low], low, aligned=True)
    xu, aligned, u_counts = frequencies.tolist(), aligned.tolist(), u_counts.tolist()
    b, ub = bounds.tolist(), u_bounds.tolist()
    return [(xu[b[t]:b[t + 1]], aligned[b[t]:b[t + 1]], u_counts[ub[t]:ub[t + 1]])
            for t in range(len(parents))]


def _cond_entropy(n: int, frequencies: Sequence[int], margin: Sequence[int]) -> float:
    """H(X | U) in nats from the X+U counts of n rows, in code order, and each
    of those cells' count on the U margin.

    Summed cell by cell in code order, so every caller gets the same float.
    """
    h = 0.0
    for c, cu in zip(frequencies, margin):
        h -= (c / n) * math.log(c / cu)
    return h
