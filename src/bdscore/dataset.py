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

import io
import itertools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, Union

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


def _schema(variables: Sequence[tuple[str, int]]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    names = tuple(str(name) for name, _ in variables)
    arities = tuple(int(arity) for _, arity in variables)
    if len(names) == 0:
        raise DataFormatError("a dataset needs at least one variable")
    if len(set(names)) != len(names):
        raise DataFormatError(f"duplicate variable names in {names}")
    for name, arity in zip(names, arities):
        if arity < 2:
            raise DataFormatError(f"variable {name!r}: declared arity must be at least 2, got {arity}")
    return names, arities


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
            if not isinstance(v, (numbers.Integral, np.bool_)) and not (
                    isinstance(v, numbers.Real) and math.isfinite(v) and float(v).is_integer()):
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
        table = np.asarray(rows)
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
        for j, (_, _, values) in enumerate(columns):
            col = np.asarray(values)
            if not np.can_cast(col.dtype, np.int64):
                return cls(variables, list(zip(*(values for _, _, values in columns))))
            data[:, j] = col
        ds = object.__new__(cls)
        ds._adopt(names, arities, data)
        return ds

    def _adopt(self, names: tuple[str, ...], arities: tuple[int, ...], data: np.ndarray) -> None:
        """Validate an int64 table this instance owns, freeze it, and keep it."""
        _check_shape(data, names)
        if data.shape[0] == 0:
            raise DataFormatError("dataset has no data rows")
        lowest, highest = data.min(axis=0).tolist(), data.max(axis=0).tolist()
        if min(lowest) < 0 or any(h >= a for h, a in zip(highest, arities)):
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
        if isinstance(vars, (str, int, np.integer)):
            vars = [vars]
        idx = sorted({self.index_of(v) for v in vars})
        return VarSet(tuple(idx), tuple(self._arities[i] for i in idx))

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
    """Read a dataset from a path, a text stream, or a byte stream.

    A header line followed by a body of nothing but ASCII digits, commas
    and line ends (LF or CRLF), with every row full and no value longer
    than 18 digits, is parsed by one vectorised pass over its bytes (see
    ``_load_plain``).  Every other input is read line by line, which
    yields the same dataset and is the only source of error messages for
    malformed bodies.
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


_PLAIN_BODY = b"0123456789,\n"
# Fields of at most this many digits always fit in int64.
_PLAIN_DIGITS = 18


def _load_plain(raw) -> Dataset | None:
    """Parse a plain CSV with one vectorised pass over the body's bytes,
    or return None to read it line by line.

    Plain means: the first line is the header (not blank, not a comment)
    and everything after it is ASCII digits, commas and line ends, with at
    least one row.  A line end is a newline, or a carriage return right
    before one; any other carriage return is not plain.  Blank body lines
    are skipped here as they are line by line.  A bad header, an empty
    field, a ragged row or a field of more than ``_PLAIN_DIGITS`` digits
    gives None, so that its error message (or its value) comes from the
    line reader.  The values are written straight into the dataset's
    column-major array.
    """
    if isinstance(raw, str):
        try:
            raw = raw.encode("utf-8")
        except UnicodeEncodeError:
            return None
    end = raw.find(b"\n")
    if end < 0:
        return None
    header, body = raw[:end].removesuffix(b"\r"), raw[end + 1:]
    if b"\r" in body:
        body = body.replace(b"\r\n", b"\n")
    if (not header or header.startswith(b"#") or b"\r" in header
            or body.translate(None, _PLAIN_BODY)):
        return None
    while b"\n\n" in body:
        body = body.replace(b"\n\n", b"\n")
    body = body.removeprefix(b"\n")
    if not body:
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    try:
        variables = _parse_header(header.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    data = _plain_table(body, len(variables))
    if data is None:
        return None
    ds = object.__new__(Dataset)
    ds._adopt(*_schema(variables), data)
    return ds


def _plain_table(body: bytes, width: int) -> np.ndarray | None:
    """A plain body's values as an (n, width) column-major int64 array,
    or None if a field is empty or longer than ``_PLAIN_DIGITS`` digits,
    or a row does not hold ``width`` fields.

    ``body`` ends in a newline and has no blank line.  Every byte below
    ``"0"`` is the comma or newline that ends a field.  A body holding
    ``rows`` newlines and ``rows * width`` fields has no short or long
    row exactly when every ``width``-th separator is a newline, even when
    a short row and a long one make the total right.  When each field is
    one digit the digits sit at the even offsets and no positions are
    built.  Otherwise each field's last digit is found once, and each
    column adds its higher digits only to the fields that have them.
    """
    b = np.frombuffer(body, dtype=np.uint8)
    sep = b < ord("0")
    if sep[0] or (sep[1:] & sep[:-1]).any():  # an empty field
        return None
    fields, rows = int(np.count_nonzero(sep)), body.count(b"\n")
    if fields != rows * width:
        return None
    if len(body) == 2 * fields:  # every field is one digit
        if not (b[2 * width - 1::2 * width] == ord("\n")).all():
            return None
        data = np.empty((rows, width), dtype=np.int64, order="F")
        np.subtract(b[0::2].reshape(rows, width), ord("0"), out=data)
        return data
    last = np.flatnonzero(sep[1:])  # the last digit of each field
    del sep
    if not (b[last[width - 1::width] + 1] == ord("\n")).all():
        return None
    data = np.empty((rows, width), dtype=np.int64, order="F")
    for j in range(width):
        column = data[:, j]
        np.subtract(b[last[j::width]], ord("0"), out=column)
        # the rows whose field has a digit worth 10**k, and where it is;
        # before the first field, index -1 reads the final newline
        at = last[j::width] - 1
        row = np.flatnonzero(b[at] >= ord("0"))
        at = at[row]
        for k in range(1, _PLAIN_DIGITS):
            if not len(row):
                break
            column[row] += (b[at] - ord("0")).astype(np.int64) * 10**k
            at -= 1
            more = np.flatnonzero(b[at] >= ord("0"))
            row, at = row[more], at[more]
        if len(row):
            return None
    return data


def save_csv(ds: Dataset, dest) -> None:
    """Write a dataset in the canonical CSV form (path or text stream)."""
    text = ds.to_csv_text()
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


_INT64_MAX = int(np.iinfo(np.int64).max)


def _code_dtype(s: VarSet):
    """int64 when every joint code of ``s`` fits in it, else Python ints."""
    return np.int64 if s.joint_arity - 1 <= _INT64_MAX else object


class ContingencyTable:
    """Sparse joint counts of one variable subset.

    Only observed configurations are stored, as ascending mixed-radix
    ``codes`` (first column most significant) with their ``frequencies``;
    every absent configuration has count zero.  `n` is the total number
    of rows, which equals the sum of stored counts.  Codes are int64 when
    the subset's joint arity fits, Python ints otherwise.

    ``codes`` and ``frequencies`` are parallel arrays, the counts int64
    however the table was made.  ``cells``, ``items``, ``count``,
    equality and repr decode the codes into Python ints; scores and
    margins never decode.  The public constructor validates every cell,
    then encodes it.
    """

    __slots__ = ("subset", "n", "codes", "frequencies")

    def __init__(self, subset: VarSet, cells: Mapping[tuple[int, ...], int], n: int):
        width = len(subset)
        total = 0
        for cell, c in cells.items():
            if len(cell) != width:
                raise ValueError(f"cell {cell} has wrong width, expected {width}")
            if any(not 0 <= v < a for v, a in zip(cell, subset.arities)):
                raise ValueError(f"cell {cell} outside the declared state space")
            if not (isinstance(c, numbers.Integral) and c > 0):
                raise ValueError(f"cell {cell} needs a positive integer count, got {c!r}")
            total += c
        if total != n:
            raise ValueError(f"cell counts sum to {total}, expected n={n}")
        if n > _INT64_MAX:
            raise ValueError(f"n={n} does not fit in a 64-bit count")
        coded = sorted((_encode(cell, subset.arities), c) for cell, c in cells.items())
        self.subset = subset
        self.n = n
        self.codes = np.array([code for code, _ in coded], dtype=_code_dtype(subset))
        self.frequencies = np.array([c for _, c in coded], dtype=np.int64)

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

    def count(self, cell: tuple[int, ...]) -> int:
        return self.cells.get(tuple(cell), 0)

    def items(self):
        return self.cells.items()

    def marginalize(self, sub: VarSet) -> "ContingencyTable":
        """Sum counts down onto a subset of this table's columns."""
        codes, sums, _ = _project(self.codes, self.frequencies, self.subset, sub)
        return ContingencyTable._from_codes(sub, self.n, codes, sums)

    def aligned_margin(self, sub: VarSet) -> list[int]:
        """For each stored cell, in order, its count on the ``sub`` margin."""
        return _project(self.codes, self.frequencies, self.subset, sub, aligned=True)[2].tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return (self.subset, self.n, self.cells) == (other.subset, other.n, other.cells)

    def __repr__(self) -> str:
        return f"ContingencyTable(subset={self.subset!r}, cells={self.cells!r}, n={self.n!r})"


# Keys spanning at most this many values per key are tallied with one
# bincount over the whole span; sparser ones are sorted instead.  A tally
# costs O(keys + span), a sort O(keys log keys).
_DENSE_CELLS_PER_ROW = 2


def _tally(keys: np.ndarray, span, weights=None, aligned: bool = False):
    """The distinct ``keys`` (int64, or Python ints past it) in ``0 .. span - 1``,
    ascending, with the int64 sums of their float64 ``weights`` (exact below
    2**53; one each by default), and with ``aligned`` each key's sum, else None.
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


def _project(codes: np.ndarray, frequencies, subset: VarSet, sub: VarSet, aligned: bool = False):
    """Codes and counts of the ``sub`` margin of some stored cells of ``subset``,
    and with ``aligned`` each stored cell's count on that margin (else None).

    Each code is projected onto ``sub``'s columns by building the kept
    digits up, one run of adjacent kept columns at a time, so dropping
    one column costs two runs whatever the width.  The projected codes
    are grouped by ``_tally``.
    """
    arities = subset.arities
    dtype = _code_dtype(sub)
    projected = np.zeros(len(codes), dtype=dtype)
    keep = subset.positions_of(sub)
    for _, run in itertools.groupby(enumerate(keep), lambda item: item[1] - item[0]):
        run = [p for _, p in run]
        span = math.prod(arities[run[0]:run[-1] + 1])
        digits = codes // math.prod(arities[run[-1] + 1:]) % span
        projected *= span
        projected += digits.astype(dtype, copy=False)
    return _tally(projected, sub.joint_arity, np.asarray(frequencies, dtype=np.float64), aligned)


def _drop_columns(codes: np.ndarray, frequencies: np.ndarray, bounds: np.ndarray,
                  tables: np.ndarray, drop: np.ndarray, arities: Sequence[int]):
    """Many one-column margins at once, in ``_project``'s code format.

    ``codes`` and ``frequencies`` hold int64 tables back to back, table t
    in ``bounds[t]:bounds[t + 1]``, none of them empty.  Margin k sums
    column h = ``drop[k]`` out of table ``tables[k]``, which must hold
    every column after h, and whose joint arity must fit in int64
    (``arities`` are the dataset's, one per column).  So a code c maps to
    ``c // prod(arities[h:]) * prod(arities[h + 1:]) + c % prod(arities[h + 1:])``.
    Returns the margins' codes, counts and bounds in the same layout,
    each margin's codes ascending.  Every margin's codes are shifted past
    the ones before it, and the level is grouped by one ``_tally``.
    """
    suffix = [1]
    for a in reversed(arities):
        suffix.append(suffix[-1] * a)
    suffix = np.array(suffix[::-1], dtype=object)
    high = suffix[drop].astype(np.int64)
    low = suffix[drop + 1].astype(np.int64)
    starts = bounds[tables]
    sizes = bounds[tables + 1] - starts
    margin = np.repeat(np.arange(len(tables)), sizes)
    firsts = np.cumsum(sizes) - sizes
    at = np.arange(len(margin)) + np.repeat(starts - firsts, sizes)
    projected = codes[at]
    projected = projected // high[margin] * low[margin] + projected % low[margin]
    # each margin's codes lie below its largest one plus one; the offsets
    # are summed in Python ints, and stay so when their total passes int64
    spans = np.maximum.reduceat(projected, firsts) + 1
    offsets = np.cumsum([0] + spans.tolist(), dtype=object)
    if offsets[-1] <= _INT64_MAX:
        offsets = offsets.astype(np.int64)
    keys, sums, _ = _tally(offsets[margin] + projected, offsets[-1],
                           frequencies[at].astype(np.float64))
    out_bounds = np.searchsorted(keys, offsets)
    codes = keys - np.repeat(offsets[:-1], np.diff(out_bounds))
    return codes.astype(np.int64, copy=False), sums, out_bounds


def _encode(cell: tuple[int, ...], arities: tuple[int, ...]) -> int:
    code = 0
    for v, a in zip(cell, arities):
        code = code * a + int(v)
    return code


def _decode(code: int, arities: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for a in reversed(arities):
        code, v = divmod(code, a)
        out.append(v)
    return tuple(reversed(out))


def counts(ds: Dataset, subset) -> ContingencyTable:
    """Joint counts of a variable subset.

    Each row's mixed-radix code is built in place from whole columns, in
    int64 while the subset's joint arity fits and in Python ints past it,
    so no code wraps.  The empty subset yields the single code 0 with
    count n.  Codes come in ascending (lexicographic) order.
    """
    s = ds.subset(subset)
    n = ds.n
    dtype = _code_dtype(s)
    if len(s) == 0:
        return ContingencyTable._from_codes(s, n, np.zeros(1, dtype=dtype),
                                            np.array([n], dtype=np.int64))
    data = ds.data
    code = data[:, s.indices[0]].astype(dtype)
    for i, a in zip(s.indices[1:], s.arities[1:]):
        code *= a
        code += data[:, i].astype(dtype, copy=False)
    codes, frequencies, _ = _tally(code, s.joint_arity)
    return ContingencyTable._from_codes(s, n, codes, frequencies)


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
    joint = counts(ds, u.union(ds.subset([xi])))
    return _cond_entropy(joint, joint.aligned_margin(u)) / divisor


def _cond_entropy(joint: ContingencyTable, margin: Sequence[int]) -> float:
    """H(X | U) in nats from the X+U counts and each stored cell's U-margin count.

    Summed cell by cell in code order, so every caller gets the same float.
    """
    n = joint.n
    h = 0.0
    for c, cu in zip(joint.frequencies.tolist(), margin):
        h -= (c / n) * math.log(c / cu)
    return h
