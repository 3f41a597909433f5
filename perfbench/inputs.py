"""Seeded input generators for the benchmark.

Every input is drawn from ``numpy.random.Generator(PCG64(seed))``, so one
seed always gives the same files.  Data comes from a planted Bayesian
network sampled in topological order; the planted parents are written
next to each CSV as ``<name>.parents.json`` so that a reader (and the
output checks) can compare what was learned with what was planted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Conditional probabilities stay away from 0 and 1 so that every column
# keeps some entropy given its parents, whatever the seed.  That keeps
# the number of distinct cells per subset, and hence the work per seed,
# within a narrow band.
_P_LOW, _P_HIGH = 0.15, 0.85


@dataclass(frozen=True)
class PlantedData:
    """A generated table together with the network that produced it."""

    names: tuple[str, ...]
    arities: tuple[int, ...]
    data: np.ndarray  # (n, len(names)) small non-negative integers
    parents: dict[str, list[str]]
    deterministic: tuple[str, ...] = ()


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _sample_column(rng, data, arity, parent_cols, parent_arities) -> np.ndarray:
    """Draw one column given its parents from a random conditional table."""
    n = data.shape[0]
    code = np.zeros(n, dtype=np.int64)
    configs = 1
    for col, a in zip(parent_cols, parent_arities):
        code = code * a + data[:, col]
        configs *= a
    # One probability vector per parent configuration, each entry kept in
    # [_P_LOW, _P_HIGH] before normalising.
    weights = rng.uniform(_P_LOW, _P_HIGH, size=(configs, arity))
    cumulative = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    u = rng.random(n)
    return (u[:, None] >= cumulative[code, :-1]).sum(axis=1)


def planted_network(
    seed: int, arities, n_rows: int, max_parents: int = 2, xor_of: dict | None = None
) -> PlantedData:
    """Sample ``n_rows`` rows from a random network over columns V1..Vk.

    Without ``xor_of``, each node draws 0..max_parents parents among the
    nodes before it in a random topological order.  ``xor_of`` maps a
    binary column index to two binary column indices it is the exclusive
    or of; the order is then the column order, so those two come first.
    """
    rng = _rng(seed)
    xor_of = xor_of or {}
    k = len(arities)
    names = tuple(f"V{i + 1}" for i in range(k))
    order = np.arange(k) if xor_of else rng.permutation(k)
    data = np.zeros((n_rows, k), dtype=np.int64)
    parents: dict[str, list[str]] = {}
    for pos, node in enumerate(order.tolist()):
        if node in xor_of:
            a, b = xor_of[node]
            parents[names[node]] = [names[a], names[b]]
            data[:, node] = data[:, a] ^ data[:, b]
            continue
        size = int(rng.integers(0, min(max_parents, pos) + 1))
        chosen = sorted(rng.choice(order[:pos], size=size, replace=False).tolist()) if size else []
        parents[names[node]] = [names[p] for p in chosen]
        data[:, node] = _sample_column(rng, data, arities[node], chosen, [arities[p] for p in chosen])
    return PlantedData(
        names,
        tuple(arities),
        data,
        {name: parents[name] for name in names},
        deterministic=tuple(names[i] for i in sorted(xor_of)),
    )


LEARN_ARITIES = (2,) * 12
LEARN_ROWS = 1000

# V8 = V1 xor V2.  Every parent set of V8 that holds V1 and V2 then has
# zero conditional entropy with or without further columns, so those
# nested pairs pass the audit's entropy premise and reach the score
# comparison, where the split-weight prior can prefer the larger set.
TALL_ARITIES = (2, 2, 3, 2, 3, 2, 3, 2, 2, 3)
TALL_XOR = {7: (0, 1)}
TALL_ROWS = 200_000


def learn_wide_data(seed: int) -> PlantedData:
    """12 binary columns, 1000 rows, at most 2 planted parents per node."""
    return planted_network(seed, LEARN_ARITIES, LEARN_ROWS)


def tall_queries_data(seed: int, n_rows: int = TALL_ROWS) -> PlantedData:
    """10 columns, a planted network with V8 = V1 xor V2."""
    return planted_network(seed, TALL_ARITIES, n_rows, xor_of=TALL_XOR)


def csv_bytes(planted: PlantedData) -> bytes:
    """The dataset in bdscore's CSV format (every value is one digit)."""
    if max(planted.arities) > 10:
        raise ValueError("single-digit encoding needs arities of at most 10")
    header = ",".join(f"{n}:{a}" for n, a in zip(planted.names, planted.arities)) + "\n"
    rows, cols = planted.data.shape
    body = np.empty((rows, 2 * cols), dtype=np.uint8)
    body[:, 0::2] = planted.data + ord("0")
    body[:, 1::2] = ord(",")
    body[:, -1] = ord("\n")
    return header.encode("ascii") + body.tobytes()


def write_planted(planted: PlantedData, directory: Path, stem: str) -> Path:
    """Write ``<stem>.csv`` and ``<stem>.parents.json``; return the CSV path."""
    csv_path = directory / f"{stem}.csv"
    csv_path.write_bytes(csv_bytes(planted))
    meta = {"parents": planted.parents, "deterministic": list(planted.deterministic)}
    (directory / f"{stem}.parents.json").write_text(json.dumps(meta, indent=1) + "\n")
    return csv_path
