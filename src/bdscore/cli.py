"""Command-line surface: scoring, CI decisions, audits, learning,
dataset generation, and the sweep experiments behind the package's
claims about split-weight versus flat-weight priors.

Reports are JSON (schema_version field, inputs echoed); sweeps emit
plot-ready CSV.  Every float is printed with repr-faithful precision
(17 significant digits) so re-ingesting a report loses nothing.  Each
subcommand's handler returns its text and exit code, and ``main``
writes the text, to stdout or the ``-o`` path, before it returns.

Exit codes: 0 success, 2 bad input (unreadable data, unknown variable,
invalid parameter), 3 an audit that found violations.  Finding
violations is a successful run; the distinct code is for scripting.

Randomized subcommands draw from numpy's PCG64 generator with an
explicit 64-bit seed; the same seed and flags give byte-identical
output on any platform and any number of CPUs (dn-sweep draws its stream
in parts on threads, each part's generator advanced to its offset), and
with numpy's SIMD dispatch on or off: exact gamma sums past 64 terms take
numpy's vectorised log, and the pinned sweeps print the same bytes when
``NPY_DISABLE_CPU_FEATURES`` switches off every dispatched kernel.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import itertools
import math
import os
import sys
import threading
from typing import Callable, Iterator, TypeVar

import numpy as np

from .citest import (_check_rows, _correction, _decide, _margins, _pair_margins, _residual,
                     _scores, _statistics)
from .dataset import _INT64_MAX, UnknownVariableError, empirical_cond_entropy, load_csv
from .numerics import _SUM_CHUNK
from .regularity import DeterministicSpec, _j_profiles, audit, make_deterministic_dataset
from .scores import (
    BDeu,
    Flat,
    Jeffreys,
    PriorSpec,
    conditional_score_local,
    conditional_score_ratio,
    marginal_score,
)
from .search import (
    _learn,
    _log_score,
    _marginals,
    _n3_classes,
    _require_three,
    class_posterior,
)

__all__ = ["EXIT_INPUT_ERROR", "EXIT_OK", "EXIT_VIOLATIONS", "SCHEMA_VERSION", "main", "main_entry"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VIOLATIONS = 3

MAX_SEED = 2**64 - 1


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to emit non-finite value {x!r}")
    return f"{x:.17g}"


def _json_text(obj, indent: int = 0) -> str:
    """Serialize a report with floats at full precision.

    The stdlib encoder offers no hook for float formatting, so this
    walks the (plain dict/list/scalar) report tree itself.
    """
    import json as _json

    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{_json.dumps(k)}: {_json_text(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        # "-0" would read back as the int 0
        return "-0.0" if obj == 0.0 and math.copysign(1.0, obj) < 0 else _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _report(command: str, args: argparse.Namespace, fields: dict) -> str:
    """A JSON report: the schema version, command and dataset, then ``fields``."""
    envelope = {"schema_version": SCHEMA_VERSION, "command": command, "dataset": args.data}
    return _json_text({**envelope, **fields}) + "\n"


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows) + "\n"


def _parse_names(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _parse_int_map(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _prior(args: argparse.Namespace) -> tuple[PriorSpec, dict]:
    """The prior the ``--prior`` flags name, and its echo in a report."""
    if args.prior == "bdeu":
        return BDeu(ess=args.ess), {"kind": "bdeu", "ess": args.ess}
    if args.prior == "custom":
        return Flat(args.custom_weight), {"kind": "custom", "weight": args.custom_weight}
    return Jeffreys(), {"kind": "jeffreys"}


# ---------------------------------------------------------------- score


def _cmd_score(args: argparse.Namespace) -> tuple[str, int]:
    ds = load_csv(args.data)
    prior, echo = _prior(args)
    if "|" in args.spec:
        child_part, _, parent_part = args.spec.partition("|")
        child = child_part.strip()
        if not child:
            raise ValueError(f"conditional spec needs a child before '|', got {args.spec!r}")
        parents = _parse_names(parent_part)
        if args.form == "ratio":
            value = conditional_score_ratio(ds, child, parents, prior)
        else:
            weighting = "coupled" if args.form == "local-coupled" else "independent"
            value = conditional_score_local(ds, child, parents, prior, parent_weight=weighting)
        spec = {"child": child, "parents": parents, "form": args.form}
    else:
        names = _parse_names(args.spec)
        value = marginal_score(ds, names, prior)
        spec = {"subset": names}
    fields = {"prior": echo, **spec, "log_score": value, "score": math.exp(value)}
    return _report("score", args, fields), EXIT_OK


# -------------------------------------------------------------- entropy


def _cmd_entropy(args: argparse.Namespace) -> tuple[str, int]:
    ds = load_csv(args.data)
    given = _parse_names(args.given)
    value = empirical_cond_entropy(ds, args.of, given, base=args.log_base)
    fields = {"of": args.of, "given": given, "log_base": args.log_base, "value": value}
    return _report("entropy", args, fields), EXIT_OK


# --------------------------------------------------------------- citest


def _cmd_citest(args: argparse.Namespace) -> tuple[str, int]:
    ds = load_csv(args.data)
    prior, echo = _prior(args)
    xs = _parse_names(args.x)
    ys = _parse_names(args.y)
    zs = _parse_names(args.z)
    query = _margins(ds, xs, ys, zs)
    scores = _scores(query, prior)  # each margin scored once, for both
    verdict = _decide(scores, args.p)
    stats = dataclasses.asdict(_statistics(query, scores, prior, args.log_base))
    del stats["prior"]  # echoed in full above
    fields = {
        "prior": echo,
        "x": xs,
        "y": ys,
        "z": zs,
        "p": args.p,
        "independent": verdict.independent,
        "left": verdict.left,
        "right": verdict.right,
        "statistics": stats,
    }
    return _report("citest", args, fields), EXIT_OK


# ---------------------------------------------------------------- audit


def _cmd_audit(args: argparse.Namespace) -> tuple[str, int]:
    ds = load_csv(args.data)
    prior, echo = _prior(args)
    candidates = _parse_names(args.candidates)
    if not candidates:
        candidates = [name for name in ds.names if name != args.child]
    found = audit(
        ds,
        args.child,
        prior,
        candidates,
        max_parent_size=args.max_parents,
        criterion=args.criterion,
    )
    fields = {
        "prior": echo,
        "child": args.child,
        "candidates": candidates,
        "criterion": args.criterion,
        "max_parents": args.max_parents,
        "violation_count": len(found),
        "violations": [
            {
                "smaller_parents": [ds.names[i] for i in v.u.indices],
                "larger_parents": [ds.names[i] for i in v.u_prime.indices],
                "entropy_smaller": v.h_u,
                "entropy_larger": v.h_u_prime,
                "score_smaller": v.score_u,
                "score_larger": v.score_u_prime,
            }
            for v in found
        ],
    }
    return _report("audit", args, fields), EXIT_VIOLATIONS if found else EXIT_OK


# ---------------------------------------------------------------- learn


def _cmd_learn(args: argparse.Namespace) -> tuple[str, int]:
    ds = load_csv(args.data)
    prior, echo = _prior(args)
    if args.classes:
        _require_three(ds)
    cap = ds.num_variables - 1 if args.cap is None else args.cap
    m = _marginals(ds, prior, cap)
    net = _learn(m)
    fields = {
        "prior": echo,
        "cap": cap,
        "parents": {ds.names[v]: [ds.names[p] for p in ps] for v, ps in enumerate(net.parents)},
        "edges": [[ds.names[p], ds.names[v]] for p, v in net.edges()],
        "log_score": _log_score(m, net),
    }
    if args.classes:
        scored = _n3_classes(ds.names, m if cap >= 2 else _marginals(ds, prior, 2))
        posterior = dict(class_posterior(scored))
        fields["classes"] = [
            {"id": label, "log_score": value, "posterior": posterior[label]}
            for label, value in scored
        ]
    return _report("learn", args, fields), EXIT_OK


# ----------------------------------------------------- gen-deterministic


def _repeat_each(arity: int, times: int) -> Iterator[int]:
    """Each source state in order, ``times`` times over, built in one piece on
    the first read: after the spec checks its maps, and refused past memory."""
    states = _in_memory(f"{arity * times} source states", lambda: [0] * (arity * times))
    for z in range(1, arity):
        states[z * times:(z + 1) * times] = [z] * times
    yield from states


def _cmd_gen_deterministic(args: argparse.Namespace) -> tuple[str, int]:
    z_seq = args.z_seq if args.repeat_each is None else _repeat_each(args.z_arity, args.repeat_each)
    # no name holds the spec, so its state tuple is freed before the text is built
    ds = make_deterministic_dataset(DeterministicSpec(
        z_arity=args.z_arity,
        f=args.f,
        g=args.g,
        z_sequence=z_seq,
        x_arity=args.x_arity,
        y_arity=args.y_arity,
    ))
    return ds.to_csv_text(), EXIT_OK


# ----------------------------------------------------------- experiments


T = TypeVar("T")


def _in_memory(what: str, make: Callable[[], T]) -> T:
    """``make()``, with an allocation past memory as an input error about ``what``."""
    try:
        return make()
    except MemoryError:
        raise ValueError(f"{what} do not fit in memory") from None


def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """``rng.random(size)``, with a size past memory as an input error."""
    return _in_memory(f"{size} random draws", lambda: rng.random(size))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _pair_counts(seed: int, grid: list[int]) -> list[tuple[int, int, int]]:
    """dn-sweep's draws: for each ``n`` of ``grid`` in order, two rare
    binary columns of ``n`` rows, x then y, where a row is one when its draw
    of the seeded PCG64 stream falls below ``n ** -0.75``; returned as the
    ones in x, the ones in y and the rows where both are one.

    The stream is drawn in contiguous parts of about equal draw counts, one
    per usable CPU (at most 8), each on a generator advanced past the draws
    of the parts before it, so the counts do not depend on the number of
    parts.  Part 0 runs in the calling thread, the others on threads: numpy
    releases the GIL while it draws, compares and counts.  Every part's
    buffers are allocated here, before any advance, so a grid past memory
    is an input error and the threads allocate nothing large.
    """
    parts = min(_usable_cpus(), len(grid), 8)
    before = [0, *itertools.accumulate(grid)]  # point i comes after 2 * before[i] draws
    # part j starts at the first point with j / parts of the draws before
    # it; the last point may make a part of its own, but no part is empty
    cuts = sorted({bisect.bisect_left(before, j * before[-1] // parts, hi=len(grid) - 1)
                   for j in range(parts)})
    spans = list(zip(cuts, cuts[1:] + [len(grid)]))

    def buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _in_memory(f"{n} random draws",
                          lambda: (np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=bool)))

    work = [(start, stop, buffers(max(grid[start:stop]))) for start, stop in spans]
    rngs = [np.random.Generator(np.random.PCG64(seed).advance(2 * before[start]))
            for start, _, _ in work]
    counts: list = [None] * len(grid)
    errors: list = [None] * len(work)

    def draw(part: int) -> None:
        start, stop, (draws, x_buf, y_buf) = work[part]
        rng = rngs[part]
        try:
            for i in range(start, stop):
                n = grid[i]
                p = float(n) ** -0.75
                x, y = x_buf[:n], y_buf[:n]
                np.less(rng.random(out=draws[:n]), p, out=x)
                np.less(rng.random(out=draws[:n]), p, out=y)
                ones_x, ones_y = np.count_nonzero(x), np.count_nonzero(y)
                counts[i] = (ones_x, ones_y, np.count_nonzero(np.logical_and(x, y, out=y)))
        except BaseException as exc:  # re-raised by the caller, in grid order
            errors[part] = exc

    threads = [threading.Thread(target=draw, args=(part,)) for part in range(1, len(work))]
    try:
        for thread in threads:
            thread.start()
        draw(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return counts


def _cmd_dn_sweep(args: argparse.Namespace) -> tuple[str, int]:
    # a larger n does not fit in the 64-bit counts the margins hold
    if args.n_min < 1 or args.n_max < args.n_min or args.n_max > _INT64_MAX or args.points < 1:
        raise ValueError("grid needs 1 <= n-min <= n-max <= 2**63 - 1 and at least one point")
    grid = _in_memory(f"{args.points} grid points", lambda: [
        int(v) for v in np.rint(np.geomspace(args.n_min, args.n_max, args.points))])
    split = BDeu(ess=args.ess)
    rows = []
    for n, (ones_x, ones_y, both) in zip(grid, _pair_counts(args.seed, grid)):
        m = _pair_margins(n, ones_x, ones_y, both)
        correction = _correction(m, split) / math.log(2.0)
        threshold = 0.5 * math.log2(n)
        above = 1 if correction > threshold else 0
        rows.append(f"{n},{_fmt(correction)},{_fmt(threshold)},{above}")
    return _csv("n,correction,threshold,above", rows), EXIT_OK


def _cmd_jn_vs_r(args: argparse.Namespace) -> tuple[str, int]:
    if args.n < 1:
        raise ValueError(f"n must be at least 1, got {args.n}")
    _check_rows(args.n)
    split, flat = BDeu(ess=args.ess), Jeffreys()
    # a list: Python refuses one past memory with a MemoryError at any
    # length, where numpy refuses an array past its index range otherwise
    grid = _in_memory(f"{args.n // 2 + 1} grid points", lambda: list(range(args.n // 2 + 1)))
    rows = [f"{r},{_fmt(j_split)},{_fmt(j_flat)}" for r, j_split, j_flat in zip(
        grid, _j_profiles(args.n, grid, split), _j_profiles(args.n, grid, flat))]
    return _csv("r,j_bdeu,j_jeffreys", rows), EXIT_OK


def _cmd_residuals(args: argparse.Namespace) -> tuple[str, int]:
    theta = tuple(float(t) for t in args.theta.split(","))
    if len(theta) != 4 or any(not t > 0.0 for t in theta):
        raise ValueError(f"theta needs four positive cell probabilities, got {args.theta!r}")
    if abs(math.fsum(theta) - 1.0) > 1e-9:
        raise ValueError(f"theta must sum to 1, got {math.fsum(theta)!r}")
    grid = sorted(set(args.grid))
    if grid[0] < 1:
        raise ValueError(f"grid sizes must be positive, got {grid[0]}")
    # a bad --ess is refused before any draw
    flat, split = Jeffreys(), BDeu(ess=args.ess)

    rng = np.random.Generator(np.random.PCG64(args.seed))
    # Cut at the inner edges only: the last cell takes whatever a theta
    # summing just below 1 leaves, so every draw lands in one of the four.
    # A draw's code is the number of cuts at or below it; the int8 codes
    # are the one full-length array, drawn and counted a chunk at a time.
    codes = _in_memory(f"{grid[-1]} random draws", lambda: np.zeros(grid[-1], dtype=np.int8))
    for s in range(0, len(codes), _SUM_CHUNK):
        part = codes[s:s + _SUM_CHUNK]
        draws = _draw(rng, len(part))
        for cut in np.cumsum(theta)[:-1]:
            part += draws >= cut
    rows, cells = [], np.zeros(4, dtype=np.int64)
    for start, n in zip([0] + grid, grid):
        for s in range(start, n, _SUM_CHUNK):
            cells += np.bincount(codes[s:min(s + _SUM_CHUNK, n)], minlength=4)
        _, c01, c10, c11 = cells.tolist()
        m = _pair_margins(n, c10 + c11, c01 + c11, c11)
        rows.append(f"{n},{_fmt(_residual(m, flat))},{_fmt(_residual(m, split))}")
    return _csv("n,residual_jeffreys,residual_bdeu", rows), EXIT_OK


# ----------------------------------------------------------------- parser


def _add_prior_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prior", choices=["jeffreys", "bdeu", "custom"], default="jeffreys",
                     help="hyperparameter strategy (default: jeffreys)")
    sub.add_argument("--ess", type=float, default=1.0,
                     help="equivalent sample size for --prior bdeu (default: 1.0)")
    sub.add_argument("--custom-weight", type=float, default=0.5,
                     help="constant per-cell weight for --prior custom (default: 0.5)")


def _add_output_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", default="-", help="output path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdscore",
        description="Dirichlet-multinomial scores for discrete structure learning: "
        "score subsets, test conditional independence, audit score regularity, "
        "and learn exact structures.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("score", help="marginal or conditional score of a subset spec")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("spec", help="variable spec: 'X,Y' for a subset, 'X|Z,W' for child|parents")
    p.add_argument("--form", choices=["ratio", "local-coupled", "local-independent"],
                   default="ratio", help="conditional form (default: ratio)")
    _add_prior_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_score)

    p = subs.add_parser("entropy", help="empirical conditional entropy of one variable")
    p.add_argument("data")
    p.add_argument("--of", required=True, help="target variable")
    p.add_argument("--given", default="", help="comma-separated conditioning variables")
    p.add_argument("--log-base", choices=["2", "e"], default="e")
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_entropy)

    p = subs.add_parser("citest", help="Bayesian conditional-independence decision")
    p.add_argument("data")
    p.add_argument("--x", required=True, help="first variable group (comma-separated)")
    p.add_argument("--y", required=True, help="second variable group")
    p.add_argument("--z", default="", help="conditioning group, may be empty")
    p.add_argument("--p", type=float, default=0.5, help="prior probability of independence")
    p.add_argument("--log-base", choices=["2", "e"], default="e")
    _add_prior_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_citest)

    p = subs.add_parser("audit", help="scan nested parent sets for regularity violations")
    p.add_argument("data")
    p.add_argument("--child", required=True)
    p.add_argument("--candidates", default="",
                   help="candidate parent pool (default: all other variables)")
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--criterion", choices=["bd", "aic", "bic"], default="bd")
    _add_prior_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_audit)

    p = subs.add_parser("learn", help="exact maximum-score structure")
    p.add_argument("data")
    p.add_argument("--cap", type=int, default=None, help="max parent-set size (default: N-1)")
    p.add_argument("--classes", action="store_true",
                   help="also list the eleven 3-variable class scores (N=3 only)")
    _add_prior_flags(p)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_learn)

    p = subs.add_parser("gen-deterministic",
                        help="emit a dataset where two children are functions of one source")
    p.add_argument("--z-arity", type=int, required=True)
    p.add_argument("--f", type=_parse_int_map, required=True,
                   help="first child's value per source state, comma-separated")
    p.add_argument("--g", type=_parse_int_map, required=True,
                   help="second child's value per source state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--z-seq", type=_parse_int_map,
                       help="explicit source-state sequence")
    group.add_argument("--repeat-each", type=int,
                       help="each source state in order, repeated this many times")
    p.add_argument("--x-arity", type=int, default=None)
    p.add_argument("--y-arity", type=int, default=None)
    _add_output_flag(p)
    p.set_defaults(handler=_cmd_gen_deterministic)

    p = subs.add_parser("experiment", help="seeded sweep experiments (CSV output)")
    esubs = p.add_subparsers(dest="experiment", required=True)

    e = esubs.add_parser("dn-sweep",
                         help="split-weight correction vs 0.5*log2(n) on rare-marginal draws")
    e.add_argument("--seed", type=_parse_seed, default=0)
    e.add_argument("--points", type=int, default=200)
    e.add_argument("--n-min", type=int, default=10)
    e.add_argument("--n-max", type=int, default=1000)
    e.add_argument("--ess", type=float, default=1.0)
    _add_output_flag(e)
    e.set_defaults(handler=_cmd_dn_sweep)

    e = esubs.add_parser("jn-vs-r",
                         help="per-sample score gap of a constant pair vs the number of ones")
    e.add_argument("--n", type=int, default=100)
    e.add_argument("--ess", type=float, default=1.0)
    _add_output_flag(e)
    e.set_defaults(handler=_cmd_jn_vs_r)

    e = esubs.add_parser("residuals",
                         help="expansion residuals over prefix datasets of one stream")
    e.add_argument("--seed", type=_parse_seed, default=0)
    e.add_argument("--theta", default="0.2,0.3,0.2,0.3",
                   help="joint cell probabilities th(0,0),th(0,1),th(1,0),th(1,1)")
    e.add_argument("--grid", type=_parse_int_map, default="100,1000,10000,100000",
                   help="comma-separated prefix sizes")
    e.add_argument("--ess", type=float, default=1.0)
    _add_output_flag(e)
    e.set_defaults(handler=_cmd_residuals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # DataFormatError and InvalidPriorError are ValueErrors.  KeyError is
    # left out on purpose: no input path raises it, so it is a bug and
    # surfaces with its traceback.
    try:
        text, code = args.handler(args)
        _write(text, args.output)
    except (ValueError, UnknownVariableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
