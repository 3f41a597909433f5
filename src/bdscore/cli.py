"""Command-line surface: scoring, CI decisions, audits, learning,
dataset generation, and the sweep experiments behind the package's
claims about split-weight versus flat-weight priors.

Reports are JSON (schema_version field, inputs echoed); sweeps emit
plot-ready CSV.  Every float is printed with repr-faithful precision
(17 significant digits) so re-ingesting a report loses nothing.

Exit codes: 0 success, 2 bad input (unreadable data, unknown variable,
invalid parameter), 3 an audit that found violations.  Finding
violations is a successful run; the distinct code is for scripting.

Randomized subcommands draw from numpy's PCG64 generator with an
explicit 64-bit seed; the same seed and flags give byte-identical
output on any platform.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, TypeVar

import numpy as np

from .citest import _correction, _decide, _margins, _pair_margins, _residual, _statistics
from .dataset import UnknownVariableError, empirical_cond_entropy, load_csv
from .regularity import (
    DeterministicSpec,
    audit,
    j_statistic_profile,
    make_deterministic_dataset,
)
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
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_report(report: dict, path: str | None) -> None:
    _write(_json_text(report) + "\n", path)


def _emit_csv(header: str, rows: list[str], path: str | None) -> None:
    _write("\n".join([header] + rows) + "\n", path)


def _parse_names(text: str | None) -> list[str]:
    if not text:
        return []
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


def _prior(args: argparse.Namespace) -> PriorSpec:
    if args.prior == "jeffreys":
        return Jeffreys()
    if args.prior == "bdeu":
        return BDeu(ess=args.ess)
    return Flat(args.custom_weight)


def _prior_echo(args: argparse.Namespace) -> dict:
    if args.prior == "bdeu":
        return {"kind": "bdeu", "ess": args.ess}
    if args.prior == "custom":
        return {"kind": "custom", "weight": args.custom_weight}
    return {"kind": "jeffreys"}


def _base_report(command: str, args: argparse.Namespace) -> dict:
    report: dict = {"schema_version": SCHEMA_VERSION, "command": command}
    if getattr(args, "data", None) is not None:
        report["dataset"] = args.data
    return report


# ---------------------------------------------------------------- score


def _cmd_score(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    prior = _prior(args)
    report = _base_report("score", args)
    report["prior"] = _prior_echo(args)
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
        report.update({"child": child, "parents": parents, "form": args.form})
    else:
        names = _parse_names(args.spec)
        value = marginal_score(ds, names, prior)
        report["subset"] = names
    report["log_score"] = value
    report["score"] = math.exp(value)
    _emit_report(report, args.output)
    return EXIT_OK


# -------------------------------------------------------------- entropy


def _cmd_entropy(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    given = _parse_names(args.given)
    value = empirical_cond_entropy(ds, args.of, given, base=args.log_base)
    report = _base_report("entropy", args)
    report.update({"of": args.of, "given": given, "log_base": args.log_base, "value": value})
    _emit_report(report, args.output)
    return EXIT_OK


# --------------------------------------------------------------- citest


def _cmd_citest(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    prior = _prior(args)
    xs = _parse_names(args.x)
    ys = _parse_names(args.y)
    zs = _parse_names(args.z)
    query = _margins(ds, xs, ys, zs)
    verdict = _decide(query, prior, args.p)
    stats = _statistics(query, prior, args.log_base)
    report = _base_report("citest", args)
    report.update(
        {
            "prior": _prior_echo(args),
            "x": xs,
            "y": ys,
            "z": zs,
            "p": args.p,
            "independent": verdict.independent,
            "left": verdict.left,
            "right": verdict.right,
            "statistics": {
                "j": stats.j,
                "penalized_mi": stats.penalized_mi,
                "correction": stats.correction,
                "x_arity": stats.x_arity,
                "y_arity": stats.y_arity,
                "z_arity": stats.z_arity,
                "log_base": args.log_base,
            },
        }
    )
    _emit_report(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------- audit


def _cmd_audit(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    prior = _prior(args)
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
    report = _base_report("audit", args)
    report.update(
        {
            "prior": _prior_echo(args),
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
    )
    _emit_report(report, args.output)
    return EXIT_VIOLATIONS if found else EXIT_OK


# ---------------------------------------------------------------- learn


def _cmd_learn(args: argparse.Namespace) -> int:
    ds = load_csv(args.data)
    prior = _prior(args)
    cap = ds.num_variables - 1 if args.cap is None else args.cap
    m = _marginals(ds, prior, cap)
    net = _learn(m)
    report = _base_report("learn", args)
    report.update(
        {
            "prior": _prior_echo(args),
            "cap": cap,
            "parents": {ds.names[v]: [ds.names[p] for p in ps] for v, ps in enumerate(net.parents)},
            "edges": [[ds.names[p], ds.names[v]] for p, v in net.edges()],
            "log_score": _log_score(m, net),
        }
    )
    if args.classes:
        scored = _n3_classes(ds, prior, m if cap >= 2 else None)
        posterior = dict(class_posterior(scored))
        report["classes"] = [
            {"id": label, "log_score": value, "posterior": posterior[label]}
            for label, value in scored
        ]
    _emit_report(report, args.output)
    return EXIT_OK


# ----------------------------------------------------- gen-deterministic


def _cmd_gen_deterministic(args: argparse.Namespace) -> int:
    if args.repeat_each is not None:
        z_seq = tuple(z for z in range(args.z_arity) for _ in range(args.repeat_each))
    else:
        z_seq = args.z_seq
    spec = DeterministicSpec(
        z_arity=args.z_arity,
        f=args.f,
        g=args.g,
        z_sequence=z_seq,
        x_arity=args.x_arity,
        y_arity=args.y_arity,
    )
    ds = make_deterministic_dataset(spec)
    _write(ds.to_csv_text(), args.output)
    return EXIT_OK


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


def _cmd_dn_sweep(args: argparse.Namespace) -> int:
    if args.n_min < 1 or args.n_max < args.n_min or args.points < 1:
        raise ValueError("grid needs 1 <= n-min <= n-max and at least one point")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    grid = _in_memory(f"{args.points} grid points", lambda: [
        int(v) for v in np.rint(np.geomspace(args.n_min, args.n_max, args.points))])
    split = BDeu(ess=args.ess)
    rows = []
    for n in grid:
        p = float(n) ** -0.75
        x, y = _draw(rng, n) < p, _draw(rng, n) < p
        m = _pair_margins(n, np.count_nonzero(x), np.count_nonzero(y), np.count_nonzero(x & y))
        correction = _correction(m, split) / math.log(2.0)
        threshold = 0.5 * math.log2(n)
        above = 1 if correction > threshold else 0
        rows.append(f"{n},{_fmt(correction)},{_fmt(threshold)},{above}")
    _emit_csv("n,correction,threshold,above", rows, args.output)
    return EXIT_OK


def _cmd_jn_vs_r(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"n must be at least 1, got {args.n}")
    split = BDeu(ess=args.ess)
    flat = Jeffreys()
    rows = []
    for r in range(args.n // 2 + 1):
        j_split = j_statistic_profile(args.n, r, split)
        j_flat = j_statistic_profile(args.n, r, flat)
        rows.append(f"{r},{_fmt(j_split)},{_fmt(j_flat)}")
    _emit_csv("r,j_bdeu,j_jeffreys", rows, args.output)
    return EXIT_OK


def _cmd_residuals(args: argparse.Namespace) -> int:
    theta = tuple(float(t) for t in args.theta.split(","))
    if len(theta) != 4 or any(not t > 0.0 for t in theta):
        raise ValueError(f"theta needs four positive cell probabilities, got {args.theta!r}")
    if abs(math.fsum(theta) - 1.0) > 1e-9:
        raise ValueError(f"theta must sum to 1, got {math.fsum(theta)!r}")
    grid = sorted(set(args.grid))
    if grid[0] < 1:
        raise ValueError(f"grid sizes must be positive, got {grid[0]}")

    rng = np.random.Generator(np.random.PCG64(args.seed))
    # Cut at the inner edges only: the last cell takes whatever a theta
    # summing just below 1 leaves, so every draw lands in one of the four.
    codes = np.searchsorted(np.cumsum(theta)[:-1], _draw(rng, grid[-1]), side="right")
    flat, split = Jeffreys(), BDeu(ess=args.ess)
    rows, cells = [], np.zeros(4, dtype=np.int64)
    for start, n in zip([0] + grid, grid):
        cells += np.bincount(codes[start:n], minlength=4)
        _, c01, c10, c11 = cells.tolist()
        m = _pair_margins(n, c10 + c11, c01 + c11, c11)
        rows.append(f"{n},{_fmt(_residual(m, flat))},{_fmt(_residual(m, split))}")
    _emit_csv("n,residual_jeffreys,residual_bdeu", rows, args.output)
    return EXIT_OK


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
        return args.handler(args)
    except (ValueError, UnknownVariableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
