"""End-to-end benchmark of the bdscore command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload learn-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``all`` runs each workload in a fresh process, one after the other.

Each workload is a closed loop: one client in one process issues the
workload's CLI commands back to back through ``bdscore.cli.main(argv)``,
each command writing its report to a file, and repeats the sequence
while the slowest pass so far still fits in ``--seconds`` (at least
once).  Inputs are generated
from ``--seed`` into a temporary directory before timing starts; the
program only ever sees file paths and argv.

Workloads, and why each was chosen:

* ``learn-wide``: exact ``learn`` on 12 binary columns x 1000 rows under
  Jeffreys and BDeu.  4096 distinct marginals over sparse cells load the
  scores, cell decoding in ``counts``, the short gamma-ratio path and the
  search DP, while CSV loading stays idle.
* ``tall-queries``: ``score``, ``citest`` and ``audit`` on one CSV of
  200k rows x 10 columns.  Every command re-parses the file and counts
  scan all rows into few cells, so loading and the row scan dominate.
* ``sweeps``: the paper's three seeded experiments.  Thousands of small
  datasets built from Python lists, 2x2 tables and counts up to the 10^6
  exact-sum threshold; no CSV and no search.

With ``--trace 0`` it reports each command's median time under its own
name (``learn_jeffreys_s``, ``audit_s``, ...) and the end-to-end metrics
that every workload has: the median time of one pass over the commands,
the geometric mean of the commands' medians, set-up time (a fresh
interpreter importing ``bdscore.cli`` and building its parser, median of
several) and the process's peak RSS.  With ``--trace 1`` untraced and
traced passes alternate; the traced passes give per-layer counts and
self times (see ``spans.py``) and the difference between the two gives
the tracing overhead.  Every output is checked (see ``checks.py``); the
share of commands that failed or failed a check is printed as
``error_rate``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run details, the
environment and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PER_PASS = 2
SETUP_SNIPPET = "import bdscore.cli as cli; cli.build_parser()"


@dataclass
class Command:
    """One CLI invocation of a workload, with the checks for its output."""

    metric: str
    kind: str  # which summary in checks.summarize applies
    argv: list[str]
    output: Path
    check: Callable[[str, int], list[str]]  # oracle checks on (output text, exit code)
    times: list[float] = field(default_factory=list)
    verified: dict | None = None  # summary of the first output that passed every check


# -- workloads ------------------------------------------------------------


def learn_wide(seed: int, tmp: Path) -> list[Command]:
    import checks
    import inputs

    planted = inputs.learn_wide_data(seed)
    data = str(inputs.write_planted(planted, tmp, "learn_wide"))
    oracle = checks.CountOracle(planted.names, planted.arities, planted.data)
    commands = []
    for prior, flags in (("jeffreys", ["--prior", "jeffreys"]),
                         ("bdeu", ["--prior", "bdeu", "--ess", "1"])):
        out = tmp / f"learn_{prior}.json"
        commands.append(Command(
            f"learn_{prior}_s", "learn", ["learn", data, *flags, "-o", str(out)], out,
            lambda text, rc, prior=prior: checks.check_learn(
                json.loads(text), oracle, planted.parents, prior)))
    return commands


def tall_queries(seed: int, tmp: Path) -> list[Command]:
    import checks
    import inputs

    planted = inputs.tall_queries_data(seed)
    data = str(inputs.write_planted(planted, tmp, "tall_queries"))
    oracle = checks.CountOracle(planted.names, planted.arities, planted.data)
    out = {k: tmp / f"{k}.json" for k in ("score", "citest", "audit")}
    return [
        Command("score_s", "score",
                ["score", data, "V8|V1,V2", "--prior", "bdeu", "-o", str(out["score"])],
                out["score"],
                lambda text, rc: checks.check_score(json.loads(text), oracle, "V8", ["V1", "V2"])),
        Command("citest_s", "citest",
                ["citest", data, "--x", "V3", "--y", "V4", "--z", "V1,V2", "--prior", "bdeu",
                 "-o", str(out["citest"])],
                out["citest"],
                lambda text, rc: checks.check_citest(
                    json.loads(text), oracle, ["V3"], ["V4"], ["V1", "V2"])),
        Command("audit_s", "audit",
                ["audit", data, "--child", "V8", "--max-parents", "4", "--prior", "bdeu",
                 "-o", str(out["audit"])],
                out["audit"],
                lambda text, rc: checks.check_audit(json.loads(text), rc, oracle, "V8", 4)),
    ]


DN_POINTS, DN_MIN, DN_MAX = 1000, 10, 100_000
JN_N = 2000
RESIDUAL_GRID = [100, 1000, 10_000, 100_000, 1_000_000]


def sweeps(seed: int, tmp: Path) -> list[Command]:
    import checks

    out = {k: tmp / f"{k}.csv" for k in ("dn", "jn", "res")}
    return [
        Command("dn_sweep_s", "dn-sweep",
                ["experiment", "dn-sweep", "--points", str(DN_POINTS), "--n-max", str(DN_MAX),
                 "--seed", str(seed), "-o", str(out["dn"])],
                out["dn"],
                lambda text, rc: checks.check_dn_sweep(text, DN_POINTS, DN_MIN, DN_MAX)),
        Command("jn_vs_r_s", "jn-vs-r",
                ["experiment", "jn-vs-r", "--n", str(JN_N), "-o", str(out["jn"])],
                out["jn"],
                lambda text, rc: checks.check_jn_vs_r(text, JN_N)),
        Command("residuals_s", "residuals",
                ["experiment", "residuals", "--grid", ",".join(map(str, RESIDUAL_GRID)),
                 "--seed", str(seed), "-o", str(out["res"])],
                out["res"],
                lambda text, rc: checks.check_residuals(text, RESIDUAL_GRID)),
    ]


WORKLOADS = {"learn-wide": learn_wide, "tall-queries": tall_queries, "sweeps": sweeps}


# -- running and checking -------------------------------------------------


class Runner:
    """Issues a workload's commands and checks every output."""

    def __init__(self, commands: list[Command], refs: dict) -> None:
        self.commands = commands
        self.refs = refs  # reference summaries by metric, for this workload and seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """Run every command once; return the summed time of its commands."""
        from bdscore import cli

        total = 0.0
        for cmd in self.commands:
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc = cli.main(cmd.argv)
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                rc, crash = None, f"{cmd.metric}: raised {exc!r}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
            total += t1 - t0
            if tracer is None:
                cmd.times.append(t1 - t0)
            problems = [crash] if rc is None else self.check(cmd, rc)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return total

    def check(self, cmd: Command, rc: int) -> list[str]:
        import checks

        allowed = (0, 3) if cmd.kind == "audit" else (0,)
        if rc not in allowed:
            return [f"{cmd.metric}: exit code {rc}"]
        try:
            text = cmd.output.read_text()
            summary = checks.summarize(cmd.kind, text)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{cmd.metric}: unreadable output ({exc!r})"]
        problems = []
        if cmd.metric in self.refs:
            problems += checks.compare_to_ref(cmd.kind, summary, self.refs[cmd.metric])
        if cmd.verified is not None and not checks.compare(summary, cmd.verified):
            return problems  # same output as an earlier one that passed the oracles
        problems += cmd.check(text, rc)
        if not problems:
            cmd.verified = summary
        return problems


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports bdscore.cli and builds the parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # A checkout without .git must not report the commit of a repository above it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
        commit = commit or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit}


def run_timed(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    """Untraced passes while the slowest pass so far still fits in ``seconds``.

    Returns each command's median time under its own name, plus the
    figures every workload has: the median time of a whole pass, the
    geometric mean of the commands' medians (which weighs a slower short
    command as much as a slower long one) and the median set-up time,
    together with the set-up samples.  Set-up is timed before every pass,
    so that its samples spread over the run as the passes do.
    """
    time_setup()  # fills the bytecode caches; not counted
    start = time.perf_counter()
    setup, passes = [], []
    while not passes or time.perf_counter() - start + max(passes) <= seconds:
        setup += [time_setup() for _ in range(SETUP_PER_PASS)]
        passes.append(runner.run_pass())
    out = {cmd.metric: statistics.median(cmd.times) for cmd in runner.commands}
    out["pass_s"] = statistics.median(passes)
    out["command_geomean_s"] = statistics.geometric_mean(out[c.metric] for c in runner.commands)
    out["setup_s"] = statistics.median(setup)
    return out, setup


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    from spans import Tracer, layer_metrics

    spans_path.unlink(missing_ok=True)
    start = time.perf_counter()
    plain, traced, layers = [], [], []
    while not plain or time.perf_counter() - start + max(plain) + max(traced) <= seconds:
        plain.append(runner.run_pass())
        tracer = Tracer()
        traced.append(runner.run_pass(tracer))
        layers.append(layer_metrics(tracer.spans))
        tracer.write(spans_path, f"traced-{len(traced)}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bdscore" / "cli.py").is_file():
        print(f"error: no bdscore sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_times: list[float] = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        commands = WORKLOADS[args.workload](args.seed, Path(tmp))
        refs = checks.load_refs().get(args.workload, {}).get(str(args.seed), {})
        runner = Runner(commands, refs)
        if args.trace:
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            values = run_traced(runner, args.seconds, spans_path)
            wanted = spec["per_layer"]
        else:
            values, setup_times = run_timed(runner, args.seconds)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    per_command = {c.metric: values[c.metric] for c in commands if c.metric in values}
    error_rate = runner.failed / runner.attempted
    env = environment()
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    refs = "recorded" if runner.refs else "none for this seed, oracle checks only"
    print(f"# {label}: {runner.attempted} commands, references {refs}")
    print(f"# env {json.dumps(env)}")
    for c in commands:
        if c.metric in per_command:
            print(f"{c.metric:44s} {per_command[c.metric]:.6g} s (median of {len(c.times)})")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':44s} {error_rate:.6g} fraction")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "metrics": metrics,
              "command_medians_s": per_command, "error_rate": error_rate,
              "setup_samples_s": setup_times,
              "samples_s": {c.metric: c.times for c in commands}, "problems": runner.problems}
    (OUT_DIR / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
